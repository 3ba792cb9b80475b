"""Ground-truth the search on an enumerable instance.

A [6,8,8,1] network has 16 hidden neurons; with 2 to 4 drops allowed the
space holds exactly 2,500 masks, small enough to brute-force.  We enumerate
the global optimum, take a census of the space, compare annealing and the
random walk against the truth, and run the single-neuron-drop baseline.
The optimum and the census both come from one pricing pass over the space.

Run with: python demos/04_oracle_census.py
"""

from fairdrop import (MlpArchitecture, SearchConfig, SearchSpaceBounds, TrainConfig,
                      baseline_cost_params, run_search, split, synthesize_biased, train)
from fairdrop.oracle import price_space, single_neuron_baseline

data = synthesize_biased(n_rows=1_500, n_features=6, bias_strength=0.8, seed=21)
parts = split(data, seed=5)
model = train(parts, MlpArchitecture((6, 8, 8, 1)),
              TrainConfig(learning_rate=0.3, epochs=25, batch_size=64,
                          train_dropout_prob=0.1, seed=4))
params = baseline_cost_params(model, parts.validation, p=3.0, t=0.98)
bounds = SearchSpaceBounds(n_total=16, n_l=2, n_u=4)

print(f"baseline validation EOD {params.eod_baseline:.2%}, F1 {params.f1_baseline:.3f}")
print(f"space cardinality: {bounds.size()} masks\n")

space = price_space(model, parts.validation, bounds, params)  # every mask, priced once
best_state, best_cost = space.best()
print(f"brute-force optimum: cost {best_cost:.4f}, "
      f"mask {best_state.key_hex()} drops {best_state.indices()}")

counts = space.census()
print(f"census: {counts.best_count} best, {counts.good_count} good "
      f"(within {counts.good_margin} of optimum), {counts.bad_count} bad "
      f"(F1 below {counts.f1_floor:.3f})")
print(f"good states occupy {counts.good_likelihood:.1%} of the space; "
      f"{counts.bad_likelihood:.1%} of it is bad\n")

for alg in ("sa", "rw"):
    hits = 0
    for seed in range(1, 6):
        result = run_search(model, parts.validation,
                            SearchConfig(alg_type=alg, bounds=bounds, cost_params=params,
                                         seed=seed, max_iterations=5_000))
        hits += result.best_cost == best_cost
        assert result.best_cost >= best_cost  # the oracle dominates, always
    print(f"{alg} found the exact optimum in {hits}/5 seeds")

single = single_neuron_baseline(model, parts.validation, parts.test, params)
print(f"\nbest single-neuron drop: layer {single['layer']} unit {single['unit']}, "
      f"cost {single['cost']:.4f} vs multi-neuron optimum {best_cost:.4f}")
print("dropping one neuron cannot beat a well-chosen subset.")
