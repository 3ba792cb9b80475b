"""Repair the biased baseline by annealing over dropout masks.

The search prices each mask on the validation split with
cost = EOD + penalty when F1 falls below 98% of the baseline, then anneals
under the logarithmic cooling schedule.  It runs in 1.1-1.5 s on a 2-core
Xeon with Python 3.11, numpy 2.4 and OpenBLAS on one thread.

Run with: python demos/03_repair_with_annealing.py
"""

from fairdrop import (MlpArchitecture, SearchConfig, SearchSpaceBounds, TrainConfig,
                      accuracy, baseline_cost_params, confusion, f1, fairness,
                      predict_batch, run_search, split, synthesize_biased, train)

data = synthesize_biased(n_rows=10_000, n_features=10, bias_strength=0.8, seed=7)
parts = split(data, seed=11)
model = train(parts, MlpArchitecture((10, 16, 16, 1)),
              TrainConfig(learning_rate=0.3, epochs=30, batch_size=128,
                          train_dropout_prob=0.1, seed=1))

params = baseline_cost_params(model, parts.validation, p=3.0, t=0.98)
print(f"baseline: validation EOD {params.eod_baseline:.2%}, F1 {params.f1_baseline:.3f}")
print(f"F1 floor: {params.f1_floor:.3f} (t = 0.98)\n")

config = SearchConfig(
    alg_type="sa",
    bounds=SearchSpaceBounds(n_total=model.hidden_total, n_l=2, n_u=8),
    cost_params=params,
    seed=1,
    max_iterations=20_000,
)
result = run_search(model, parts.validation, config)

print(f"fitted initial temperature: {result.t0:.4f}")
print(f"evaluated {result.evaluations} distinct masks over {len(result.trace)} iterations")
print(f"best mask drops neurons {result.best_state.indices()} "
      f"(weight {result.best_state.weight}, key {result.best_state.key_hex()})")
print(f"best cost {result.best_cost:.4f}; run "
      f"{'met' if result.success else 'VIOLATED'} the F1 floor\n")

for name, subset in (("validation", parts.validation), ("test", parts.test)):
    before = predict_batch(model, subset)
    after = predict_batch(model, subset, result.best_state)
    eod_b = fairness(before, subset.labels, subset.protected).eod
    eod_a = fairness(after, subset.labels, subset.protected).eod
    f1_b = f1(confusion(before, subset.labels))
    f1_a = f1(confusion(after, subset.labels))
    acc_a = accuracy(confusion(after, subset.labels))
    print(f"{name:>10}: EOD {eod_b:.2%} -> {eod_a:.2%}   "
          f"F1 {f1_b:.3f} -> {f1_a:.3f}   accuracy {acc_a:.3f}")

# the best-cost column of the trace is non-increasing by construction
milestones = [result.trace[i] for i in (0, 99, 999, 9_999, 19_999)]
print("\nbest cost over time:")
for r in milestones:
    print(f"  iteration {r.iteration:>6}: {r.best_cost:.4f} (T = {r.temperature:.4f})")
