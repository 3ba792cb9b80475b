"""The public surface: what ``import fairdrop`` exports, what was deleted, and
the module-level names that the benchmark and the acceptance module reach
by name."""

import dataclasses
import importlib
import types

import pytest

import fairdrop
import fairdrop.cli
import fairdrop.model
import fairdrop.oracle
import fairdrop.search

EXPORTS = [
    "ConfusionCounts", "CostEvaluator", "CostParams", "DEFAULT_ENUMERATION_BUDGET",
    "DataError", "DatasetSchema", "DropoutState", "EnumerationBudgetError", "MlpArchitecture",
    "MlpModel", "ModelFormatError", "ParseError", "SchemaError", "SearchConfig",
    "SearchResult", "SearchSpaceBounds", "SearchSpaceError", "ShapeError", "SplitDataset",
    "SplitSizeError", "TabularDataset", "TrainConfig", "TrainingError", "XorShift64Star",
    "accuracy", "baseline_cost_params", "confusion", "f1", "fairness", "load_csv",
    "load_model", "predict_batch", "run_search", "save_model", "single_neuron_baseline",
    "split", "synthesize_biased", "train",
]

DELETED = [
    ("model", "forward"),
    ("model", "predict_proba"),
    ("search", "estimate_initial_temperature"),
    ("search", "SearchSpaceBounds.contains_weight"),
    ("search", "DropoutState.bit"),
    ("metrics", "FairnessReport.to_flat_dict"),
    ("dataset", "SPLIT_FRACTIONS"),
    ("dataset", "DatasetSchema.feature_columns"),
    ("search", "CostEvaluator.price_many"),
    ("search", "CostEvaluator.batch_size"),
    ("metrics", "cell_counts"),
]

# perfbench/tracer.py wraps these by name (a missing one stops a traced run
# in ``install``), perfbench/test_perfbench.py calls ``iter_states``, and
# tests/test_acceptance.py imports the rest.
KEPT = [
    ("prng", "XorShift64Star.uniform_block"),
    ("dataset", "synthesize_biased"), ("dataset", "split"),
    ("model", "train"), ("model", "predict_batch"), ("model", "save_model"),
    ("model", "load_model"),
    ("metrics", "confusion"), ("metrics", "fairness"), ("metrics", "f1"),
    ("metrics", "accuracy"),
    ("search", "CostEvaluator.evaluate"), ("search", "generate_neighbor"),
    ("search", "run_search"), ("search", "baseline_cost_params"),
    ("search", "write_trace_csv"),
    ("oracle", "enumerate_best"), ("oracle", "census"), ("oracle", "per_state_cost_rows"),
    ("oracle", "single_neuron_baseline"), ("oracle", "iter_states"),
    ("cli", "main"),
    ("ioutil", "atomic_write_text"),
    ("search", "CostParams"), ("search", "SearchConfig"), ("search", "SearchSpaceBounds"),
    ("search", "TemperatureSchedule"), ("search", "_fit_temperature"),
    ("search", "_mean_acceptance"), ("search", "_sample_positive_transitions"),
    ("search", "penalized_cost"), ("search", "valid_flip_positions"),
]


def resolve(module: str, dotted: str):
    obj = importlib.import_module(f"fairdrop.{module}")
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


def test_package_exports():
    exported = sorted(name for name, value in vars(fairdrop).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == sorted(EXPORTS)


@pytest.mark.parametrize("module,dotted", DELETED)
def test_deleted_name_is_gone(module, dotted):
    with pytest.raises(AttributeError):
        resolve(module, dotted)


def test_deleted_fields_are_gone():
    assert [f.name for f in dataclasses.fields(fairdrop.search.DropoutState)] == ["n", "bits"]
    assert "config" not in {f.name for f in dataclasses.fields(fairdrop.search.SearchResult)}
    split_fields = {f.name for f in dataclasses.fields(fairdrop.SplitDataset)}
    assert not {"fractions", "split_seed"} & split_fields


@pytest.mark.parametrize("module,dotted", KEPT)
def test_name_used_by_benchmark_or_acceptance_resolves(module, dotted):
    assert callable(resolve(module, dotted))


def test_predict_batch_bound_once():
    # the benchmark counts report predictions by patching these bindings
    assert (fairdrop.search.predict_batch is fairdrop.oracle.predict_batch
            is fairdrop.cli.predict_batch is fairdrop.model.predict_batch)
