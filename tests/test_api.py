"""The public surface: what ``import fairdrop`` exports, what was deleted,
the module-level names that the benchmark and the acceptance module reach
by name, and that no definition is there for the tests alone."""

import ast
import dataclasses
import importlib
import re
import types
from pathlib import Path

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
    ("model", "MaskedForward.predict_many"),
    ("model", "MaskedForward._batch_logits"),
    ("search", "valid_flip_positions"),
    ("search", "CostEvaluator.prefetch"),
    ("search", "DropoutState.empty"),
    ("metrics", "positive_cells"),
    ("metrics", "group_label_key"),
    ("model", "MaskedForward.keep"),
    ("oracle", "_subset_blocks"),
    ("oracle", "_set_keys"),
    ("oracle", "_position_bits"),
    ("search", "CostEvaluator._positives"),
    ("search", "CostEvaluator._output"),
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
    ("search", "penalized_cost"),
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


def test_deleted_fields_are_gone(small_instance):
    parts, model, params = small_instance
    assert [f.name for f in dataclasses.fields(fairdrop.search.DropoutState)] == ["n", "bits"]
    result_fields = {f.name for f in dataclasses.fields(fairdrop.search.SearchResult)}
    assert not {"config", "best_f1", "initial_state"} & result_fields
    assert not hasattr(fairdrop.CostEvaluator(model, parts.validation, params), "model")
    split_fields = {f.name for f in dataclasses.fields(fairdrop.SplitDataset)}
    assert not {"fractions", "split_seed"} & split_fields


@pytest.mark.parametrize("module,dotted", KEPT)
def test_name_used_by_benchmark_or_acceptance_resolves(module, dotted):
    assert callable(resolve(module, dotted))


def test_predict_batch_bound_once():
    # the benchmark counts report predictions by patching these bindings
    assert (fairdrop.search.predict_batch is fairdrop.oracle.predict_batch
            is fairdrop.cli.predict_batch is fairdrop.model.predict_batch)


def _referenced_names(tree: ast.AST) -> set[str]:
    """The names code in ``tree`` reads, calls or imports: every name, every
    attribute, every imported name; docstrings are string constants, so
    they do not count, and neither do attributes of a module from outside
    the project (``np.empty`` does not name ``DropoutState.empty``)."""
    foreign = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names
               if alias.name.partition(".")[0] not in ("fairdrop", "perfbench")}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _definitions(tree: ast.Module):
    """(dotted name, bare name) of each function, method and class in
    ``tree``; dunder methods run without being named, so they are left out."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dotted = f"{prefix}{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    yield dotted, child.name
                yield from walk(child, f"{dotted}.")
    yield from walk(tree, "")


def test_every_definition_is_used_outside_the_tests():
    # a production path that only tests call is dead weight: every function,
    # method and class must be named by code in the package, the demos or
    # the benchmark, or by the README, unless KEPT lists it
    root = Path(__file__).resolve().parents[1]
    package = {path: ast.parse(path.read_text())
               for path in (root / "src" / "fairdrop").glob("*.py")}
    used = set().union(*map(_referenced_names, package.values()))
    for path in [*(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]:
        used |= _referenced_names(ast.parse(path.read_text()))
    used |= set(re.findall(r"\w+", (root / "README.md").read_text()))
    kept = {(module, dotted) for module, dotted in KEPT}
    unused = [f"{path.stem}.{dotted}" for path, tree in package.items()
              for dotted, name in _definitions(tree)
              if name not in used and (path.stem, dotted) not in kept]
    assert unused == []
