import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import fairdrop as fd
import fairdrop.oracle
from fairdrop.model import MaskedForward
from fairdrop.search import penalized_cost

settings.register_profile(
    "ci", derandomize=True, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")
_criterion_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if match and report.when == "call":
        label = f"criterion {match.group(1)} ({match.group(2)})"
        _criterion_outcomes[label] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for label in sorted(_criterion_outcomes):
        terminalreporter.write_line(f"{label}: {_criterion_outcomes[label]}")


@pytest.fixture(scope="session")
def small_instance():
    """A trained [6,8,8,1] model with its split, reused across test modules."""
    data = fd.synthesize_biased(1500, 6, 0.8, seed=21)
    parts = fd.split(data, 5)
    model = fd.train(parts, fd.MlpArchitecture((6, 8, 8, 1)),
                     fd.TrainConfig(learning_rate=0.3, epochs=25, batch_size=64,
                                    train_dropout_prob=0.1, seed=4))
    params = fd.baseline_cost_params(model, parts.validation, p=3.0, t=0.98)
    return parts, model, params


def random_small_model(rng: fd.XorShift64Star, sizes) -> fd.MlpModel:
    """Random weights in [-1, 1] for property tests over tiny architectures."""
    arch = fd.MlpArchitecture(tuple(sizes))
    weights = []
    biases = []
    for i in range(len(sizes) - 1):
        w = rng.uniform_block(sizes[i + 1] * sizes[i]).reshape(sizes[i + 1], sizes[i])
        weights.append(2.0 * w - 1.0)
        biases.append(2.0 * rng.uniform_block(sizes[i + 1]) - 1.0)
    return fd.MlpModel(arch, weights, biases)


def reference_logits(model: fd.MlpModel, features, mask=None) -> np.ndarray:
    """Logits from a plain forward pass: fresh arrays per layer and the
    dropped units zeroed by assignment."""
    A = np.asarray(features, dtype=np.float64)
    for i, units in enumerate(model.masked_units_per_layer(mask)):
        A = np.maximum(A @ model.weights[i].T + model.biases[i], 0.0)
        A[:, units] = 0.0
    return (A @ model.weights[-1].T + model.biases[-1]).ravel()


def reference_predictions(model: fd.MlpModel, features, mask=None) -> np.ndarray:
    """0/1 predictions ``sigmoid(z) >= 0.5`` of ``reference_logits``."""
    return (fd.model._sigmoid(reference_logits(model, features, mask)) >= 0.5).astype(np.int64)


def reference_price(model: fd.MlpModel, data: fd.TabularDataset, state, params) -> tuple:
    """(cost, EOD, F1) of ``state`` from ``reference_predictions`` and the
    reference metrics."""
    preds = reference_predictions(model, data.features, state)
    eod = fd.fairness(preds, data.labels, data.protected).eod
    f1_s = fd.f1(fd.confusion(preds, data.labels))
    return penalized_cost(eod, f1_s, params), eod, f1_s


class Passes(list):
    """One entry per mask re-run through the whole exact pass; ``settled``
    has one per mask that the row check settled instead."""

    settled: list


@pytest.fixture
def fallbacks(monkeypatch):
    """How many masks ``CostEvaluator.price`` or ``evaluate_many``, or
    ``fairdrop.oracle.price_space``, re-ran through the whole exact pass,
    and in ``.settled`` how many the row check (``MaskedForward._settled``)
    settled on their doubtful rows alone; the exact pass that ``predict``
    runs is not counted."""
    calls, running = Passes(), []
    calls.settled = []
    exact, settled = MaskedForward._exact, MaskedForward._settled

    def counted_exact(self, keep_row, rows=None):
        if rows is None:
            calls.extend(running)
        return exact(self, keep_row, rows)

    def counted_settled(self, *args):
        done = settled(self, *args)
        if done:
            calls.settled.extend(running)
        return done

    def counting(method):
        def counted(*args):
            running.append(1)
            try:
                return method(*args)
            finally:
                running.pop()
        return counted
    monkeypatch.setattr(MaskedForward, "_exact", counted_exact)
    monkeypatch.setattr(MaskedForward, "_settled", counted_settled)
    monkeypatch.setattr(fd.CostEvaluator, "price", counting(fd.CostEvaluator.price))
    monkeypatch.setattr(fd.CostEvaluator, "evaluate_many",
                        counting(fd.CostEvaluator.evaluate_many))
    monkeypatch.setattr(fairdrop.oracle, "price_space", counting(fairdrop.oracle.price_space))
    return calls


def valid_flip_positions(state: fd.DropoutState, bounds: fd.SearchSpaceBounds) -> list[int]:
    """The bit positions ``generate_neighbor`` draws from, found by flipping
    each one: a flip that lowers the weight must not take it below n_l, and
    one that raises it must not take it above n_u.  From a state inside the
    bounds, these are the flips that keep the weight inside them."""
    flips = []
    for i in range(state.n):
        weight = state.flip(i).weight
        if (bounds.n_l <= weight) if weight < state.weight else (weight <= bounds.n_u):
            flips.append(i)
    return flips


def model_document(hidden: int = 2, output_bias: float = 0.0) -> dict:
    """A valid model file's document for a [6, hidden, 1] model: every hidden
    unit sums the six inputs, and the output sums the hidden units plus
    ``output_bias``."""
    return {"format_version": 1,
            "layer_sizes": [6, hidden, 1],
            "layers": [{"weights": [[1.0] * 6 for _ in range(hidden)], "bias": [0.0] * hidden},
                       {"weights": [[1.0] * hidden], "bias": [output_bias]}],
            "neuron_order": [[0, unit] for unit in range(hidden)]}


def _edited_model(**fields) -> str:
    return json.dumps({**model_document(), **fields})


def _ragged_layers() -> list:
    layers = model_document()["layers"]
    layers[0]["weights"][1].pop()
    return layers


def _retyped_layers(**value) -> list:
    """The layers with one weight of the first layer, or the output bias,
    replaced by ``value["weight"]`` or ``value["bias"]``."""
    layers = model_document()["layers"]
    if "weight" in value:
        layers[0]["weights"][1][3] = value["weight"]
    if "bias" in value:
        layers[1]["bias"][0] = value["bias"]
    return layers


# Each malformed model file, by case: its text and a fragment of its error.
MALFORMED_MODEL_FILES = {
    "not JSON": ("{not json", "not valid JSON"),
    "top-level list": (json.dumps([model_document()]), "not a model file of format_version 1"),
    "layer without bias": (_edited_model(layers=[{"weights": [[1.0] * 6] * 2},
                                                 model_document()["layers"][1]]),
                           "missing field 'bias'"),
    "layers is a number": (_edited_model(layers=5), ""),
    "layer is a list": (_edited_model(layers=[[[1.0] * 6] * 2, model_document()["layers"][1]]),
                        ""),
    "layer_sizes is a number": (_edited_model(layer_sizes=7), ""),
    "zero layer size": (_edited_model(layer_sizes=[6, 0, 8, 1]), "layer sizes must be >= 1"),
    "infinite layer size": (_edited_model(layer_sizes=[6, float("inf"), 1]), ""),
    "ragged weight row": (_edited_model(layers=_ragged_layers()), ""),
    "null neuron_order": (_edited_model(neuron_order=None), ""),
    "fractional layer size": (_edited_model(layer_sizes=[6.9, 2, 1]),
                              "layer size must be an integer, got 6.9"),
    "boolean layer size": (_edited_model(layer_sizes=[True, 2, 1]),
                           "layer size must be an integer, got True"),
    "fractional neuron_order entry": (_edited_model(neuron_order=[[0, 0.5], [0, 1]]),
                                      "neuron_order entry must be an integer, got 0.5"),
    "boolean weight": (_edited_model(layers=_retyped_layers(weight=True)),
                       "layer 0 weights must hold only numbers, got True"),
    "string weight": (_edited_model(layers=_retyped_layers(weight="0.5")),
                      "layer 0 weights must hold only numbers, got '0.5'"),
    "null weight": (_edited_model(layers=_retyped_layers(weight=None)),
                    "layer 0 weights must hold only numbers, got None"),
    "boolean bias": (_edited_model(layers=_retyped_layers(bias=False)),
                     "layer 1 bias must hold only numbers, got False"),
    "string bias": (_edited_model(layers=_retyped_layers(bias="0.5")),
                    "layer 1 bias must hold only numbers, got '0.5'"),
    "null bias": (_edited_model(layers=_retyped_layers(bias=None)),
                  "layer 1 bias must hold only numbers, got None"),
}


def schema_document() -> dict:
    """A valid dataset schema document: two numerical features, a 0/1
    protected column and a 0/1 label."""
    return {"columns": ["f0", "f1", "group", "label"],
            "categorical": [],
            "numerical": ["f0", "f1"],
            "protected": {"column": "group", "values": {"0": 0, "1": 1}},
            "label": {"column": "label", "values": {"0": 0, "1": 1}},
            "scaling": "min_max",
            "drop_protected_from_features": False}


def _edited_schema(**fields) -> str:
    return json.dumps({**schema_document(), **fields})


# Each malformed schema file, by case: its text and a fragment of its error.
MALFORMED_SCHEMA_FILES = {
    "not JSON": ('{"columns": [}', ""),
    "top-level list": (json.dumps([schema_document()]), ""),
    "values is a list": (_edited_schema(protected={"column": "group", "values": ["0", "1"]}),
                         ""),
    "protected is a string": (_edited_schema(protected="group"), ""),
    "columns is a number": (_edited_schema(columns=5), "columns must be a list of column names"),
    "numerical is a string": (_edited_schema(numerical="f0"),
                              "numerical must be a list of column names"),
    "label value not a number": (_edited_schema(label={"column": "label",
                                                       "values": {"0": 0, "1": "yes"}}), ""),
    "infinite label value": (_edited_schema(label={"column": "label",
                                                   "values": {"0": 0, "1": float("inf")}}), ""),
    "missing label": (json.dumps({k: v for k, v in schema_document().items() if k != "label"}),
                      "missing key 'label'"),
    "flag is a string": (_edited_schema(drop_protected_from_features="false"),
                         "drop_protected_from_features must be true or false, got 'false'"),
    "fractional label value": (_edited_schema(label={"column": "label",
                                                     "values": {"0": 0, "1": 1.9}}),
                               "label value for '1' must be an integer, got 1.9"),
}
