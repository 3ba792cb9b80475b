import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import fairdrop as fd

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


def bounds(n, lo, hi) -> fd.SearchSpaceBounds:
    """Weight window [lo, hi] over n neurons, without the warning that
    fixed-weight windows (lo == hi) draw."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fd.SearchSpaceBounds(n_total=n, n_l=lo, n_u=hi)


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
