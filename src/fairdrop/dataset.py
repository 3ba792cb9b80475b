"""Tabular data ingestion, encoding, seeded splitting, and a synthetic biased benchmark.

A :class:`DatasetSchema` declares how a raw CSV maps onto the model's view of
the world: which columns are categorical or numerical features, which column
carries the binary protected-group attribute, and which carries the binary
label.  :func:`load_csv` applies the schema (one-hot expansion, min-max or
standard scaling, binarization of protected/label columns) and returns a
:class:`TabularDataset`.  :func:`split` produces a deterministic 60/20/20
train/validation/test partition, and :func:`synthesize_biased` generates a
reproducible dataset whose favorable-outcome rate differs between groups by a
controllable margin, used as a benchmark when no real data is at hand.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .ioutil import atomic_write_text, json_integer
from .prng import XorShift64Star

SCALING_MODES = ("min_max", "standard")


class SchemaError(ValueError):
    """Schema is internally inconsistent or does not match the file."""


class DataError(ValueError):
    """A cell value has no mapping under the schema."""


class ParseError(ValueError):
    """A cell could not be parsed as the declared type."""


class SplitSizeError(ValueError):
    """Dataset too small to partition."""


@dataclass(frozen=True)
class DatasetSchema:
    """Declarative description of a raw CSV file.

    ``categorical_columns`` and ``numerical_columns`` must be disjoint and
    together cover every column except the protected and label columns, which
    are binarized through their value mappings instead.  When
    ``drop_protected_from_features`` is false (the default) the binarized
    protected column is kept as a model input at its original position.
    """

    column_names: tuple[str, ...]
    categorical_columns: frozenset[str]
    numerical_columns: frozenset[str]
    protected_column: str
    protected_values: dict[str, int]
    label_column: str
    label_values: dict[str, int]
    scaling: str = "min_max"
    drop_protected_from_features: bool = False

    def __post_init__(self):
        names = set(self.column_names)
        if len(names) != len(self.column_names):
            raise SchemaError("duplicate column names")
        if self.protected_column == self.label_column:
            raise SchemaError("protected and label columns must be distinct")
        for col in (self.protected_column, self.label_column):
            if col not in names:
                raise SchemaError(f"column {col!r} not in column_names")
        special = {self.protected_column, self.label_column}
        feature_cols = names - special
        if self.categorical_columns & self.numerical_columns:
            overlap = sorted(self.categorical_columns & self.numerical_columns)
            raise SchemaError(f"columns declared both categorical and numerical: {overlap}")
        declared = self.categorical_columns | self.numerical_columns
        if declared != feature_cols:
            missing = sorted(feature_cols - declared)
            extra = sorted(declared - feature_cols)
            raise SchemaError(f"feature columns not covered exactly (missing={missing}, extra={extra})")
        if self.scaling not in SCALING_MODES:
            raise SchemaError(f"unknown scaling mode {self.scaling!r}")
        for name, mapping in (("protected", self.protected_values), ("label", self.label_values)):
            if not mapping:
                raise SchemaError(f"empty {name} value mapping")
            if not set(mapping.values()) <= {0, 1}:
                raise SchemaError(f"{name} values must map to 0 or 1")

    def to_dict(self) -> dict:
        return {
            "columns": list(self.column_names),
            "categorical": sorted(self.categorical_columns),
            "numerical": sorted(self.numerical_columns),
            "protected": {"column": self.protected_column, "values": dict(self.protected_values)},
            "label": {"column": self.label_column, "values": dict(self.label_values)},
            "scaling": self.scaling,
            "drop_protected_from_features": self.drop_protected_from_features,
        }

    @classmethod
    def from_dict(cls, raw) -> "DatasetSchema":
        """The schema that a ``to_dict`` document describes; any fault in the
        document is a SchemaError."""
        try:
            return cls(
                column_names=_names(raw, "columns"),
                categorical_columns=frozenset(_names(raw, "categorical")),
                numerical_columns=frozenset(_names(raw, "numerical")),
                protected_column=raw["protected"]["column"],
                protected_values=_mapping(raw, "protected"),
                label_column=raw["label"]["column"],
                label_values=_mapping(raw, "label"),
                scaling=raw.get("scaling", "min_max"),
                drop_protected_from_features=_flag(raw, "drop_protected_from_features"),
            )
        except KeyError as exc:
            raise SchemaError(f"schema document missing key {exc}") from exc
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"schema document: {exc}") from exc

    @classmethod
    def load(cls, path) -> "DatasetSchema":
        """Read a schema file; any fault in it is a SchemaError naming it."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:  # not JSON, or a SchemaError
                raise SchemaError(f"{path}: {exc}") from exc

    def dump(self, path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def _names(raw: dict, key: str) -> tuple[str, ...]:
    """The column names listed under ``key``: a string is not a list of them."""
    names = raw[key]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise SchemaError(f"{key} must be a list of column names, got {names!r}")
    return tuple(names)


def _mapping(raw: dict, key: str) -> dict[str, int]:
    """The value mapping of the ``key`` column: each mapped value an integer."""
    return {str(k): json_integer(v, f"{key} value for {k!r}")
            for k, v in raw[key]["values"].items()}


def _flag(raw: dict, key: str) -> bool:
    """An optional true/false setting, false when absent: a string is not one."""
    value = raw.get(key, False)
    if not isinstance(value, bool):
        raise SchemaError(f"{key} must be true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class TabularDataset:
    """Encoded feature matrix with binary labels and protected-group bits."""

    features: np.ndarray
    labels: np.ndarray
    protected: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.protected.shape != (n,):
            raise ValueError("features, labels and protected must have equal row counts")
        if self.features.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length must match feature columns")
        if n and not np.isfinite(self.features).all():
            raise ValueError("encoded features must be finite")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "TabularDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return TabularDataset(self.features[idx], self.labels[idx],
                              self.protected[idx], self.feature_names)


@dataclass(frozen=True)
class SplitDataset:
    """Deterministic 60/20/20 partition of a dataset."""

    train: TabularDataset
    validation: TabularDataset
    test: TabularDataset
    train_indices: tuple[int, ...]
    validation_indices: tuple[int, ...]
    test_indices: tuple[int, ...]


def _map_column(values: list[str], mapping: dict[str, int], column: str) -> np.ndarray:
    out = np.empty(len(values), dtype=np.int64)
    for i, v in enumerate(values):
        if v not in mapping:
            raise DataError(f"value {v!r} in column {column!r} has no mapping (row {i + 1})")
        out[i] = mapping[v]
    return out


def _parse_numeric(values: list[str], column: str) -> np.ndarray:
    out = np.empty(len(values), dtype=np.float64)
    for i, v in enumerate(values):
        try:
            out[i] = float(v)
        except ValueError as exc:
            raise ParseError(f"non-numeric value {v!r} in column {column!r} (row {i + 1})") from exc
        if not math.isfinite(out[i]):
            raise ParseError(f"non-finite value {v!r} in column {column!r} (row {i + 1})")
    return out


def _scale(col: np.ndarray, mode: str) -> np.ndarray:
    # Statistics over the full dataset, population variance; constant columns
    # encode to 0 to avoid division by zero.
    if mode == "min_max":
        lo, hi = col.min(), col.max()
        if hi == lo:
            return np.zeros_like(col)
        return (col - lo) / (hi - lo)
    mean, std = col.mean(), col.std()
    if std == 0.0:
        return np.zeros_like(col)
    return (col - mean) / std


def load_csv(path, schema: DatasetSchema) -> TabularDataset:
    """Read an RFC-4180-style CSV (header row required) under `schema`.

    Categorical columns are one-hot expanded (categories in sorted order,
    named ``column=value``), numerical columns are scaled per the schema, and
    the protected and label columns are binarized by their value mappings.
    A header that does not match ``schema.column_names`` exactly is rejected,
    which also stops already-encoded output from being encoded twice.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        rows = list(reader)
    if tuple(header) != tuple(schema.column_names):
        raise SchemaError(f"{path}: header {header} does not match schema columns "
                          f"{list(schema.column_names)}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(schema.column_names)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{path}: row {i + 1} has {len(row)} fields, expected {width}")

    columns = {name: [row[j] for row in rows] for j, name in enumerate(schema.column_names)}
    labels = _map_column(columns[schema.label_column], schema.label_values, schema.label_column)
    protected = _map_column(columns[schema.protected_column], schema.protected_values,
                            schema.protected_column)

    blocks: list[np.ndarray] = []
    names: list[str] = []
    for name in schema.column_names:
        if name == schema.label_column:
            continue
        if name == schema.protected_column:
            if not schema.drop_protected_from_features:
                blocks.append(protected.astype(np.float64).reshape(-1, 1))
                names.append(name)
            continue
        if name in schema.numerical_columns:
            blocks.append(_scale(_parse_numeric(columns[name], name), schema.scaling).reshape(-1, 1))
            names.append(name)
        else:
            values = sorted(set(columns[name]))
            onehot = np.zeros((len(rows), len(values)), dtype=np.float64)
            index = {v: k for k, v in enumerate(values)}
            for i, v in enumerate(columns[name]):
                onehot[i, index[v]] = 1.0
            blocks.append(onehot)
            names.extend(f"{name}={v}" for v in values)

    features = np.hstack(blocks) if blocks else np.zeros((len(rows), 0))
    return TabularDataset(features, labels, protected, tuple(names))


def split(data: TabularDataset, seed: int) -> SplitDataset:
    """Shuffled 60/20/20 partition, a pure function of (data, seed).

    Train takes floor(0.6 n) rows, validation floor(0.2 n), test the rest.
    The shuffle is the pinned Fisher-Yates of :mod:`fairdrop.prng`; each
    split keeps its rows in ascending original order.
    """
    n = data.n_rows
    if n < 5:
        raise SplitSizeError(f"need at least 5 rows to split, got {n}")
    order = list(range(n))
    XorShift64Star(seed).shuffle(order)
    n_train = int(0.6 * n)
    n_val = int(0.2 * n)
    part_of = np.empty(n, dtype=np.int8)  # each row's part: 0 train, 1 validation, 2 test
    part_of[order] = np.repeat(np.arange(3, dtype=np.int8), [n_train, n_val, n - n_train - n_val])
    parts = [np.flatnonzero(part_of == k) for k in range(3)]
    return SplitDataset(
        train=data.subset(parts[0]),
        validation=data.subset(parts[1]),
        test=data.subset(parts[2]),
        train_indices=tuple(parts[0].tolist()),
        validation_indices=tuple(parts[1].tolist()),
        test_indices=tuple(parts[2].tolist()),
    )


MIN_SYNTH_ROWS = 100
MIN_SYNTH_FEATURES = 2


def synthesize_biased(n_rows: int, n_features: int, bias_strength: float,
                      seed: int) -> TabularDataset:
    """Generate a biased binary-classification dataset, deterministic in seed.

    Features are uniform in [0, 1).  The protected bit follows feature 0
    through a noisy threshold (``x0 + 0.25 * (2u - 1) > 0.5``), so models can
    recover group membership from the features alone.  Labels come from a
    noisy linear rule over features 1..m (m <= 4) whose threshold is shifted
    up by ``0.3 * bias_strength`` for the protected group, so the
    favorable-outcome gap between groups grows monotonically with
    ``bias_strength`` and is ~0 at zero bias.

    Draw order (pinned): the feature matrix row-major, then the protected
    noise vector, then the label noise vector.
    """
    if n_rows < MIN_SYNTH_ROWS:
        raise ValueError(f"n_rows must be at least {MIN_SYNTH_ROWS}, got {n_rows}")
    if n_features < MIN_SYNTH_FEATURES:
        raise ValueError(f"n_features must be at least {MIN_SYNTH_FEATURES}, got {n_features}")
    if not 0.0 <= bias_strength <= 1.0:
        raise ValueError(f"bias_strength must lie in [0, 1], got {bias_strength}")
    rng = XorShift64Star(seed)
    features = rng.uniform_block(n_rows * n_features).reshape(n_rows, n_features)
    group_noise = rng.uniform_block(n_rows)
    label_noise = rng.uniform_block(n_rows)

    protected = (features[:, 0] + 0.25 * (2.0 * group_noise - 1.0) > 0.5).astype(np.int64)
    m = min(4, n_features - 1)
    score = features[:, 1:1 + m].mean(axis=1)
    eps = 0.15 * (2.0 * label_noise - 1.0)
    threshold = 0.5 + 0.3 * bias_strength * protected
    labels = (score + eps > threshold).astype(np.int64)
    names = tuple(f"f{i}" for i in range(n_features))
    return TabularDataset(features, labels, protected, names)
