import json
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fairdrop as fd
from fairdrop.dataset import (DataError, ParseError, SchemaError, SplitSizeError,
                              DatasetSchema)

from conftest import MALFORMED_SCHEMA_FILES, schema_document

# Observed once and pinned: train index sets for a 100-row dataset under the
# pinned shuffle, seeds 1 and 2.
PINNED_TRAIN_SEED1 = (
    0, 1, 4, 5, 6, 8, 9, 10, 12, 13, 15, 16, 18, 19, 20, 22, 24, 25, 29, 30,
    33, 34, 36, 37, 38, 39, 40, 41, 43, 44, 45, 46, 48, 49, 52, 55, 57, 59,
    60, 61, 62, 64, 65, 68, 69, 70, 74, 76, 77, 78, 79, 82, 84, 87, 88, 91,
    94, 95, 97, 98)
PINNED_TRAIN_SEED2 = (
    0, 2, 5, 6, 7, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20, 21, 22, 23, 25, 29,
    31, 32, 34, 35, 36, 37, 39, 41, 42, 43, 45, 47, 50, 51, 52, 53, 55, 56,
    59, 60, 61, 62, 66, 67, 68, 69, 71, 72, 75, 80, 81, 82, 85, 86, 89, 90,
    94, 95, 98, 99)


def make_schema(**overrides):
    base = dict(
        column_names=("color", "amount", "sex", "outcome"),
        categorical_columns=frozenset({"color"}),
        numerical_columns=frozenset({"amount"}),
        protected_column="sex",
        protected_values={"Male": 0, "Female": 1},
        label_column="outcome",
        label_values={"no": 0, "yes": 1},
        scaling="min_max",
    )
    base.update(overrides)
    return DatasetSchema(**base)


def write_csv(path, rows):
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")


@pytest.fixture
def csv_3rows(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(path, [
        ("color", "amount", "sex", "outcome"),
        ("red", "0", "Male", "no"),
        ("blue", "5", "Female", "yes"),
        ("red", "10", "Male", "no"),
    ])
    return path


class TestSchema:
    def test_roundtrip_via_json(self, tmp_path):
        schema = make_schema()
        path = tmp_path / "schema.json"
        schema.dump(path)
        assert DatasetSchema.load(path) == schema

    @pytest.mark.parametrize("failure", ["serialize", "rename"])
    def test_failed_dump_leaves_existing_file_intact(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "schema.json"
        make_schema().dump(path)
        before = path.read_bytes()
        if failure == "serialize":
            monkeypatch.setattr(DatasetSchema, "to_dict", lambda self: {"bad": object()})
        else:
            def refuse(src, dst):
                raise OSError("rename refused")
            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises((TypeError, OSError)):
            make_schema(scaling="standard").dump(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["schema.json"]

    def test_unedited_test_document_loads(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema_document()))
        assert DatasetSchema.load(path).to_dict() == schema_document()

    @pytest.mark.parametrize("text, fragment", MALFORMED_SCHEMA_FILES.values(),
                             ids=MALFORMED_SCHEMA_FILES)
    def test_malformed_file_is_an_error_naming_it(self, tmp_path, text, fragment):
        path = tmp_path / "schema.json"
        path.write_text(text)
        with pytest.raises(SchemaError) as exc:
            DatasetSchema.load(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert fragment in str(exc.value)

    def test_protected_equal_label_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(label_column="sex", label_values={"Male": 0, "Female": 1})

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(protected_column="absent")

    def test_overlapping_feature_sets_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(categorical_columns=frozenset({"color", "amount"}))

    def test_uncovered_feature_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(numerical_columns=frozenset())

    def test_nonbinary_mapping_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(label_values={"no": 0, "yes": 2})


class TestLoadCsv:
    def test_one_hot_expansion(self, csv_3rows):
        data = fd.load_csv(csv_3rows, make_schema())
        onehot_cols = [i for i, n in enumerate(data.feature_names) if n.startswith("color=")]
        assert len(onehot_cols) == 2
        block = data.features[:, onehot_cols]
        assert np.array_equal(block.sum(axis=1), np.ones(3))
        assert set(np.unique(block)) <= {0.0, 1.0}

    def test_min_max_scaling(self, csv_3rows):
        data = fd.load_csv(csv_3rows, make_schema())
        col = data.features[:, list(data.feature_names).index("amount")]
        assert np.array_equal(col, [0.0, 0.5, 1.0])

    def test_protected_mapping(self, csv_3rows):
        data = fd.load_csv(csv_3rows, make_schema())
        assert list(data.protected) == [0, 1, 0]
        assert list(data.labels) == [0, 1, 0]

    def test_protected_kept_as_feature_by_default(self, csv_3rows):
        data = fd.load_csv(csv_3rows, make_schema())
        assert "sex" in data.feature_names
        col = data.features[:, list(data.feature_names).index("sex")]
        assert np.array_equal(col, [0.0, 1.0, 0.0])

    def test_drop_protected_flag(self, csv_3rows):
        data = fd.load_csv(csv_3rows, make_schema(drop_protected_from_features=True))
        assert "sex" not in data.feature_names

    def test_standard_scaling_population_std(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [
            ("color", "amount", "sex", "outcome"),
            ("red", "1", "Male", "no"),
            ("red", "2", "Female", "yes"),
            ("red", "3", "Male", "no"),
        ])
        data = fd.load_csv(path, make_schema(scaling="standard"))
        col = data.features[:, list(data.feature_names).index("amount")]
        std = np.std([1, 2, 3])  # population std
        np.testing.assert_allclose(col, (np.array([1, 2, 3]) - 2.0) / std, atol=1e-15)

    def test_zero_variance_column_encodes_to_zero(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [
            ("color", "amount", "sex", "outcome"),
            ("red", "4", "Male", "no"),
            ("red", "4", "Female", "yes"),
            ("red", "4", "Male", "no"),
        ])
        for mode in ("min_max", "standard"):
            data = fd.load_csv(path, make_schema(scaling=mode))
            col = data.features[:, list(data.feature_names).index("amount")]
            assert np.array_equal(col, np.zeros(3))

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, csv_3rows):
        # spreadsheet exports often start a UTF-8 file with a byte-order mark
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + csv_3rows.read_bytes())
        plain, bom = (fd.load_csv(p, make_schema()) for p in (csv_3rows, path))
        assert bom.feature_names == plain.feature_names
        for field in ("features", "labels", "protected"):
            assert np.array_equal(getattr(bom, field), getattr(plain, field))

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [("a", "b"), ("1", "2")])
        with pytest.raises(SchemaError):
            fd.load_csv(path, make_schema())

    def test_double_encoding_rejected(self, tmp_path, csv_3rows):
        # re-encode the encoded output: header no longer matches the schema
        schema = make_schema()
        data = fd.load_csv(csv_3rows, schema)
        path = tmp_path / "encoded.csv"
        header = list(data.feature_names) + ["sex", "outcome"]
        rows = [tuple(header)]
        for i in range(data.n_rows):
            rows.append(tuple([repr(v) for v in data.features[i]] + ["Male", "no"]))
        write_csv(path, rows)
        with pytest.raises(SchemaError):
            fd.load_csv(path, schema)

    def test_unmapped_protected_value(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [
            ("color", "amount", "sex", "outcome"),
            ("red", "1", "Other", "no"),
        ])
        with pytest.raises(DataError):
            fd.load_csv(path, make_schema())

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [
            ("color", "amount", "sex", "outcome"),
            ("red", "lots", "Male", "no"),
        ])
        with pytest.raises(ParseError):
            fd.load_csv(path, make_schema())

    def test_scaled_features_finite_and_in_range(self, csv_3rows):
        data = fd.load_csv(csv_3rows, make_schema())
        assert np.isfinite(data.features).all()
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0


def _dummy(n):
    return fd.TabularDataset(np.zeros((n, 2)), np.zeros(n, dtype=np.int64),
                             np.zeros(n, dtype=np.int64), ("a", "b"))


class TestSplit:
    def test_sizes_n10(self):
        parts = fd.split(_dummy(10), 123)
        assert (parts.train.n_rows, parts.validation.n_rows, parts.test.n_rows) == (6, 2, 2)

    def test_partition_disjoint_exhaustive(self):
        parts = fd.split(_dummy(103), 5)
        merged = sorted(parts.train_indices + parts.validation_indices + parts.test_indices)
        assert merged == list(range(103))

    def test_deterministic(self):
        a = fd.split(_dummy(50), 77)
        b = fd.split(_dummy(50), 77)
        assert a.train_indices == b.train_indices
        assert a.validation_indices == b.validation_indices
        assert a.test_indices == b.test_indices

    def test_pinned_regression_fixtures(self):
        assert fd.split(_dummy(100), 1).train_indices == PINNED_TRAIN_SEED1
        assert fd.split(_dummy(100), 2).train_indices == PINNED_TRAIN_SEED2
        assert PINNED_TRAIN_SEED1 != PINNED_TRAIN_SEED2

    def test_too_few_rows(self):
        with pytest.raises(SplitSizeError):
            fd.split(_dummy(4), 1)

    @given(st.integers(min_value=5, max_value=400), st.integers(min_value=0, max_value=2**32))
    def test_equals_sorted_lists_of_the_shuffled_order(self, n, seed):
        # the three parts as sorted() over the pinned shuffle gives them:
        # the same ints in the index tuples, the same rows in the subsets
        X = np.arange(2.0 * n).reshape(n, 2)
        data = fd.TabularDataset(X, np.arange(n) % 2, np.arange(n) // 2 % 2, ("a", "b"))
        order = list(range(n))
        fd.XorShift64Star(seed).shuffle(order)
        cut = (int(0.6 * n), int(0.6 * n) + int(0.2 * n))
        want = (sorted(order[:cut[0]]), sorted(order[cut[0]:cut[1]]), sorted(order[cut[1]:]))
        parts = fd.split(data, seed)
        got = (parts.train_indices, parts.validation_indices, parts.test_indices)
        assert got == tuple(map(tuple, want))
        assert all(type(i) is int for indices in got for i in indices)
        for subset, rows in zip((parts.train, parts.validation, parts.test), want):
            expected = data.subset(rows)
            for field in ("features", "labels", "protected"):
                assert np.array_equal(getattr(subset, field), getattr(expected, field))
                assert getattr(subset, field).dtype == getattr(expected, field).dtype

    @given(st.integers(min_value=5, max_value=400), st.integers(min_value=0, max_value=2**32))
    def test_fraction_arithmetic(self, n, seed):
        parts = fd.split(_dummy(n), seed)
        assert parts.train.n_rows == int(0.6 * n)
        assert parts.validation.n_rows == int(0.2 * n)
        assert parts.test.n_rows == n - int(0.6 * n) - int(0.2 * n)


class TestSynthesizeBiased:
    def test_zero_bias_small_gap(self):
        data = fd.synthesize_biased(10_000, 6, 0.0, seed=1)
        r0 = data.labels[data.protected == 0].mean()
        r1 = data.labels[data.protected == 1].mean()
        assert abs(r0 - r1) <= 0.05

    def test_full_bias_large_gap(self):
        data = fd.synthesize_biased(10_000, 6, 1.0, seed=1)
        r0 = data.labels[data.protected == 0].mean()
        r1 = data.labels[data.protected == 1].mean()
        assert abs(r0 - r1) >= 0.2

    def test_gap_grows_with_bias(self):
        def gap(b):
            d = fd.synthesize_biased(10_000, 6, b, seed=3)
            return abs(d.labels[d.protected == 0].mean() - d.labels[d.protected == 1].mean())
        assert gap(0.0) < gap(0.5) < gap(1.0)

    def test_deterministic(self):
        a = fd.synthesize_biased(500, 4, 0.7, seed=9)
        b = fd.synthesize_biased(500, 4, 0.7, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.protected, b.protected)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fd.synthesize_biased(99, 4, 0.5, seed=1)
        with pytest.raises(ValueError):
            fd.synthesize_biased(100, 1, 0.5, seed=1)
        with pytest.raises(ValueError):
            fd.synthesize_biased(100, 4, 1.5, seed=1)

    def test_both_groups_and_labels_present(self):
        data = fd.synthesize_biased(1_000, 4, 0.8, seed=2)
        assert set(np.unique(data.protected)) == {0, 1}
        assert set(np.unique(data.labels)) == {0, 1}
