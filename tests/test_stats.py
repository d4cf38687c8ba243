import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdcluster import (
    DegenerateInputError,
    NumericalError,
    ValidationError,
    correlation_matrix,
    label_correlation,
    load_table,
    pearson_r,
    select_features,
    zscore,
)
from herdcluster.pipeline import correlation_csv, json_text

from conftest import write_csv


def table_from_columns(tmp_path, columns):
    keys = list(columns)
    n = len(next(iter(columns.values())))
    rows = [
        [f"a{i}"] + [repr(float(columns[k][i])) for k in keys] for i in range(n)
    ]
    return load_table(write_csv(tmp_path / "t.csv", ["animal_id"] + keys, rows))


class TestPearsonR:
    def test_overflow_is_not_clipped_to_a_bound(self):
        # the NaN r of this column used to come out as -1.0
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="overflow"):
            pearson_r([1e308, 1e308, -1e308, 1.0], [1.0, 2.0, 3.0, 4.0])
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="overflow"):
            pearson_r([1e200, -1e200, 1e200, 0.0], [1e200, 1e200, -1e200, 0.0])

    def test_self_correlation(self):
        x = [1.0, 2.0, 5.0, 3.0]
        assert pearson_r(x, x) == 1.0

    def test_exact_anticorrelation(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        assert pearson_r(x, -x) == -1.0

    def test_hand_computed_value(self):
        # centered products sum to 3.0, each sum of squares is 5.0
        assert pearson_r([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            pearson_r([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValidationError, match="at least 2"):
            pearson_r([1.0], [2.0])

    def test_constant_input(self):
        with pytest.raises(DegenerateInputError):
            pearson_r([1, 1, 1], [1, 2, 3])

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=-50.0, max_value=50.0),
        st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_relation_is_exact(self, seed, a, b, negate):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=8)
        if np.std(x) == 0.0:
            return
        scale = -a if negate else a
        r = pearson_r(x, scale * x + b)
        assert r == pytest.approx(-1.0 if negate else 1.0, abs=1e-12)

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariance_under_positive_rescale(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, 10))
        assert pearson_r(a * x + b, y) == pytest.approx(
            pearson_r(x, y), abs=1e-12
        )


class TestCorrelationMatrix:
    def test_identical_columns(self, tmp_path):
        t = table_from_columns(tmp_path, {"A": [1, 2, 3], "B": [1, 2, 3]})
        m = correlation_matrix(t)
        assert m.r[0, 1] == m.r[1, 0] == 1.0

    def test_orthogonal_by_construction(self, tmp_path, rng):
        # Gram-Schmidt residualization gives exactly uncorrelated columns
        raw = rng.normal(size=(20, 3))
        raw -= raw.mean(axis=0)
        q, _ = np.linalg.qr(raw)
        t = table_from_columns(
            tmp_path, {k: q[:, j] for j, k in enumerate(("A", "B", "C"))}
        )
        m = correlation_matrix(t)
        off = m.r[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 1e-12)

    def test_exact_symmetry_and_unit_diagonal(self, synthetic_table):
        keys = [k for k in synthetic_table.keys]
        m = correlation_matrix(synthetic_table, keys)
        assert np.array_equal(m.r, m.r.T)
        assert np.all(np.diag(m.r) == 1.0)
        assert np.all(np.abs(m.r) <= 1.0)

    def test_constant_column_names_pair(self, tmp_path):
        t = table_from_columns(tmp_path, {"A": [1, 2, 3], "B": [4, 4, 4]})
        with pytest.raises(DegenerateInputError, match=r"\(A, B\)"):
            correlation_matrix(t)

    def test_csv_and_json_export(self, synthetic_table):
        m = correlation_matrix(synthetic_table, ["BW", "DA", "CW"])
        lines = correlation_csv(m).splitlines()
        assert lines[0] == "key,BW,DA,CW"
        cells = [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
        assert np.array_equal(cells, m.r)
        doc = json.loads(json_text(m.as_dict()))
        assert doc["keys"] == ["BW", "DA", "CW"]
        assert doc["r"][0][0] == 1.0


class TestSelectFeatures:
    def test_dorsum_pattern(self, synthetic_table):
        m = correlation_matrix(synthetic_table)
        sel = select_features(
            m, "BW", 3,
            exclude={"BW", "FW", "DMI", "RFI", "ADG", "SC", "LEA",
                     "S1", "S2", "S3", "SS"},
        )
        assert sel.selected == ("DA", "CW", "DL")
        assert all(r > 0 for r in sel.r_values)

    def test_structure_pattern_with_signs(self, synthetic_table):
        m = correlation_matrix(synthetic_table)
        sel = select_features(
            m, "SS", 3,
            exclude={"SS", "S1", "S2", "S3", "FW", "DMI", "RFI", "ADG",
                     "SC", "LEA"},
        )
        assert sel.selected == ("CW", "BW", "CH")
        signs = tuple(np.sign(r) for r in sel.r_values)
        assert signs == (1.0, 1.0, -1.0)

    def test_descending_absolute_r(self, synthetic_table):
        m = correlation_matrix(synthetic_table)
        sel = select_features(m, "BW", 5)
        mags = [abs(r) for r in sel.r_values]
        assert mags == sorted(mags, reverse=True)

    def test_exhaustive_selection(self, synthetic_table):
        m = correlation_matrix(synthetic_table)
        count = len(m.keys) - 1
        sel = select_features(m, "BW", count)
        assert set(sel.selected) == set(m.keys) - {"BW"}

    def test_count_exceeds_candidates(self, synthetic_table):
        m = correlation_matrix(synthetic_table)
        with pytest.raises(ValidationError, match="exceeds"):
            select_features(m, "BW", len(m.keys))

    def test_tie_break_by_key_order(self, tmp_path):
        t = table_from_columns(
            tmp_path,
            {"T": [1, 2, 3, 4], "P": [1, 2, 3, 4], "Q": [4, 3, 2, 1]},
        )
        sel = select_features(correlation_matrix(t), "T", 2)
        assert sel.selected == ("P", "Q")  # |r| both 1, P first in the table

    def test_deterministic(self, synthetic_table):
        m = correlation_matrix(synthetic_table)
        a = select_features(m, "SS", 4, exclude={"S1", "S2", "S3"})
        b = select_features(m, "SS", 4, exclude={"S1", "S2", "S3"})
        assert a == b


class TestZScore:
    def test_overflowing_moments_raise(self, tmp_path):
        t = table_from_columns(tmp_path, {"A": [1, 2, 3, 4],
                                          "X": [1e308, 1e308, -1e308, 1]})
        with np.errstate(all="ignore"), \
                pytest.raises(NumericalError, match=r"not finite in column\(s\): X$"):
            zscore(t, ["A", "X"])

    def test_simple_column(self, tmp_path):
        t = table_from_columns(tmp_path, {"A": [1, 2, 3]})
        z = zscore(t, ["A"])
        np.testing.assert_allclose(z.z[:, 0], [-1, 0, 1])

    def test_idempotent_on_standardized(self, tmp_path, rng):
        x = rng.normal(size=12)
        x = (x - x.mean()) / x.std(ddof=1)
        t = table_from_columns(tmp_path, {"A": x})
        z = zscore(t, ["A"])
        np.testing.assert_allclose(z.z[:, 0], t.column("A"), atol=1e-12)

    def test_column_moments(self, synthetic_table):
        z = zscore(synthetic_table, ["BW", "DA", "CW"])
        assert np.all(np.abs(z.z.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(z.z.std(axis=0, ddof=1) - 1.0) < 1e-12)

    def test_zero_variance_column(self, tmp_path):
        t = table_from_columns(tmp_path, {"A": [1, 2, 3], "B": [7, 7, 7]})
        with pytest.raises(DegenerateInputError, match="B"):
            zscore(t, ["A", "B"])


class TestLabelCorrelation:
    def test_threshold_labels_strongly_correlate(self, tmp_path):
        values = np.linspace(0, 1, 30)
        t = table_from_columns(tmp_path, {"X": values})
        labels = np.digitize(values, [1 / 3, 2 / 3]) + 1
        assert label_correlation(labels, t, "X") > 0.9

    def test_random_labels_uncorrelated(self, tmp_path):
        rng = np.random.default_rng(99)
        values = rng.normal(size=1000)
        t = table_from_columns(tmp_path, {"X": values})
        labels = rng.integers(1, 4, size=1000)
        assert abs(label_correlation(labels, t, "X")) < 0.1

    def test_constant_labels(self, tmp_path):
        t = table_from_columns(tmp_path, {"X": [1, 2, 3]})
        with pytest.raises(DegenerateInputError, match="constant"):
            label_correlation([2, 2, 2], t, "X")
