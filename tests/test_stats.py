import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdcluster import (
    DegenerateInputError,
    HerdTable,
    NumericalError,
    ValidationError,
    correlation_matrix,
    describe,
    load_table,
    pearson_r,
    select_features,
    zscore,
)
from herdcluster.pipeline import correlate, correlation_csv, json_text

from conftest import mp_mean_std, mp_pearson_r, write_csv, write_tenth_column_csv


def reference_pearson_r(x, y):
    """`pearson_r` as it was before `correlation_matrix` centred each column
    once, kept as a test-only reference: both columns centred per call, a
    zero sum of squares taken as a constant column, and NumericalError
    where a sum of squares or their product overflows. Its sums are
    numpy's pairwise `np.add.reduce`, as the library's are, not `np.dot`,
    whose order depends on the BLAS kernel."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        yc = y - y.mean()
        sx = float(np.add.reduce(xc * xc))
        sy = float(np.add.reduce(yc * yc))
        sxy = float(np.add.reduce(xc * yc))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("constant input has no defined correlation")
    scale = math.sqrt(sx * sy)
    r = sxy / scale
    if not (math.isfinite(scale) and math.isfinite(r)):
        raise NumericalError("correlation overflowed: values too large")
    return min(1.0, max(-1.0, r))


def table_from_columns(tmp_path, columns):
    keys = list(columns)
    n = len(next(iter(columns.values())))
    rows = [
        [f"a{i}"] + [repr(float(columns[k][i])) for k in keys] for i in range(n)
    ]
    return load_table(write_csv(tmp_path / "t.csv", ["animal_id"] + keys, rows))


class TestPearsonR:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_not_clipped_to_a_bound(self):
        # the NaN r of the first pair once came out as -1.0; both pairs'
        # sums of squares overflow unless the columns are scaled first
        for x, y in [([1e308, 1e308, -1e308, 1.0], [1.0, 2.0, 3.0, 4.0]),
                     ([1e200, -1e200, 1e200, 0.0], [1e200, 1e200, -1e200, 0.0])]:
            assert pearson_r(x, y) == pytest.approx(mp_pearson_r(x, y), rel=1e-12)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input(self, bad):
        # NaN came out as r = -1.0, inf as a RuntimeWarning and NaN
        with pytest.raises(ValidationError, match="non-finite"):
            pearson_r([bad, 1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_columns_match_mpmath(self):
        # unscaled, the product of the two sums of squares underflows to 0
        x, y = [1e-100, 2e-100, 4e-100], [1e-100, 3e-100, 2e-100]
        assert pearson_r(x, y) == pytest.approx(mp_pearson_r(x, y), rel=1e-12)
        assert pearson_r([1e-200, 2e-200, 3e-200, 5e-200], [1, 2, 3, 5.5]) == 0.9980827590608692

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_column_matches_mpmath(self, tmp_path):
        # B's sum of squares, about 2e-400, underflows unless B is scaled first
        t = table_from_columns(tmp_path, {"A": [1, 2, 4], "B": [1e-200, 3e-200, 2e-200]})
        assert correlation_matrix(t).r[0, 1] == pytest.approx(
            mp_pearson_r(t.column("A"), t.column("B")), rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(seed=st.integers(0, 2**32 - 1), decimals=st.sampled_from([None, 0, 1]))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_pearson_r(self, seed, decimals):
        """Each pair's r has the reference's bytes where the reference is
        finite, and matches mpmath to 1e-12 where it overflows (the 1e150
        and 1e155 columns); the first pair (in matrix order) with a
        constant column is named in the error instead."""
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(2, 40)), int(rng.integers(2, 7))
        Z = rng.normal(size=(n, p))
        if decimals is not None:  # ties, and sums that are exact
            Z = np.round(10.0 * Z, decimals)
        scales = rng.choice([1e-3, 1.0, 1e3, 1e150, 1e155], size=p,
                            p=[0.3, 0.3, 0.3, 0.05, 0.05])
        X = Z * scales + rng.choice([0.0, 1.0, 1e6], size=p) * scales
        constant = rng.random(p) < 0.1
        X[:, constant] = X[0, constant]
        keys = [f"K{j}" for j in range(p)]
        t = HerdTable(tuple(f"a{i}" for i in range(n)),
                      {k: X[:, j] for j, k in enumerate(keys)}, {})
        want, oracle = np.eye(p), np.zeros((p, p), dtype=bool)
        for i in range(p):
            for j in range(i + 1, p):
                x, y = t.column(keys[i]), t.column(keys[j])
                if x.min() == x.max() or y.min() == y.max():
                    with pytest.raises(DegenerateInputError,
                                       match=rf"pair \({keys[i]}, {keys[j]}\)"):
                        correlation_matrix(t)
                    return
                try:
                    want[i, j] = want[j, i] = reference_pearson_r(x, y)
                except NumericalError:
                    want[i, j] = want[j, i] = mp_pearson_r(x, y)
                    oracle[i, j] = oracle[j, i] = True
        got = correlation_matrix(t).r
        assert got[~oracle].tobytes() == want[~oracle].tobytes()
        np.testing.assert_allclose(got[oracle], want[oracle], rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(seed=st.integers(0, 2**32 - 1), decimals=st.sampled_from([None, 0, 1]))
    @settings(max_examples=100, deadline=None)
    def test_cells_are_pearson_r(self, seed, decimals):
        """Each cell has the bytes of `pearson_r` of its two columns: the
        matrix and the two-column case share one kernel."""
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(2, 300)), int(rng.integers(2, 9))
        X = rng.normal(size=(n, p)) * rng.choice([1e-3, 1.0, 1e3, 1e150], size=p)
        if decimals is not None:
            X = np.round(10.0 * X, decimals)
        keys = [f"K{j}" for j in range(p)]
        t = HerdTable(tuple(f"a{i}" for i in range(n)),
                      {k: X[:, j] for j, k in enumerate(keys)}, {})
        if any(t.column(k).min() == t.column(k).max() for k in keys):
            return
        got = correlation_matrix(t).r
        want = np.eye(p)
        for i in range(p):
            for j in range(p):
                if i != j:
                    want[i, j] = pearson_r(t.column(keys[i]), t.column(keys[j]))
        assert got.tobytes() == want.tobytes()

    def test_fewer_than_two_keys(self, tmp_path):
        t = table_from_columns(tmp_path, {"A": [1, 2, 3], "C": [5, 5, 5]})
        assert correlation_matrix(t, []).r.shape == (0, 0)
        assert correlation_matrix(t, ["C"]).r.tolist() == [[1.0]]  # no pair to name

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

    def test_numpy_integer_count(self, synthetic_table):
        m = correlation_matrix(synthetic_table)
        assert select_features(m, "BW", np.int64(2)) == select_features(m, "BW", 2)

    def test_count_exceeds_candidates(self, synthetic_table):
        m = correlation_matrix(synthetic_table)
        with pytest.raises(ValidationError, match="exceeds"):
            select_features(m, "BW", len(m.keys))

    @pytest.mark.parametrize("target, count, message", [
        ("NOPE", 1, "target NOPE not in correlation matrix"),
        ("BW", 0, "count must be positive"),
        ("BW", 2.5, "count must be an integer, got 2.5"),
        ("BW", 2.0, "count must be an integer, got 2.0"),
    ])
    def test_bad_target_or_count(self, synthetic_table, target, count, message):
        with pytest.raises(ValidationError, match=message):
            select_features(correlation_matrix(synthetic_table), target, count)

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
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_moments_raise(self, tmp_path):
        # X's std, about 1.96e308, is past the double range
        t = table_from_columns(tmp_path, {"A": [1, 2, 3, 4],
                                          "X": [1.7e308, -1.7e308, 1.7e308, -1.7e308]})
        with pytest.raises(NumericalError, match=r"^std of column X overflowed$"):
            zscore(t, ["A", "X"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_column_matches_mpmath(self, tmp_path):
        # x - mean overflowed for the +-1.7e308 entries
        x = [1.7e308, -1.7e308, 1.0, 2.0, -1.5e308]
        z = zscore(table_from_columns(tmp_path, {"X": x}), ["X"])
        mean, std = mp_mean_std(x)
        assert (z.means[0], z.stds[0]) == (pytest.approx(mean, rel=1e-12),
                                           pytest.approx(std, rel=1e-12))
        with mpmath.workdps(40):
            want = [float((mpmath.mpf(v) - mean) / std) for v in x]
        np.testing.assert_allclose(z.z[:, 0], want, rtol=1e-12)

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


class TestRoundingResidueColumn:
    """A column of 0.1 in every row is constant, although numpy's std of
    it is a rounding residue: every statistic treats it as constant."""

    @pytest.fixture
    def table(self, tmp_path):
        return load_table(write_tenth_column_csv(tmp_path / "t.csv"))

    def test_describe_gives_zero_std(self, table):
        assert np.std(table.column("B"), ddof=1) > 0.0
        assert describe(table, "B").std == 0.0

    def test_correlate_drops_it(self, table):
        assert correlate(table).keys == ("A", "C")

    def test_pearson_r_raises(self, table):
        with pytest.raises(DegenerateInputError, match="constant"):
            pearson_r(table.column("A"), table.column("B"))

    def test_zscore_raises(self, table):
        with pytest.raises(DegenerateInputError, match="zero-variance column.*: B$"):
            zscore(table, ["A", "B"])


class TestLabelCorrelation:
    """Cluster labels against a measurement column, as the pipeline's
    label_correlation block computes them."""

    def test_threshold_labels_strongly_correlate(self, tmp_path):
        values = np.linspace(0, 1, 30)
        t = table_from_columns(tmp_path, {"X": values})
        labels = np.digitize(values, [1 / 3, 2 / 3]) + 1
        assert pearson_r(labels, t.column("X")) > 0.9

    def test_random_labels_uncorrelated(self, tmp_path):
        rng = np.random.default_rng(99)
        values = rng.normal(size=1000)
        t = table_from_columns(tmp_path, {"X": values})
        labels = rng.integers(1, 4, size=1000)
        assert abs(pearson_r(labels, t.column("X"))) < 0.1

    def test_constant_labels(self, tmp_path):
        t = table_from_columns(tmp_path, {"X": [1, 2, 3]})
        with pytest.raises(DegenerateInputError, match="constant"):
            pearson_r([2, 2, 2], t.column("X"))
