"""The moment kernel (`dataset._moments`) against the per-column code it
replaced: `describe`, the SS column, `aggregate_scores`, `zscore` and the
correlation kernel must give the same bytes, the same errors in the same
order, and stay within their memory bounds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdcluster import (
    DegenerateInputError,
    DescriptiveStats,
    HerdClusterError,
    HerdTable,
    NumericalError,
    ValidationError,
    aggregate_scores,
    correlation_matrix,
    data,
    describe,
    describe_all,
    load_table,
    zscore,
)
from herdcluster.dataset import GRADER_KEYS, canonical_key, scaled, unscaled
from herdcluster.stats import _correlations

from conftest import write_csv

DBL_MAX = np.finfo(float).max


# -- the per-column code the kernel replaced, kept as references -----------

def reference_describe(table, key):
    """The per-column `describe`, except that where it raised for the mean
    (which now never raises) the error's message stands in for the mean, so
    that the other fields still compare."""
    x = table.column(key)
    xs, e = scaled(x)
    lo, hi = float(np.min(x)), float(np.max(x))
    try:
        mean = min(max(unscaled(np.mean(xs), e, f"mean of column {key}"), lo), hi)
    except NumericalError as exc:
        mean = str(exc)
    std = 0.0 if lo == hi else unscaled(np.std(xs, ddof=1), e, f"std of column {key}")
    half = max(0, e - 1023)
    q25, q50, q75 = np.ldexp(np.quantile(np.ldexp(x, -half), [0.25, 0.5, 0.75]), half)
    return DescriptiveStats(key=canonical_key(key), mean=mean, std=std, min=lo,
                            q25=float(q25), q50=float(q50), q75=float(q75), max=hi)


def reference_grader_scores(columns):
    """The 3 x n stack of S1..S3, it scaled per animal, its exponents and
    the clipped mean scores."""
    stacked = np.vstack([columns[k] for k in GRADER_KEYS])
    xs, e = scaled(stacked)
    means = np.ldexp(xs.mean(axis=0), e)
    return stacked, xs, e, np.clip(means, stacked.min(axis=0), stacked.max(axis=0))


def reference_aggregate_scores(table):
    """The per-animal (mean, std) pairs, except that a zero mean is +0.0
    (np.clip gave it the sign of a -0.0 score or of an underflowed mean)."""
    stacked, xs, e, means = reference_grader_scores(table.columns)
    means = means + 0.0
    return [(float(mean), 0.0 if scores.min() == scores.max()
             else unscaled(sd, ei, f"std of animal {animal}'s scores"))
            for animal, scores, mean, sd, ei
            in zip(table.animal_ids, stacked.T, means, xs.std(axis=0, ddof=1), e)]


def reference_correlations(cols):
    """r with the correlation kernel's own scale-and-centre lines."""
    c = np.array(cols, dtype=float)
    c = np.ascontiguousarray(scaled(c.T)[0].T)
    c -= c.mean(axis=1, keepdims=True)
    ss = np.add.reduce(c * c, axis=1)
    r = np.eye(len(c))
    for i in range(len(c) - 1):
        r[i, i + 1:] = r[i + 1:, i] = (np.add.reduce(c[i] * c[i + 1:], axis=1)
                                       / np.sqrt(ss[i] * ss[i + 1:]))
    return np.clip(r, -1.0, 1.0, out=r)


def reference_zscore(table, keys):
    """The per-key `zscore`: `describe`'s moments, the (n, d) matrix scaled per column."""
    described = [reference_describe(table, k) for k in keys]
    means = np.array([d.mean for d in described])
    stds = np.array([d.std for d in described])
    xs, e = scaled(np.column_stack([table.column(k) for k in keys]))
    return (xs - np.ldexp(means, -e)) / np.ldexp(stds, -e), means, stds


# -- columns ---------------------------------------------------------------

def bits(v):
    """The bytes of a double, so that 0.0 and -0.0 differ."""
    return np.float64(v).tobytes()


def outcome(f):
    try:
        return f()
    except HerdClusterError as exc:
        return f"{type(exc).__name__}: {exc}"


FAMILIES = ("normal", "any", "constant", "near_constant", "subnormal", "huge", "top",
            "zeros", "scores")


def make_column(family, n, seed):
    """One column of `n` doubles from a named family, seeded."""
    rng = np.random.default_rng(seed)
    if family == "normal":
        return rng.normal(rng.normal(), 1.0, n) * 2.0 ** int(rng.integers(-60, 60))
    if family == "any":  # magnitudes spread over the whole double range
        return (rng.choice([-1.0, 1.0], n) * rng.uniform(1, 2, n)
                * 2.0 ** rng.integers(-1074, 1024, n).astype(float))
    if family == "constant":
        return np.full(n, rng.choice([0.1, -3.0, 5e-324, 1e308, DBL_MAX, 0.0]))
    if family == "near_constant":  # 0.1, one cell an ulp off
        x = np.full(n, 0.1)
        x[rng.integers(n)] = np.nextafter(0.1, rng.choice([-1.0, 1.0]))
        return x
    if family == "subnormal":
        return rng.integers(-2 ** 12, 2 ** 12, n) * 5e-324
    if family == "huge":
        x = rng.choice([1e308, -1e308], n)
        x[rng.random(n) < 0.3] = rng.normal(0.0, 10.0)
        return x
    if family == "top":  # max |x| at or above 2^1023, where the quantiles halve
        x = rng.uniform(-1.0, 1.0, n) * DBL_MAX
        x[rng.integers(n)] = rng.choice([2.0 ** 1023, -(2.0 ** 1023), DBL_MAX, -DBL_MAX])
        return x
    if family == "zeros":
        return rng.choice([0.0, -0.0, 5e-324], n, p=[0.45, 0.45, 0.1])
    return rng.integers(1, 6, n).astype(float)  # grader scores


N = st.sampled_from([1, 2, 7, 8, 9, 23, 500])
COLUMN = st.tuples(st.sampled_from(FAMILIES), st.integers(0, 2 ** 32 - 1))


def make_table(n, specs, drawn=None):
    cols = {f"C{i}": make_column(f, n, seed) for i, (f, seed) in enumerate(specs)}
    if drawn is not None:
        cols["D"] = np.array(drawn[:n] + [0.0] * (n - len(drawn[:n])))
    return HerdTable(tuple(f"a{i}" for i in range(n)), cols)


DRAWN = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=9)


# -- bit identity ----------------------------------------------------------

class TestBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(n=N, specs=st.lists(COLUMN, min_size=1, max_size=3), drawn=DRAWN)
    def test_describe_all(self, n, specs, drawn):
        table = make_table(n, specs, drawn)
        want = outcome(lambda: [reference_describe(table, k) for k in table.keys])
        got = outcome(lambda: describe_all(table))
        if isinstance(want, str):  # the first std error in key order
            assert got == want
            return
        assert not isinstance(got, str), got
        for g, w in zip(got, want, strict=True):
            assert g.key == w.key
            if isinstance(w.mean, str):  # now the clipped value, which never raises
                assert g.min <= g.mean <= g.max
            else:
                assert bits(g.mean) == bits(w.mean), (g, w)
            for f in ("std", "min", "q25", "q50", "q75", "max"):
                assert bits(getattr(g, f)) == bits(getattr(w, f)), (f, g, w)
        for key, g in zip(table.keys, got):
            assert describe(table, key) == g

    @settings(max_examples=200, deadline=None)
    @given(n=N, specs=st.lists(COLUMN, min_size=3, max_size=3))
    def test_grader_scores(self, n, specs):
        cols = make_table(n, specs).columns.values()
        table = HerdTable(tuple(f"a{i}" for i in range(n)), dict(zip(GRADER_KEYS, cols)))
        want = outcome(lambda: reference_aggregate_scores(table))
        got = outcome(lambda: [(s.mean, s.std) for s in aggregate_scores(table)])
        if isinstance(want, str):
            assert got == want
            return
        assert [tuple(map(bits, m)) for m in got] == [tuple(map(bits, m)) for m in want]

    @settings(max_examples=200, deadline=None)
    @given(n=N.filter(lambda n: n > 1), specs=st.lists(COLUMN, min_size=2, max_size=4))
    def test_correlations(self, n, specs):
        table = make_table(n, specs)
        cols = list(table.columns.values())
        if any(x.min() == x.max() for x in cols):
            with pytest.raises(DegenerateInputError, match="constant input"):
                _correlations(cols)
            return
        got, want = _correlations(cols), reference_correlations(cols)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(correlation_matrix(table).r.view(np.int64), want.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(n=N.filter(lambda n: n > 1), specs=st.lists(COLUMN, min_size=1, max_size=3))
    def test_zscore(self, n, specs):
        table = make_table(n, specs)
        got = outcome(lambda: zscore(table, table.keys))
        described = outcome(lambda: [reference_describe(table, k) for k in table.keys])
        if isinstance(described, str):  # the first std error in key order
            assert got == described
            return
        bad = [d.key for d in described if d.std == 0.0]
        if bad:
            assert got == f"DegenerateInputError: zero-variance column(s): {', '.join(bad)}"
            return
        if any(isinstance(d.mean, str) for d in described):
            return
        want = reference_zscore(table, table.keys)
        for g, w in zip((got.z, got.means, got.stds), want, strict=True):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 23, 500])
    def test_bundled_tables(self, n):
        for table in (load_table(data.scores_path()), load_table(data.synthetic_path())):
            ids = table.animal_ids[:n]
            t = HerdTable(ids, {k: v[:len(ids)] for k, v in table.columns.items()})
            for g, w in zip(describe_all(t), (reference_describe(t, k) for k in t.keys)):
                assert list(map(bits, list(g.as_dict().values())[1:])) == \
                    list(map(bits, list(w.as_dict().values())[1:]))


# -- errors ----------------------------------------------------------------

class TestErrors:
    def test_std_errors_come_in_key_order(self):
        over = [1.7e308, -1.7e308, 1.7e308, -1.7e308]
        table = HerdTable(("a", "b", "c", "d"), {"X": over, "A": [1, 2, 3, 4], "Y": over})
        for keys, first in ((["A", "X", "Y"], "X"), (["Y", "A", "X"], "Y")):
            want = outcome(lambda: [reference_describe(table, k) for k in keys])
            assert want == f"NumericalError: std of column {first} overflowed"
            assert outcome(lambda: describe_all(table, keys)) == want
            assert outcome(lambda: zscore(table, keys)) == want

    def test_no_keys(self, synthetic_table):
        assert describe_all(synthetic_table, []) == []
        with pytest.raises(ValidationError, match="no keys to standardize"):
            zscore(synthetic_table, [])

    def test_unknown_key(self, synthetic_table):
        with pytest.raises(ValidationError, match="unknown measurement key: ZZ"):
            describe_all(synthetic_table, ["BW", "zz"])


class TestMeanNeverRaises:
    """A mean is its correctly rounded value clipped to [min, max]: the
    column and the grader-score paths follow one rule."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_column_mean(self, tmp_path):
        # the exact mean, 2^-1075, rounds to 0; the per-column code raised
        path = write_csv(tmp_path / "t.csv", ["animal_id", "A"], [["a", 5e-324], ["b", 0]])
        table = load_table(path)
        assert reference_describe(table, "A").mean == "mean of column A underflowed"
        d = describe(table, "A")
        assert (d.mean, d.std, d.min, d.max) == (0.0, 5e-324, 0.0, 5e-324)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_score_mean(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["animal_id", "S1", "S2", "S3"],
                         [["a", 5e-324, 0, 0], ["b", 1, 2, 3]])
        table = load_table(path)
        assert table.column("SS").tolist() == [0.0, 2.0]
        assert aggregate_scores(table)[0].mean == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 23])
    def test_means_at_the_top_of_the_range(self, n):
        # scaled, DBL_MAX is 1 - 2^-53, and no mean of such values rounds up
        # to 1.0, whose 2^1024 would overflow
        table = HerdTable(tuple(f"a{i}" for i in range(n)),
                          {"X": [DBL_MAX] * n, "Y": [-DBL_MAX] * n})
        assert [d.mean for d in describe_all(table)] == [DBL_MAX, -DBL_MAX]


# -- memory ----------------------------------------------------------------

@pytest.fixture(scope="module")
def wide_table():
    rng = np.random.default_rng(6000)
    return HerdTable(tuple(f"a{i}" for i in range(6000)),
                     {f"K{j}": rng.normal(300.0, 30.0, 6000) for j in range(50)})


def traced_peak_mb(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestMemory:
    """Each (d, n) stack at 6,000 x 50 is 2.4 MB: the kernel's scaled copy
    and one block of products (0.5 MB) may be alive at once, not a second
    stack. Both peak at 2.9 MB; a second stack made it 4.8."""

    def test_correlation_matrix_peak(self, wide_table):
        assert traced_peak_mb(lambda: correlation_matrix(wide_table)) <= 3.2

    def test_describe_all_peak(self, wide_table):
        assert traced_peak_mb(lambda: describe_all(wide_table)) <= 3.2
