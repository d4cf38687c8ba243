import json
import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, optimize, special, stats

from herdcluster import (
    DegenerateInputError,
    NumericalError,
    ValidationError,
    f_cdf,
    one_way_anova,
    reg_inc_beta,
    studentized_range_cdf,
    studentized_range_ppf,
    tukey_hsd,
)
from herdcluster import inference
from herdcluster.charts import emit_boxplot_svg
from herdcluster.pipeline import json_text


def mp_anova(values, labels):
    """F, group means and grand mean in 40-digit arithmetic."""
    with mpmath.workdps(40):
        groups = {}
        for v, g in zip(values, labels):
            groups.setdefault(g, []).append(mpmath.mpf(v))
        means = {g: mpmath.fsum(vs) / len(vs) for g, vs in groups.items()}
        grand = mpmath.fsum(map(mpmath.mpf, values)) / len(values)
        ssb = mpmath.fsum(len(vs) * (means[g] - grand) ** 2 for g, vs in groups.items())
        ssw = mpmath.fsum((v - means[g]) ** 2 for g, vs in groups.items() for v in vs)
        k, n = len(groups), len(values)
        f = (ssb / (k - 1)) / (ssw / (n - k))
        return float(f), tuple(float(means[g]) for g in sorted(groups)), float(grand)


def f_cdf_oracle(x, d1, d2):
    """Adaptive quadrature of the F density (independent of the
    incomplete-beta route used by the implementation)."""

    def density(t):
        if t <= 0:
            return 0.0
        log_pdf = (
            math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2) - math.lgamma(d2 / 2)
            + (d1 / 2) * math.log(d1 / d2) + (d1 / 2 - 1) * math.log(t)
            - ((d1 + d2) / 2) * math.log(1 + d1 * t / d2)
        )
        return math.exp(log_pdf)

    val, _ = integrate.quad(density, 0, x, limit=200)
    return val


def studentized_range_cdf_oracle(q, k, df):
    """Double adaptive quadrature of the studentized range probability."""

    def inner(u):
        def loc(z):
            phi = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
            upper = 0.5 * (1 + math.erf(z / math.sqrt(2)))
            lower = 0.5 * (1 + math.erf((z - q * u) / math.sqrt(2)))
            return phi * (upper - lower) ** (k - 1)

        val, _ = integrate.quad(loc, -9, 9, limit=200)
        return k * val

    def outer(u):
        log_dens = (
            (df / 2) * math.log(df) - math.lgamma(df / 2)
            - (df / 2 - 1) * math.log(2)
            + (df - 1) * math.log(u) - df * u * u / 2
        )
        return math.exp(log_dens) * inner(u)

    hi = 1 + 10 / math.sqrt(df)
    val, _ = integrate.quad(outer, 1e-12, hi, limit=200)
    return val


def _norm_cdf(a):
    """`inference._norm_cdf` on a workspace of its own."""
    return inference._norm_cdf(a, inference._Workspace(a.size))


def _poly(coef, x):
    return inference._poly(coef, x, np.empty_like(x))


def _norm_cdf_whole_array(a):
    """Reference normal CDF: every Cephes rational over the whole array, each
    region picked with `np.copyto`. `_norm_cdf` must match it bit for bit."""
    x = a * math.sqrt(0.5)
    ax = np.minimum(np.abs(x), 27.0)
    x2 = ax * ax
    lower = _poly(inference._ERFC_P, ax)
    lower /= _poly(inference._ERFC_Q, ax)
    far = _poly(inference._ERFC_R, ax)
    far /= _poly(inference._ERFC_S, ax)
    np.copyto(lower, far, where=ax >= 8.0)
    exp_neg = np.negative(x2, out=far)
    np.copyto(exp_neg, -np.inf, where=x2 > inference._MAX_EXP_ARG)
    np.exp(exp_neg, out=exp_neg)
    lower *= 0.5
    lower *= exp_neg
    cdf = np.subtract(1.0, lower, out=lower, where=x > 0.0)
    centre = _poly(inference._ERF_T, x2)
    centre /= _poly(inference._ERF_U, x2)
    centre *= x
    centre *= 0.5
    centre += 0.5
    np.copyto(cdf, centre, where=ax < 1.0)
    return cdf


def _reference_width(q, df):
    """The reference's k-independent (outer nodes, inner nodes) grid
    Φ(z) − Φ(z − qu), through `_norm_cdf_whole_array`."""
    u, _ = inference._outer_grid(df)
    z = inference._inner_grid()[0]
    return _norm_cdf_whole_array(z)[None, :] - _norm_cdf_whole_array(z[None, :] - (q * u)[:, None])


def _reference_rows(width, k):
    """The reference's inner sums, before the factor k, of a grid of widths,
    which the binary powering overwrites."""
    phi_w = inference._inner_grid()[1]
    power, n = None, int(k) - 1
    while n:
        if n & 1:
            power = width if power is None else np.multiply(power, width, out=power)
        n >>= 1
        if n:
            width = width * width
    return (power * phi_w[None, :]).sum(axis=1)


def _reference_power(width, k, df):
    """The reference's cdf from a `_reference_width` grid, which the binary
    powering overwrites: pass each k a copy."""
    _, w_dens = inference._outer_grid(df)
    inner = k * _reference_rows(width, k)
    return min(1.0, max(0.0, float(np.sum(w_dens * inner))))


def _studentized_range_cdf_reference(q, k, df):
    """Reference quadrature: the whole (outer nodes, inner nodes) grid at
    once, every intermediate a fresh array, through `_norm_cdf_whole_array`.
    `studentized_range_cdf` must match it bit for bit."""
    return _reference_power(_reference_width(q, df), k, df)


def _bits(values):
    return np.array(values, dtype=float).view(np.int64)


def _region_edges():
    """a where x = a·√½ is exactly 1, 8, √_MAX_EXP_ARG or the clip at 27 (the
    region edges) and its two neighbours either side, and ±0, subnormals,
    ±1e300 and ±inf."""
    a = [b / math.sqrt(0.5) for b in (1.0, 8.0, math.sqrt(inference._MAX_EXP_ARG), 27.0)]
    a += [0.0, 5e-324, 2.2250738585072014e-308, 1e300, math.inf]
    a = np.array(a + [-v for v in a])
    cells = [a]
    for direction in (np.inf, -np.inf):
        step = a
        for _ in range(2):
            step = np.nextafter(step, direction)
            cells.append(step)
    return np.concatenate(cells)


# (q, k, df, cdf) on the quadrature's df-graded grid. The scipy checks allow
# 1e-6, far more than any slip in the normal CDF or the grid would move a
# value, so these pin the kernel's output to 1e-13.
PINNED_SRANGE_CDF = [
    (0.5, 2, 5, 0.2619073981060855),
    (1.5, 2, 20, 0.6985141862348058),
    (3.0, 2, 120, 0.9640476801349931),
    (6.0, 2, 2000, 0.9999769007480204),
    (10.0, 2, 600, 0.9999999999957068),
    (25.0, 2, 2000, 1.0),
    (40.0, 2, 5, 0.9999989653821455),
    (0.5, 6, 600, 0.0007259565126414258),
    (2.0, 6, 5, 0.27798450616435993),
    (3.5, 6, 60, 0.8518790360206272),
    (4.5, 6, 600, 0.9808902554897259),
    (7.0, 6, 1100, 0.9999872869618294),
    (12.0, 6, 200, 0.9999999999999103),
    (40.0, 6, 2000, 1.0),
    (0.5, 12, 5, 1.1215266429239294e-06),
    (1.0, 12, 20, 0.00018729025663057216),
    (3.0, 12, 1100, 0.3925206148300451),
    (4.6, 12, 300, 0.9434713630061435),
    (6.0, 12, 10, 0.957638135457347),
    (8.0, 12, 1100, 0.9999987153296314),
    (15.0, 12, 2000, 1.0),
    (40.0, 12, 40, 0.999999999999996),
    (0.5, 20, 1924, 1.8677493887906123e-13),
    (2.5, 20, 5, 0.0998257700061496),
    (4.0, 20, 100, 0.6466699776044971),
    (5.0, 20, 1924, 0.9478043987817409),
    (7.5, 20, 40, 0.9993347074335743),
    (9.0, 20, 1924, 0.9999999535967803),
    (20.0, 20, 2000, 1.0),
    (40.0, 20, 500, 0.9999999999999407),
]


class TestRegIncBeta:
    def test_uniform_case(self):
        for x in (0.0, 0.2, 0.5, 0.77, 1.0):
            assert reg_inc_beta(x, 1, 1) == pytest.approx(x, abs=1e-14)

    def test_reflection_identity(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            a, b = rng.uniform(0.1, 20, size=2)
            x = rng.random()
            total = reg_inc_beta(x, a, b) + reg_inc_beta(1 - x, b, a)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 3, 4) == 0.0
        assert reg_inc_beta(1.0, 3, 4) == 1.0

    def test_half_integer_closed_form(self):
        # I_x(1/2, 1/2) = (2/pi) arcsin(sqrt(x))
        for x in (0.1, 0.35, 0.8):
            assert reg_inc_beta(x, 0.5, 0.5) == pytest.approx(
                2 / math.pi * math.asin(math.sqrt(x)), abs=1e-13
            )

    def test_domain_violations(self):
        with pytest.raises(ValidationError):
            reg_inc_beta(1.5, 1, 1)
        with pytest.raises(ValidationError):
            reg_inc_beta(0.5, -1, 1)
        for a, b in [(math.inf, 2), (2, math.inf)]:  # (0.5, inf, 2) raised NumericalError
            with pytest.raises(ValidationError, match="positive and finite"):
                reg_inc_beta(0.5, a, b)

    @pytest.mark.parametrize("x, a, b", [(math.nan, 1, 2), (0.5, math.nan, 2), (0.5, 1, math.nan)])
    def test_nan_is_a_validation_error(self, x, a, b):
        # NaN once ran 300 continued-fraction terms and raised NumericalError
        with pytest.raises(ValidationError):
            reg_inc_beta(x, a, b)

    def test_non_convergence_is_numerical(self):
        with pytest.raises(NumericalError, match="converge"):
            reg_inc_beta(0.5, 1e7, 1e7)


class TestFCdf:
    def test_limits(self):
        assert f_cdf(0.0, 3, 7) == 0.0
        assert f_cdf(math.inf, 3, 7) == 1.0
        assert f_cdf(1e9, 3, 7) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_at_one_for_equal_df(self):
        for d in (1, 2, 5, 20):
            assert f_cdf(1.0, d, d) == pytest.approx(0.5, abs=1e-13)

    def test_anova_example_point(self):
        assert f_cdf(16, 1, 2) == pytest.approx(0.9428090415820632, abs=1e-10)

    def test_against_quadrature_oracle(self):
        for d1 in (1, 2, 4, 10):
            for d2 in (1, 3, 8, 25):
                for x in (0.2, 0.7, 1.5, 4.0):
                    assert f_cdf(x, d1, d2) == pytest.approx(
                        f_cdf_oracle(x, d1, d2), abs=1e-8
                    )

    def test_negative_x(self):
        with pytest.raises(ValidationError):
            f_cdf(-0.1, 2, 2)

    @pytest.mark.parametrize("d1, d2", [(0, 2), (2, 0), (2, math.inf), (math.inf, 2)])
    def test_degrees_of_freedom_checked(self, d1, d2):
        # an infinite d2 once gave 0.0, an infinite d1 a message about x = nan
        with pytest.raises(ValidationError, match="degrees of freedom must be positive"):
            f_cdf(1.0, d1, d2)

    def test_non_integral_degrees_of_freedom(self):
        assert f_cdf(1.5, 2.5, 7.5) == pytest.approx(stats.f.cdf(1.5, 2.5, 7.5), abs=1e-12)

    @pytest.mark.parametrize("x, d1, d2, message", [
        (math.nan, 2, 20, "F statistic must be non-negative"),
        (1.0, math.nan, 20, "degrees of freedom must be positive"),
        (1.0, 2, math.nan, "degrees of freedom must be positive"),
    ])
    def test_nan_is_a_validation_error(self, x, d1, d2, message):
        with pytest.raises(ValidationError, match=message):
            f_cdf(x, d1, d2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNormCdf:
    def test_against_scipy_ndtr(self):
        a = np.linspace(-38.0, 8.5, 200_001)
        ref = special.ndtr(a)
        got = _norm_cdf(a)
        nonzero = ref > 0.0  # both underflow to 0 below a = -37.5
        assert np.all(np.abs(got[nonzero] - ref[nonzero]) <= 1e-12 * ref[nonzero])
        assert np.all(got[~nonzero] == 0.0)

    def test_limits(self):
        got = _norm_cdf(np.array([-np.inf, -1e300, 0.0, 1e300, np.inf]))
        assert got.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_region_edges_match_whole_array_kernel_bit_for_bit(self):
        # the sweep reaches a ≈ -37.5, where Φ is subnormal and the order of
        # the products shows in the last bit
        a = np.concatenate([_region_edges(), np.linspace(-40.0, 12.0, 200_001)])
        assert np.array_equal(_norm_cdf(a).view(np.int64),
                              _norm_cdf_whole_array(a).view(np.int64))

    @given(a=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=64),
                        elements=st.floats(-60.0, 12.0) | st.floats(allow_nan=False)))
    @settings(max_examples=200, deadline=None)
    def test_matches_whole_array_kernel_bit_for_bit(self, a):
        got = _norm_cdf(a)
        assert got.shape == a.shape
        assert np.array_equal(got.view(np.int64), _norm_cdf_whole_array(a).view(np.int64))

    def test_exp_range_ends_where_the_rounded_square_passes_it(self):
        # the far region's upper bound on |x| stands for x·x <= _MAX_EXP_ARG
        end = inference._EXP_END
        assert end * end > inference._MAX_EXP_ARG
        below = math.nextafter(end, 0.0)
        assert below * below <= inference._MAX_EXP_ARG

    @pytest.mark.parametrize("df", [1, 3, 11, 20, 500, 1938])
    def test_studentized_range_matches_whole_array_kernel(self, df):
        # the golden manifest has no pair with q > 10; perfbench's median
        # Tukey pair has q near 18, where most cells are in the far tail
        cases = [(float(q), k) for k in (2, 6, 12, 20) for q in np.geomspace(0.1, 100.0, 20)]
        got = [studentized_range_cdf(q, k, df) for q, k in cases]
        want = [_studentized_range_cdf_reference(q, k, df) for q, k in cases]
        assert np.array_equal(_bits(got), _bits(want))


class TestStudentizedRangeCdf:
    def test_zero(self):
        assert studentized_range_cdf(0.0, 3, 10) == 0.0

    def test_monotone_in_q_and_k(self):
        qs = np.linspace(0.2, 6, 12)
        vals = [studentized_range_cdf(float(q), 3, 20) for q in qs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        for q in (1.0, 2.5, 4.0):
            by_k = [studentized_range_cdf(q, k, 20) for k in (2, 3, 5, 8)]
            assert all(b < a for a, b in zip(by_k, by_k[1:]))

    def test_against_quadrature_oracle(self):
        for k, df, q in [(2, 5, 1.5), (3, 20, 3.578), (4, 10, 2.0), (6, 30, 4.5)]:
            assert studentized_range_cdf(q, k, df) == pytest.approx(
                studentized_range_cdf_oracle(q, k, df), abs=1e-6
            )

    def test_inverse_against_bisection_oracle(self):
        q_oracle = optimize.brentq(
            lambda q: studentized_range_cdf_oracle(q, 3, 20) - 0.95, 2.0, 6.0,
            xtol=1e-10,
        )
        assert q_oracle == pytest.approx(3.578, abs=5e-3)
        assert studentized_range_ppf(0.95, 3, 20) == pytest.approx(
            q_oracle, abs=5e-3
        )

    @pytest.mark.parametrize("q, k, df, expected", PINNED_SRANGE_CDF)
    def test_pinned_values(self, q, k, df, expected):
        assert abs(studentized_range_cdf(q, k, df) - expected) <= 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 20, 60, 480, 2000, 5000])
    def test_two_groups_match_exact_t_oracle(self, df):
        # for k = 2 the range is √2·|T| with T ~ t(df); at df = 1 the
        # largest q has p ≈ 1e-3, in the chi density's wide lower tail
        for q in np.geomspace(0.5, 1000.0, 40):
            exact = 2.0 * stats.t.cdf(q / math.sqrt(2.0), df) - 1.0
            assert abs(studentized_range_cdf(float(q), 2, df) - exact) <= 1e-12, q

    @pytest.mark.parametrize("df, limit_mb", [(1, 12.0), (20, 2.0), (480, 2.0), (2000, 2.0)])
    def test_one_call_peak_memory(self, df, limit_mb):
        studentized_range_cdf(3.0, 20, df)  # builds the cached grid
        tracemalloc.start()
        try:
            studentized_range_cdf(3.0, 20, df)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            studentized_range_cdf(1.0, 1, 10)
        with pytest.raises(ValidationError):
            studentized_range_cdf(1.0, 3, 0)
        with pytest.raises(ValidationError):
            studentized_range_cdf(-1.0, 3, 10)

    @pytest.mark.parametrize("k, df, message", [
        (3, math.inf, "degrees of freedom must be positive and finite"),
        (2.5, 10, "need k >= 2 groups, a whole number"),
        (math.inf, 10, "need k >= 2 groups, a whole number"),
    ])
    def test_infinite_df_and_fractional_k(self, k, df, message):
        # an infinite df once ran on a NaN grid; these k raised TypeError
        with pytest.raises(ValidationError, match=message):
            studentized_range_cdf(1.0, k, df)
        with pytest.raises(ValidationError, match=message):
            studentized_range_ppf(0.5, k, df)

    def test_whole_float_k_and_fractional_df(self):
        assert studentized_range_cdf(3.0, 3.0, 10) == studentized_range_cdf(3.0, 3, 10)
        assert studentized_range_cdf(3.0, 3, 10.5) == pytest.approx(
            stats.studentized_range.cdf(3.0, 3, 10.5), abs=1e-9)

    @pytest.mark.parametrize("q, k, df, message", [
        (math.nan, 3, 20, "q must be non-negative"),
        (1.0, math.nan, 20, "need k >= 2 groups"),
        (1.0, 3, math.nan, "degrees of freedom must be positive"),
    ])
    def test_nan_is_a_validation_error(self, q, k, df, message):
        # a NaN q once returned 0.0
        with pytest.raises(ValidationError, match=message):
            studentized_range_cdf(q, k, df)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_inverse_needs_p_inside_unit_interval(self, p):
        with pytest.raises(ValidationError, match=r"p must be in \(0, 1\)"):
            studentized_range_ppf(p, 3, 10)

    def test_inverse_beyond_the_bracket_cap(self):
        # at df = 1 the upper tail is heavy: for k = 2 the cdf is (2/π)·arctan(q/√2),
        # 1 - 4.5e-7 at q = 2e6, and k = 3's is heavier, so q* lies past the cap of 1e6
        assert studentized_range_cdf(2e6, 2, 1) == pytest.approx(
            2 / math.pi * math.atan(2e6 / math.sqrt(2)), abs=1e-12)
        assert studentized_range_cdf(1e6, 3, 1) < 1 - 1e-7
        # the input is valid and the cap is the routine's limit: NumericalError, exit 3
        with pytest.raises(NumericalError, match=r"^studentized range inverse out of range: "
                                                 r"p=0\.9999999, k=3, df=1$"):
            studentized_range_ppf(1 - 1e-7, 3, 1)


# the dfs of the bit-for-bit sweep: 1,008 to 96 outer nodes, 11 blocks to one
SWEEP_DFS = (1, 2, 3, 5, 11, 19, 20, 57, 500, 1100, 1938, 5000, 100_000)


class TestSkippedCells:
    """A cell at or below its inner node's floor reads Φ = 0 without any
    `_norm_cdf` region run on it, and the rows past q·u > reach take one
    constant per k; the bytes must be those of the full grid."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_floor_bound_holds_bit_for_bit(self):
        _, _, cdf_z, floor, reach, _ = inference._inner_grid()
        assert floor.size == 160 and np.all(floor <= -8.6)
        assert np.allclose(np.exp(-0.5 * floor * floor) / math.sqrt(2.0 * math.pi),
                           np.spacing(cdf_z) / 8.0, rtol=1e-12, atol=0.0)
        assert 17.0 < reach < 17.2
        for c, f in zip(cdf_z, floor):
            # the floor, its two float neighbours either side, then down to -40
            near = [f, np.nextafter(f, 0.0), np.nextafter(np.nextafter(f, 0.0), 0.0),
                    np.nextafter(f, -np.inf), np.nextafter(np.nextafter(f, -np.inf), -np.inf)]
            a = np.concatenate([near, np.linspace(f, -40.0, 20_001)])
            assert np.array_equal(_bits(c - _norm_cdf(a)), _bits(np.full(a.size, c))), c

    def test_normal_cdf_sees_live_rows_with_skipped_cells_at_minus_inf(self):
        # the benchmark's median Tukey pair (q = 17.9, df = 1,000): 47 of 96 rows
        # live, and in them every cell at or below its node's floor reads -inf
        z, _, _, floor, reach, _ = inference._inner_grid()
        u, _ = inference._outer_grid(1000)
        seen, norm_cdf = [], inference._norm_cdf
        with mock.patch.object(inference, "_norm_cdf",
                               lambda a, ws: seen.append(a.copy()) or norm_cdf(a, ws)):
            studentized_range_cdf(17.9, 12, 1000)
        (a,) = seen
        assert a.shape == (47, 160) and 17.9 * u[46] <= reach < 17.9 * u[47]
        grid = z[None, :] - (17.9 * u[:47])[:, None]
        skipped = grid <= floor
        assert 0 < skipped.sum() < skipped.size
        assert np.all(a[skipped] == -np.inf) and np.array_equal(a[~skipped], grid[~skipped])

    @pytest.mark.parametrize("k", range(2, 41))
    def test_saturated_row_matches_block_bit_for_bit(self, k):
        z, phi_w, cdf_z, floor, reach, clear = inference._inner_grid()
        # the reference's sums of rows whose width is Φ(z) in every cell
        want = _reference_rows(np.tile(cdf_z, (3, 1)), k)
        assert np.array_equal(_bits(want), _bits([inference._saturated_row(k - 1)] * 3))
        # the kernel's own block, with no row cut, on rows whose cells are all skipped
        cases = [(q, df) for df in (5, 1100) for q in (18.0, 30.0, 1e3, math.inf)]
        got = [studentized_range_cdf(q, k, df) for q, df in cases]
        uncut = (z, phi_w, cdf_z, floor, math.inf, clear)
        with mock.patch.object(inference, "_inner_grid", return_value=uncut):
            want = [studentized_range_cdf(q, k, df) for q, df in cases]
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("dfs", [SWEEP_DFS, range(1, 2001)])
    def test_outer_nodes_ascend(self, dfs):
        # the row cut relies on it: every row after the first with q·u > reach is cut
        for df in dfs:
            u, _ = inference._outer_grid(df)
            assert np.all(np.diff(u) > 0.0), df

    @pytest.mark.parametrize("df, blocks", [(1, 11), (5, 3), (1100, 1)])
    def test_row_cut_at_block_edges_matches_reference(self, df, blocks):
        # q·u crosses reach on the first, a middle or the last row of each block;
        # the q at which it meets that row exactly and two floats either side
        u, _ = inference._outer_grid(df)
        reach = inference._inner_grid()[4]
        block = inference._BLOCK_ROWS
        starts = range(0, u.size, block)
        assert len(starts) == blocks
        edges = {r for lo in starts for r in (lo, lo + block // 4, min(lo + block, u.size) - 1)}
        qs = []
        for r in sorted(edges):
            q = reach / u[r]
            qs += [q, *np.nextafter(q, [0.0, np.inf]),
                   *np.nextafter(np.nextafter(q, [0.0, np.inf]), [0.0, np.inf])]
        qs = [float(q) for q in qs]
        # each chosen row is the first row cut for one of them
        assert edges <= {int(np.searchsorted(q * u, reach, side="right")) for q in qs}
        ks = (2, 6, 12, 33)
        got = [studentized_range_cdf(q, k, df) for q in qs for k in ks]
        want = []
        for q in qs:
            width = _reference_width(q, df)
            want += [_reference_power(width.copy(), k, df) for k in ks]
        assert np.array_equal(_bits(got), _bits(want))


def _regions(a):
    """Which of `_norm_cdf`'s passes `a` gives work: the P/Q, R/S and centre
    regions, and the flip of the positive cells."""
    ax = np.abs(np.multiply(a, math.sqrt(0.5)))
    return {"P/Q": bool(np.any((ax >= 1.0) & (ax < 8.0))),
            "R/S": bool(np.any((ax >= 8.0) & (ax < inference._EXP_END))),
            "centre": bool(np.any(ax < 1.0)), "positive": bool(np.any(a > 0.0))}


def _rationals(regions):
    """The `_poly` calls of `_norm_cdf`: a numerator and a denominator per
    region that holds a cell."""
    return 2 * (regions["P/Q"] + regions["R/S"] + regions["centre"])


class TestEmptyRegions:
    """A `_norm_cdf` region whose mask selects no cell runs no gather,
    rational or exp, the x > 0 flip runs only on a block with a positive
    cell, and a block whose last q·u is at most `clear` runs no floor test;
    the bytes must be those of the whole-array kernel."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a, empty", [
        (np.linspace(-11.0, 5.0, 15_360), {"R/S"}),  # |x| < 8 everywhere
        (np.linspace(-40.0, 5.0, 15_360), set()),
        (np.concatenate([np.linspace(-40.0, -1.5, 7_680), np.linspace(1.5, 9.0, 7_680)]),
         {"centre"}),
        (np.linspace(-40.0, 0.0, 15_360), {"positive"}),  # 0 itself is not positive
        (np.linspace(-11.0, -1.5, 15_360), {"R/S", "centre", "positive"}),
        (np.full(15_360, -np.inf), {"P/Q", "R/S", "centre", "positive"}),  # every cell skipped
        (np.linspace(-0.5, 0.5, 15_360), {"P/Q", "R/S"}),
    ])
    def test_block_matches_whole_array_kernel(self, a, empty):
        a = a.reshape(96, 160)
        regions = _regions(a)
        assert {name for name, live in regions.items() if not live} == empty
        with mock.patch.object(inference, "_poly", wraps=inference._poly) as poly:
            got = _norm_cdf(a)
        assert np.array_equal(got.view(np.int64), _norm_cdf_whole_array(a).view(np.int64))
        assert poly.call_count == _rationals(regions)

    def _blocks(self, q, k, df):
        """The cdf and, per block, the `_norm_cdf` input and its `_poly` calls."""
        blocks, norm_cdf = [], inference._norm_cdf
        with mock.patch.object(inference, "_poly", wraps=inference._poly) as poly:
            def record(a, ws):
                seen, before = a.copy(), poly.call_count  # `a` is `ws`'s first row
                out = norm_cdf(a, ws)
                blocks.append((seen, poly.call_count - before))
                return out
            with mock.patch.object(inference, "_norm_cdf", record):
                got = studentized_range_cdf(q, k, df)
        return got, blocks

    def test_tail_pairs_at_df_9_match_reference(self):
        # CI's table: 3 groups of 4, df = 9, q = 1.5 and two q > 40; their
        # blocks hold R/S cells or none
        values = (10, 11, 12, 13, 11, 12, 13, 14, 40, 41, 42, 43)
        result = tukey_hsd(values, [i // 4 + 1 for i in range(12)])
        qs = sorted(p.q_stat for p in result.pairs)
        assert result.df_within == 9 and qs[0] < 2.0 and qs[1] > 40.0
        seen = set()
        for q in qs:
            got, blocks = self._blocks(q, 3, 9)
            assert np.array_equal(_bits(got), _bits(_studentized_range_cdf_reference(q, 3, 9)))
            for a, calls in blocks:
                regions = _regions(a)
                seen.add(regions["R/S"])
                assert calls == _rationals(regions)
        assert seen == {False, True}

    @pytest.mark.parametrize("q, k, df, empty", [
        (2.0, 12, 1000, {"R/S"}),  # CI's check: 4 `_poly` calls, not 6
        # q·u > 11.9 on every row: a < -3.4, and each cell below -11.3 is skipped
        (16.5, 12, 1000, {"R/S", "centre", "positive"}),
    ])
    def test_quadrature_blocks_skip_empty_regions(self, q, k, df, empty):
        got, blocks = self._blocks(q, k, df)
        assert np.array_equal(_bits(got), _bits(_studentized_range_cdf_reference(q, k, df)))
        regions = [_regions(a) for a, _ in blocks]
        assert {name for name in regions[0] if not any(r[name] for r in regions)} == empty
        assert [calls for _, calls in blocks] == [_rationals(r) for r in regions]

    def test_clear_is_the_largest_qu_that_reaches_no_floor(self):
        z, _, _, floor, _, clear = inference._inner_grid()
        assert 3.89 < clear <= np.min(z - floor)
        assert np.all(z - clear > floor)
        assert np.any(z - np.nextafter(clear, np.inf) <= floor)

    @pytest.mark.parametrize("df", [1, 5, 20, 1000])
    def test_floor_test_skipped_up_to_clear(self, df):
        # the q at which each block's last row meets `clear` and two floats
        # either side: a block whose last q·u is at most `clear` runs no floor
        # test, which is two `np.copyto` calls of the block's six
        u, _ = inference._outer_grid(df)
        z, _, _, floor, reach, clear = inference._inner_grid()
        block = inference._BLOCK_ROWS
        ends = [min(lo + block, u.size) - 1 for lo in range(0, u.size, block)]
        qs = []
        for r in ends:
            q = clear / u[r]
            qs += [q, *np.nextafter(q, [0.0, np.inf]),
                   *np.nextafter(np.nextafter(q, [0.0, np.inf]), [0.0, np.inf])]
        qs = [float(q) for q in qs]
        for r in ends:  # each block's last row on either side of `clear`
            assert {q * u[r] > clear for q in qs} == {False, True}
        for q in qs:
            qu = q * u
            # no cell of a row at or below `clear` is at or below its floor
            assert np.all(z[None, :] - qu[qu <= clear, None] > floor)
            live = int(np.searchsorted(qu, reach, side="right"))
            lasts = [min(lo + block, live) - 1 for lo in range(0, live, block)]
            tested = sum(bool(qu[r] > clear) for r in lasts)
            with mock.patch.object(np, "copyto", wraps=np.copyto) as copyto:
                got = [studentized_range_cdf(q, k, df) for k in (2, 6, 12)]
            assert copyto.call_count == 3 * (4 * len(lasts) + 2 * tested)
            width = _reference_width(q, df)
            want = [_reference_power(width.copy(), k, df) for k in (2, 6, 12)]
            assert np.array_equal(_bits(got), _bits(want))


class TestSharedWorkspace:
    """`tukey_hsd` and `studentized_range_ppf` hand one workspace to all their
    quadratures; the bytes must be those of a grid allocated per call."""

    def test_sweep_matches_reference_bit_for_bit(self):
        # df 1, 2, 3, 5 and 11 take 1,008, 528, 368, 240 and 128 outer nodes:
        # several blocks, the last one short; one workspace serves every df
        # the reference builds each (q, df) width once and powers a copy per k
        qs = [float(q) for q in np.geomspace(1e-3, 1e3, 60)] + [0.5, 17.9, 45.0]
        ks = (2, 3, 4, 6, 7, 12, 20, 33)
        dfs = SWEEP_DFS
        cases = [(q, k, df) for df in dfs for k in ks for q in qs]
        ws = inference._Workspace()
        got = [studentized_range_cdf(*case, ws=ws) for case in cases]
        reference = {}
        for df in dfs:
            for q in qs:
                width = _reference_width(q, df)
                reference.update({(q, k, df): _reference_power(width.copy(), k, df) for k in ks})
        want = [reference[case] for case in cases]
        assert len(want) == 6552
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("q", [1.0, 5.0, 17.9, 45.0])
    def test_call_in_open_workspace_allocates_no_grid(self, q):
        # one (96, 160) float array is 123 kB; the call once peaked at 1.1 MB
        studentized_range_cdf(q, 12, 1100)  # builds the cached grid
        ws = inference._Workspace()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            studentized_range_cdf(q, 12, 1100, ws=ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 64_000

    def test_tukey_hsd_releases_its_workspace(self):
        labels = np.arange(300) % 6
        values = np.sin(np.arange(300.0)) + 0.2 * labels
        tukey_hsd(values, labels)  # builds the cached grid
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tukey_hsd(values, labels)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert current - start < 64_000

    @staticmethod
    def _workspaces_made(call) -> int:
        inference._inner_grid()  # cached, on a workspace of its own
        with mock.patch.object(inference, "_Workspace", wraps=inference._Workspace) as made:
            call()
        return made.call_count

    @pytest.mark.parametrize("groups", [4, 12])
    def test_one_workspace_per_tukey_hsd(self, groups):
        # 6 and 66 pairs, each pair one quadrature
        labels = np.arange(240) % groups
        values = np.sin(np.arange(240.0)) + 0.2 * labels
        assert len(tukey_hsd(values, labels).pairs) == groups * (groups - 1) // 2
        assert self._workspaces_made(lambda: tukey_hsd(values, labels)) == 1

    def test_one_workspace_per_ppf(self):
        assert self._workspaces_made(lambda: studentized_range_ppf(0.95, 3, 20)) == 1

    def test_no_workspace_for_degenerate_groups(self):
        def call():
            with pytest.raises(DegenerateInputError):
                tukey_hsd([1, 1, 2, 2], [1, 1, 2, 2])
        assert self._workspaces_made(call) == 0

    def test_threads_match_serial_runs(self):
        # df = 5 takes three blocks, the others one; a switch interval of 1 µs
        # interleaves the threads' numpy calls
        rng = np.random.default_rng(20)
        herds = []
        for groups, n in ((3, 8), (4, 60), (7, 200), (12, 500)):
            labels = np.arange(n) % groups
            herds.append((rng.normal(size=n) + 0.5 * labels, labels))
        serial = [json_text(tukey_hsd(v, g).as_dict()) for v, g in herds]
        got = [[] for _ in herds]

        def run(i):
            for _ in range(3):
                got[i].append(json_text(tukey_hsd(*herds[i]).as_dict()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(herds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[text] * 3 for text in serial]

    def test_ppf_unchanged(self):
        # the bisection's result before its calls shared a workspace
        assert studentized_range_ppf(0.95, 3, 20).hex() == "0x1.c9f9c3e000000p+1"


class TestOneWayAnova:
    def test_equal_group_means(self):
        r = one_way_anova([1, 2, 3, 1, 2, 3], [1, 1, 1, 2, 2, 2])
        assert r.f_stat == pytest.approx(0.0, abs=1e-12)
        assert r.p_value == pytest.approx(1.0, abs=1e-12)

    def test_two_group_example(self):
        # SS_between = 16, SS_within = 1, df = (1, 2)
        r = one_way_anova([1, 2, 5, 6], [1, 1, 2, 2])
        assert r.f_stat == pytest.approx(32.0, rel=1e-12)
        assert (r.df_between, r.df_within) == (1, 2)
        assert r.p_value == pytest.approx(1 - f_cdf_oracle(32, 1, 2), abs=1e-8)
        assert r.group_means == (1.5, 5.5)
        assert r.grand_mean == 3.5

    def test_degenerate_zero_within_variance(self):
        r = one_way_anova([1, 1, 5, 5], [1, 1, 2, 2])
        assert r.degenerate
        assert r.p_value == 0.0

    def test_degenerate_all_equal(self):
        r = one_way_anova([4, 4, 4, 4], [1, 1, 2, 2])
        assert r.degenerate
        assert r.f_stat == 0.0
        assert r.p_value == 1.0

    def test_fewer_than_two_groups(self):
        with pytest.raises(ValidationError, match="at least 2 groups"):
            one_way_anova([1, 2, 3], [1, 1, 1])

    def test_n_must_exceed_k(self):
        with pytest.raises(ValidationError, match="more observations"):
            one_way_anova([1.0, 2.0], [1, 2])

    @pytest.mark.parametrize("values, labels, message", [
        ([1.0, 2.0, 3.0], [1, 2], "1-d and equal length"),
        ([[1.0, 2.0], [3.0, 4.0]], [[1, 2], [1, 2]], "1-d and equal length"),
        ([1.0, math.nan, 3.0, 4.0], [1, 1, 2, 2], "non-finite"),
        ([1.0, 2.0, math.inf, 4.0], [1, 1, 2, 2], "non-finite"),
    ])
    def test_grouping_checks(self, values, labels, message):
        for test in (one_way_anova, tukey_hsd):
            with pytest.raises(ValidationError, match=message):
                test(values, labels)

    @pytest.mark.parametrize("labels", [
        [1.2, 1.7, 1.2, 1.7, 2.5, 2.5],  # once cast to 1, 1, 1, 1, 2, 2: df_between 1
        [1e30] * 3 + [1] * 3,
        [math.nan] * 3 + [1] * 3,
        [math.inf] * 3 + [1] * 3,
        [2.0**63] * 3 + [1] * 3,
        np.array([2**63] * 3 + [1] * 3, dtype=np.uint64),
        ["a", "a", "a", "b", "b", "b"],
    ])
    def test_labels_must_be_whole_int64(self, tmp_path, labels):
        values = [1, 2, 3, 4, 5, 6]
        for test in (one_way_anova, tukey_hsd,
                     lambda v, g: emit_boxplot_svg(v, g, "W", tmp_path / "box.svg")):
            with pytest.raises(ValidationError, match="labels must be whole numbers within int64"):
                test(values, labels)

    def test_whole_labels_of_any_numeric_type(self):
        values = [1, 2, 3, 4, 5, 6]
        want = one_way_anova(values, [1, 2, 1, 2, 3, 3])
        assert want.df_between == 2
        for labels in ([1.0, 2.0, 1.0, 2.0, 3.0, 3.0], np.array([1, 2, 1, 2, 3, 3], dtype=np.uint8)):
            assert one_way_anova(values, labels) == want
        edges = [-2**63] * 3 + [2**63 - 1] * 3
        assert one_way_anova(values, edges).df_between == 1
        assert one_way_anova(values, np.array(edges[3:] + [0] * 3, dtype=np.uint64)).df_between == 1
        assert one_way_anova(values, [-2.0**63] * 3 + [0.0] * 3).df_between == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_values_match_mpmath(self):
        # unscaled, the first table's sums of squares overflow, and the
        # second's total (between 0.9e308 plus within 1e308) does
        x, y = math.sqrt(0.5e308), math.sqrt(0.9e308)
        for values, labels in [([1e308] + [0.0] * 8, [1] * 8 + [2]),
                               ([x, -x, y, y], [1, 1, 2, 2])]:
            r = one_way_anova(values, labels)
            f, means, grand = mp_anova(values, labels)
            assert not r.degenerate
            assert r.f_stat == pytest.approx(f, rel=1e-12)
            assert r.group_means == pytest.approx(means, rel=1e-12)
            assert r.grand_mean == pytest.approx(grand, rel=1e-12)

    @pytest.mark.parametrize("p", [0, -30])
    def test_degenerate_test_is_scale_free(self, p):
        # at 2^-30 the total sum of squares fell below the old floor of 1
        values = [math.ldexp(v, p) for v in (1, 1.1, 2, 2.1, 3, 3.05)]
        r = one_way_anova(values, [1, 1, 2, 2, 3, 3])
        assert not r.degenerate
        assert r.f_stat == 520.1111111111106

    def test_sum_of_squares_decomposition(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(6, 40))
            k = int(rng.integers(2, 5))
            labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
            values = rng.normal(size=n)
            r = one_way_anova(values, labels)
            ss_total = float(((values - values.mean()) ** 2).sum())
            groups = [values[labels == g] for g in range(1, k + 1)]
            ssb = sum(g.size * (g.mean() - values.mean()) ** 2 for g in groups)
            ssw = sum(((g - g.mean()) ** 2).sum() for g in groups)
            assert ssb + ssw == pytest.approx(ss_total, rel=1e-9)
            expected_f = (ssb / r.df_between) / (ssw / r.df_within)
            assert r.f_stat == pytest.approx(expected_f, rel=1e-9)

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=20)
        labels = rng.integers(1, 4, size=20)
        base = one_way_anova(values, labels)
        for a, b in [(2.5, 10), (-3, 4), (0.01, -7)]:
            r = one_way_anova(a * values + b, labels)
            assert r.f_stat == pytest.approx(base.f_stat, rel=1e-9)


class TestTukeyHsd:
    def test_identical_groups(self):
        r = tukey_hsd([1, 2, 3, 1, 2, 3], [1, 1, 1, 2, 2, 2])
        (pair,) = r.pairs
        assert pair.mean_diff == 0.0
        assert pair.p_adj == pytest.approx(1.0, abs=1e-9)
        assert not pair.reject_at_alpha

    def test_one_far_group(self, rng):
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        c = rng.normal(size=10) + 100
        values = np.concatenate([a, b, c])
        labels = np.repeat([1, 2, 3], 10)
        r = tukey_hsd(values, labels)
        decisions = {(p.group_a, p.group_b): p.reject_at_alpha for p in r.pairs}
        assert decisions[(1, 3)] and decisions[(2, 3)]
        assert not decisions[(1, 2)]

    def test_unequal_sizes_uses_kramer_se(self):
        values = np.array([1.0, 2.0, 3.0, 10.0, 11.0])
        labels = np.array([1, 1, 1, 2, 2])
        r = tukey_hsd(values, labels)
        (pair,) = r.pairs
        ms_within = r.ms_within
        se = math.sqrt(ms_within / 2 * (1 / 3 + 1 / 2))
        assert pair.q_stat == pytest.approx(abs(pair.mean_diff) / se, rel=1e-12)

    def test_two_group_matches_anova_decision(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            values = np.concatenate([rng.normal(size=n), rng.normal(size=n) + 1])
            labels = np.repeat([1, 2], n)
            anova = one_way_anova(values, labels)
            tukey = tukey_hsd(values, labels)
            (pair,) = tukey.pairs
            assert pair.q_stat**2 == pytest.approx(2 * anova.f_stat, rel=1e-9)
            assert pair.p_adj == pytest.approx(anova.p_value, abs=1e-7)
            for alpha in (0.01, 0.05, 0.1, 0.5):
                if abs(anova.p_value - alpha) > 1e-6:
                    assert (pair.p_adj < alpha) == (anova.p_value < alpha)

    def test_two_groups_at_df_3_match_exact_t_oracle(self):
        r = tukey_hsd([1.0, 2.0, 3.0, 100.0, 101.5], [1, 1, 1, 2, 2])  # q ≈ 150
        (pair,) = r.pairs
        assert r.df_within == 3
        exact = 2.0 * stats.t.sf(pair.q_stat / math.sqrt(2.0), 3)
        assert abs(pair.p_adj - exact) <= 1e-12

    def test_one_quadrature_per_pair(self):
        # the benchmark times each pair's `studentized_range_cdf` call
        spy = mock.patch.object(inference, "studentized_range_cdf",
                                wraps=inference.studentized_range_cdf)
        values, labels = np.arange(24.0) % 7, np.repeat([1, 2, 3, 4], 6)
        with spy as cdf:
            r = tukey_hsd(values, labels)
        assert cdf.call_count == len(r.pairs) == 6
        assert {c.args[1:] for c in cdf.call_args_list} == {(4, 20)}

    def test_zero_within_variance(self):
        with pytest.raises(DegenerateInputError):
            tukey_hsd([1, 1, 2, 2], [1, 1, 2, 2])
        # the ANOVA calls these groups degenerate; Tukey gave q = 7.8e15
        values, labels = [1, 1, 1, 2, 2, 2 + 4e-16], [1, 1, 1, 2, 2, 2]
        assert one_way_anova(values, labels).degenerate
        with pytest.raises(DegenerateInputError):
            tukey_hsd(values, labels)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_within_variance_raises(self):
        # ms_within = inf gave q = 0 and p_adj = 1 for every pair; here the
        # reported ms_within, about 1.25e615, is past the double range
        with pytest.raises(NumericalError, match="^within-group mean square overflowed$"):
            tukey_hsd([1e308] + [0.0] * 8, [1] * 8 + [2])
        # and ms_within = 0.0 came next to q = 4.24: here it is about 1e-400
        with pytest.raises(NumericalError, match="^within-group mean square underflowed$"):
            tukey_hsd([1e-200, 2e-200, 3e-200, 5e-200, 4e-200], [1, 1, 2, 2, 2])
        # here ms_within (0.5e308) and the mean difference are finite
        x, y = math.sqrt(0.5e308), math.sqrt(0.9e308)
        r = tukey_hsd([x, -x, y, y], [1, 1, 2, 2])
        assert r.ms_within == pytest.approx(x * x, rel=1e-12)
        assert r.pairs[0].mean_diff == y
        f = mp_anova([x, -x, y, y], [1, 1, 2, 2])[0]
        assert r.pairs[0].q_stat == pytest.approx(math.sqrt(2 * f), rel=1e-12)

    def test_text_and_json_output(self):
        r = tukey_hsd([1, 2, 5, 6, 9, 10], [1, 1, 2, 2, 3, 3])
        text = r.to_text()
        assert len(text.splitlines()) == 4  # header + 3 pairs
        doc = json.loads(json_text(r.as_dict()))
        assert len(doc["pairs"]) == 3
        assert doc["alpha"] == 0.05
        assert doc["pairs"][0]["reject"] == r.pairs[0].reject_at_alpha

    def test_text_columns_align_with_header(self):
        labels = [1, 1, 2, 2, 12, 12, 345, 345]
        r = tukey_hsd([1, 2, 5, 6, 9, 10, 3, 8], labels)
        header, *rows = r.to_text().splitlines()

        def edges(line):
            fields = list(re.finditer(r"\S+", line))
            return [f.end() for f in fields[:4]] + [fields[4].start()]

        assert [row.split()[0] for row in rows][-1] == "12-345"
        for row in rows:
            assert edges(row) == edges(header), row

    def test_invalid_alpha(self):
        with pytest.raises(ValidationError, match="alpha"):
            tukey_hsd([1, 2, 3, 4], [1, 1, 2, 2], alpha=1.5)
