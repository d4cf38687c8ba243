import json
import math
import re

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize, special

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
from herdcluster.inference import _norm_cdf
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


# (q, k, df, cdf) on the quadrature's fixed grid. The scipy checks allow
# 1e-6, far more than any slip in the normal CDF or the grid would move a
# value, so these pin the kernel's output to 1e-13.
PINNED_SRANGE_CDF = [
    (0.5, 2, 5, 0.2619073981060855),
    (1.5, 2, 20, 0.6985141862348058),
    (3.0, 2, 120, 0.9640476801349931),
    (6.0, 2, 2000, 0.9999769007484595),
    (10.0, 2, 600, 0.9999999999955655),
    (25.0, 2, 2000, 1.0),
    (40.0, 2, 5, 0.9999989653821455),
    (0.5, 6, 600, 0.0007259565126414258),
    (2.0, 6, 5, 0.27798450616435993),
    (3.5, 6, 60, 0.8518790360206272),
    (4.5, 6, 600, 0.9808902554895861),
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
    (5.0, 20, 1924, 0.9478043987814591),
    (7.5, 20, 40, 0.9993347074335743),
    (9.0, 20, 1924, 0.9999999535964829),
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

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            studentized_range_cdf(1.0, 1, 10)
        with pytest.raises(ValidationError):
            studentized_range_cdf(1.0, 3, 0)
        with pytest.raises(ValidationError):
            studentized_range_cdf(-1.0, 3, 10)


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
