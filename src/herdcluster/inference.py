"""One-way ANOVA and Tukey HSD over cluster groupings.

The distribution machinery (normal CDF, regularized incomplete beta, F CDF,
studentized range CDF) is implemented here on `math.lgamma` and numpy array
handling alone, so the hypothesis tests carry no other numerical dependencies.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import scaled, unscaled
from .errors import DegenerateInputError, NumericalError, ValidationError


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz). Term m
    applies its even, then its odd coefficient, then tests convergence."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValidationError(f"shape parameters must be positive, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ValidationError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def f_cdf(x: float, d1: int, d2: int) -> float:
    """CDF of the F distribution with (d1, d2) degrees of freedom."""
    if d1 < 1 or d2 < 1:
        raise ValidationError(f"degrees of freedom must be positive, got {d1}, {d2}")
    if x < 0.0:
        raise ValidationError(f"F statistic must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    return reg_inc_beta(d1 * x / (d1 * x + d2), d1 / 2.0, d2 / 2.0)


# Rational approximations from Cephes `ndtr.c` (S. L. Moshier), highest
# power first: erf(x) = x·T(x²)/U(x²) for |x| < 1, and erfc(x) =
# exp(-x²)·P(x)/Q(x) for 1 <= x < 8, exp(-x²)·R(x)/S(x) beyond.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_MAX_EXP_ARG = math.log(sys.float_info.max)  # exp(-x²) is taken as 0 beyond


def _poly(coef, x: np.ndarray) -> np.ndarray:
    y = coef[0] * x + coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _norm_cdf(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, Φ(a) = erfc(-a/√2)/2, by whole-array rational
    approximations. Each region is evaluated over the whole array and picked
    with `np.copyto(..., where=)`, so no region is gathered into a copy.
    Relative error stays below 1e-13 down to a ≈ -37.5, where Φ underflows
    to 0."""
    x = a * math.sqrt(0.5)
    ax = np.minimum(np.abs(x), 27.0)  # keeps the tail polynomials finite
    x2 = ax * ax
    lower = _poly(_ERFC_P, ax)  # becomes Φ(-|a|) = erfc(|x|)/2
    lower /= _poly(_ERFC_Q, ax)
    far = _poly(_ERFC_R, ax)
    far /= _poly(_ERFC_S, ax)
    np.copyto(lower, far, where=ax >= 8.0)
    exp_neg = np.negative(x2, out=far)
    np.copyto(exp_neg, -np.inf, where=x2 > _MAX_EXP_ARG)
    np.exp(exp_neg, out=exp_neg)
    lower *= 0.5
    lower *= exp_neg
    cdf = np.subtract(1.0, lower, out=lower, where=x > 0.0)
    centre = _poly(_ERF_T, x2)  # 1/2 + erf(x)/2
    centre /= _poly(_ERF_U, x2)
    centre *= x
    centre *= 0.5
    centre += 0.5
    np.copyto(cdf, centre, where=ax < 1.0)
    return cdf


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n_nodes: int, lo: float, hi: float, panels: int):
    """Composite Gauss-Legendre nodes/weights over [lo, hi]."""
    base_x, base_w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


# panel counts chosen so the double integral lands well inside the 1e-6
# budget (observed worst-case error ~1e-9 up to k=20, df=1..120)
_OUTER_NODES, _OUTER_PANELS = 16, 16
_INNER_NODES, _INNER_PANELS = 20, 10
_INNER_SPAN = 8.5


@functools.cache
def _inner_grid():
    """Inner nodes z, their weights times the normal density, and Φ(z): the
    inner grid is fixed, so these are computed once."""
    z, zw = _gauss_legendre(_INNER_NODES, -_INNER_SPAN, _INNER_SPAN, _INNER_PANELS)
    phi_w = zw * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return z, phi_w, _norm_cdf(z)


def studentized_range_cdf(q: float, k: int, df: int) -> float:
    """CDF of the studentized range with k groups and df error degrees of
    freedom: outer composite Gauss-Legendre quadrature over the chi-based
    scale factor, inner quadrature over the normal location."""
    if k < 2:
        raise ValidationError(f"need k >= 2 groups, got {k}")
    if df < 1:
        raise ValidationError(f"degrees of freedom must be positive, got {df}")
    if q < 0.0:
        raise ValidationError(f"q must be non-negative, got {q}")
    if q == 0.0:
        return 0.0

    # scale u = s/sigma has density prop. to u^(df-1) exp(-df u^2 / 2)
    ln_norm = (
        (df / 2.0) * math.log(df) - math.lgamma(df / 2.0)
        - (df / 2.0 - 1.0) * math.log(2.0)
    )
    lo = max(0.0, 1.0 - 9.0 / math.sqrt(df))
    hi = 1.0 + 9.0 / math.sqrt(df)
    u, w = _gauss_legendre(_OUTER_NODES, lo, hi, _OUTER_PANELS)
    dens = np.exp(ln_norm + (df - 1.0) * np.log(u) - df * u * u / 2.0)

    z, phi_w, cdf_z = _inner_grid()
    # inner integral for every outer node at once: P(range <= q*u | u)
    shifted = _norm_cdf(z[None, :] - (q * u)[:, None])
    inner = k * ((cdf_z[None, :] - shifted) ** (k - 1) * phi_w[None, :]).sum(axis=1)

    p = float(np.sum(w * dens * inner))
    return min(1.0, max(0.0, p))


_PPF_TOL = 1e-8  # bisection stops at this width relative to max(1, q)


def studentized_range_ppf(p: float, k: int, df: int) -> float:
    """Inverse studentized range CDF by bisection."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must be in (0, 1), got {p}")
    lo, hi = 0.0, 1.0
    while studentized_range_cdf(hi, k, df) < p:
        hi *= 2.0
        if hi > 1e6:
            raise ValidationError("studentized range inverse out of range")
    while hi - lo > _PPF_TOL * max(1.0, hi):
        mid = (lo + hi) / 2.0
        if studentized_range_cdf(mid, k, df) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class AnovaResult:
    f_stat: float
    df_between: int
    df_within: int
    p_value: float
    group_means: tuple[float, ...]
    grand_mean: float
    degenerate: bool = False

    def as_dict(self) -> dict:
        return {**asdict(self), "group_means": list(self.group_means)}


@dataclass(frozen=True)
class TukeyPair:
    group_a: int
    group_b: int
    mean_diff: float
    q_stat: float
    p_adj: float
    reject_at_alpha: bool

    def as_dict(self) -> dict:
        doc = dict(vars(self))
        doc["reject"] = doc.pop("reject_at_alpha")
        return doc


@dataclass(frozen=True)
class TukeyResult:
    pairs: tuple[TukeyPair, ...]
    alpha: float
    df_within: int
    ms_within: float

    def as_dict(self) -> dict:
        return {**vars(self), "pairs": [p.as_dict() for p in self.pairs]}

    def to_text(self) -> str:
        lines = [
            f"{'pair':>8} {'diff':>12} {'q':>10} {'p_adj':>10} reject",
        ]
        for p in self.pairs:
            lines.append(
                f"{f'{p.group_a}-{p.group_b}':>8} {p.mean_diff:>12.4f} "
                f"{p.q_stat:>10.4f} {p.p_adj:>10.5f} "
                f"{'yes' if p.reject_at_alpha else 'no'}"
            )
        return "\n".join(lines)


def _grouped(values, labels):
    """`scaled` values and their exponent, the group ids and each group's
    scaled values: F and q are scale-free, and these sums of squares finite."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if values.shape != labels.shape or values.ndim != 1:
        raise ValidationError("values and labels must be 1-d and equal length")
    if not np.all(np.isfinite(values)):
        raise ValidationError("values contain non-finite entries")
    group_ids = np.unique(labels)
    if group_ids.size < 2:
        raise ValidationError("need at least 2 groups")
    if values.size <= group_ids.size:
        raise ValidationError("need more observations than groups")
    values, e = scaled(values)
    return values, e, [int(g) for g in group_ids], [values[labels == g] for g in group_ids]


def _sums_of_squares(values, groups):
    """Grand mean and the between-group, within-group and total sums of
    squares."""
    grand = float(values.mean())
    ss_between = float(sum(g.size * (g.mean() - grand) ** 2 for g in groups))
    ss_within = float(sum(((g - g.mean()) ** 2).sum() for g in groups))
    ss_total = float(((values - grand) ** 2).sum())
    return grand, ss_between, ss_within, ss_total


def _negligible(ss, ss_total):
    """Whether `ss` is rounding residue next to `ss_total`: the one degeneracy test."""
    return ss <= 1e-14 * ss_total


def one_way_anova(values, labels) -> AnovaResult:
    """F test for equality of group means; groups are the distinct label
    values. Zero within-group variance yields a flagged degenerate result
    rather than an infinite statistic."""
    values, e, group_ids, groups = _grouped(values, labels)
    k, n = len(groups), values.size
    grand, ss_between, ss_within, ss_total = _sums_of_squares(values, groups)
    grand = unscaled(grand, e, "grand mean")
    df_b, df_w = k - 1, n - k
    means = tuple(unscaled(g.mean(), e, "group mean") for g in groups)

    if _negligible(ss_within, ss_total):
        return AnovaResult(
            f_stat=0.0 if _negligible(ss_between, ss_total) else math.inf,
            df_between=df_b, df_within=df_w,
            p_value=1.0 if _negligible(ss_between, ss_total) else 0.0,
            group_means=means, grand_mean=grand, degenerate=True,
        )

    f_stat = (ss_between / df_b) / (ss_within / df_w)
    return AnovaResult(
        f_stat=f_stat,
        df_between=df_b,
        df_within=df_w,
        p_value=1.0 - f_cdf(f_stat, df_b, df_w),
        group_means=means,
        grand_mean=grand,
    )


def tukey_hsd(values, labels, alpha: float = 0.05) -> TukeyResult:
    """All pairwise comparisons of group means with the studentized range
    correction; unequal group sizes use the Tukey-Kramer standard error."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    values, e, group_ids, groups = _grouped(values, labels)
    k, n = len(groups), values.size
    _, _, ss_within, ss_total = _sums_of_squares(values, groups)
    df_w = n - k
    if _negligible(ss_within, ss_total):
        raise DegenerateInputError("zero within-group variance")
    ms_within = ss_within / df_w
    reported_ms = unscaled(ms_within, 2 * e, "within-group mean square")

    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            ga, gb = groups[i], groups[j]
            diff = float(gb.mean() - ga.mean())
            se = math.sqrt(ms_within / 2.0 * (1.0 / ga.size + 1.0 / gb.size))
            q = abs(diff) / se
            p_adj = 1.0 - studentized_range_cdf(q, k, df_w)  # cdf is clipped to [0, 1]
            pairs.append(
                TukeyPair(
                    group_a=group_ids[i], group_b=group_ids[j],
                    mean_diff=unscaled(diff, e, "mean difference"), q_stat=q,
                    p_adj=p_adj, reject_at_alpha=p_adj < alpha,
                )
            )
    return TukeyResult(tuple(pairs), alpha=alpha, df_within=df_w, ms_within=reported_ms)
