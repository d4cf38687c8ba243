"""One-way ANOVA and Tukey HSD over cluster groupings.

The distribution machinery (normal CDF, regularized incomplete beta, F CDF,
studentized range CDF) is implemented here on `math.lgamma` and numpy array
handling alone, so the hypothesis tests carry no other numerical dependencies.
The studentized-range quadrature writes every intermediate into a `_Workspace`
made by the caller that owns the loop of calls: `tukey_hsd` or `studentized_range_ppf`.
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
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], finite a, b > 0."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):  # NaN fails every check
        raise ValidationError(f"shape parameters must be positive and finite, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
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
    if not (1 <= d1 < math.inf and 1 <= d2 < math.inf):
        raise ValidationError(f"degrees of freedom must be positive and finite, got {d1}, {d2}")
    if not x >= 0.0:
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
_EXP_END = math.nextafter(math.sqrt(_MAX_EXP_ARG), math.inf)  # least x with x·x above it


def _poly(coef, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    y = np.multiply(coef[0], x, out=out)
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


_GATHER_CELLS = 4096  # 32 kB: the largest temporary a region gather makes


def _gather(src: np.ndarray, cells: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The values of `src` where `cells` is set, in order, at the head of
    `out`, which is returned; `_GATHER_CELLS` at a time."""
    n = 0
    for lo in range(0, src.size, _GATHER_CELLS):
        part = src[lo:lo + _GATHER_CELLS][cells[lo:lo + _GATHER_CELLS]]
        out[n:n + part.size] = part
        n += part.size
        del part  # freed before the next chunk's is made
    return out[:n]


def _norm_cdf(a: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Standard normal CDF, Φ(a) = erfc(-a/√2)/2, by rational approximations,
    each run only on the cells its region's mask gathers, in `ws`'s rows, and
    not at all where the mask is empty (nor the x > 0 flip); the result is a
    view of `ws`. Cells with x² > _MAX_EXP_ARG read 0 (1 for a > 0); NaN
    reads 0, so callers reject it. Relative error stays below 1e-13 down to
    a ≈ -37.5, where Φ underflows to 0."""
    x, ax, cdf, t, t2, num, den, cells, scratch = (row[:a.size] for row in ws.floats + ws.masks)
    np.multiply(a.reshape(-1), math.sqrt(0.5), out=x)
    np.abs(x, out=ax)
    cdf.fill(0.0)  # becomes Φ(-|a|) = erfc(|x|)/2 where |x| >= 1
    for lo, hi, num_coef, den_coef in ((1.0, 8.0, _ERFC_P, _ERFC_Q),
                                       (8.0, _EXP_END, _ERFC_R, _ERFC_S)):
        np.greater_equal(ax, lo, out=cells)
        cells &= np.less(ax, hi, out=scratch)
        if not cells.any():  # an empty region runs no gather, rational or exp
            continue
        r = _gather(ax, cells, t)
        lower = _poly(num_coef, r, num[:r.size])
        lower /= _poly(den_coef, r, den[:r.size])
        lower *= 0.5
        e = np.multiply(r, r, out=t2[:r.size])  # x² of the gathered cells
        lower *= np.exp(np.negative(e, out=e), out=e)
        cdf[cells] = lower
    # one full-array pass: a per-region mask of x > 0 would take a new small
    # size each call, and numpy keeps freed small blocks per size, so RSS creeps
    if np.greater(x, 0.0, out=cells).any():
        np.subtract(1.0, cdf, out=cdf, where=cells)
    if np.less(ax, 1.0, out=cells).any():
        r = _gather(x, cells, t)
        s = np.multiply(r, r, out=t2[:r.size])  # x·x = |x|·|x|
        centre = _poly(_ERF_T, s, num[:r.size])  # 1/2 + erf(x)/2
        centre /= _poly(_ERF_U, s, den[:r.size])
        centre *= r
        centre *= 0.5
        centre += 0.5
        cdf[cells] = centre
    return cdf.reshape(a.shape)


def _gauss_legendre(n_nodes: int, edges):
    """Composite Gauss-Legendre nodes/weights over panels between `edges`."""
    base_x, base_w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.asarray(edges, dtype=float)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


_OUTER_NODES = 16
_BLOCK_ROWS = 96  # outer nodes per quadrature block: every df >= 20 in one
_INNER_NODES, _INNER_PANELS = 20, 8
_INNER_SPAN = 8.5


class _Workspace:
    """Buffers for `_norm_cdf` and the quadrature over up to `cells` grid
    cells (one block by default): seven float rows and two mask rows, each
    its own array. A block's float row, 123 kB, stays under glibc's 128 kB
    mmap threshold; one array of all of them would be mmapped, and freeing
    it would raise glibc's mmap and trim thresholds for the whole process."""

    def __init__(self, cells: int = _BLOCK_ROWS * _INNER_NODES * _INNER_PANELS):
        self.floats = [np.empty(cells) for _ in range(7)]
        self.masks = [np.empty(cells, dtype=bool) for _ in range(2)]


@functools.cache
def _inner_grid():
    """Inner nodes z, their weights times the normal density, Φ(z), each node's
    floor, the largest z - floor and `clear`, computed once. φ(floor) is
    ulp(Φ(z))/8 and floor < -8.6, so for a <= floor Φ(a) <= φ(a)/|a| < ulp/64
    (Mills' ratio): Φ(z) - Φ(a) rounds to Φ(z), as does Φ(z) - 0. `clear` is
    the largest float qu with z - qu > floor at every node, as rounded; z - qu
    rounds monotonically, so no cell with a smaller qu reaches its floor."""
    z, zw = _gauss_legendre(
        _INNER_NODES, np.linspace(-_INNER_SPAN, _INNER_SPAN, _INNER_PANELS + 1))
    phi_w = zw * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf_z = _norm_cdf(z, _Workspace(z.size))
    floor = -np.sqrt(-2.0 * np.log(np.spacing(cdf_z) / 8.0 * math.sqrt(2.0 * math.pi)))
    clear = float(np.min(z - floor))
    while np.any(z - clear <= floor):  # a few ulps at most
        clear = math.nextafter(clear, 0.0)
    return z, phi_w, cdf_z, floor, float(np.max(z - floor)), clear


def _power(width: np.ndarray, n: int, spare: np.ndarray) -> np.ndarray:
    """width^n by binary powering, over `width` and `spare`: `**` with an
    exponent of 3 or more gives other bytes on other CPUs, multiplication does not."""
    power = None
    while n:
        if n & 1:
            power = width if power is None else np.multiply(power, width, out=power)
        n >>= 1
        if n:
            width = np.multiply(width, width, out=spare if power is width else width)
    return power


@functools.lru_cache(maxsize=64)
def _saturated_row(n: int) -> float:
    """The inner sum of a row whose every cell is skipped, where the width is
    Φ(z): Σ Φ(z)^n·phi_w, powered and summed as a block's row is."""
    _, phi_w, cdf_z, _, _, _ = _inner_grid()
    power = _power(cdf_z[None, :].copy(), n, np.empty((1, cdf_z.size)))
    return float(np.add.reduce(np.multiply(power, phi_w, out=power), axis=1)[0])


@functools.lru_cache(maxsize=64)
def _outer_grid(df: int):
    """Outer nodes u = s/σ and their weights times the chi density of u.
    Panels are graded geometrically, each at most doubling u, over
    [lo, 1 + 9/√df]: lo is 1 - 9/√df, or where the chi mass below u is 1e-18
    (by γ(a, x) <= x^a/a) if that is higher."""
    a = df / 2.0
    ln_u_eps = ((math.log(1e-18) + math.lgamma(a + 1.0)) / a - math.log(a)) / 2.0
    lo = max(1.0 - 9.0 / math.sqrt(df), math.exp(ln_u_eps))
    hi = 1.0 + 9.0 / math.sqrt(df)
    panels = max(6, math.ceil(math.log2(hi / lo)))
    edges = [lo * (hi / lo) ** (i / panels) for i in range(panels + 1)]
    u, w = _gauss_legendre(_OUTER_NODES, edges)
    # the density 2a^a/Γ(a)·u^(2a-1)·e^(-a·u²) is a^a·e^(-a)/Γ(a) times
    # 2/u·e^(a·(ln u² - u² + 1)), whose exponent has no terms of size a that
    # cancel; the grid's own mass stands in for the constant factor
    t = u * u - 1.0
    # ln u² as log1p(t) near u = 1; near u = 0, t rounds to -1 and log1p warns
    ln_u2 = np.log1p(t, out=2.0 * np.log(u), where=np.abs(t) < 0.5)
    w_dens = w * (2.0 / u) * np.exp(a * (ln_u2 - t))
    return u, w_dens / np.sum(w_dens)


def studentized_range_cdf(q: float, k: int, df: int, *, ws: _Workspace | None = None) -> float:
    """CDF of the studentized range with k groups and df error degrees of freedom:
    outer composite Gauss-Legendre quadrature over the chi-based scale factor,
    inner quadrature over the normal location, in `ws` (a new one if not given)."""
    if not (k >= 2 and float(k).is_integer()):  # inf is not an integer
        raise ValidationError(f"need k >= 2 groups, a whole number, got {k}")
    if not 1 <= df < math.inf:
        raise ValidationError(f"degrees of freedom must be positive and finite, got {df}")
    if not q >= 0.0:
        raise ValidationError(f"q must be non-negative, got {q}")
    if q == 0.0:
        return 0.0

    u, w_dens = _outer_grid(df)
    z, phi_w, cdf_z, floor, reach, clear = _inner_grid()
    ws = ws or _Workspace()
    qu = q * u
    inner = np.empty(u.size)
    # u ascends, so the rows past `live` have q·u > reach: every cell skipped
    live = int(np.searchsorted(qu, reach, side="right"))
    inner[live:] = _saturated_row(int(k) - 1)
    # inner integral P(range <= q*u | u) for a block of outer nodes at once;
    # each row's cells and sum are the same in any block. numpy buffers an
    # operand it broadcasts (64 kB a call), so the inner grid is tiled first
    for lo in range(0, live, _BLOCK_ROWS):
        rows = qu[lo:min(lo + _BLOCK_ROWS, live), None]
        a, tiled, skip = (row[:rows.size * z.size].reshape(rows.size, z.size)
                          for row in ws.floats[:2] + ws.masks[:1])
        np.copyto(a, z)
        np.copyto(tiled, rows)
        np.subtract(a, tiled, out=a)
        # a cell at or below its node's floor is set to -inf, where `_norm_cdf`
        # gives 0 without running any region on it; rows ascend, so a block
        # whose last q·u is at most `clear` has no such cell
        if rows[-1, 0] > clear:
            np.copyto(tiled, floor)
            np.copyto(a, -np.inf, where=np.less_equal(a, tiled, out=skip))
        width = _norm_cdf(a, ws)  # `ws`'s third row
        np.copyto(tiled, cdf_z)
        np.subtract(tiled, width, out=width)
        power = _power(width, int(k) - 1, a)  # `a` is free once Φ is taken
        np.copyto(tiled, phi_w)
        np.add.reduce(np.multiply(power, tiled, out=power), axis=1, out=inner[lo:lo + rows.size])
    inner = k * inner

    p = float(np.sum(w_dens * inner))
    return min(1.0, max(0.0, p))


_PPF_TOL = 1e-8  # bisection stops at this width relative to max(1, q)


def studentized_range_ppf(p: float, k: int, df: int) -> float:
    """Inverse studentized range CDF by bisection."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must be in (0, 1), got {p}")
    ws = _Workspace()
    lo, hi = 0.0, 1.0
    while studentized_range_cdf(hi, k, df, ws=ws) < p:
        hi *= 2.0
        if hi > 1e6:
            raise NumericalError(f"studentized range inverse out of range: p={p}, k={k}, df={df}")
    while hi - lo > _PPF_TOL * max(1.0, hi):
        mid = (lo + hi) / 2.0
        if studentized_range_cdf(mid, k, df, ws=ws) < p:
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


def _int64_labels(labels) -> np.ndarray:
    """`labels` as int64; ValidationError unless each is a whole number within
    int64. A whole-valued float counts (2.0 is label 2); 1.5, 1e30 and NaN do not."""
    labels = np.asarray(labels)
    if labels.dtype.kind in "biu":
        whole = labels.dtype.kind != "u" or np.all(labels < 2**63)
    else:
        try:
            x = labels.astype(float)
        except (TypeError, ValueError):  # not numbers at all
            x = np.array(math.nan)
        whole = np.all((x >= -2.0**63) & (x < 2.0**63) & (np.floor(x) == x))
    if not whole:
        raise ValidationError("labels must be whole numbers within int64")
    return labels.astype(np.int64, copy=False)


def _by_label(values, labels):
    """`scaled` values and their exponent, the sorted label ids and each label's
    scaled values: F, q and chart positions are scale-free, and their squares' sums finite."""
    values = np.asarray(values, dtype=float)
    labels = _int64_labels(labels)
    if values.shape != labels.shape or values.ndim != 1:
        raise ValidationError("values and labels must be 1-d and equal length")
    if not np.all(np.isfinite(values)):
        raise ValidationError("values contain non-finite entries")
    group_ids = np.unique(labels)
    values, e = scaled(values)
    return values, e, [int(g) for g in group_ids], [values[labels == g] for g in group_ids]


def _grouped(values, labels):
    """`_by_label`'s count, exponent, ids and groups, for at least 2 groups and more
    observations than groups, with each group's mean (taken once, here), the grand
    mean and the between-group, within-group and total sums of squares, all scaled."""
    values, e, group_ids, groups = _by_label(values, labels)
    if len(groups) < 2:
        raise ValidationError("need at least 2 groups")
    if values.size <= len(groups):
        raise ValidationError("need more observations than groups")
    means = [g.mean() for g in groups]
    grand = float(values.mean())
    ss_between = float(sum(g.size * (m - grand) ** 2 for g, m in zip(groups, means)))
    ss_within = float(sum(((g - m) ** 2).sum() for g, m in zip(groups, means)))
    ss_total = float(((values - grand) ** 2).sum())
    return values.size, e, group_ids, groups, means, grand, ss_between, ss_within, ss_total


def _negligible(ss, ss_total):
    """Whether `ss` is rounding residue next to `ss_total`: the one degeneracy test."""
    return ss <= 1e-14 * ss_total


def one_way_anova(values, labels) -> AnovaResult:
    """F test for equality of group means; groups are the distinct label
    values. Zero within-group variance yields a flagged degenerate result
    rather than an infinite statistic."""
    n, e, _, groups, means, grand, ss_between, ss_within, ss_total = _grouped(values, labels)
    k = len(groups)
    grand = unscaled(grand, e, "grand mean")
    df_b, df_w = k - 1, n - k
    means = tuple(unscaled(m, e, "group mean") for m in means)
    degenerate = _negligible(ss_within, ss_total)
    if degenerate:  # F would be 0/0 or x/0
        f_stat, p_value = (0.0, 1.0) if _negligible(ss_between, ss_total) else (math.inf, 0.0)
    else:
        f_stat = (ss_between / df_b) / (ss_within / df_w)
        p_value = 1.0 - f_cdf(f_stat, df_b, df_w)
    return AnovaResult(f_stat=f_stat, df_between=df_b, df_within=df_w, p_value=p_value,
                       group_means=means, grand_mean=grand, degenerate=degenerate)


def tukey_hsd(values, labels, alpha: float = 0.05) -> TukeyResult:
    """All pairwise comparisons of group means with the studentized range
    correction; unequal group sizes use the Tukey-Kramer standard error."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    n, e, group_ids, groups, means, _, _, ss_within, ss_total = _grouped(values, labels)
    k = len(groups)
    df_w = n - k
    if _negligible(ss_within, ss_total):
        raise DegenerateInputError("zero within-group variance")
    ms_within = ss_within / df_w
    reported_ms = unscaled(ms_within, 2 * e, "within-group mean square")

    ws = _Workspace()
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            diff = float(means[j] - means[i])
            se = math.sqrt(ms_within / 2.0 * (1.0 / groups[i].size + 1.0 / groups[j].size))
            q = abs(diff) / se
            p_adj = 1.0 - studentized_range_cdf(q, k, df_w, ws=ws)  # cdf is clipped to [0, 1]
            pairs.append(
                TukeyPair(
                    group_a=group_ids[i], group_b=group_ids[j],
                    mean_diff=unscaled(diff, e, "mean difference"), q_stat=q,
                    p_adj=p_adj, reject_at_alpha=p_adj < alpha,
                )
            )
    return TukeyResult(tuple(pairs), alpha=alpha, df_within=df_w, ms_within=reported_ms)
