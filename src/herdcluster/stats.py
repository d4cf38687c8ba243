"""Correlation analysis, z-score standardization and correlation-driven
feature selection."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import HerdTable, _described, _moments, _row_dots, canonical_key
from .errors import DegenerateInputError, ValidationError, integer


def _correlations(cols, keys: Sequence[str] | None = None) -> np.ndarray:
    """Pearson correlations of equal-length 1-d `cols`, clipped to [-1, 1],
    from the rows `_moments` scales (r is scale-free) and centres. Each sum of
    products is a pairwise `np.add.reduce` over one row pair, so no r depends
    on the other columns or on the BLAS kernel. NaN or inf is a ValidationError;
    DegenerateInputError names, by `keys`, the first pair in matrix order
    with a constant column (min equals max)."""
    if not all(np.isfinite(x).all() for x in cols):
        raise ValidationError("non-finite values have no defined correlation")
    c, lo, hi, _, _, ss = _moments(cols)
    d = len(c)
    constant = np.flatnonzero(lo == hi)
    if d > 1 and constant.size:
        why = "constant input has no defined correlation"
        if keys:
            why = f"correlation undefined for pair ({keys[0]}, {keys[max(constant[0], 1)]}): {why}"
        raise DegenerateInputError(why)
    r = np.eye(d)
    for i in range(d - 1):
        r[i, i + 1:] = r[i + 1:, i] = _row_dots(c[i], c[i + 1:]) / np.sqrt(ss[i] * ss[i + 1:])
    return np.clip(r, -1.0, 1.0, out=r)


def pearson_r(x, y) -> float:
    """Product-moment correlation coefficient, clipped to [-1, 1]: the
    two-column case of `correlation_matrix`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError(
            f"length mismatch: {x.shape} vs {y.shape}"
        )
    if x.size < 2:
        raise ValidationError("need at least 2 observations")
    return float(_correlations([x, y])[0, 1])


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Pearson correlation matrix over an ordered key list."""

    keys: tuple[str, ...]
    r: np.ndarray

    def as_dict(self) -> dict:
        return {"keys": list(self.keys), "r": [list(map(float, row)) for row in self.r]}


def correlation_matrix(table: HerdTable, keys: Sequence[str] | None = None) -> CorrelationMatrix:
    """Pairwise Pearson correlations, exactly symmetric; each pair's r is
    `pearson_r` of its two columns, bit for bit."""
    keys = tuple(table.keys if keys is None else (canonical_key(k) for k in keys))
    r = _correlations([table.column(k) for k in keys], keys) if keys else np.eye(0)
    return CorrelationMatrix(keys, r)


@dataclass(frozen=True)
class FeatureSelection:
    """Keys ranked by |r| with the target, strongest first."""

    target: str
    selected: tuple[str, ...]
    r_values: tuple[float, ...]

    def as_dict(self) -> dict:
        return {**asdict(self), "selected": list(self.selected),
                "r_values": list(self.r_values)}


def select_features(
    m: CorrelationMatrix,
    target,
    count: int,
    exclude: Iterable[str] = (),
) -> FeatureSelection:
    """Top-`count` keys by absolute correlation with `target`, descending.
    Ties break by the matrix's key order."""
    target = canonical_key(target)
    if target not in m.keys:
        raise ValidationError(f"target {target} not in correlation matrix")
    if (count := integer(count, "count")) < 1:
        raise ValidationError("count must be positive")
    if isinstance(exclude, str):  # not split into its characters
        raise ValidationError(f"exclude must be a collection of keys, not the string {exclude!r}")
    excluded = {canonical_key(k) for k in exclude}
    t = m.keys.index(target)
    candidates = [
        (i, key) for i, key in enumerate(m.keys)
        if key not in excluded and key != target
    ]
    if count > len(candidates):
        raise ValidationError(
            f"count {count} exceeds {len(candidates)} candidate keys"
        )
    ranked = sorted(candidates, key=lambda c: (-abs(m.r[t, c[0]]), c[0]))[:count]
    return FeatureSelection(
        target=target,
        selected=tuple(key for _, key in ranked),
        r_values=tuple(float(m.r[t, i]) for i, _ in ranked),
    )


@dataclass(frozen=True)
class StandardizedMatrix:
    """Z-scored feature matrix with the per-key means and stds."""

    keys: tuple[str, ...]
    animal_ids: tuple[str, ...]
    z: np.ndarray
    means: np.ndarray
    stds: np.ndarray


def zscore(table: HerdTable, keys: Sequence[str]) -> StandardizedMatrix:
    """Standardize the selected columns to zero mean, unit sample std, with
    each column's mean and std as `describe` reports them, taken on the
    `scaled` columns, where no z-score overflows."""
    keys = tuple(canonical_key(k) for k in keys)
    if not keys:
        raise ValidationError("no keys to standardize")
    cols = [table.column(k) for k in keys]
    _, _, e, means, stds = _described(cols, (f"column {k}" for k in keys))
    bad = [k for k, std in zip(keys, stds) if std == 0.0]
    if bad:
        raise DegenerateInputError(f"zero-variance column(s): {', '.join(bad)}")
    stds = np.array(stds)
    z = (np.ldexp(np.column_stack(cols), -e) - np.ldexp(means, -e)) / np.ldexp(stds, -e)
    return StandardizedMatrix(keys, table.animal_ids, z, means, stds)
