"""Correlation analysis, z-score standardization and correlation-driven
feature selection."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import HerdTable, canonical_key, describe, scaled
from .errors import DegenerateInputError, ValidationError


def _centred(x: np.ndarray):
    """`scaled(x)` less its mean, and the sum of squares of that (r is
    scale-free); None when `x` is constant (min equals max)."""
    if x.min() == x.max():
        return None
    xc = scaled(x)[0]
    xc -= xc.mean()
    return xc, float(np.dot(xc, xc))


def _r(a, b) -> float:
    """Product-moment correlation of two `_centred` columns, clipped to
    [-1, 1]."""
    if a is None or b is None:
        raise DegenerateInputError("constant input has no defined correlation")
    (xc, sx), (yc, sy) = a, b
    return min(1.0, max(-1.0, float(np.dot(xc, yc)) / math.sqrt(sx * sy)))


def pearson_r(x, y) -> float:
    """Product-moment correlation coefficient, clipped to [-1, 1]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError(
            f"length mismatch: {x.shape} vs {y.shape}"
        )
    if x.size < 2:
        raise ValidationError("need at least 2 observations")
    return _r(_centred(x), _centred(y))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Pearson correlation matrix over an ordered key list."""

    keys: tuple[str, ...]
    r: np.ndarray

    def as_dict(self) -> dict:
        return {"keys": list(self.keys), "r": [list(map(float, row)) for row in self.r]}


def correlation_matrix(table: HerdTable, keys: Sequence[str] | None = None) -> CorrelationMatrix:
    """Pairwise Pearson correlations; each column is centred once and each
    pair computed once, so the result is exactly symmetric."""
    keys = tuple(table.keys if keys is None else (canonical_key(k) for k in keys))
    cols = [_centred(table.column(k)) for k in keys]
    n = len(keys)
    r = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            try:
                r[i, j] = r[j, i] = _r(cols[i], cols[j])
            except DegenerateInputError as exc:
                raise DegenerateInputError(
                    f"correlation undefined for pair ({keys[i]}, {keys[j]}): {exc}"
                ) from None
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
    if count < 1:
        raise ValidationError("count must be positive")
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
    described = [describe(table, k) for k in keys]
    bad = [d.key for d in described if d.std == 0.0]
    if bad:
        raise DegenerateInputError(f"zero-variance column(s): {', '.join(bad)}")
    means = np.array([d.mean for d in described])
    stds = np.array([d.std for d in described])
    xs, e = scaled(table.matrix(keys))
    return StandardizedMatrix(
        keys=keys,
        animal_ids=table.animal_ids,
        z=(xs - np.ldexp(means, -e)) / np.ldexp(stds, -e),
        means=means,
        stds=stds,
    )

