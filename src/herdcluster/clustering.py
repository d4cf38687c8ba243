"""Lloyd's k-means with deterministic seeded restarts, elbow-based k
selection and centroid-sorted cluster numbering (labels run 1..k, cluster 1
having the lowest first-centroid coordinate)."""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

_FIRST_COORD_TIE_TOL = 1e-12


def _splitmix64(state: int) -> int:
    """SplitMix64 finalizer; mixes the master seed with a restart index."""
    z = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def restart_seed(seed: int, restart: int) -> int:
    """Deterministic sub-seed for restart `restart` of master seed `seed`."""
    return _splitmix64((seed ^ restart) & 0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    n_restarts: int = 10
    seed: int = 0
    # constants, not fields: still readable here for the benchmark's fit key
    max_iter: ClassVar[int] = 300
    tol: ClassVar[float] = 1e-6
    init: ClassVar[str] = "kmeanspp"

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be positive, got {self.k}")
        if self.n_restarts < 1:
            raise ValidationError("n_restarts must be positive")


@dataclass(frozen=True)
class KMeansModel:
    """Fitted k-means result; labels are 1-based cluster numbers."""

    centroids: np.ndarray          # k x d, standardized space
    labels: np.ndarray             # n, values in 1..k
    inertia: float
    config: KMeansConfig
    ordered: bool = False
    inertia_history: tuple[float, ...] = ()

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def as_dict(self) -> dict:
        return {
            "centroids": [list(map(float, row)) for row in self.centroids],
            "labels": [int(v) for v in self.labels],
            "k": self.k,
            "seed": self.config.seed,
            "inertia": self.inertia,
            "ordered": self.ordered,
            "config": asdict(self.config),
        }


def _as_points(z) -> np.ndarray:
    X = np.asarray(getattr(z, "z", z), dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.size == 0:
        raise ValidationError("expected a non-empty 2-d point array")
    if not np.all(np.isfinite(X)):
        raise ValidationError("points contain non-finite values")
    return X


def _nearest(X: np.ndarray, centroids: np.ndarray):
    """Each point's squared distance to its nearest centroid, and that
    centroid's index (ties go to the lowest index, argmin's behaviour)."""
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return d2[np.arange(X.shape[0]), labels], labels


def _init_kmeanspp(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = ((X - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen centroid
            centroids[c] = X[rng.integers(n)]
            continue
        idx = int(np.searchsorted(np.cumsum(closest), rng.random() * total))
        idx = min(idx, n - 1)
        centroids[c] = X[idx]
        closest = np.minimum(closest, ((X - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _lloyd(X: np.ndarray, centroids: np.ndarray):
    """One Lloyd run from the given initial centroids.

    Returns (centroids, 0-based labels, inertia, per-iteration inertia).
    A centroid is its members' per-feature sum, in row order, over their
    count; an empty cluster is re-seeded on the point currently farthest
    from its centroid, which never increases the objective, or keeps its
    centroid if that point is within `tol` of its own (a rounding residue)."""
    k = centroids.shape[0]
    history = []
    shift = np.inf
    for it in range(KMeansConfig.max_iter + 1):
        cost, labels = _nearest(X, centroids)
        history.append(float(cost.sum()))
        if it == KMeansConfig.max_iter or shift <= KMeansConfig.tol:
            break
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in X.T], axis=1)
        new_centroids = sums / np.maximum(counts, 1)[:, None]
        for c in np.flatnonzero(counts == 0):
            far = int(np.argmax(cost))
            new_centroids[c] = X[far] if cost[far] > KMeansConfig.tol ** 2 else centroids[c]
            cost[far] = -1.0
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
    return centroids, labels, history[-1], history


def kmeans_fit(z, cfg: KMeansConfig) -> KMeansModel:
    """Best-of-restarts Lloyd fit; deterministic for a given (data, config,
    seed). Lowest inertia wins, ties by lowest restart index."""
    X = _as_points(z)
    n = X.shape[0]
    if cfg.k > n:
        raise ValidationError(f"k={cfg.k} exceeds number of points n={n}")

    best = None
    for r in range(cfg.n_restarts):
        rng = np.random.default_rng(restart_seed(cfg.seed, r))
        result = _lloyd(X, _init_kmeanspp(X, cfg.k, rng))
        if best is None or result[2] < best[2]:
            best = result

    return _model(cfg, *best)


def _model(cfg: KMeansConfig, centroids, labels, inertia, history) -> KMeansModel:
    """Wrap one `_lloyd` result."""
    return KMeansModel(centroids=centroids, labels=labels + 1, inertia=inertia,
                       config=cfg, inertia_history=tuple(history))


def _centroid_cmp(a, b) -> int:
    """Lexicographic centroid comparison with a tolerance on each
    coordinate; exact ties fall through to the original index."""
    for va, vb in zip(a[1], b[1]):
        if abs(va - vb) > _FIRST_COORD_TIE_TOL:
            return -1 if va < vb else 1
    return a[0] - b[0]


def order_clusters(model: KMeansModel) -> KMeansModel:
    """Renumber clusters 1..k ascending by first centroid coordinate
    (ties: next coordinates, then original index). Partition and inertia
    are untouched; idempotent."""
    order = sorted(
        enumerate(model.centroids), key=functools.cmp_to_key(_centroid_cmp)
    )
    perm = [idx for idx, _ in order]               # new position -> old index
    relabel = np.empty(model.k, dtype=int)
    for new_pos, old_idx in enumerate(perm):
        relabel[old_idx] = new_pos + 1
    return replace(
        model,
        centroids=model.centroids[perm],
        labels=relabel[model.labels - 1],
        ordered=True,
    )


def assign(model: KMeansModel, new_points) -> np.ndarray:
    """Nearest-centroid labels (1..k) for points in standardized space."""
    if not model.ordered:
        raise ValidationError("model must be ordered before assigning")
    X = _as_points(new_points)
    if X.shape[1] != model.centroids.shape[1]:
        raise ValidationError(
            f"dimension mismatch: points have {X.shape[1]} features, "
            f"model has {model.centroids.shape[1]}"
        )
    _, labels = _nearest(X, model.centroids)
    return labels + 1


def _rises(prev: float, cur: float) -> bool:
    """Whether distortion `cur` exceeds its predecessor `prev` beyond rounding."""
    return cur > prev + 1e-9 * max(1.0, abs(prev))


@dataclass(frozen=True)
class ElbowResult:
    """Distortion-vs-k curve with the detected knee, if any. `models`
    holds the fit behind each distortion, for reuse; it is left out of
    equality and of `as_dict`."""

    k_values: tuple[int, ...]
    distortions: tuple[float, ...]
    knee: int | None
    models: tuple[KMeansModel, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        for prev, cur in zip(self.distortions, self.distortions[1:]):
            if _rises(prev, cur):
                raise NumericalError(
                    f"distortion curve increased from {prev} to {cur}"
                )

    def as_dict(self) -> dict:
        return {
            "k_values": list(self.k_values),
            "distortions": list(self.distortions),
            "knee": self.knee,
        }


def detect_knee(k_values: Sequence[int], distortions: Sequence[float]) -> int | None:
    """Knee of a distortion curve: the point of maximum perpendicular
    distance from the chord joining the curve's endpoints, after
    normalizing both axes to the unit square. Returns None for a flat or
    straight curve."""
    k_values = list(k_values)
    distortions = [float(d) for d in distortions]
    if len(k_values) < 3 or len(k_values) != len(distortions):
        raise ValidationError("need at least 3 (k, distortion) points")
    if not all(np.isfinite(distortions)):
        raise ValidationError("distortions must be finite")

    d_lo, d_hi = min(distortions), max(distortions)
    if d_hi - d_lo == 0.0 or k_values[-1] == k_values[0]:
        return None
    xs = np.array([(k - k_values[0]) / (k_values[-1] - k_values[0]) for k in k_values])
    ys = np.array([(d - d_lo) / (d_hi - d_lo) for d in distortions])

    # distance from the chord through the first and last normalized points
    dx, dy = xs[-1] - xs[0], ys[-1] - ys[0]
    norm = np.hypot(dx, dy)
    dist = np.abs(dy * (xs - xs[0]) - dx * (ys - ys[0])) / norm
    best = int(np.argmax(dist))
    if dist[best] < 1e-9:
        return None
    return k_values[best]


def elbow_scan(z, k_range: tuple[int, int], cfg: KMeansConfig) -> ElbowResult:
    """Distortion (best-restart inertia) for every k in the inclusive
    range, with knee detection."""
    X = _as_points(z)
    lo, hi = int(k_range[0]), int(k_range[1])
    if lo > hi:
        raise ValidationError(f"empty k range [{lo}, {hi}]")
    if lo < 1 or hi > X.shape[0]:
        raise ValidationError(
            f"k range [{lo}, {hi}] outside [1, {X.shape[0]}]"
        )
    k_values = list(range(lo, hi + 1))
    models = []
    for k in k_values:
        model = kmeans_fit(z, replace(cfg, k=k))
        if models and _rises(models[-1].inertia, model.inertia):
            # best-of-restarts missed a fit as good as k-1's: grow k-1's
            # centroids by the point farthest from them, which Lloyd can
            # only improve on
            prev = models[-1].centroids
            far = int(np.argmax(_nearest(X, prev)[0]))
            start = np.vstack([prev, X[far]])
            model = _model(model.config, *_lloyd(X, start))
        models.append(model)
    distortions = [m.inertia for m in models]
    knee = detect_knee(k_values, distortions) if len(k_values) >= 3 else None
    return ElbowResult(tuple(k_values), tuple(distortions), knee, tuple(models))

