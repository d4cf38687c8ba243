"""Lloyd's k-means with deterministic seeded restarts, elbow-based k
selection and centroid-sorted cluster numbering (labels run 1..k, cluster 1
having the lowest first-centroid coordinate)."""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .stats import StandardizedMatrix

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
    max_iter: int = 300
    tol: float = 1e-6
    n_restarts: int = 10
    seed: int = 0
    init: str = "kmeanspp"  # or "random-points"

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be positive, got {self.k}")
        if self.max_iter < 1 or self.n_restarts < 1:
            raise ValidationError("max_iter and n_restarts must be positive")
        if self.tol < 0:
            raise ValidationError("tol must be non-negative")
        if self.init not in ("kmeanspp", "random-points"):
            raise ValidationError(f"unknown init method: {self.init}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class KMeansModel:
    """Fitted k-means result; labels are 1-based cluster numbers."""

    centroids: np.ndarray          # k x d, standardized space
    labels: np.ndarray             # n, values in 1..k
    inertia: float
    config: KMeansConfig
    ordered: bool = False
    inertia_history: tuple[float, ...] = ()
    feature_keys: tuple[str, ...] = ()
    feature_means: tuple[float, ...] = ()
    feature_stds: tuple[float, ...] = ()

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def as_dict(self) -> dict:
        return {
            "keys": list(self.feature_keys),
            "means": list(self.feature_means),
            "stds": list(self.feature_stds),
            "centroids": [list(map(float, row)) for row in self.centroids],
            "labels": [int(v) for v in self.labels],
            "k": self.k,
            "seed": self.config.seed,
            "inertia": self.inertia,
            "ordered": self.ordered,
            "config": self.config.as_dict(),
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, path) -> "KMeansModel":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(
            centroids=np.array(doc["centroids"], dtype=float),
            labels=np.array(doc["labels"], dtype=int),
            inertia=float(doc["inertia"]),
            config=KMeansConfig(**doc["config"]),
            ordered=bool(doc["ordered"]),
            feature_keys=tuple(doc["keys"]),
            feature_means=tuple(doc["means"]),
            feature_stds=tuple(doc["stds"]),
        )

    def centroids_to_csv(self, path) -> None:
        """Table of centroid coordinates, one row per cluster 1..k."""
        header = list(self.feature_keys) or [
            f"f{j + 1}" for j in range(self.centroids.shape[1])
        ]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster", *header])
            for i, row in enumerate(self.centroids, start=1):
                writer.writerow([i, *(repr(float(v)) for v in row)])


def _as_points(z) -> np.ndarray:
    X = z.z if isinstance(z, StandardizedMatrix) else np.asarray(z, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.size == 0:
        raise ValidationError("expected a non-empty 2-d point array")
    if not np.all(np.isfinite(X)):
        raise ValidationError("points contain non-finite values")
    return X


def _nearest(X: np.ndarray, centroids: np.ndarray):
    """Squared distances to centroids and nearest-centroid assignment
    (ties go to the lowest centroid index, argmin's behaviour)."""
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return d2, labels


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


def _init_random_points(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    return X[rng.choice(X.shape[0], size=k, replace=False)].copy()


def _lloyd(X: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float):
    """One Lloyd run from the given initial centroids.

    Returns (centroids, 0-based labels, inertia, per-iteration inertia).
    Empty clusters are repaired by re-seeding them on the point currently
    farthest from its assigned centroid, which never increases the
    objective."""
    k = centroids.shape[0]
    history = []
    labels = None
    for _ in range(max_iter):
        d2, labels = _nearest(X, centroids)
        point_cost = d2[np.arange(X.shape[0]), labels]
        history.append(float(point_cost.sum()))

        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                new_centroids[c] = X[labels == c].mean(axis=0)
        if np.any(counts == 0):
            cost = point_cost.copy()
            for c in np.where(counts == 0)[0]:
                far = int(np.argmax(cost))
                new_centroids[c] = X[far]
                cost[far] = -1.0
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift <= tol:
            break

    d2, labels = _nearest(X, centroids)
    inertia = float(d2[np.arange(X.shape[0]), labels].sum())
    history.append(inertia)
    return centroids, labels, inertia, history


def kmeans_fit(z, cfg: KMeansConfig) -> KMeansModel:
    """Best-of-restarts Lloyd fit; deterministic for a given (data, config,
    seed). Lowest inertia wins, ties by lowest restart index."""
    X = _as_points(z)
    n = X.shape[0]
    if cfg.k > n:
        raise ValidationError(f"k={cfg.k} exceeds number of points n={n}")
    init = _init_kmeanspp if cfg.init == "kmeanspp" else _init_random_points

    best = None
    for r in range(cfg.n_restarts):
        rng = np.random.default_rng(restart_seed(cfg.seed, r))
        start = init(X, cfg.k, rng)
        centroids, labels, inertia, history = _lloyd(X, start, cfg.max_iter, cfg.tol)
        if best is None or inertia < best[2]:
            best = (centroids, labels, inertia, history)

    centroids, labels, inertia, history = best
    model = KMeansModel(
        centroids=centroids,
        labels=labels + 1,
        inertia=inertia,
        config=cfg,
        inertia_history=tuple(history),
    )
    if isinstance(z, StandardizedMatrix):
        model = replace(
            model,
            feature_keys=z.keys,
            feature_means=tuple(float(v) for v in z.means),
            feature_stds=tuple(float(v) for v in z.stds),
        )
    return model


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
            if cur > prev + 1e-9 * max(1.0, abs(prev)):
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
    range, with knee detection. Each k is fitted on `z` itself, so the
    kept models carry the feature keys and scaling of a StandardizedMatrix."""
    X = _as_points(z)
    lo, hi = int(k_range[0]), int(k_range[1])
    if lo > hi:
        raise ValidationError(f"empty k range [{lo}, {hi}]")
    if lo < 1 or hi > X.shape[0]:
        raise ValidationError(
            f"k range [{lo}, {hi}] outside [1, {X.shape[0]}]"
        )
    k_values = list(range(lo, hi + 1))
    models = [kmeans_fit(z, replace(cfg, k=k)) for k in k_values]
    distortions = [m.inertia for m in models]
    knee = detect_knee(k_values, distortions) if len(k_values) >= 3 else None
    return ElbowResult(tuple(k_values), tuple(distortions), knee, tuple(models))

