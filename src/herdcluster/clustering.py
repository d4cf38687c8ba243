"""Lloyd's k-means with deterministic seeded restarts, all run in one
batched loop (so are an elbow scan's k above its lowest) and reported per
restart; elbow-based k selection and centroid-sorted cluster numbering
(labels run 1..k, cluster 1 having the lowest first-centroid coordinate)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar, Sequence

import numpy as np

from .errors import NumericalError, ValidationError, integer

_BATCH_CELLS = 2**16  # runs x points per Lloyd batch: 512 kB per (runs, n) float row


def restart_seed(seed: int, restart: int) -> int:
    """Deterministic sub-seed for restart `restart` of master seed `seed`:
    the SplitMix64 finalizer of `seed ^ restart`."""
    z = ((seed ^ restart) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


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
        for name in ("k", "n_restarts", "seed"):  # plain ints: numpy's overflow in restart_seed
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if self.k < 1:
            raise ValidationError(f"k must be positive, got {self.k}")
        if self.n_restarts < 1:
            raise ValidationError("n_restarts must be positive")
        if not 0 <= self.seed < 2**64:  # restart seeds would alias outside
            raise ValidationError(f"seed must be in [0, 2**64), got {self.seed}")


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


class _Workspace:
    """One call's buffers for the points X and up to `runs` runs (a module-
    lifetime one raised peak RSS by 1 MB): X tiled once per feature as
    (d, runs, n), whose alike rows serve any m runs as operands and as
    np.bincount's weights, and (runs, n) rows, each its own array (the spare
    one, free between kernel passes, holds `_lloyd`'s bins as intp)."""

    def __init__(self, X: np.ndarray, runs: int):
        self.tiled = np.repeat(X.T[:, None], runs, axis=1)
        self.best, self.dist, self.spare = (np.empty((runs, len(X))) for _ in range(3))
        self.labels, self.hit = (np.empty((runs, len(X)), dtype=np.int32) for _ in range(2))
        self.mask = np.empty((runs, len(X)), dtype=bool)


def _sq_dists(ws: _Workspace, centroids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(R, n) squared distances from the points to one centroid per run,
    (R, d), into `out`, features added in index order. A coordinate is first
    spread over a row: a same-shape subtraction is several times cheaper."""
    spare = ws.spare[:len(centroids)]
    for j, tiled in enumerate(ws.tiled[:, :len(centroids)]):
        row = spare if j else out
        row[...] = centroids[:, j, None]
        np.square(np.subtract(tiled, row, out=row), out=row)
        if j:
            np.add(out, row, out=out)
    return out


def _nearest(ws: _Workspace, centroids: np.ndarray, ks=None):
    """Per run, each point's squared distance to its nearest centroid and
    that centroid's int32 index: a running minimum over the (R, K, d)
    centroid slots. A slot takes a point only if strictly closer, so ties go
    to the lowest index (argmin's behaviour); slots go in ascending order, so
    that is labels = maximum(labels, mask * c), not np.putmask's slow
    scatter. Run r uses its first `ks[r]` slots (all K by default); `ks` is
    non-increasing, so the runs that use a slot are a prefix of the batch."""
    R = len(centroids)
    best, labels = _sq_dists(ws, centroids[:, 0], ws.best[:R]), ws.labels[:R]
    labels.fill(0)
    for c in range(1, centroids.shape[1]):
        m = R if ks is None else np.count_nonzero(ks > c)
        dist, near, hit = _sq_dists(ws, centroids[:m, c], ws.dist[:m]), best[:m], ws.hit[:m]
        hit[...] = np.less(dist, near, out=ws.mask[:m])  # 1 where slot c is strictly closer
        np.minimum(near, dist, out=near)
        np.maximum(labels[:m], np.multiply(hit, c, out=hit), out=labels[:m])
    return best, labels


def _init_kmeanspp(X: np.ndarray, k: int, rngs) -> np.ndarray:
    """k-means++ starts, (R, k, d): run r draws from `rngs[r]` as a lone run
    would. A draw never depends on later centroids, so the first j rows
    are the start a k = j fit draws."""
    n, R = len(X), len(rngs)
    ws, centroids = _Workspace(X, R), np.empty((R, k, X.shape[1]))
    centroids[:, 0] = X[[rng.integers(n) for rng in rngs]]
    closest = _sq_dists(ws, centroids[:, 0], ws.best[:R])
    for c in range(1, k):
        # a draw below the run's total, cum[-1], never counts the last point
        idx = [rng.integers(n) if cum[-1] <= 0.0  # every point on a chosen centroid
               else np.count_nonzero(cum < rng.random() * cum[-1])
               for rng, cum in zip(rngs, np.cumsum(closest, axis=1, out=ws.dist[:R]))]
        centroids[:, c] = X[idx]
        np.minimum(closest, _sq_dists(ws, centroids[:, c], ws.dist[:R]), out=closest)
    return centroids


def _lloyd(X: np.ndarray, starts: np.ndarray, ks=None) -> list:
    """Lloyd runs from the (R, K, d) `starts`, one loop over the runs still
    going, run r using its first `ks[r]` slots (all K by default); per run
    (centroids, 0-based labels, inertia, per-iteration inertia). Unused
    slots stay 0 and take no points. A centroid is its members' per-feature
    sum, in row order, over their count; an empty cluster moves to the point
    farthest from its centroid (never raising the objective), or stays if
    that point is within `tol` of its own centroid (a rounding residue)."""
    R, K, d = starts.shape
    ks = np.full(R, K) if ks is None else np.asarray(ks)
    running = np.argsort(-ks, kind="stable")  # batch order: most slots first
    ks = ks[running]
    centroids = np.where(np.arange(K)[:, None] < ks[:, None, None], starts[running], 0.0)
    ws, fits, histories = _Workspace(X, R), [None] * R, [[] for _ in range(R)]
    shift = np.full(R, np.inf)
    for it in range(KMeansConfig.max_iter + 1):
        cost, labels = _nearest(ws, centroids, ks)
        for r, inertia in zip(running, cost.sum(axis=1).tolist()):
            histories[r].append(inertia)
        stop = (shift <= KMeansConfig.tol) | (it == KMeansConfig.max_iter)
        for i, r in zip(np.flatnonzero(stop), running[stop]):
            fits[r] = (centroids[i, :ks[i]].copy(), labels[i].astype(np.intp),
                       histories[r][-1], histories[r])
        if stop.all():
            return fits
        m = len(running)  # the runs stopping now included: no (runs, n) row is compacted
        flat = np.add(labels, K * np.arange(m)[:, None], out=ws.spare[:m].view(np.intp)).ravel()
        counts = np.bincount(flat, minlength=m * K).reshape(m, K)
        sums = np.stack([np.bincount(flat, weights=col.ravel(), minlength=m * K)
                         for col in ws.tiled[:, :m]], axis=1)
        new_centroids = sums.reshape(m, K, d) / np.maximum(counts, 1)[..., None]
        for i, c in zip(*np.nonzero((counts == 0) & (np.arange(K) < ks[:, None]) & ~stop[:, None])):
            far = int(np.argmax(cost[i]))
            new_centroids[i, c] = X[far] if cost[i, far] > KMeansConfig.tol ** 2 else centroids[i, c]
            cost[i, far] = -1.0
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=2)).max(axis=1)
        running, ks, centroids, shift = (a[~stop] for a in (running, ks, new_centroids, shift))


def _best_fits(X: np.ndarray, cfg: KMeansConfig, k_values: list) -> list:
    """Best-of-restarts model per k, each k starting from its restart's
    first k k-means++ draws. The (k, restart) runs go through `_lloyd` in
    batches of at most `_BATCH_CELLS` runs x points (one batch at herd
    sizes), so memory does not grow with the number of k. Lowest inertia
    wins, ties by lowest restart index."""
    R = cfg.n_restarts
    starts = _init_kmeanspp(X, max(k_values), [
        np.random.default_rng(restart_seed(cfg.seed, r)) for r in range(R)])
    ks, step, best = np.repeat(k_values, R), max(1, _BATCH_CELLS // len(X)), {}
    for i in range(0, len(ks), step):
        batch = ks[i:i + step]
        restarts = np.arange(i, i + len(batch)) % R
        for k, fit in zip(batch.tolist(), _lloyd(X, starts[restarts, :batch.max()], batch)):
            if k not in best or fit[2] < best[k][2]:  # ties: lowest restart
                best[k] = fit
    return [_model(replace(cfg, k=k), *best[k]) for k in k_values]


def kmeans_fit(z, cfg: KMeansConfig) -> KMeansModel:
    """Best-of-restarts Lloyd fit; deterministic for a given (data, config,
    seed). Lowest inertia wins, ties by lowest restart index."""
    X = _as_points(z)
    if cfg.k > len(X):
        raise ValidationError(f"k={cfg.k} exceeds number of points n={len(X)}")
    return _best_fits(X, cfg, [cfg.k])[0]


def _model(cfg: KMeansConfig, centroids, labels, inertia, history) -> KMeansModel:
    """Wrap one `_lloyd` result."""
    return KMeansModel(centroids=centroids, labels=labels + 1, inertia=inertia,
                       config=cfg, inertia_history=tuple(history))


def order_clusters(model: KMeansModel) -> KMeansModel:
    """Renumber clusters 1..k ascending by centroid, compared as tuples
    (first coordinate, then the next, exactly); only identical centroids
    keep the fit's order. Partition and inertia are untouched; idempotent."""
    perm = sorted(range(model.k), key=lambda i: tuple(model.centroids[i]))
    relabel = np.empty(model.k, dtype=int)
    relabel[perm] = np.arange(1, model.k + 1)
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
    _, labels = _nearest(_Workspace(X, 1), model.centroids[None])
    return labels[0].astype(np.intp) + 1


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
    lo, hi = (integer(end, "k range end") for end in k_range)
    if lo > hi:
        raise ValidationError(f"empty k range [{lo}, {hi}]")
    if lo < 1 or hi > X.shape[0]:
        raise ValidationError(
            f"k range [{lo}, {hi}] outside [1, {X.shape[0]}]"
        )
    k_values = list(range(lo, hi + 1))
    # the lowest k, the cheapest fit, goes through the public kmeans_fit,
    # whose calls perfbench's per-layer report reads; the rest are batched
    fits = [kmeans_fit(X, replace(cfg, k=lo))]
    fits += _best_fits(X, cfg, k_values[1:]) if hi > lo else []
    models = []
    for model in fits:
        if models and _rises(models[-1].inertia, model.inertia):
            # best-of-restarts missed a fit as good as k-1's: grow k-1's
            # centroids by the point farthest from them, which Lloyd can
            # only improve on
            prev = models[-1].centroids
            far = int(np.argmax(_nearest(_Workspace(X, 1), prev[None])[0]))
            start = np.vstack([prev, X[far]])
            model = _model(model.config, *_lloyd(X, start[None])[0])
        models.append(model)
    distortions = [m.inertia for m in models]
    knee = detect_knee(k_values, distortions) if len(k_values) >= 3 else None
    return ElbowResult(tuple(k_values), tuple(distortions), knee, tuple(models))

