import dataclasses
import itertools
import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdcluster import (
    KMeansConfig,
    NumericalError,
    ValidationError,
    assign,
    detect_knee,
    elbow_scan,
    kmeans_fit,
    load_table,
    order_clusters,
    zscore,
)
from herdcluster import clustering
from herdcluster.clustering import (
    ElbowResult, KMeansModel, _Workspace, _init_kmeanspp, _lloyd, _nearest, _rises, _sq_dists,
    restart_seed,
)
from herdcluster.pipeline import write_model

from conftest import RISING_ELBOW_HEADER, RISING_ELBOW_ROWS, write_csv


def brute_force_best_inertia(X, k):
    """Global optimum over every assignment of points to at most k
    clusters (empty clusters contribute nothing)."""
    n = X.shape[0]
    total_sq = (X**2).sum()
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.array(labels)
        reduced = total_sq
        for c in range(k):
            members = X[labels == c]
            if members.size:
                s = members.sum(axis=0)
                reduced -= (s @ s) / members.shape[0]
        best = min(best, reduced)
    return float(best)


def brute_force_nearest(X, centroids):
    labels = []
    for x in X:
        d = [(np.linalg.norm(x - c), i) for i, c in enumerate(centroids)]
        labels.append(min(d)[1] + 1)
    return np.array(labels)


def make_blobs(rng, c, n, d=2, spread=1.0, gap=20.0):
    centers = np.zeros((c, d))
    centers[:, 0] = np.arange(c) * gap
    if d > 1:
        centers[:, 1] = rng.uniform(-gap / 4, gap / 4, size=c)
    membership = rng.integers(0, c, size=n)
    # guarantee every blob is populated
    membership[:c] = np.arange(c)
    X = centers[membership] + rng.normal(scale=spread, size=(n, d))
    return X, membership + 1


class TestKMeansFit:
    def test_k_equals_n(self, rng):
        X = rng.normal(size=(5, 2))
        model = kmeans_fit(X, KMeansConfig(k=5, seed=1))
        assert model.inertia == pytest.approx(0.0, abs=1e-20)
        assert sorted(model.labels) == [1, 2, 3, 4, 5]

    def test_k_one_closed_form(self, rng):
        X = rng.normal(size=(10, 3))
        model = kmeans_fit(X, KMeansConfig(k=1, seed=1))
        np.testing.assert_allclose(model.centroids[0], X.mean(axis=0))
        expected = ((X - X.mean(axis=0)) ** 2).sum()
        assert model.inertia == pytest.approx(expected)

    def test_two_separated_blobs(self, rng):
        a = rng.normal(scale=0.5, size=(12, 3)) + [10, 0, 0]
        b = rng.normal(scale=0.5, size=(12, 3)) + [-10, 0, 0]
        X = np.vstack([a, b])
        model = order_clusters(kmeans_fit(X, KMeansConfig(k=2, seed=3)))
        assert set(model.labels[:12]) == {2}
        assert set(model.labels[12:]) == {1}
        within = (
            ((a - a.mean(axis=0)) ** 2).sum() + ((b - b.mean(axis=0)) ** 2).sum()
        )
        assert model.inertia == pytest.approx(within)

    def test_k_exceeds_n(self, rng):
        with pytest.raises(ValidationError, match="exceeds"):
            kmeans_fit(rng.normal(size=(3, 2)), KMeansConfig(k=4))

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            KMeansConfig(k=0)
        with pytest.raises(ValidationError, match="n_restarts"):
            KMeansConfig(k=2, n_restarts=0)

    def test_config_fields_and_constants(self):
        cfg = KMeansConfig(k=4, n_restarts=3, seed=9)
        assert [f.name for f in dataclasses.fields(KMeansConfig)] == ["k", "n_restarts", "seed"]
        assert dataclasses.asdict(cfg) == {"k": 4, "n_restarts": 3, "seed": 9}
        # every attribute the benchmark's fit identity reads
        assert (cfg.k, cfg.seed, cfg.n_restarts, cfg.max_iter, cfg.tol, cfg.init) == (
            4, 9, 3, 300, 1e-6, "kmeanspp")
        assert not [f.name for f in dataclasses.fields(KMeansModel)
                    if f.name.startswith("feature")]

    def test_non_finite_input(self):
        X = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            kmeans_fit(X, KMeansConfig(k=1))

    @pytest.mark.parametrize("X", [np.empty(0), np.empty((0, 2)), np.empty((2, 0)),
                                   np.zeros((2, 2, 2))])
    def test_empty_or_not_2d_input(self, X):
        with pytest.raises(ValidationError, match="non-empty 2-d point array"):
            kmeans_fit(X, KMeansConfig(k=1))

    def test_determinism(self, rng):
        X = rng.normal(size=(30, 3))
        cfg = KMeansConfig(k=4, seed=99, n_restarts=8)
        m1 = kmeans_fit(X, cfg)
        m2 = kmeans_fit(X, cfg)
        assert np.array_equal(m1.labels, m2.labels)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert m1.inertia == m2.inertia

    def test_labels_are_nearest_centroid(self, rng):
        X = rng.normal(size=(40, 2))
        model = kmeans_fit(X, KMeansConfig(k=5, seed=7))
        np.testing.assert_array_equal(
            model.labels, brute_force_nearest(X, model.centroids)
        )

    def test_inertia_monotone_within_run(self, rng):
        for seed in range(10):
            X = np.random.default_rng(seed).normal(size=(25, 2))
            model = kmeans_fit(X, KMeansConfig(k=3, seed=seed, n_restarts=1))
            hist = model.inertia_history
            assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_matches_exhaustive_optimum_on_small_instances(self):
        hits = 0
        for i in range(25):
            inst = np.random.default_rng(1000 + i)
            n = int(inst.integers(2, 11))
            k = int(inst.integers(1, min(3, n) + 1))
            d = int(inst.integers(1, 4))
            X = inst.random((n, d))
            model = kmeans_fit(X, KMeansConfig(k=k, seed=i, n_restarts=50))
            best = brute_force_best_inertia(X, k)
            if model.inertia <= best * (1 + 1e-9) + 1e-12:
                hits += 1
        assert hits >= 24

    def test_restart_seed_mixing_spreads_bits(self):
        seeds = {restart_seed(42, r) for r in range(64)}
        assert len(seeds) == 64
        assert restart_seed(42, 0) != 42

    def test_restart_seed_is_splitmix64(self):
        # 0xe220a8397b1dcdaf is SplitMix64's first output from state 0
        assert [restart_seed(s, r) for s, r in ((0, 0), (42, 3), (2**64 - 1, 9))] == [
            0xE220A8397B1DCDAF, 0x118E846EA93BC949, 0xD484A1E7C35A0B13]

    @pytest.mark.parametrize("seed", [-1, -5, 2**64, 2**64 + 7])
    def test_seed_outside_64_bits(self, seed):
        # -5 and 2**64 - 5, or 7 and 2**64 + 7, once drew the same restarts
        with pytest.raises(ValidationError, match=r"seed must be in \[0, 2\*\*64\)"):
            KMeansConfig(k=2, seed=seed)
        for edge in (0, 2**64 - 1):
            assert KMeansConfig(k=2, seed=edge).seed == edge

    @pytest.mark.parametrize("field, value", [
        ("k", 2.5), ("k", 2.0), ("n_restarts", 2.5), ("seed", 1.5), ("seed", "3"),
    ])
    def test_non_integer_field(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got "):
            KMeansConfig(**{"k": 2, field: value})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3), np.int32(3)])
    def test_numpy_integers_give_the_int_model(self, tmp_path, synthetic_table, seed):
        # np.int64 once overflowed in restart_seed, np.uint64 warned there
        cfg = KMeansConfig(k=np.int64(3), n_restarts=np.int32(10), seed=seed)
        assert cfg == KMeansConfig(k=3, seed=3)
        assert {type(v) for v in (cfg.k, cfg.n_restarts, cfg.seed)} == {int}
        z = zscore(synthetic_table, ["DA", "CW", "DL"])
        for name, c in (("numpy", cfg), ("int", KMeansConfig(k=3, seed=3))):
            write_model(tmp_path / name, z, kmeans_fit(z, c))
        for name in ("model.json", "labels.csv", "centroids.csv"):
            assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()


def index_order_sq_dists(X, centroids):
    """Squared distances, (n, k), with the features added in index order."""
    return np.cumsum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=-1)[..., -1]


def reference_lloyd(X, centroids):
    """The Lloyd loop before centroid sums moved to np.bincount, kept as a
    test-only reference: a masked mean per cluster, an empty-cluster
    branch and a final assignment pass after the loop. Distances and the
    members' sums are taken in index order."""

    def nearest(centroids):
        d2 = index_order_sq_dists(X, centroids)
        return d2, np.argmin(d2, axis=1)

    k, d = centroids.shape
    history = []
    labels = None
    for _ in range(KMeansConfig.max_iter):
        d2, labels = nearest(centroids)
        point_cost = d2[np.arange(X.shape[0]), labels]
        history.append(float(point_cost.sum()))

        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                # zero-started like bincount's sums (cumsum would keep a leading -0.0)
                new_centroids[c] = sum(X[labels == c], np.zeros(d)) / counts[c]
        if np.any(counts == 0):
            cost = point_cost.copy()
            for c in np.where(counts == 0)[0]:
                far = int(np.argmax(cost))
                new_centroids[c] = X[far] if cost[far] > KMeansConfig.tol ** 2 else centroids[c]
                cost[far] = -1.0
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift <= KMeansConfig.tol:
            break

    d2, labels = nearest(centroids)
    inertia = float(d2[np.arange(X.shape[0]), labels].sum())
    history.append(inertia)
    return centroids, labels, inertia, history


def lloyd_case(seed, d, decimals, duplicate):
    """Points and a start for one Lloyd run: n in 2..400, k in 1..10,
    inputs optionally rounded (ties) and the start optionally holding a
    duplicated centroid (an empty cluster in the first update)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 401))
    k = int(rng.integers(1, min(n, 10) + 1))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
    if decimals is not None:
        X = np.round(X, decimals)
    start = X[rng.choice(n, size=k, replace=False)]
    if duplicate and k > 1:
        start[-1] = start[0]
    return X, start


_lloyd_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    decimals=st.sampled_from([None, 0, 1]),
    duplicate=st.booleans(),
    cap=st.sampled_from([KMeansConfig.max_iter, 1, 3]),
)


class TestLloydStep:
    """`_lloyd` against the masked-mean reference, bit for bit: both add
    features and rows in index order. Lloyd's invariants at d = 1, through
    capped repair cycles, which reference equality does not imply."""

    @given(d=st.integers(1, 6), **_lloyd_cases)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_bit_for_bit(self, seed, d, decimals, duplicate, cap):
        X, start = lloyd_case(seed, d, decimals, duplicate)
        with mock.patch.object(KMeansConfig, "max_iter", cap):
            want = reference_lloyd(X, start.copy())
            (got,) = _lloyd(X, start[None].copy())
        assert got[0].tobytes() == want[0].tobytes()
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2] == got[3][-1]
        assert np.array(got[3]).tobytes() == np.array(want[3]).tobytes()
        assert len(got[3]) <= cap + 1

    @given(**_lloyd_cases)
    @settings(max_examples=100, deadline=None)
    def test_one_feature_keeps_lloyd_invariants(self, seed, decimals, duplicate, cap):
        X, start = lloyd_case(seed, 1, decimals, duplicate)
        with mock.patch.object(KMeansConfig, "max_iter", cap):
            ((centroids, labels, inertia, history),) = _lloyd(X, start[None].copy())
        slack = 1e-12 * (X * X).sum()  # rounding: capped repair cycles rise by ~1e-33
        assert all(b <= a + slack for a, b in zip(history, history[1:]))
        d2 = (X - centroids.T) ** 2
        assert np.all(d2[np.arange(len(X)), labels] == d2.min(axis=1))
        assert inertia == history[-1]
        if len(history) <= cap:  # converged: each centroid is its members' mean
            for c in np.unique(labels):
                np.testing.assert_allclose(centroids[c], X[labels == c].mean(axis=0),
                                           rtol=1e-12, atol=1e-12 * np.abs(X).max())

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", [6, 7])
    def test_more_clusters_than_distinct_points_converge(self, k, d):
        # 5 distinct points: re-seeding an empty cluster on a point whose
        # cost is a rounding residue emptied another, so every restart cycled
        X = np.tile(np.repeat([0.1, 0.2, 0.3, 0.4, 0.5], 7)[:, None], (1, d))
        rngs = [np.random.default_rng(restart_seed(0, r)) for r in range(10)]
        for _, _, _, history in _lloyd(X, _init_kmeanspp(X, k, rngs)):
            assert len(history) <= KMeansConfig.max_iter  # stopped before the cap


def per_restart_nearest(X, centroids):
    d2 = index_order_sq_dists(X, centroids)
    labels = np.argmin(d2, axis=1)
    return d2[np.arange(X.shape[0]), labels], labels


def per_restart_kmeanspp(X, k, rng):
    """k-means++ for one restart, as it ran before restarts were batched,
    its distances and total taken in index order."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = index_order_sq_dists(X, centroids[:1])[:, 0]
    for c in range(1, k):
        cum = np.cumsum(closest)
        total = cum[-1]
        if total <= 0.0:
            centroids[c] = X[rng.integers(n)]
            continue
        idx = int(np.searchsorted(cum, rng.random() * total))
        centroids[c] = X[idx]
        closest = np.minimum(closest, index_order_sq_dists(X, centroids[c:c + 1])[:, 0])
    return centroids


def per_restart_lloyd(X, centroids):
    """The Lloyd loop for one restart, as it ran before restarts were
    batched: (centroids, 0-based labels, inertia, per-iteration inertia)."""
    k = centroids.shape[0]
    history = []
    shift = np.inf
    for it in range(KMeansConfig.max_iter + 1):
        cost, labels = per_restart_nearest(X, centroids)
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


@st.composite
def batched_case(draw):
    """Points and R starts: n up to 2,000 (several of numpy's 128-wide
    pairwise blocks in each inertia), d 1..12, k 1..10, R 1..10; inputs
    optionally rounded (ties) and one start optionally holding a duplicated
    centroid (an empty cluster in the first update)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(2, 400), st.integers(401, 2000)))
    d, n_runs = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    k = draw(st.integers(1, min(n, 10)))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        X = np.round(X, decimals)
    starts = np.stack([X[rng.choice(n, size=k, replace=False)] for _ in range(n_runs)])
    if draw(st.booleans()) and k > 1:
        starts[-1, -1] = starts[-1, 0]
    return X, starts


def assert_same_fit(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]
    assert np.array(got[3]).tobytes() == np.array(want[3]).tobytes()


class TestBatchedLloyd:
    """The batched loop, k-means++ and distance kernel against the
    per-restart code they replaced, bit for bit and restart by restart."""

    @given(case=batched_case(), cap=st.sampled_from([KMeansConfig.max_iter, 1, 3]))
    @settings(max_examples=120, deadline=None)
    def test_matches_per_restart_lloyd(self, case, cap):
        X, starts = case
        with mock.patch.object(KMeansConfig, "max_iter", cap):
            got = _lloyd(X, starts.copy())
            assert len(got) == len(starts)
            for fit, start in zip(got, starts):
                assert_same_fit(fit, per_restart_lloyd(X, start.copy()))

    def test_runs_stop_at_different_iterations(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 3))
        starts = np.stack([X[rng.choice(300, size=6, replace=False)] for _ in range(10)])
        got = _lloyd(X, starts.copy())
        assert len({len(fit[3]) for fit in got}) > 3
        for fit, start in zip(got, starts):
            assert_same_fit(fit, per_restart_lloyd(X, start.copy()))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 12),
           distinct=st.sampled_from([1, 2, 3, None]), n_runs=st.integers(1, 10),
           k=st.integers(1, 10))
    @settings(max_examples=150, deadline=None)
    def test_kmeanspp_matches_per_restart(self, seed, n, d, distinct, n_runs, k):
        # `distinct` points repeated over the table: once k exceeds them,
        # the remaining draws take the `total <= 0` branch
        rng = np.random.default_rng(seed)
        k = min(k, n)
        X = rng.normal(size=(n if distinct is None else distinct, d))
        X = X[rng.integers(len(X), size=n)] if distinct is not None else X
        seeds = [restart_seed(seed, r) for r in range(n_runs)]
        got = _init_kmeanspp(X, k, [np.random.default_rng(s) for s in seeds])
        want = np.stack([per_restart_kmeanspp(X, k, np.random.default_rng(s)) for s in seeds])
        assert got.tobytes() == want.tobytes()

    def test_kmeanspp_all_coincident_draws_uniformly(self):
        class Draws:
            """A generator that records which kind of draw each call makes."""

            def __init__(self, seed):
                self.rng, self.calls = np.random.default_rng(seed), []

            def integers(self, n):
                self.calls.append("integers")
                return self.rng.integers(n)

            def random(self):
                self.calls.append("random")
                return self.rng.random()

        X = np.repeat([[1.0, 2.0], [1.0, 2.0], [3.0, 0.5]], 3, axis=0)
        rngs = [Draws(s) for s in range(4)]
        got = _init_kmeanspp(X, 4, rngs)
        # the second centre is drawn in proportion; the other two points
        # coincide with a chosen centre, so the last two draws are uniform
        assert all(rng.calls == ["integers", "random", "integers", "integers"] for rng in rngs)
        want = np.stack([per_restart_kmeanspp(X, 4, np.random.default_rng(s)) for s in range(4)])
        assert got.tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 300), n=st.integers(1, 20),
           k=st.integers(1, 40), n_runs=st.integers(1, 3), ties=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_kernel_sums_features_in_index_order(self, seed, d, n, k, n_runs, ties):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0)
        C = rng.normal(size=(n_runs, k, d))
        if ties:  # equal distances to several centroids, repeated slots among them:
            # the lowest index wins, which the kernel's maximum-of-hits rule must keep
            X, C = np.round(X / 50), np.round(C)[:, rng.integers(k, size=k)]
        ws = _Workspace(X, n_runs)
        want = np.stack([index_order_sq_dists(X, c) for c in C])
        for c in range(k):
            assert _sq_dists(ws, C[:, c], ws.dist[:n_runs]).tobytes() == want[..., c].tobytes()
        best, labels = _nearest(ws, C)
        assert best.tobytes() == want.min(axis=2).tobytes()
        assert labels.astype(np.intp).tobytes() == want.argmin(axis=2).tobytes()

    @given(case=batched_case(), seed=st.integers(0, 2**32 - 1),
           cap=st.sampled_from([KMeansConfig.max_iter, 1, 3]))
    @settings(max_examples=120, deadline=None)
    def test_ragged_slot_counts_match_per_restart_lloyd(self, case, seed, cap):
        # each run uses its own first ks[r] slots; the rest hold points
        # (never zeros) that must take no point and no repair
        X, starts = case
        rng = np.random.default_rng(seed)
        ks = rng.integers(1, starts.shape[1] + 1, size=len(starts))
        with mock.patch.object(KMeansConfig, "max_iter", cap):
            got = _lloyd(X, starts.copy(), ks)
            assert len(got) == len(starts)
            for fit, start, k in zip(got, starts, ks):
                assert_same_fit(fit, per_restart_lloyd(X, start[:k].copy()))

    def test_ragged_slot_counts_with_fewer_distinct_points_than_slots(self):
        # 4 distinct points, k up to 9: empty clusters every iteration and
        # duplicated k-means++ draws; the unused slots repeat a point
        X = np.repeat([[0.0, 1.0], [0.5, 0.5], [3.0, 0.0], [0.0, 2.0]], 6, axis=0)
        rngs = [np.random.default_rng(s) for s in range(5)]
        starts = np.tile(_init_kmeanspp(X, 9, rngs), (9, 1, 1))
        ks = np.repeat(np.arange(1, 10), 5)
        for fit, start, k in zip(_lloyd(X, starts.copy(), ks), starts, ks):
            assert_same_fit(fit, per_restart_lloyd(X, start[:k].copy()))
            assert len(fit[3]) <= KMeansConfig.max_iter

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 4),
           distinct=st.sampled_from([1, 2, 3, None]), n_runs=st.integers(1, 10),
           k=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_kmeanspp_prefix_is_the_smaller_start(self, seed, n, d, distinct, n_runs, k):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        X = rng.normal(size=(n if distinct is None else distinct, d))
        X = X[rng.integers(len(X), size=n)] if distinct is not None else X
        seeds = [restart_seed(seed, r) for r in range(n_runs)]
        full = _init_kmeanspp(X, k, [np.random.default_rng(s) for s in seeds])
        for j in range(1, k + 1):
            prefix = _init_kmeanspp(X, j, [np.random.default_rng(s) for s in seeds])
            assert prefix.tobytes() == full[:, :j].tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 150), d=st.integers(1, 4),
           decimals=st.sampled_from([None, 0, 1]), n_restarts=st.integers(1, 10),
           width=st.integers(0, 11), cells=st.sampled_from([clustering._BATCH_CELLS, 1, 200]))
    @settings(max_examples=40, deadline=None)
    def test_elbow_scan_matches_per_k_loop(self, seed, n, d, decimals, n_restarts, width, cells):
        # cells = 1 runs one restart per batch; 200 splits a k's restarts
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
        X = X if decimals is None else np.round(X, decimals)
        lo = int(rng.integers(1, n + 1))
        hi = min(n, lo + width)
        cfg = KMeansConfig(k=1, seed=seed % 1000, n_restarts=n_restarts)
        with mock.patch.object(clustering, "_BATCH_CELLS", cells):
            assert_same_scan(elbow_scan(X, (lo, hi), cfg), X, cfg)

    def test_elbow_scan_fits_its_lowest_k_through_kmeans_fit(self):
        X = np.random.default_rng(0).normal(size=(40, 2))
        cfg = KMeansConfig(k=1, seed=3)
        with mock.patch.object(clustering, "kmeans_fit", wraps=kmeans_fit) as fit:
            elbow_scan(X, (2, 6), cfg)
        fit.assert_called_once_with(X, replace(cfg, k=2))

    def test_elbow_scan_regrow_matches_per_k_loop(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", RISING_ELBOW_HEADER, RISING_ELBOW_ROWS)
        z = zscore(load_table(path), ["A", "B", "C"])
        cfg = KMeansConfig(k=1, seed=0)
        assert_same_scan(elbow_scan(z, (1, 10), cfg), z.z, cfg)

    def test_fit_memory_does_not_grow_with_restarts_times_k(self):
        # an (R, n, k) distance array peaks near 21 MB here; the running
        # minimum holds (R, n) arrays, about 4 MB in all
        X = np.random.default_rng(0).normal(size=(10**4, 3))
        tracemalloc.start()
        try:
            kmeans_fit(X, KMeansConfig(k=10, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_scan_memory_does_not_grow_with_its_width(self):
        # one batch of all 100 (k, restart) runs peaks near 15 MB here, and
        # the per-k fits of an (R, n, k) kernel near 9 MB
        X = np.random.default_rng(0).normal(size=(4000, 3))
        tracemalloc.start()
        try:
            elbow_scan(X, (1, 10), KMeansConfig(k=1, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7e6


def per_k_elbow(X, k_values, cfg):
    """elbow_scan's fits as they ran before the scan was batched: a
    best-of-restarts fit per k, from its own k-means++ draws, regrown from
    k-1's centroids when its inertia rises."""
    fits = []
    for k in k_values:
        rngs = [np.random.default_rng(restart_seed(cfg.seed, r)) for r in range(cfg.n_restarts)]
        fit = min((per_restart_lloyd(X, per_restart_kmeanspp(X, k, rng)) for rng in rngs),
                  key=lambda f: f[2])
        if fits and _rises(fits[-1][2], fit[2]):
            prev = fits[-1][0]
            far = int(np.argmax(per_restart_nearest(X, prev)[0]))
            fit = per_restart_lloyd(X, np.vstack([prev, X[far]]))
        fits.append(fit)
    return fits


def assert_same_scan(elbow, X, cfg):
    fits = per_k_elbow(X, elbow.k_values, cfg)
    assert elbow.distortions == tuple(f[2] for f in fits)
    for model, fit, k in zip(elbow.models, fits, elbow.k_values):
        assert model.config == replace(cfg, k=k)
        got = (model.centroids, model.labels - 1, model.inertia, model.inertia_history)
        assert_same_fit(got, fit)


class TestOrderClusters:
    def test_dorsum_like_first_coords(self):
        # first-coordinate pattern of the published dorsum-view centroids
        centroids = np.array([[0.67, 0.49], [-1.72, -1.67], [-0.71, -0.32]])
        labels = np.array([1, 1, 2, 3, 3])
        model = KMeansModel(
            centroids=centroids, labels=labels, inertia=1.5,
            config=KMeansConfig(k=3),
        )
        ordered = order_clusters(model)
        assert ordered.centroids[:, 0].tolist() == [-1.72, -0.71, 0.67]
        np.testing.assert_array_equal(ordered.labels, [3, 3, 1, 2, 2])
        assert ordered.inertia == model.inertia
        assert ordered.ordered

    def test_structure_like_first_coords(self):
        firsts = [-0.90, 0.74, -1.98, 0.26]
        centroids = np.array([[f] for f in firsts])
        model = KMeansModel(
            centroids=centroids, labels=np.array([1, 2, 3, 4]),
            inertia=0.0, config=KMeansConfig(k=4),
        )
        ordered = order_clusters(model)
        assert ordered.centroids[:, 0].tolist() == [-1.98, -0.90, 0.26, 0.74]

    def test_idempotent(self, rng):
        X = rng.normal(size=(20, 3))
        model = order_clusters(kmeans_fit(X, KMeansConfig(k=4, seed=2)))
        again = order_clusters(model)
        np.testing.assert_array_equal(model.labels, again.labels)
        np.testing.assert_array_equal(model.centroids, again.centroids)

    def test_partition_preserved(self, rng):
        X = rng.normal(size=(30, 2))
        model = kmeans_fit(X, KMeansConfig(k=5, seed=11))
        ordered = order_clusters(model)
        assert ordered.inertia == model.inertia
        for c in range(1, 6):
            members = set(np.where(model.labels == c)[0])
            image = {int(ordered.labels[i]) for i in members}
            assert len(image) == 1  # whole cluster maps to one new number

    def test_tie_break_on_second_coordinate(self):
        centroids = np.array([[0.0, 5.0], [0.0, -5.0]])
        model = KMeansModel(
            centroids=centroids, labels=np.array([1, 2]), inertia=0.0,
            config=KMeansConfig(k=2),
        )
        ordered = order_clusters(model)
        assert ordered.centroids[0, 1] == -5.0

    @staticmethod
    def assert_one_numbering(centroids):
        """Every input order of `centroids` gives the same ordered centroids,
        with exactly non-decreasing first coordinates, whole clusters kept
        and nothing left for a second call to change."""
        k = len(centroids)
        seen = set()
        for perm in itertools.permutations(range(k)):
            labels = np.repeat(np.arange(1, k + 1), 2)
            model = KMeansModel(centroids=np.array([centroids[i] for i in perm]), labels=labels,
                                inertia=0.0, config=KMeansConfig(k=k))
            ordered = order_clusters(model)
            seen.add(ordered.centroids.tobytes())
            assert np.all(np.diff(ordered.centroids[:, 0]) >= 0), perm
            for c in range(1, k + 1):
                assert len(set(ordered.labels[labels == c])) == 1
            again = order_clusters(ordered)
            assert again.centroids.tobytes() == ordered.centroids.tobytes()
            np.testing.assert_array_equal(again.labels, ordered.labels)
        assert len(seen) == 1

    def test_first_coordinates_within_1e_12_are_not_ties(self):
        # a comparator treating first coordinates within 1e-12 as tied is not
        # transitive: these six input orders got three numberings, two of them
        # with 1.6e-12 ahead of 0.8e-12
        self.assert_one_numbering([[0.0, 1.0], [0.8e-12, 0.0], [1.6e-12, -1.0]])

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(-3, 3)), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_near_ties_get_one_numbering(self, cells):
        # first coordinates at most 1e-12 apart; repeated centroids allowed
        self.assert_one_numbering([[a * 1e-13, b / 2] for a, b in cells])


class TestAssign:
    def test_centroid_maps_to_itself(self, rng):
        X = rng.normal(size=(15, 2))
        model = order_clusters(kmeans_fit(X, KMeansConfig(k=3, seed=4)))
        np.testing.assert_array_equal(
            assign(model, model.centroids), [1, 2, 3]
        )

    def test_exact_tie_goes_low(self):
        model = KMeansModel(
            centroids=np.array([[0.0], [2.0]]),
            labels=np.array([1, 2]), inertia=0.0,
            config=KMeansConfig(k=2), ordered=True,
        )
        assert assign(model, np.array([[1.0]]))[0] == 1

    def test_agrees_with_brute_force(self, rng):
        X = rng.normal(size=(25, 3))
        model = order_clusters(kmeans_fit(X, KMeansConfig(k=4, seed=8)))
        pts = rng.normal(size=(50, 3))
        np.testing.assert_array_equal(
            assign(model, pts), brute_force_nearest(pts, model.centroids)
        )

    def test_reproduces_training_labels(self, rng):
        X = rng.normal(size=(25, 2))
        model = order_clusters(kmeans_fit(X, KMeansConfig(k=3, seed=8)))
        np.testing.assert_array_equal(assign(model, X), model.labels)

    def test_dimension_mismatch(self, rng):
        X = rng.normal(size=(10, 2))
        model = order_clusters(kmeans_fit(X, KMeansConfig(k=2, seed=1)))
        with pytest.raises(ValidationError, match="dimension mismatch"):
            assign(model, np.zeros((3, 5)))

    def test_unordered_model_rejected(self, rng):
        model = kmeans_fit(rng.normal(size=(10, 2)), KMeansConfig(k=2, seed=1))
        with pytest.raises(ValidationError, match="ordered"):
            assign(model, np.zeros((1, 2)))


class TestDetectKnee:
    def brute_force_knee(self, ks, ds):
        ks, ds = list(ks), list(ds)
        lo, hi = min(ds), max(ds)
        if hi == lo:
            return None
        xs = [(k - ks[0]) / (ks[-1] - ks[0]) for k in ks]
        ys = [(d - lo) / (hi - lo) for d in ds]
        x0, y0, x1, y1 = xs[0], ys[0], xs[-1], ys[-1]
        norm = np.hypot(x1 - x0, y1 - y0)
        dists = [
            abs((y1 - y0) * (x - x0) - (x1 - x0) * (y - y0)) / norm
            for x, y in zip(xs, ys)
        ]
        best = int(np.argmax(dists))
        return None if dists[best] < 1e-9 else ks[best]

    def test_sharp_drop_at_two(self):
        ks = [1, 2, 3, 4, 5, 6]
        ds = [100, 10, 9, 8.5, 8.2, 8]
        assert detect_knee(ks, ds) == 2
        assert self.brute_force_knee(ks, ds) == 2

    def test_linear_curve_has_no_knee(self):
        assert detect_knee([1, 2, 3, 4, 5], [10, 8, 6, 4, 2]) is None

    def test_constructed_corner(self):
        ks = list(range(1, 9))
        ds = [10 - 2 * k if k <= 4 else 2 - 0.1 * (k - 4) for k in ks]
        assert detect_knee(ks, ds) == 4
        assert self.brute_force_knee(ks, ds) == 4

    def test_flat_curve(self):
        assert detect_knee([1, 2, 3], [5, 5, 5]) is None

    def test_too_few_points(self):
        with pytest.raises(ValidationError, match="at least 3"):
            detect_knee([1, 2], [3, 2])

    def test_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            detect_knee([1, 2, 3], [np.inf, 2, 1])

    def test_matches_brute_force_on_random_convex_curves(self, rng):
        for _ in range(50):
            ks = list(range(1, 11))
            drops = np.sort(rng.uniform(0.1, 5, size=9))[::-1]
            ds = 100 - np.concatenate([[0], np.cumsum(drops)])
            assert detect_knee(ks, ds) == self.brute_force_knee(ks, ds)


class TestElbowScan:
    def test_three_ideal_blobs(self, rng):
        X, _ = make_blobs(rng, c=3, n=60)
        elbow = elbow_scan(X, (1, 10), KMeansConfig(k=1, seed=0))
        assert elbow.knee == 3
        assert len(elbow.k_values) == 10

    def test_rising_fit_regrown_from_previous_k(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", RISING_ELBOW_HEADER, RISING_ELBOW_ROWS)
        z = zscore(load_table(path), ["A", "B", "C"])
        cfg = KMeansConfig(k=1, seed=0)
        assert kmeans_fit(z, replace(cfg, k=7)).inertia > kmeans_fit(z, replace(cfg, k=6)).inertia
        elbow = elbow_scan(z, (1, 10), cfg)
        six, seven = elbow.models[5], elbow.models[6]
        assert seven.config == replace(cfg, k=7) and seven.centroids.shape == (7, 3)
        assert seven.inertia == elbow.distortions[6] <= six.inertia
        assert elbow.knee == 4

    def test_distortions_non_increasing(self, rng):
        X = rng.normal(size=(40, 2))
        elbow = elbow_scan(X, (1, 8), KMeansConfig(k=1, seed=0))
        for a, b in zip(elbow.distortions, elbow.distortions[1:]):
            assert b <= a + 1e-9 * max(1, abs(a))

    def test_empty_range(self, rng):
        with pytest.raises(ValidationError, match="empty"):
            elbow_scan(rng.normal(size=(10, 2)), (5, 3), KMeansConfig(k=1))

    @pytest.mark.parametrize("k_range", [(1, 4.7), (1.5, 4), (1, 4.0), (1, "4")])
    def test_non_integer_range_end(self, rng, k_range):
        # (1, 4.7) once scanned k = 1..4
        with pytest.raises(ValidationError, match="k range end must be an integer"):
            elbow_scan(rng.normal(size=(10, 2)), k_range, KMeansConfig(k=1))

    def test_numpy_integer_range_ends(self, rng):
        X = rng.normal(size=(10, 2))
        elbow = elbow_scan(X, (np.int64(1), np.uint8(3)), KMeansConfig(k=1))
        assert elbow.k_values == (1, 2, 3) and elbow == elbow_scan(X, (1, 3), KMeansConfig(k=1))

    def test_range_outside_n(self, rng):
        with pytest.raises(ValidationError, match="outside"):
            elbow_scan(rng.normal(size=(4, 2)), (1, 10), KMeansConfig(k=1))

    def test_constant_dataset(self):
        X = np.ones((8, 2))
        elbow = elbow_scan(X, (1, 5), KMeansConfig(k=1, seed=0))
        assert all(d == pytest.approx(0.0, abs=1e-18) for d in elbow.distortions)
        assert elbow.knee is None

    def test_keeps_fits_outside_equality_and_report(self, synthetic_table):
        z = zscore(synthetic_table, ["DA", "CW", "DL"])
        cfg = KMeansConfig(k=1, seed=0)
        elbow = elbow_scan(z, (1, 4), cfg)
        assert [m.k for m in elbow.models] == [1, 2, 3, 4]
        fresh = kmeans_fit(z, KMeansConfig(k=3, seed=0))
        kept = elbow.models[2]
        np.testing.assert_array_equal(kept.centroids, fresh.centroids)
        assert (kept.config, kept.inertia) == (fresh.config, fresh.inertia)
        assert "models" not in elbow.as_dict()
        bare = ElbowResult(elbow.k_values, elbow.distortions, elbow.knee)
        assert bare == elbow and hash(bare) == hash(elbow)

    def test_increasing_curve_rejected(self):
        with pytest.raises(NumericalError, match="increased"):
            ElbowResult((1, 2, 3), (1.0, 2.0, 3.0), None)


class TestStandardizedInput:
    def test_fit_on_standardized_matrix_records_keys(self, tmp_path, synthetic_table):
        z = zscore(synthetic_table, ["DA", "CW", "DL"])
        model = order_clusters(kmeans_fit(z, KMeansConfig(k=3, seed=0)))
        write_model(tmp_path, z, model)
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["keys"] == ["DA", "CW", "DL"]
        assert doc["means"] == z.means.tolist() and doc["stds"] == z.stds.tolist()

    def test_matrix_and_its_array_fit_alike(self, synthetic_table):
        z = zscore(synthetic_table, ["DA", "CW", "DL"])
        cfg = KMeansConfig(k=3, seed=0)
        scans = [elbow_scan(z, (1, 8), cfg), elbow_scan(z.z, (1, 8), cfg)]
        assert scans[0] == scans[1]
        pairs = [(kmeans_fit(z, cfg), kmeans_fit(z.z, cfg)), *zip(*(s.models for s in scans))]
        assert len(pairs) == 9
        for a, b in pairs:
            np.testing.assert_array_equal(a.centroids, b.centroids)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert (a.config, a.inertia, a.inertia_history, a.ordered) == (
                b.config, b.inertia, b.inertia_history, b.ordered)

    def test_centroid_csv_layout(self, tmp_path, synthetic_table):
        z = zscore(synthetic_table, ["DA", "CW", "DL"])
        model = order_clusters(kmeans_fit(z, KMeansConfig(k=3, seed=0)))
        write_model(tmp_path, z, model)
        lines = (tmp_path / "centroids.csv").read_text().splitlines()
        assert lines[0] == "cluster,DA,CW,DL"
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3"]
        cells = [[float(v) for v in row.split(",")[1:]] for row in lines[1:]]
        assert np.array_equal(cells, model.centroids)

