import dataclasses
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

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
from herdcluster.clustering import ElbowResult, KMeansModel, restart_seed
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

