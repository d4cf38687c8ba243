import numpy as np
import pytest

from herdcluster import (
    KMeansConfig, ValidationError, kmeans_fit, load_table, order_clusters, zscore,
)
from herdcluster import pipeline
from herdcluster.pipeline import correlate, fit_model, scan_k

from conftest import write_csv


@pytest.fixture
def z(synthetic_table):
    return zscore(synthetic_table, ["DA", "CW", "DL"])


KCFG = KMeansConfig(k=1, seed=0)


def test_correlate_skips_constant_columns(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["animal_id", "A", "B", "C"],
                     [["a", 1, 5, 2], ["b", 2, 5, 1], ["c", 4, 5, 3]])
    assert correlate(load_table(path)).keys == ("A", "C")


def test_scan_k_clips_to_herd_size(z):
    n = len(z.animal_ids)
    assert scan_k(z, (1, n + 50), KCFG).k_values[-1] == n


def test_fit_model_reuses_the_elbow_fit(z, monkeypatch):
    elbow = scan_k(z, (1, 6), KCFG)

    def refit(*args, **kwargs):
        raise AssertionError("the scanned k was fitted again")

    monkeypatch.setattr(pipeline, "kmeans_fit", refit)
    for k in (None, 2, 6):
        model = fit_model(z, k, elbow, KCFG)
        want = order_clusters(kmeans_fit(z, KMeansConfig(k=model.k, seed=0)))
        np.testing.assert_array_equal(model.centroids, want.centroids)
        np.testing.assert_array_equal(model.labels, want.labels)
        assert model.ordered and model.feature_keys == ("DA", "CW", "DL")


def test_fit_model_fits_k_outside_the_scan(z):
    elbow = scan_k(z, (1, 4), KCFG)
    model = fit_model(z, 7, elbow, KCFG)
    want = order_clusters(kmeans_fit(z, KMeansConfig(k=7, seed=0)))
    np.testing.assert_array_equal(model.labels, want.labels)
    # a scan under another config is not reused
    other = fit_model(z, 3, elbow, KMeansConfig(k=1, seed=9))
    assert other.config.seed == 9


def test_fit_model_checks_k(z):
    n = len(z.animal_ids)
    for bad in (0, -1, n + 1):
        with pytest.raises(ValidationError, match="outside"):
            fit_model(z, bad, None, KCFG)
    with pytest.raises(ValidationError, match="no knee"):
        fit_model(z, None, None, KCFG)
