import xml.etree.ElementTree as ET

import numpy as np
import pytest

from herdcluster import KMeansConfig, ValidationError, elbow_scan, kmeans_fit, order_clusters
from herdcluster.charts import emit_boxplot_svg, emit_elbow_svg, emit_scatter_svg

SVG = "{http://www.w3.org/2000/svg}"


def by_class(root, name):
    return [
        el for el in root.iter()
        if name in (el.get("class") or "").split()
    ]


@pytest.fixture
def fitted(rng):
    centers = np.array([[0, 0], [12, 0], [0, 12]])
    X = np.vstack([c + rng.normal(size=(10, 2)) for c in centers])
    model = order_clusters(kmeans_fit(X, KMeansConfig(k=3, seed=0)))
    return X, model


def test_elbow_svg_structure(tmp_path, rng):
    X = np.vstack([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 15])
    elbow = elbow_scan(X, (1, 10), KMeansConfig(k=1, seed=0))
    out = tmp_path / "elbow.svg"
    emit_elbow_svg(elbow, out)
    root = ET.parse(out).getroot()
    (curve,) = by_class(root, "elbow-curve")
    assert len(curve.get("points").split()) == 10
    assert len(by_class(root, "elbow-point")) == 10
    assert len(by_class(root, "knee-marker")) == 1
    (label,) = by_class(root, "knee-label")
    assert f"k={elbow.knee}" in label.text


def test_elbow_svg_without_knee(tmp_path):
    from herdcluster.clustering import ElbowResult

    elbow = ElbowResult((1, 2, 3, 4), (10.0, 8.0, 6.0, 4.0), None)
    out = tmp_path / "elbow.svg"
    emit_elbow_svg(elbow, out)
    root = ET.parse(out).getroot()
    assert by_class(root, "knee-marker") == []


def test_scatter_svg_counts(tmp_path, fitted):
    X, model = fitted
    out = tmp_path / "scatter.svg"
    emit_scatter_svg(model, X, out)
    root = ET.parse(out).getroot()
    assert len(by_class(root, "centroid")) == 3
    assert len(by_class(root, "point")) == 30
    assert len(by_class(root, "legend-swatch")) == 3
    for c in (1, 2, 3):
        assert len(by_class(root, f"cluster-{c}")) == 10


def test_scatter_svg_one_dimensional(tmp_path, rng):
    X = np.concatenate([rng.normal(size=8), rng.normal(size=8) + 30])[:, None]
    model = order_clusters(kmeans_fit(X, KMeansConfig(k=2, seed=0)))
    out = tmp_path / "scatter.svg"
    emit_scatter_svg(model, X, out)
    root = ET.parse(out).getroot()
    assert len(by_class(root, "centroid")) == 2


@pytest.mark.parametrize("points", [lambda X: X[:-1], lambda X: np.vstack([X, X[:1]])])
def test_scatter_svg_points_and_labels_agree(tmp_path, fitted, points):
    X, model = fitted
    with pytest.raises(ValidationError, match="points and labels disagree in length"):
        emit_scatter_svg(model, points(X), tmp_path / "scatter.svg")
    assert not (tmp_path / "scatter.svg").exists()


def test_boxplot_svg_groups_in_cluster_order(tmp_path, rng):
    values = np.concatenate([rng.normal(size=8) + c * 10 for c in range(4)])
    labels = np.repeat([1, 2, 3, 4], 8)
    out = tmp_path / "box.svg"
    emit_boxplot_svg(values, labels, "BW", out)
    root = ET.parse(out).getroot()
    groups = by_class(root, "boxgroup")
    assert len(groups) == 4
    order = [g.get("class").split()[1] for g in groups]
    assert order == ["cluster-1", "cluster-2", "cluster-3", "cluster-4"]
    assert len(by_class(root, "box")) == 4
    assert len(by_class(root, "median")) == 4


def test_boxplot_whiskers_within_1p5_iqr(tmp_path, rng):
    group = np.concatenate([rng.normal(size=30), [15.0]])  # one far outlier
    values = np.concatenate([group, rng.normal(size=31) + 5])
    labels = np.repeat([1, 2], 31)
    out = tmp_path / "box.svg"
    emit_boxplot_svg(values, labels, "X", out)
    root = ET.parse(out).getroot()
    assert len(by_class(root, "outlier")) >= 1


def test_charts_are_pure_postprocessing(tmp_path, fitted):
    X, model = fitted
    before = model.centroids.copy()
    emit_scatter_svg(model, X, tmp_path / "s.svg")
    emit_boxplot_svg(X[:, 0], model.labels, "X", tmp_path / "b.svg")
    np.testing.assert_array_equal(model.centroids, before)
