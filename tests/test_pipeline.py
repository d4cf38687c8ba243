import csv
import json

import numpy as np
import pytest

import herdcluster
from herdcluster import (
    KMeansConfig, PipelineConfig, ValidationError, data, kmeans_fit, load_table,
    order_clusters, pearson_r, run_pipeline, zscore,
)
from herdcluster import pipeline
from herdcluster.pipeline import (
    correlate, csv_text, evaluate, fit_model, json_text, read_labels, scan_k, write_model,
)

from conftest import write_csv


@pytest.fixture
def z(synthetic_table):
    return zscore(synthetic_table, ["DA", "CW", "DL"])


def test_correlate_skips_constant_columns(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["animal_id", "A", "B", "C"],
                     [["a", 1, 5, 2], ["b", 2, 5, 1], ["c", 4, 5, 3]])
    assert correlate(load_table(path)).keys == ("A", "C")


def test_scan_k_clips_to_herd_size(z):
    n = len(z.animal_ids)
    elbow = scan_k(z, (1, n + 50), 4)
    assert elbow.k_values[-1] == n
    assert {m.config.seed for m in elbow.models} == {4}


def test_scan_k_checks_integer_range_ends(z):
    # a non-integer end past the herd size is not clipped into a valid range
    n = len(z.animal_ids)
    for k_range in ((1, n + 0.5), (1, 4.7), (1.0, 4)):
        with pytest.raises(ValidationError, match="k range end must be an integer"):
            scan_k(z, k_range, 0)


def test_fit_model_reuses_the_elbow_fit(z, monkeypatch):
    elbow = scan_k(z, (1, 6), 0)

    def refit(*args, **kwargs):
        raise AssertionError("the scanned k was fitted again")

    monkeypatch.setattr(pipeline, "kmeans_fit", refit)
    for k in (None, 2, 6):
        model = fit_model(z, k, elbow, 0)
        want = order_clusters(kmeans_fit(z, KMeansConfig(k=model.k, seed=0)))
        np.testing.assert_array_equal(model.centroids, want.centroids)
        np.testing.assert_array_equal(model.labels, want.labels)
        assert model.ordered


def test_fit_model_fits_k_outside_the_scan(z):
    elbow = scan_k(z, (1, 4), 0)
    model = fit_model(z, 7, elbow, 0)
    want = order_clusters(kmeans_fit(z, KMeansConfig(k=7, seed=0)))
    np.testing.assert_array_equal(model.labels, want.labels)
    # a scan under another seed is not reused
    other = fit_model(z, 3, elbow, 9)
    assert other.config.seed == 9


@pytest.mark.parametrize("name", ["DORSUM", "", "none"])
def test_unknown_preset(name):
    with pytest.raises(ValidationError, match=f"unknown preset {name!r}"):
        PipelineConfig.from_preset(name, data.synthetic_path())


def test_fit_model_checks_k(z):
    n = len(z.animal_ids)
    for bad in (0, -1, n + 1):
        with pytest.raises(ValidationError, match="outside"):
            fit_model(z, bad, None, 0)
    with pytest.raises(ValidationError, match="no knee"):
        fit_model(z, None, None, 0)


def test_json_text_format():
    assert json_text({"b": [1, 2.5], "a": None}) == (
        '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    )


def test_csv_text_writes_floats_at_full_precision():
    text = csv_text(["id", "x", "n"], [["a", np.float64(0.1) + 0.2, np.int64(3)]])
    assert text == "id,x,n\r\na,0.30000000000000004,3\r\n"


def test_write_model_files(tmp_path, synthetic_table, z):
    model = fit_model(z, 3, None, 0)
    out = tmp_path / "new" / "dir"
    assert write_model(out, z, model) == [
        "centroids.csv", "labels.csv", "model.json"]
    labels = (out / "labels.csv").read_text().splitlines()
    assert labels[0] == "animal_id,cluster"
    assert labels[1:] == [f"{a},{c}" for a, c in zip(synthetic_table.animal_ids, model.labels)]
    assert (out / "centroids.csv").read_text().splitlines()[0] == "cluster,DA,CW,DL"
    assert (out / "model.json").read_text() == json_text({
        "keys": ["DA", "CW", "DL"], "means": z.means.tolist(), "stds": z.stds.tolist(),
        **model.as_dict()})


def test_read_labels_reads_back_write_model(tmp_path, synthetic_table, z):
    model = fit_model(z, 3, None, 0)
    write_model(tmp_path, z, model)
    ids = synthetic_table.animal_ids
    got = read_labels(tmp_path / "labels.csv", ids)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, model.labels)
    np.testing.assert_array_equal(read_labels(tmp_path / "labels.csv", ids[::-1]),
                                  model.labels[::-1])


def test_evaluate_skips_tukey_only_when_anova_is_degenerate():
    full = evaluate([1, 2, 5, 6, 9, 10], [1, 1, 2, 2, 3, 3], 0.05)
    assert list(full) == ["anova", "tukey"] and full["tukey"].alpha == 0.05
    flat = evaluate([1, 1, 5, 5], [1, 1, 2, 2], 0.05)
    assert list(flat) == ["anova"] and flat["anova"].degenerate


@pytest.mark.parametrize("cfg", [
    dict(name="dorsum"), dict(name="structure", k_range=(2, 8), seed=5),
    dict(name="structure", target="SS", exclude=(), feature_count=1),
])
def test_report_scales_by_the_described_moments(cfg, tmp_path):
    """The model's means and stds are the descriptive statistics' own."""
    cfg = PipelineConfig.from_preset(input_path=data.synthetic_path(),
                                     output_dir=tmp_path, **cfg)
    doc = run_pipeline(cfg).document
    described = {row["key"]: row for row in doc["descriptive_stats"]}
    model = doc["model"]
    assert model["keys"] == doc["selection"]["selected"]
    for key, mean, std in zip(model["keys"], model["means"], model["stds"]):
        assert (mean, std) == (described[key]["mean"], described[key]["std"])


@pytest.mark.parametrize("k", [1, 2, 12])
def test_label_correlation_is_pearson_r_of_the_labels(k, tmp_path, synthetic_table):
    """Each report.json entry has the bytes of `pearson_r` of the labels and
    the column; at k = 1 the labels are constant and there are none."""
    run_pipeline(PipelineConfig.from_preset("dorsum", data.synthetic_path(), k=k,
                                            output_dir=tmp_path))
    doc = json.loads((tmp_path / "report.json").read_text())
    with open(tmp_path / "labels.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["animal_id"] for row in rows] == list(synthetic_table.animal_ids)
    labels = [int(row["cluster"]) for row in rows]
    want = {key: pearson_r(labels, synthetic_table.column(key))
            for key in doc["correlation"]["keys"]} if k >= 2 else {}
    assert doc["label_correlation"] == want


@pytest.mark.parametrize("alpha", [7, 0, 1, -0.1, float("nan")])
def test_config_rejects_alpha_outside_unit_interval(alpha):
    # k = 1 runs no Tukey test, so nothing later would catch this alpha
    with pytest.raises(ValidationError, match=r"alpha must be in \(0, 1\)"):
        PipelineConfig.from_preset("dorsum", data.synthetic_path(), k=1, alpha=alpha)


def test_public_names_resolve():
    assert all(hasattr(herdcluster, name) for name in herdcluster.__all__)
    namespace = {}
    exec("from herdcluster import *", namespace)
    assert set(herdcluster.__all__) <= set(namespace)
