import csv
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import herdcluster
from herdcluster import (
    KMeansConfig, PipelineConfig, ValidationError, data, kmeans_fit, load_table,
    order_clusters, pearson_r, run_pipeline, zscore,
)
from herdcluster import pipeline
from herdcluster.pipeline import (
    bulk_csv, correlate, csv_text, evaluate, fit_model, json_text, read_labels, scan_k,
    write_model,
)

from conftest import csv_files, outcome, row_parse, write_csv


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


def test_read_labels_takes_the_bulk_path_on_write_model_labels(tmp_path, synthetic_table, z):
    model = fit_model(z, 3, None, 0)
    write_model(tmp_path, z, model)
    path = tmp_path / "labels.csv"
    assert path.read_bytes().count(b"\r\n") == len(model.labels) + 1  # csv_text writes CRLF
    assert bulk_csv(path, np.int64) is not None
    with mock.patch.object(pipeline, "read_csv", wraps=pipeline.read_csv) as spy:
        got = read_labels(path, synthetic_table.animal_ids)
    assert spy.call_count == 0
    assert got.dtype == np.int64 and got.tolist() == model.labels.tolist()


LABEL_IDS = ("a", "b", "c", "d")


def labels_outcome(path):
    """read_labels' labels for LABEL_IDS as (dtype, shape, values), or its message."""
    got = outcome(read_labels, path, LABEL_IDS)
    return got if isinstance(got, str) else (got.dtype.str, got.shape, got.tolist())


@given(raw=csv_files(
    header=st.sampled_from([["animal_id", "cluster"], [" animal_id", "cluster "],
                            ["cluster", "animal_id"], ["animal_id", "cluster", "note"]]),
    ids=st.just(list(LABEL_IDS)) | st.lists(st.sampled_from([*LABEL_IDS, " a ", "e"]),
                                            max_size=5),
    cell=st.integers(-2**63, 2**63 - 1).map(str)
    | st.sampled_from(["+3", "03", " 7 ", "-0", "\t1"]),
    oddity=st.sampled_from(["", "3_0", "1.0", "1.5", "9" * 20, "-9223372036854775809",
                            "\x1c3", "x", "٣", "\xa03", "\x0b2"]) | st.text(max_size=4)))
@settings(max_examples=300, deadline=None)
def test_bulk_label_parse_matches_row_parse(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        path.write_bytes(raw)
        got = bulk_csv(path, np.int64)
        if got is not None:
            header, ids, values = row_parse(path, np.int64)
            assert (got[0], got[1]) == (header, ids)
            assert got[2].dtype == values.dtype == np.int64
            assert np.array_equal(got[2], values)
        with mock.patch.object(pipeline, "bulk_csv", return_value=None):
            want = labels_outcome(path)
        assert labels_outcome(path) == want


# label files the bulk reader parses or declines, each read as the row path reads it
@pytest.mark.parametrize("text, want", [
    ("a,3_0\nb,1\nc,2\nd,1\n", [30, 1, 2, 1]),  # numpy rejects 3_0, np.int64 reads it
    ("a,\x1c3\nb,1\nc,2\nd,1\n", "{path}:2: cluster '\\x1c3' is not a 64-bit integer"),
    ("b,1\na,2\nc,3\nd,3\n", [2, 1, 3, 3]),  # out of the table's order
    ("a,1\nb,2\nb,3\nc,3\nd,1\n", "{path}:4: duplicate animal_id b"),
    ("a,1\nb,2\nd,2\n", "labels missing animal c"),
    ("a,1\nb,2\nc,3\nd,3\ne,1\n", [1, 2, 3, 3]),  # an animal the table lacks
])
def test_read_labels_traps(tmp_path, text, want):
    path = tmp_path / "labels.csv"
    path.write_text("animal_id,cluster\n" + text)
    got = labels_outcome(path)
    assert got == (want.format(path=path) if isinstance(want, str) else ("<i8", (4,), want))


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


def test_numpy_integer_config_reports_as_int_config(tmp_path):
    # report.json once failed to serialize a numpy seed, after the other files
    written = []
    for cast in (int, np.int64, np.uint8):
        run_pipeline(PipelineConfig.from_preset(
            "dorsum", data.synthetic_path(), feature_count=cast(3), k=cast(3),
            k_range=(cast(1), cast(8)), seed=cast(3), output_dir=tmp_path))
        files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        files["report.json"] = b"".join(line for line in files["report.json"].splitlines(True)
                                        if b'"timestamp"' not in line)
        written.append(files)
    assert written[0] == written[1] == written[2]
    assert len(written[0]) == 5


@pytest.mark.parametrize("field, message", [
    (dict(k=2.0), "k must be an integer, got 2.0"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(feature_count=2.5), "count must be an integer, got 2.5"),
    (dict(k_range=(1, 4.7)), "k range end must be an integer, got 4.7"),
])
def test_config_rejects_non_integer_fields(field, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        PipelineConfig.from_preset("dorsum", data.synthetic_path(), **field)


@pytest.mark.parametrize("k_range", [(1, 4, 9), (5,), (), 5])
def test_config_rejects_k_range_not_a_pair(k_range):
    # (1, 4, 9) was accepted, and run_pipeline then died unpacking it in scan_k
    with pytest.raises(ValidationError, match=r"^k_range must be two integers, got "):
        PipelineConfig.from_preset("dorsum", data.synthetic_path(), k_range=k_range)


def test_config_rejects_bare_string_exclude(synthetic_table):
    # "DA" once reached report.json as ["A", "D"] and left DA selectable
    message = "^exclude must be a collection of keys, not the string 'DA'$"
    with pytest.raises(ValidationError, match=message):
        PipelineConfig(input_path="x", target="BW", exclude="DA")
    with pytest.raises(ValidationError, match=message):
        PipelineConfig.from_preset("dorsum", data.synthetic_path(), exclude="DA")
    with pytest.raises(ValidationError, match=message):
        pipeline.select_for_target(synthetic_table, "BW", 3, "DA")
    cfg = PipelineConfig(input_path="x", target="BW", exclude=["DA"])
    assert cfg.as_dict()["exclude"] == ["DA"]
    _, selection = pipeline.select_for_target(synthetic_table, cfg.target, 3, cfg.exclude)
    assert "DA" not in selection.selected


def test_public_names_resolve():
    assert all(hasattr(herdcluster, name) for name in herdcluster.__all__)
    namespace = {}
    exec("from herdcluster import *", namespace)
    assert set(herdcluster.__all__) <= set(namespace)
