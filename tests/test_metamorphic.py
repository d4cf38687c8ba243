"""Metamorphic tests of `pipeline --preset dorsum` on the bundled herd:
scaling one column by a power of two, or reversing the column order,
leaves every result bit-identical, and the moments it reports for the
scaled column scale exactly."""

import csv
import math

import numpy as np
import pytest

from herdcluster import data
from herdcluster.pipeline import PipelineConfig, json_text, run_pipeline

INVARIANT = ("correlation", "selection", "elbow", "k", "label_correlation", "evaluation")
MODEL_INVARIANT = ("keys", "centroids", "labels", "inertia")


def _columns():
    with open(data.synthetic_path(), newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _run(tmp_path, columns, name):
    names = list(columns)
    path = tmp_path / f"{name}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([names, *zip(*columns.values())])
    cfg = PipelineConfig.from_preset("dorsum", str(path), output_dir=str(tmp_path / name))
    return run_pipeline(cfg).document


def _scaled(columns, key, p):
    x = np.ldexp(np.array(columns[key], dtype=float), p)
    return {**columns, key: [repr(float(v)) for v in x]}


def _invariant(doc):
    corr = doc["correlation"]
    r = {f"{a},{b}": corr["r"][i][j]
         for i, a in enumerate(corr["keys"]) for j, b in enumerate(corr["keys"])}
    return json_text({**{name: doc[name] for name in INVARIANT}, "correlation": r,
                      "model": {name: doc["model"][name] for name in MODEL_INVARIANT}})


def _moments(doc):
    """{key: (its descriptive_stats row, its model mean and std or None)}"""
    model = dict(zip(doc["model"]["keys"], zip(doc["model"]["means"], doc["model"]["stds"])))
    return {row["key"]: (row, model.get(row["key"])) for row in doc["descriptive_stats"]}


def _ldexp(value, p):
    if isinstance(value, dict):
        return {name: _ldexp(v, p) for name, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_ldexp(v, p) for v in value)
    return math.ldexp(value, p) if isinstance(value, float) else value


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    columns = _columns()
    return columns, _run(tmp_path_factory.mktemp("base"), columns, "base")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [-600, 5, 600])
@pytest.mark.parametrize("key", ["DA", "CW", "DL"])
def test_scaling_a_feature_column(base, tmp_path, key, p):
    columns, want = base
    got = _run(tmp_path, _scaled(columns, key, p), "scaled")
    assert _invariant(got) == _invariant(want)
    moments = _moments(want)
    moments[key] = _ldexp(moments[key], p)
    assert json_text(_moments(got)) == json_text(moments)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reversing_the_column_order(base, tmp_path):
    columns, want = base
    names = list(columns)
    got = _run(tmp_path, {name: columns[name] for name in names[:1] + names[:0:-1]}, "reversed")
    assert _invariant(got) == _invariant(want)
    assert json_text(_moments(got)) == json_text(_moments(want))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [-300, 5])
def test_scaling_the_target(base, tmp_path, p):
    """F, q and every p-value stay; means and mean differences scale by
    2^p and ms_within by 2^2p."""
    columns, want = base
    got = _run(tmp_path, _scaled(columns, "BW", p), "scaled")
    anova, tukey = (want["evaluation"]["BW"][name] for name in ("anova", "tukey"))
    want_eval = {"anova": {**anova, "group_means": _ldexp(anova["group_means"], p),
                           "grand_mean": math.ldexp(anova["grand_mean"], p)},
                 "tukey": {**tukey, "ms_within": math.ldexp(tukey["ms_within"], 2 * p),
                           "pairs": [{**pair, "mean_diff": math.ldexp(pair["mean_diff"], p)}
                                     for pair in tukey["pairs"]]}}
    assert json_text(got["evaluation"]["BW"]) == json_text(want_eval)
    assert _invariant({**got, "evaluation": None}) == _invariant({**want, "evaluation": None})
    moments = _moments(want)
    moments["BW"] = _ldexp(moments["BW"], p)
    assert json_text(_moments(got)) == json_text(moments)
