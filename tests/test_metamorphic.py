"""Metamorphic tests of `pipeline --preset dorsum` on the bundled herd:
scaling one column by a power of two, or reversing the column order,
leaves every result bit-identical, and the moments it reports for the
scaled column scale exactly. Shuffling the rows of a table or of its
labels file leaves every CLI command's output byte for byte the same."""

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdcluster import data
from herdcluster.cli import main
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


# -- row order ---------------------------------------------------------------

def _csv(header, rows):
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _permuted(text, order):
    """The CSV `text` with its records (after the header) in `order`."""
    header, *rows = text.splitlines()
    return _csv([header], [[rows[i]] for i in order])


def _outcomes(tmp, table, labels, commands):
    """{command: (exit code, stdout, stderr)} of each CLI command in `commands`
    (without --input; "{tmp}" stands for `tmp`) on the CSV text `table`, with
    `labels` as {tmp}/labels.csv, and every file the commands wrote under `tmp`,
    report.json without its timestamp. `tmp` is emptied first, so two calls
    with one `tmp` name the same paths everywhere."""
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    inputs = {tmp / "data.csv": table, tmp / "labels.csv": labels}
    for path, text in inputs.items():
        path.write_text(text, encoding="utf-8")
    got = {}
    for argv in commands:
        argv = [arg.format(tmp=tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], "--input", str(tmp / "data.csv"), *argv[1:]])
        got[" ".join(argv)] = code, out.getvalue(), err.getvalue()
    for path in sorted(tmp.rglob("*")):
        if path.is_file() and path not in inputs:
            got[str(path)] = path.read_bytes()
            if path.name == "report.json":
                report = json.loads(got[str(path)])
                del report["timestamp"]
                got[str(path)] = json_text(report)
    return got


BUNDLED_COMMANDS = (
    ["describe"],
    ["correlate", "--format", "json"],
    ["cluster", "--target", "BW", "--features", "3", "--out", "{tmp}/cluster"],
    ["evaluate", "--labels", "{tmp}/labels.csv", "--target", "BW", "--out", "{tmp}/evaluate.json"],
    ["pipeline", "--preset", "dorsum", "--charts", "--out", "{tmp}/dorsum"],
    ["pipeline", "--preset", "structure", "--charts", "--out", "{tmp}/structure"],
)


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    """The bundled table, write_model's labels.csv for it, and every command's
    outcome on the two, taken in the directory each row-order test reuses."""
    table = data.synthetic_path().read_text(encoding="utf-8")
    tmp = tmp_path_factory.mktemp("rows") / "run"
    labels = _outcomes(tmp, table, "", [BUNDLED_COMMANDS[-2]])
    labels = labels[str(tmp / "dorsum" / "labels.csv")].decode()
    return tmp, table, labels, _outcomes(tmp, table, labels, BUNDLED_COMMANDS)


@pytest.mark.parametrize("seed", range(4))
def test_row_order_of_the_bundled_table(bundled, seed):
    """Shuffled rows of the table and of its labels give every command the
    same exit code, output and file bytes; labels.csv lists the animals in
    the table's canonical order, not the file's."""
    tmp, table, labels, want = bundled
    rng = np.random.default_rng(seed)
    n = len(table.splitlines()) - 1
    got = _outcomes(tmp, _permuted(table, rng.permutation(n)),
                    _permuted(labels, rng.permutation(n)), BUNDLED_COMMANDS)
    assert got == want
    assert all(outcome[0] == 0 for name, outcome in want.items() if isinstance(outcome, tuple))


_CELLS = st.one_of(st.integers(0, 3).map(str), st.floats(-100, 100, allow_nan=False).map(repr))


@given(draw=st.data())
@settings(max_examples=15, deadline=None)
def test_row_order_of_a_generated_table(draw):
    """The same for tables of 2-12 animals whose ids differ in length and
    characters, whatever each command's exit code."""
    ids = draw.draw(st.lists(st.text("ab01", min_size=1, max_size=3),
                             min_size=2, max_size=12, unique=True))
    table = _csv(["animal_id", "BW", "DA", "CW"],
                 [[a, *(draw.draw(_CELLS) for _ in range(3))] for a in ids])
    labels = _csv(["animal_id", "cluster"], [[a, str(draw.draw(st.integers(1, 3)))] for a in ids])
    fit = ["--target", "BW", "--features", "2"]
    commands = (["describe"], ["correlate"], ["cluster", *fit, "--out", "{tmp}/cluster"],
                ["evaluate", "--labels", "{tmp}/labels.csv", "--target", "BW"],
                ["pipeline", *fit, "--charts", "--out", "{tmp}/pipeline"])
    orders = [draw.draw(st.permutations(range(len(ids)))) for _ in range(2)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp) / "run"
        want = _outcomes(tmp, table, labels, commands)
        got = _outcomes(tmp, _permuted(table, orders[0]), _permuted(labels, orders[1]), commands)
    assert got == want
