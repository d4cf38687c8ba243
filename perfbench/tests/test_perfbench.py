"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/tests

The smoke runs start `perfbench/run.py` from the repository root and take
about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from herdcluster import cli  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def test_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path):
    for workload in gen.WORKLOADS:
        assert gen.pick(workload, 7) == gen.pick(workload, 7)
        assert gen.pick(workload, 7) != gen.pick(workload, 8)
    a = gen.write_inputs("herd_pipeline", 5, str(tmp_path / "a"))
    b = gen.write_inputs("herd_pipeline", 5, str(tmp_path / "b"))
    c = gen.write_inputs("herd_pipeline", 6, str(tmp_path / "c"))
    assert a["schedule"] == b["schedule"] != c["schedule"]
    for member_id in a["schedule"]:
        files = [Path(gen.input_paths(str(tmp_path / d), member_id)[0]).read_bytes()
                 for d in ("a", "b")]
        assert files[0] == files[1]


def test_generated_herds_have_the_paper_columns_and_integer_grades():
    table = gen.build(gen.pool("herd_pipeline")[0])
    assert table.header == ("animal_id", *gen.PAPER_COLUMNS)
    grades = table.values[:, -3:]
    assert ((grades >= 1) & (grades <= 5) & (grades == grades.round())).all()


@pytest.fixture
def work(tmp_path):
    """A work directory holding the probe herd's inputs."""
    directory = str(tmp_path)
    for sub in ("inputs", "out"):
        (tmp_path / sub).mkdir()
    table = gen.build(gen.member(gen.PROBE_ID))
    csv_path, labels_path = gen.input_paths(directory, gen.PROBE_ID)
    Path(csv_path).write_text(table.csv_text)
    Path(labels_path).write_text(table.labels_csv)
    return directory


def _run_twice(work, kind):
    spec = workloads.op_spec(kind, gen.PROBE_ID, work)
    passes = {}
    return [run.run_op(cli, spec, f"op{i}", passes) for i in range(2)]


def _checker(work):
    return workloads.Checker(work, workloads.load_expected("herd_pipeline"))


def test_checker_passes_untouched_outputs(work):
    records = _run_twice(work, "pipeline") + _run_twice(work, "evaluate")
    assert _checker(work).check_all(records) == 0


def test_checker_flags_a_corrupted_label(work):
    records = _run_twice(work, "pipeline")
    report = Path(records[1].out, "report.json")
    doc = json.loads(report.read_text())
    labels = doc["model"]["labels"]
    labels[0] = labels[0] % doc["k"] + 1
    report.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert _checker(work).check_all(records) == 1
    assert any("labels differ" in p for p in records[1].problems)


def test_checker_flags_a_p_value_shifted_by_1e_5(work):
    records = _run_twice(work, "evaluate")
    out = Path(records[0].out)
    doc = json.loads(out.read_text())
    doc["tukey"]["pairs"][0]["p_adj"] += 1e-5
    out.write_text(json.dumps(doc))
    assert _checker(work).check_all(records) == 1
    assert records[0].problems and "scipy" in records[0].problems[0]


def test_checker_flags_a_changed_report(work):
    records = _run_twice(work, "pipeline")
    report = Path(records[1].out, "report.json")
    report.write_text(report.read_text().replace('"tool_version": "', '"tool_version": "x'))
    assert _checker(work).check_all(records) == 1
    assert records[1].problems == ["report.json differs from an earlier run of this herd"]


def test_report_digest_ignores_only_the_timestamp():
    a = b'{\n  "k": 3,\n  "timestamp": "2024-01-01T00:00:00",\n  "x": 1\n}\n'
    b = a.replace(b"2024-01-01", b"2025-06-30")
    assert workloads.report_digest(a) == workloads.report_digest(b)
    assert workloads.report_digest(a) != workloads.report_digest(a.replace(b'"x": 1', b'"x": 2'))


def _bench(*args, cwd=REPO):
    return subprocess.run([sys.executable, str(Path(cwd, "perfbench", "run.py")), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", list(workloads.KINDS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_passes_and_prints_only_declared_metrics(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_fails_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "herd_pipeline", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
