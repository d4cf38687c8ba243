"""The bundled CLI runs against the committed golden manifest
(`make_golden.py` rewrites it, on purpose only)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import herdcluster
import make_golden


def _leaves(doc, path=""):
    """(path, value) for every scalar in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def moved_fields(old, new) -> list[str]:
    """One line per moved field (list indices folded into [*]): how many
    values moved and the largest relative change among the numbers."""
    before, after = dict(_leaves(old)), dict(_leaves(new))
    moved = {}
    for path in before.keys() | after.keys():
        a, b = before.get(path), after.get(path)
        if a == b and type(a) is type(b):
            continue
        field = re.sub(r"\[\d+\]", "[*]", path)
        count, rel = moved.get(field, (0, 0.0))
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        change = abs(b - a) / (max(abs(a), abs(b)) or 1.0) if numbers else float("inf")
        moved[field] = (count + 1, max(rel, change))
    return [f"{field}: {count} moved, largest relative change {rel:.3g}"
            for field, (count, rel) in sorted(moved.items())]


def test_bundled_runs_match_manifest():
    want = json.loads(make_golden.MANIFEST.read_text())
    got = make_golden.run_all()
    problems = []
    for name, run in want["runs"].items():
        new = got["runs"].get(name)
        if new is None:
            problems.append(f"{name}: not run")
            continue
        for key in ("argv", "exit_code", "stdout"):
            if new[key] != run[key]:
                problems.append(f"{name}: {key} moved")
        for artifact in run["artifacts"].keys() | new["artifacts"].keys():
            if run["artifacts"].get(artifact) == new["artifacts"].get(artifact):
                continue
            problems.append(f"{name}/{artifact} moved")
            old_doc = want["documents"].get(name, {}).get(artifact)
            new_doc = got["documents"].get(name, {}).get(artifact)
            if old_doc is not None and new_doc is not None:
                problems += [f"    {line}" for line in moved_fields(old_doc, new_doc)]
    problems += [f"{name}: not in the manifest" for name in got["runs"].keys() - want["runs"].keys()]
    assert not problems, "\n".join(problems)


def test_moved_fields_folds_indices_and_reports_relative_change():
    old = {"model": {"centroids": [[1.0, 2.0], [3.0, 4.0]], "k": 2}, "knee": 3}
    new = {"model": {"centroids": [[1.0, 2.0 * (1 + 1e-15)], [3.0, 4.5]], "k": 2}, "knee": None}
    assert moved_fields(old, new) == [
        "knee: 1 moved, largest relative change inf",
        "model.centroids[*][*]: 2 moved, largest relative change 0.111",
    ]
    assert moved_fields(old, old) == []


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_manifest_does_not_depend_on_the_blas_kernel(coretype):
    """The manifest test again, in a child process whose OpenBLAS uses
    another CPU kernel (set in the child's environment only): no reported
    value may depend on the kernel's summation order."""
    src = str(Path(herdcluster.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_bundled_runs_match_manifest"],
        env=env, capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1])
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
