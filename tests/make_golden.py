"""Golden outputs of the bundled CLI runs.

For every run in RUNS this records the exit code, a digest of stdout and
one digest per artifact, and keeps each JSON artifact's normalised
document so that `test_golden.py` can name the fields that moved.
`report.json` is normalised by dropping `timestamp`, `config.output_dir`
and `config.input_path` (the last two are paths on the running machine).

Rewrite the manifest on purpose only, from the repository root:

    PYTHONPATH=src python tests/make_golden.py

Every rewrite is a change of test data and is listed in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from herdcluster import cli

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

# name -> argv; "{out}" is the run's own output directory and "{runs}" the
# directory holding every run's output directory
RUNS = {
    "pipeline-dorsum": ["pipeline", "--input", "builtin:synthetic", "--preset", "dorsum",
                        "--out", "{out}"],
    "pipeline-dorsum-charts": ["pipeline", "--input", "builtin:synthetic", "--preset",
                               "dorsum", "--charts", "--out", "{out}"],
    "pipeline-dorsum-k3-charts": ["pipeline", "--input", "builtin:synthetic", "--preset",
                                  "dorsum", "--k", "3", "--charts", "--out", "{out}"],
    "pipeline-structure-k2-8-seed5": ["pipeline", "--input", "builtin:synthetic", "--preset",
                                      "structure", "--k-range", "2:8", "--seed", "5",
                                      "--out", "{out}"],
    "pipeline-structure-charts": ["pipeline", "--input", "builtin:synthetic", "--preset",
                                  "structure", "--charts", "--out", "{out}"],
    "pipeline-bw-k12": ["pipeline", "--input", "builtin:synthetic", "--target", "BW",
                        "--exclude", "FW,DMI", "--k", "12", "--out", "{out}"],
    "pipeline-ss-f1-charts": ["pipeline", "--input", "builtin:synthetic", "--target", "SS",
                              "--features", "1", "--charts", "--out", "{out}"],
    "pipeline-bw-f1-charts": ["pipeline", "--input", "builtin:synthetic", "--target", "BW",
                              "--features", "1", "--charts", "--out", "{out}"],
    "cluster-bw": ["cluster", "--input", "builtin:synthetic", "--target", "BW",
                   "--out", "{out}"],
    "cluster-bw-k4": ["cluster", "--input", "builtin:synthetic", "--target", "BW",
                      "--k", "4", "--out", "{out}"],
    "cluster-bw-f1": ["cluster", "--input", "builtin:synthetic", "--target", "BW",
                      "--features", "1", "--out", "{out}"],
    "cluster-bw-f9": ["cluster", "--input", "builtin:synthetic", "--target", "BW",
                      "--features", "9", "--out", "{out}"],
    "cluster-ss-k4-f2": ["cluster", "--input", "builtin:synthetic", "--target", "SS",
                         "--k", "4", "--features", "2", "--out", "{out}"],
    "cluster-bw-k12": ["cluster", "--input", "builtin:synthetic", "--target", "BW",
                       "--k", "12", "--out", "{out}"],
    "evaluate-bw": ["evaluate", "--input", "builtin:synthetic", "--labels",
                    "{runs}/cluster-bw/labels.csv", "--target", "BW",
                    "--out", "{out}/evaluate.json"],
    "evaluate-ss-k4": ["evaluate", "--input", "builtin:synthetic", "--labels",
                       "{runs}/cluster-ss-k4-f2/labels.csv", "--target", "SS",
                       "--out", "{out}/evaluate.json"],
    "correlate-csv": ["correlate", "--input", "builtin:synthetic"],
    "correlate-json": ["correlate", "--input", "builtin:synthetic", "--format", "json",
                       "--out", "{out}/correlation.json"],
    "describe-csv": ["describe", "--input", "builtin:scores"],
    "describe-json": ["describe", "--input", "builtin:synthetic", "--format", "json",
                      "--out", "{out}/describe.json"],
}

_MACHINE_FIELDS = {"report.json": (("timestamp",), ("config", "output_dir"),
                                   ("config", "input_path"))}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _document(name: str, raw: bytes):
    doc = json.loads(raw)
    for path in _MACHINE_FIELDS.get(name, ()):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    return doc


def run_all() -> dict:
    """Run every bundled command in-process; returns the manifest."""
    runs, documents = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, template in RUNS.items():
            out = Path(tmp) / name
            out.mkdir()
            argv = [arg.format(out=out, runs=tmp) for arg in template]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                exit_code = cli.main(argv)
            artifacts, docs = {}, {}
            for path in sorted(out.iterdir()):
                raw = path.read_bytes()
                if path.suffix == ".json":
                    docs[path.name] = _document(path.name, raw)
                    raw = json.dumps(docs[path.name], sort_keys=True).encode()
                artifacts[path.name] = _digest(raw)
            runs[name] = {
                "argv": template,
                "exit_code": exit_code,
                "stdout": _digest(stdout.getvalue().replace(str(out), "{out}").encode()),
                "artifacts": artifacts,
            }
            if docs:
                documents[name] = docs
    return {"runs": runs, "documents": documents}


def main() -> int:
    manifest = run_all()
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    n_digests = sum(1 + len(run["artifacts"]) for run in manifest["runs"].values())
    print(f"wrote {MANIFEST}: {len(manifest['runs'])} runs, {n_digests} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
