"""The CLI ops each workload makes, and the check every op's output must
pass.

An op is one `herdcluster.cli.main(argv)` call.  Its output is checked
after the timed window, against the values committed in `expected/`
(selected features, k, label digests, scipy p-values) and against numpy
recomputations (inertia, descriptive statistics, correlations).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

#: The subcommands each workload cycles through.
KINDS = {
    "herd_pipeline": ("pipeline",),
    "large_herd_cluster": ("cluster",),
    "many_group_evaluate": ("evaluate",),
    "wide_table_summary": ("describe", "correlate"),
}

P_ABS_TOL = 1e-6        # documented accuracy of herdcluster's p-values
INERTIA_REL_TOL = 1e-9
STATS_REL_TOL = 1e-9
# p-values reported in inference.tail_rel_err_max: below the absolute
# tolerance, and above the floor where scipy's own tail loses accuracy
TAIL_WINDOW = (1e-11, 1e-6)

_EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
_TIMESTAMP_LINE = re.compile(rb'\n\s*"timestamp": "[^"]*",?(?=\n)')
_CLUSTER_LINE = re.compile(r"^k=(\d+) inertia=(\S+) features=(\S+)$", re.M)


@dataclass(frozen=True)
class OpSpec:
    member: str
    kind: str
    argv: tuple[str, ...]
    out: str | None     # file or directory the op writes; None: stdout only


@dataclass
class OpRecord:
    op_id: str
    spec: OpSpec
    seconds: float
    exit_code: int | None
    error: str = ""
    stdout: str = ""
    out: str | None = None  # where the op's output was kept
    problems: list[str] = field(default_factory=list)


def op_spec(kind: str, member_id: str, work_dir: str) -> OpSpec:
    csv_path, labels_path = gen.input_paths(work_dir, member_id)
    out = f"{work_dir}/out/{member_id}.{kind}"
    if kind == "pipeline":
        argv = ["pipeline", "--input", csv_path, "--preset", "dorsum", "--charts",
                "--out", out]
    elif kind == "cluster":
        argv = ["cluster", "--input", csv_path, "--target", "BW", "--features", "4",
                "--k", "8", "--out", out]
    elif kind == "evaluate":
        out += ".json"
        argv = ["evaluate", "--input", csv_path, "--labels", labels_path,
                "--target", "BW", "--out", out]
    elif kind == "describe":
        argv, out = ["describe", "--input", csv_path], None
    elif kind == "correlate":
        # JSON, as in the README's example: the CSV writer prints numpy 2
        # scalars as "np.float64(...)", a defect reported, not measured here
        out += ".json"
        argv = ["correlate", "--input", csv_path, "--format", "json", "--out", out]
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return OpSpec(member_id, kind, tuple(argv), out)


def schedule(workload: str, member_ids: list[str], work_dir: str) -> list[OpSpec]:
    """One cycle of a workload's ops.  A workload with two kinds alternates
    them; with an odd member count every member meets both kinds."""
    kinds = KINDS[workload]
    period = math.lcm(len(member_ids), len(kinds))
    return [op_spec(kinds[i % len(kinds)], member_ids[i % len(member_ids)], work_dir)
            for i in range(period)]


def probe_specs(work_dir: str) -> list[OpSpec]:
    return [op_spec("pipeline", gen.PROBE_ID, work_dir),
            op_spec("evaluate", gen.PROBE_ID, work_dir)]


def load_expected(workload: str) -> dict:
    """Committed expected values of a workload's pool and of the probe."""
    expected = {}
    for name in (workload, "probe"):
        path = _EXPECTED_DIR / f"{name}.json"
        if path.exists():
            expected.update(json.loads(path.read_text(encoding="utf-8")))
    return expected


def labels_digest(labels) -> str:
    return hashlib.sha256(",".join(str(int(v)) for v in labels).encode()).hexdigest()


def report_digest(raw: bytes) -> str:
    """Digest of a report.json with its timestamp line removed."""
    return hashlib.sha256(_TIMESTAMP_LINE.sub(b"", raw)).hexdigest()


class InputTable:
    """A generated input as the checker sees it: header and values parsed
    from the CSV herdcluster reads, plus SS derived as herdcluster does."""

    def __init__(self, csv_path: str):
        with open(csv_path, encoding="utf-8") as fh:
            self.keys = fh.readline().rstrip("\n").split(",")[1:]
            self.values = np.array(
                [line.rstrip("\n").split(",")[1:] for line in fh], dtype=float
            )
        if all(k in self.keys for k in ("S1", "S2", "S3")):
            ss = np.vstack([self.column(k) for k in ("S1", "S2", "S3")]).mean(axis=0)
            self.values = np.column_stack([self.values, ss])
            self.keys = [*self.keys, "SS"]

    def column(self, key: str) -> np.ndarray:
        return self.values[:, self.keys.index(key)]

    def zscore(self, keys) -> np.ndarray:
        X = np.column_stack([self.column(k) for k in keys])
        return (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)


class Checker:
    """Checks op outputs and keeps the quality numbers found on the way."""

    def __init__(self, work_dir: str, expected: dict):
        self.work_dir = work_dir
        self.expected = expected
        self.p_abs_err: dict[str, list[float]] = {}
        self.tail_rel_err: dict[str, list[float]] = {}
        self.artifact_bytes: dict[str, int] = {}
        self._tables: dict[str, InputTable] = {}
        self._report_digests: dict[str, str] = {}
        self._reference: dict[tuple[str, str], object] = {}

    def table(self, member_id: str) -> InputTable:
        if member_id not in self._tables:
            self._tables[member_id] = InputTable(gen.input_paths(self.work_dir, member_id)[0])
        return self._tables[member_id]

    def check_all(self, records: list[OpRecord]) -> int:
        """Check every record, in order, fill in its problems; return the
        number of failed records."""
        for rec in records:
            rec.problems = self.check(rec)
        return sum(1 for rec in records if rec.problems)

    def check(self, rec: OpRecord) -> list[str]:
        if rec.error:
            return [f"exception: {rec.error}"]
        if rec.exit_code != 0:
            return [f"exit code {rec.exit_code}"]
        try:
            return getattr(self, f"_check_{rec.spec.kind}")(rec)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    # -- per-kind checks -------------------------------------------------

    def _check_pipeline(self, rec: OpRecord) -> list[str]:
        out = Path(rec.out)
        self.artifact_bytes[rec.op_id] = sum(p.stat().st_size for p in out.iterdir())
        raw = (out / "report.json").read_bytes()
        problems = []
        digest = report_digest(raw)
        if self._report_digests.setdefault(rec.spec.member, digest) != digest:
            problems.append("report.json differs from an earlier run of this herd")
        doc = json.loads(raw)
        model = doc["model"]
        problems += self._clustering(rec.spec.member, doc["selection"]["selected"],
                                    doc["k"], model["labels"], model["centroids"],
                                    model["inertia"])
        ev = doc["evaluation"].get("BW")
        if ev is None:
            return problems + ["no evaluation of BW"]
        pairs = ev.get("tukey", {}).get("pairs", [])
        return problems + self._p_values(rec, ev["anova"]["p_value"], pairs)

    def _check_cluster(self, rec: OpRecord) -> list[str]:
        match = _CLUSTER_LINE.search(rec.stdout)
        if match is None:
            return ["no summary line on stdout"]
        out = Path(rec.out)
        with open(out / "labels.csv", newline="", encoding="utf-8") as fh:
            labels = [int(row["cluster"]) for row in csv.DictReader(fh)]
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        return self._clustering(rec.spec.member, match.group(3).split(","),
                                int(match.group(1)), labels, model["centroids"],
                                model["inertia"])

    def _check_evaluate(self, rec: OpRecord) -> list[str]:
        doc = json.loads(Path(rec.out).read_text(encoding="utf-8"))
        return self._p_values(rec, doc["anova"]["p_value"], doc["tukey"]["pairs"])

    def _check_describe(self, rec: OpRecord) -> list[str]:
        ref = self._describe_reference(rec.spec.member)
        rows = list(csv.DictReader(io.StringIO(rec.stdout)))
        if [row["key"] for row in rows] != list(ref):
            return ["describe keys differ from the table's columns"]
        problems = []
        for row in rows:
            for stat, want in ref[row["key"]].items():
                got = float(row[stat])
                if abs(got - want) > STATS_REL_TOL * abs(want) + 1e-12:
                    problems.append(f"describe {row['key']}.{stat} = {got}, numpy {want}")
        return problems

    def _check_correlate(self, rec: OpRecord) -> list[str]:
        table = self.table(rec.spec.member)
        doc = json.loads(Path(rec.out).read_text(encoding="utf-8"))
        if doc["keys"] != table.keys:
            return ["correlation keys differ from the table's columns"]
        r = np.array(doc["r"], dtype=float)
        ref = self._reference.get((rec.spec.member, "corr"))
        if ref is None:
            ref = self._reference[(rec.spec.member, "corr")] = np.corrcoef(table.values.T)
        worst = float(np.abs(r - ref).max())
        return [] if worst <= 1e-9 else [f"correlation off numpy by {worst:.3g}"]

    # -- shared pieces ---------------------------------------------------

    def _clustering(self, member, features, k, labels, centroids, inertia) -> list[str]:
        exp = self.expected[member]
        problems = []
        if list(features) != exp["features"]:
            problems.append(f"features {features} != expected {exp['features']}")
        if k != exp["k"]:
            problems.append(f"k {k} != expected {exp['k']}")
        if labels_digest(labels) != exp["labels_sha256"]:
            problems.append("labels differ from the expected labels")
        if not problems:
            z = self.table(member).zscore(features)
            recomputed = float(((z - np.asarray(centroids)[np.asarray(labels) - 1]) ** 2).sum())
            if abs(recomputed - inertia) > INERTIA_REL_TOL * abs(recomputed):
                problems.append(f"inertia {inertia} != recomputed {recomputed}")
        return problems

    def _p_values(self, rec: OpRecord, anova_p: float, pairs: list[dict]) -> list[str]:
        want = self.expected[rec.spec.member][f"{rec.spec.kind}_p"]
        got = {"anova": anova_p}
        got.update({f"{p['group_a']}-{p['group_b']}": p["p_adj"] for p in pairs})
        if set(got) != set(want):
            return [f"p-values for {sorted(set(got) ^ set(want))} missing or unexpected"]
        problems = []
        abs_errs = self.p_abs_err.setdefault(rec.op_id, [])
        tail_errs = self.tail_rel_err.setdefault(rec.op_id, [])
        for name, p in got.items():
            err = abs(p - want[name])
            abs_errs.append(err)
            if TAIL_WINDOW[0] <= want[name] < TAIL_WINDOW[1]:
                tail_errs.append(err / want[name])
            if err > P_ABS_TOL:
                problems.append(f"p[{name}] = {p!r}, scipy {want[name]!r}")
        return problems

    def _describe_reference(self, member: str) -> dict:
        ref = self._reference.get((member, "describe"))
        if ref is None:
            table = self.table(member)
            ref = {}
            for key in table.keys:
                x = table.column(key)
                q25, q50, q75 = np.quantile(x, [0.25, 0.5, 0.75])
                ref[key] = {"mean": float(x.mean()), "std": float(x.std(ddof=1)),
                            "min": float(x.min()), "q25": float(q25), "q50": float(q50),
                            "q75": float(q75), "max": float(x.max())}
            self._reference[(member, "describe")] = ref
        return ref
