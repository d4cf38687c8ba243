"""Rebuild the committed expected values in `expected/`.

    python3 perfbench/make_expected.py [--work DIR]

Run from the repository root.  For every pool member (and the probe herd)
this runs herdcluster's CLI once and keeps the discrete outcome the
benchmark later requires of every op: selected features, k and a digest
of the labels.  p-values come from scipy (`f.sf`, `studentized_range.sf`)
on the generated data and labels, so scipy never runs inside a benchmark
run.  Rebuilding is only right when herdcluster's seeded outputs are
meant to change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np
from scipy import stats

sys.path.insert(0, "src")

import gen  # noqa: E402
import run  # noqa: E402
from workloads import InputTable, labels_digest, op_spec  # noqa: E402
from herdcluster import cli  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "expected"


def oracle_p(values: np.ndarray, labels: np.ndarray) -> dict:
    """scipy p-values for the one-way ANOVA and every Tukey pair."""
    ids = np.unique(labels)
    groups = [values[labels == g] for g in ids]
    n, k = values.size, len(groups)
    grand = values.mean()
    ss_between = sum(g.size * (g.mean() - grand) ** 2 for g in groups)
    ss_within = sum(((g - g.mean()) ** 2).sum() for g in groups)
    df_b, df_w = k - 1, n - k
    f_stat = (ss_between / df_b) / (ss_within / df_w)
    ms_within = ss_within / df_w
    p = {"anova": float(stats.f.sf(f_stat, df_b, df_w))}
    for i in range(k):
        for j in range(i + 1, k):
            se = np.sqrt(ms_within / 2.0 * (1.0 / groups[i].size + 1.0 / groups[j].size))
            q = abs(groups[j].mean() - groups[i].mean()) / se
            p[f"{ids[i]}-{ids[j]}"] = float(stats.studentized_range.sf(q, k, df_w))
    return p


def run_op(kind: str, member_id: str, work: str):
    rec = run.run_op(cli, op_spec(kind, member_id, work), f"expected:{member_id}", {})
    if rec.exit_code != 0 or rec.error:
        raise SystemExit(f"{member_id}: {kind} failed: {rec.error or rec.exit_code}")
    return rec


def expect(member_id: str, kinds: tuple[str, ...], work: str) -> dict:
    table = gen.build(gen.member(member_id))
    csv_path, labels_path = gen.input_paths(work, member_id)
    Path(csv_path).write_text(table.csv_text, encoding="utf-8")
    if table.labels_csv:
        Path(labels_path).write_text(table.labels_csv, encoding="utf-8")
    bw = InputTable(csv_path).column("BW")
    entry = {"n": table.values.shape[0]}
    for kind in kinds:
        rec = run_op(kind, member_id, work)
        if kind == "pipeline":
            model = json.loads(Path(rec.out, "report.json").read_text())["model"]
            labels = np.array(model["labels"])
            entry.update(features=model["keys"], k=model["k"],
                         labels_sha256=labels_digest(labels))
            entry["pipeline_p"] = oracle_p(bw, labels)
        elif kind == "cluster":
            model = json.loads(Path(rec.out, "model.json").read_text())
            entry.update(features=model["keys"], k=model["k"],
                         labels_sha256=labels_digest(model["labels"]))
        elif kind == "evaluate":
            entry["evaluate_p"] = oracle_p(bw, table.labels)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", default=".perfbench_work/expected")
    args = parser.parse_args(argv)
    for sub in ("inputs", "out"):
        Path(args.work, sub).mkdir(parents=True, exist_ok=True)
    plan = {
        "herd_pipeline": ("pipeline",),
        "large_herd_cluster": ("cluster",),
        "many_group_evaluate": ("evaluate",),
    }
    OUT_DIR.mkdir(exist_ok=True)
    for workload, kinds in plan.items():
        members = [m.id for m in gen.pool(workload)] + [f"{workload}-999"]
        doc = {m: expect(m, kinds, args.work) for m in members}
        (OUT_DIR / f"{workload}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(doc)} members")
    probe = {gen.PROBE_ID: expect(gen.PROBE_ID, ("pipeline", "evaluate"), args.work)}
    (OUT_DIR / "probe.json").write_text(json.dumps(probe, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(args.work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
