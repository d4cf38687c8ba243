"""Seeded synthetic herd tables for the benchmark workloads.

Every input the benchmark feeds to herdcluster comes from a *pool member*:
a table generated from a fixed (workload, index) pair, so that the
expected outputs of every member can be computed once, offline, and
committed (`expected/`).  The run seed only chooses which members a run
uses and in which order (`pick`), always the same number from each size
stratum, so two seeds see different tables of the same shape mix.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The measurement columns of the paper's herd table (bundled
#: `synthetic_measurements.csv`): 16 measurements and three integer
#: grader scores S1..S3, from which herdcluster derives SS.
PAPER_COLUMNS = (
    "BW", "CH", "WH", "RH", "SL", "SVH", "SA", "CW", "DL", "DA",
    "FW", "DMI", "RFI", "ADG", "SC", "LEA", "S1", "S2", "S3",
)
_MEANS = np.array([422.85, 130.45, 122.07, 65.75, 136.47, 55.91, 9718.98,
                   50.12, 153.98, 7298.45, 565.11, 12.95, 0.18, 1.74, 33.28,
                   80.54])
_STDS = np.array([35.39, 2.76, 2.58, 2.03, 3.89, 2.93, 573.64, 2.24, 5.11,
                  405.56, 76.11, 1.05, 0.68, 0.35, 2.39, 9.77])
# loading of each measurement on the latent body-size factor
_SIZE_LOADING = np.array([0.95, 0.15, 0.55, 0.5, 0.5, 0.45, 0.75, 0.9, 0.85,
                          0.92, 0.6, 0.5, 0.05, 0.4, 0.3, 0.5])
_DECIMALS = (2, 2, 2, 2, 2, 2, 1, 2, 2, 1, 2, 3, 3, 3, 2, 2)

_POOL_SALT = 0x6865_7264  # "herd"
_PICK_SALT = 0x7069_636B  # "pick"


@dataclass(frozen=True)
class Member:
    """One pool member: its stable id and the parameters it is built from."""

    workload: str
    index: int
    n: int
    extra_columns: int = 0
    label_groups: int = 0

    @property
    def id(self) -> str:
        return f"{self.workload}-{self.index:03d}"


@dataclass(frozen=True)
class Table:
    """A generated table: CSV text plus the values herdcluster will parse."""

    header: tuple[str, ...]
    values: np.ndarray          # n x len(header) - 1, exactly as written
    csv_text: str
    labels_csv: str = ""        # evaluate label file, when the member has one
    labels: np.ndarray | None = None


# workload -> (stratum parameters, members per stratum in the pool,
#              members per stratum in one run).  The middle size (listed
# more than once) holds at least half of each run's ops, so the median
# op is always one of many ops of that size.
_POOLS = {
    # paper-sized herds, 23-500 animals, 2-4 overlapping groups
    "herd_pipeline": ([dict(n=(23, 60)), dict(n=(100, 150)), dict(n=(100, 150)),
                       dict(n=(300, 500))], 12, 9),
    # one size: every op is the same arithmetic-bound fit
    "large_herd_cluster": ([dict(n=(3_000, 3_500))], 32, 24),
    # 6, 12 or 20 label groups: 15, 66 or 190 Tukey pairs per op
    "many_group_evaluate": ([dict(n=(500, 800), label_groups=6),
                             *[dict(n=(1000, 1300), label_groups=12)] * 4,
                             dict(n=(1600, 2000), label_groups=20)], 8, 6),
    # 2-4 MB tables: many animals x few columns, or few x many
    "wide_table_summary": ([dict(n=(20_000, 20_000), extra_columns=1),
                            dict(n=(10_000, 10_000), extra_columns=11),
                            dict(n=(6_000, 6_000), extra_columns=31),
                            dict(n=(4_000, 4_000), extra_columns=61),
                            dict(n=(2_000, 2_000), extra_columns=101)], 4, 1),
}

WORKLOADS = tuple(_POOLS)

#: Small fixed inputs: the warm-up op of each workload's set-up, and the
#: probe herd a traced run uses for layers its own ops never reach.
WARMUP = {
    "herd_pipeline": dict(n=30),
    "large_herd_cluster": dict(n=500),
    "many_group_evaluate": dict(n=300, label_groups=6),
    "wide_table_summary": dict(n=500, extra_columns=21),
}
PROBE_ID = "probe-000"


def pool(workload: str) -> list[Member]:
    """Every member of a workload's pool, in index order."""
    strata, per_stratum, _ = _POOLS[workload]
    members = []
    for s, spec in enumerate(strata):
        for j in range(per_stratum):
            index = s * per_stratum + j
            rng = np.random.default_rng([_POOL_SALT, _kind(workload), index, 0])
            lo, hi = spec["n"]
            members.append(Member(
                workload, index, int(rng.integers(lo, hi + 1)),
                spec.get("extra_columns", 0), spec.get("label_groups", 0),
            ))
    return members


def pick(workload: str, seed: int) -> list[Member]:
    """The members one run uses: the same count from every stratum, chosen
    and ordered by `seed`, interleaved so that every stretch of the
    schedule holds the whole size mix."""
    strata, per_stratum, per_run = _POOLS[workload]
    rng = np.random.default_rng([_PICK_SALT, _kind(workload), seed])
    members = pool(workload)
    chosen = []
    for s in range(len(strata)):
        stratum = members[s * per_stratum:(s + 1) * per_stratum]
        chosen.append([stratum[i] for i in rng.permutation(per_stratum)[:per_run]])
    return [chosen[s][r] for r in range(per_run) for s in range(len(strata))]


def member(member_id: str) -> Member:
    """Look a member up by id: a pool member, a warm-up input
    (`<workload>-999`) or the probe herd."""
    if member_id == PROBE_ID:
        return Member("probe", 0, 200, label_groups=8)
    workload, index = member_id.rsplit("-", 1)
    if int(index) == 999:
        return Member(workload, 999, **WARMUP[workload])
    return pool(workload)[int(index)]


def _kind(workload: str) -> int:
    return (*WORKLOADS, "probe").index(workload)


def _format(values: np.ndarray, decimals) -> list[str]:
    cols = [[f"{v:.{d}f}" for v in values[:, j]] for j, d in enumerate(decimals)]
    return [",".join(row) for row in zip(*cols)]


def build(member: Member) -> Table:
    """Generate a member's table (and label file, for evaluate members)."""
    rng = np.random.default_rng([_POOL_SALT, _kind(member.workload), member.index, 1])
    n = member.n
    if member.label_groups:
        # evaluate herds: the labels are the latent groups, whose body-size
        # centres spread so widely that the extreme pairs sit far in the tail
        groups = member.label_groups
        group = rng.integers(groups, size=n)
        group[:groups] = np.arange(groups)  # no empty group
        centre = np.linspace(-3.0, 3.0, groups) + rng.normal(0.0, 0.15, groups)
    else:
        groups = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.full(groups, 4.0))
        group = rng.choice(groups, size=n, p=weights)
        # neighbouring centres 1.2-2.0 sd apart: the groups overlap
        centre = np.cumsum(rng.uniform(1.2, 2.0, groups))
        centre -= centre.mean()
    size = centre[group] + rng.normal(0.0, 1.0, n)
    shape = rng.normal(0.0, 1.0, (groups, 16))[group] * 0.6 + rng.normal(0.0, 1.0, (n, 16))
    meas = _MEANS + _STDS * (_SIZE_LOADING * size[:, None] / 1.6
                             + np.sqrt(1.0 - _SIZE_LOADING**2) * shape)
    grades = np.clip(np.rint(3.0 + 0.6 * size[:, None] + rng.normal(0.0, 0.8, (n, 3))), 1, 5)
    blocks = [meas, grades]
    decimals = [*_DECIMALS, 0, 0, 0]
    header = ["animal_id", *PAPER_COLUMNS]
    if member.extra_columns:
        m = member.extra_columns
        load = rng.uniform(-0.9, 0.9, m)
        blocks.append(50.0 + 10.0 * (load * size[:, None] / 1.6
                                     + np.sqrt(1.0 - load**2) * rng.normal(0.0, 1.0, (n, m))))
        decimals += [3] * m
        header += [f"M{j + 20:03d}" for j in range(m)]

    ids = tuple(f"A{i + 1:06d}" for i in range(n))
    rows = _format(np.hstack(blocks), decimals)
    text = ",".join(header) + "\n" + "".join(f"{a},{r}\n" for a, r in zip(ids, rows))
    # parse back, so the checker sees exactly the doubles herdcluster reads
    values = np.array([r.split(",") for r in rows], dtype=float)

    labels_csv, labels = "", None
    if member.label_groups:
        labels = group + 1
        labels_csv = "animal_id,cluster\n" + "".join(
            f"{a},{g}\n" for a, g in zip(ids, labels)
        )
    return Table(tuple(header), values, text, labels_csv, labels)


def input_paths(directory, member_id: str) -> tuple[str, str]:
    """Where `write_inputs` puts a member's table and label file."""
    base = f"{directory}/inputs/{member_id}"
    return f"{base}.csv", f"{base}.labels.csv"


def write_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write the tables of one run (its schedule, its warm-up input and the
    probe herd) under `directory`; return the run's manifest."""
    schedule = [m.id for m in pick(workload, seed)]
    warmup = f"{workload}-999"
    Path(directory, "inputs").mkdir(parents=True, exist_ok=True)
    for member_id in dict.fromkeys([*schedule, warmup, PROBE_ID]):
        table = build(member(member_id))
        csv_path, labels_path = input_paths(directory, member_id)
        Path(csv_path).write_text(table.csv_text, encoding="utf-8")
        if table.labels_csv:
            Path(labels_path).write_text(table.labels_csv, encoding="utf-8")
    return {"workload": workload, "seed": seed, "schedule": schedule,
            "warmup": warmup, "probe": PROBE_ID}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    manifest = write_inputs(args.workload, args.seed, args.dir)
    Path(args.dir, "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
