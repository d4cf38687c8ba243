"""Batch pipeline: describe -> correlate -> select -> standardize ->
elbow -> cluster -> order -> evaluate, with all artifacts written to an
output directory. Its stages (`correlate`, `select_for_target`, `scan_k`,
`fit_model`, `write_model`, `read_labels`, `evaluate`) also make up the CLI
commands, and every JSON and CSV output is formatted here, by `json_text` and
`csv_text`."""

from __future__ import annotations

import csv
import datetime
import io
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import (
    ElbowResult, KMeansConfig, KMeansModel, elbow_scan, kmeans_fit, order_clusters,
)
from .charts import emit_boxplot_svg, emit_elbow_svg, emit_scatter_svg
from .dataset import (
    HerdTable, bulk_csv, canonical_key, describe_all, load_table, read_csv, unique_names,
    write_text,
)
from .errors import ValidationError, integer
from .inference import one_way_anova, tukey_hsd
from .stats import (
    CorrelationMatrix, FeatureSelection, StandardizedMatrix, _correlations,
    correlation_matrix, select_features, zscore,
)

#: The two measurement-selection configurations used for the published
#: analysis: dorsum-view features against body weight, and the
#: structure-score set. Both exclude productivity metrics and the raw
#: grader columns from the candidate pool.
PRESETS = {
    "dorsum": {
        "target": "BW",
        "exclude": ("BW", "FW", "DMI", "RFI", "ADG", "SC", "LEA",
                    "S1", "S2", "S3", "SS"),
    },
    "structure": {
        "target": "SS",
        "exclude": ("SS", "S1", "S2", "S3", "FW", "DMI", "RFI", "ADG",
                    "SC", "LEA"),
    },
}


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str
    target: str
    feature_count: int = 3
    exclude: tuple[str, ...] = ()
    k: int | None = None
    k_range: tuple[int, int] = (1, 10)
    seed: int = 0
    alpha: float = 0.05
    output_dir: str = "out"
    emit_charts: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:  # NaN fails too
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        if isinstance(self.exclude, str):  # not split into its characters
            raise ValidationError(f"exclude must be a collection of keys, not the string {self.exclude!r}")
        # plain ints, as KMeansConfig stores them: report.json cannot hold a numpy integer
        for name, what in (("feature_count", "count"), ("seed", "seed"), ("k", "k")):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, integer(getattr(self, name), what))
        ends = tuple(self.k_range) if np.iterable(self.k_range) else ()
        if len(ends) != 2:
            raise ValidationError(f"k_range must be two integers, got {self.k_range!r}")
        object.__setattr__(self, "k_range", tuple(integer(end, "k range end") for end in ends))

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "input_path": str(self.input_path),
            "exclude": sorted(self.exclude),
            "k_range": list(self.k_range),
            "output_dir": str(self.output_dir),
        }

    @classmethod
    def from_preset(cls, name: str, input_path, **overrides) -> "PipelineConfig":
        try:
            preset = PRESETS[name]
        except KeyError:
            raise ValidationError(
                f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
            ) from None
        merged = {"target": preset["target"], "exclude": tuple(preset["exclude"])}
        merged.update(overrides)
        return cls(input_path=input_path, **merged)


@dataclass(frozen=True)
class RunReport:
    """Self-contained pipeline result; numerically reproducible from the
    echoed config and seed (only the timestamp varies between runs)."""

    document: dict


def json_text(doc) -> str:
    """The JSON format of every output: sorted keys, 2-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def csv_text(header, rows) -> str:
    """The CSV format of every output; floats, numpy's included, as `repr(float)`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([float(v) if isinstance(v, np.floating) else v for v in row] for row in rows)
    return buf.getvalue()


def correlation_csv(corr: CorrelationMatrix) -> str:
    return csv_text(["key", *corr.keys], ([k, *row] for k, row in zip(corr.keys, corr.r)))


def correlate(table: HerdTable) -> CorrelationMatrix:
    """Pearson matrix over the columns whose min and max differ."""
    keep = [k for k in table.keys if table.column(k).min() != table.column(k).max()]
    return correlation_matrix(table, keep)


def select_for_target(table: HerdTable, target: str, count: int,
                      exclude: tuple[str, ...]) -> tuple[CorrelationMatrix, FeatureSelection]:
    """The correlation matrix and the `count` keys, `exclude` and `target`
    left out, that correlate best with the target column."""
    target = canonical_key(target)
    if target not in table.columns:
        raise ValidationError(f"target column {target} not in input")
    corr = correlate(table)
    if target not in corr.keys:
        raise ValidationError(f"target column {target} is constant")
    return corr, select_features(corr, target, count, exclude)


def scan_k(z: StandardizedMatrix, k_range: tuple[int, int], seed: int) -> ElbowResult:
    """Elbow scan over `k_range`, its upper end clipped to the herd size."""
    lo, hi = (integer(end, "k range end") for end in k_range)  # before clipping hides a 4.7
    n = len(z.animal_ids)  # elbow_scan sets k per fit and reads only the seed
    if not 1 <= lo <= n:  # checked here, so that the message names the range as given
        raise ValidationError(f"k range [{lo}, {hi}] must start in [1, {n}], the herd size")
    return elbow_scan(z, (lo, min(hi, n)), KMeansConfig(k=n, seed=seed))


def fit_model(z: StandardizedMatrix, k: int | None, elbow: ElbowResult | None,
              seed: int) -> KMeansModel:
    """Ordered k-means model at `k`, or at the elbow's knee when `k` is
    None. The elbow's fit with the same config is reused, not refitted."""
    if k is None:
        if elbow is None or elbow.knee is None:
            raise ValidationError(
                "no knee detected in the distortion curve; pass an explicit k"
            )
        k = elbow.knee
    n = len(z.animal_ids)
    if not 1 <= k <= n:
        raise ValidationError(f"k override {k} outside [1, {n}]")
    want = KMeansConfig(k=k, seed=seed)
    scanned = {m.config: m for m in elbow.models} if elbow else {}
    return order_clusters(scanned[want] if want in scanned else kmeans_fit(z, want))


def _model_doc(z: StandardizedMatrix, model: KMeansModel) -> dict:
    """The model with the feature keys and scaling it was fitted under."""
    return {"keys": list(z.keys), "means": z.means.tolist(), "stds": z.stds.tolist(),
            **model.as_dict()}


def write_model(out, z: StandardizedMatrix, model: KMeansModel) -> list[str]:
    """Write centroids.csv (one row per cluster 1..k), labels.csv (the
    animal order of `z`) and model.json under `out`; return their names."""
    files = {
        "centroids.csv": csv_text(["cluster", *z.keys],
                                  ([i, *row] for i, row in enumerate(model.centroids, 1))),
        "labels.csv": csv_text(["animal_id", "cluster"], zip(z.animal_ids, model.labels)),
        "model.json": json_text(_model_doc(z, model)),
    }
    Path(out).mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        write_text(Path(out) / name, text)
    return list(files)


def read_labels(path, animal_ids) -> np.ndarray:
    """Cluster labels from an `animal_id,cluster` CSV, as `write_model` writes
    labels.csv, in `animal_ids` order; other columns are ignored."""
    bulk = bulk_csv(path, np.int64)  # write_model's own file, in the table's order
    if (bulk and [name.strip() for name in bulk[0]] == ["animal_id", "cluster"]
            and bulk[1] == list(animal_ids)):
        return bulk[2][:, 0]
    records = read_csv(path)
    header = unique_names(path, [name.strip() for name in next(records)[1]])
    if "animal_id" not in header or "cluster" not in header:
        raise ValidationError("labels CSV needs animal_id,cluster columns")
    at_id, at_cluster = header.index("animal_id"), header.index("cluster")
    by_animal = {}
    for lineno, rec in records:
        animal, cell = rec[at_id].strip(), rec[at_cluster]
        try:
            label = np.int64(cell)
        except (ValueError, OverflowError):
            raise ValidationError(
                f"{path}:{lineno}: cluster {cell!r} is not a 64-bit integer"
            ) from None
        if animal in by_animal:
            raise ValidationError(f"{path}:{lineno}: duplicate animal_id {animal}")
        by_animal[animal] = label
    try:
        return np.array([by_animal[a] for a in animal_ids])
    except KeyError as exc:
        raise ValidationError(f"labels missing animal {exc.args[0]}") from None


def evaluate(values, labels, alpha: float) -> dict:
    """{"anova": AnovaResult} of `values` across cluster `labels`, plus
    "tukey": TukeyResult at `alpha` unless the ANOVA is degenerate."""
    results = {"anova": one_way_anova(values, labels)}
    if not results["anova"].degenerate:
        results["tukey"] = tukey_hsd(values, labels, alpha)
    return results


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """Execute the full analysis chain and write report.json, labels.csv,
    centroids.csv (and charts when requested) under cfg.output_dir."""
    table = load_table(cfg.input_path)
    corr, selection = select_for_target(table, cfg.target, cfg.feature_count, cfg.exclude)
    target = selection.target
    stats_block = [d.as_dict() for d in describe_all(table)]
    z = zscore(table, selection.selected)
    elbow = scan_k(z, cfg.k_range, cfg.seed)
    model = fit_model(z, cfg.k, elbow, cfg.seed)

    label_corr, evaluation = {}, {}  # none when k = 1: one label is one group
    if model.k >= 2:
        label_r = _correlations([model.labels, *map(table.column, corr.keys)])[0, 1:]
        label_corr = dict(zip(corr.keys, map(float, label_r)))
        results = evaluate(table.column(target), model.labels, cfg.alpha)
        evaluation[target] = {name: r.as_dict() for name, r in results.items()}

    out = Path(cfg.output_dir)
    artifacts = write_model(out, z, model) + ["correlation.csv"]
    write_text(out / "correlation.csv", correlation_csv(corr))
    if cfg.emit_charts:
        artifacts += ["elbow.svg", "scatter.svg", "boxplot.svg"]
        emit_elbow_svg(elbow, out / "elbow.svg")
        emit_scatter_svg(model, z, out / "scatter.svg")
        emit_boxplot_svg(table.column(target), model.labels, target, out / "boxplot.svg")

    document = {
        "tool_version": __version__,
        "config": cfg.as_dict(),
        "descriptive_stats": stats_block,
        "correlation": corr.as_dict(),
        "selection": selection.as_dict(),
        "elbow": elbow.as_dict(),
        "k": model.k,
        "model": _model_doc(z, model),
        "label_correlation": label_corr,
        "evaluation": evaluation,
        "artifacts": sorted(artifacts) + ["report.json"],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    write_text(out / "report.json", json_text(document))
    return RunReport(document)
