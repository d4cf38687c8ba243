"""Batch pipeline: describe -> correlate -> select -> standardize ->
elbow -> cluster -> order -> evaluate, with all artifacts written to an
output directory. Its stages (`correlate`, `scan_k`, `fit_model`,
`write_labels_csv`) also make up the `correlate` and `cluster` commands."""

from __future__ import annotations

import csv
import datetime
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .clustering import (
    ElbowResult, KMeansConfig, KMeansModel, elbow_scan, kmeans_fit, order_clusters,
)
from .charts import emit_boxplot_svg, emit_elbow_svg, emit_scatter_svg
from .dataset import HerdTable, canonical_key, describe_all, load_table
from .errors import DegenerateInputError, ValidationError
from .inference import one_way_anova, tukey_hsd
from .stats import (
    CorrelationMatrix, StandardizedMatrix, correlation_matrix, label_correlation,
    select_features, zscore,
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
    n_restarts: int = 10
    output_dir: str = "out"
    emit_charts: bool = False

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
    artifacts: tuple[str, ...]

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.document, fh, indent=2, sort_keys=True)
            fh.write("\n")


def correlate(table: HerdTable) -> CorrelationMatrix:
    """Pearson matrix over the table's non-constant columns."""
    return correlation_matrix(
        table, [k for k in table.keys if table.column(k).std() > 0.0]
    )


def scan_k(z: StandardizedMatrix, k_range: tuple[int, int],
           kcfg: KMeansConfig) -> ElbowResult:
    """Elbow scan over `k_range`, its upper end clipped to the herd size."""
    lo, hi = k_range
    return elbow_scan(z, (lo, min(hi, len(z.animal_ids))), kcfg)


def fit_model(z: StandardizedMatrix, k: int | None, elbow: ElbowResult | None,
              kcfg: KMeansConfig) -> KMeansModel:
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
    want = replace(kcfg, k=k)
    scanned = {m.config: m for m in elbow.models} if elbow else {}
    return order_clusters(scanned[want] if want in scanned else kmeans_fit(z, want))


def write_labels_csv(path, table: HerdTable, labels) -> None:
    """`animal_id,cluster` rows in the table's animal order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["animal_id", "cluster"])
        for animal, label in zip(table.animal_ids, labels):
            writer.writerow([animal, int(label)])


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """Execute the full analysis chain and write report.json, labels.csv,
    centroids.csv (and charts when requested) under cfg.output_dir."""
    table = load_table(cfg.input_path)
    target = canonical_key(cfg.target)
    if target not in table.columns:
        raise ValidationError(f"target column {target} not in input")

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    stats_block = [d.as_dict() for d in describe_all(table)]
    corr = correlate(table)
    selection = select_features(corr, target, cfg.feature_count, cfg.exclude)
    z = zscore(table, selection.selected)
    # k is set per fit by scan_k and fit_model
    kcfg = KMeansConfig(k=1, seed=cfg.seed, n_restarts=cfg.n_restarts)
    elbow = scan_k(z, cfg.k_range, kcfg)
    model = fit_model(z, cfg.k, elbow, kcfg)

    label_corr = {}
    if model.k > 1:
        for key in corr.keys:
            try:
                label_corr[key] = label_correlation(model.labels, table, key)
            except DegenerateInputError:
                continue

    evaluation = {}
    if model.k >= 2:
        anova = one_way_anova(table.column(target), model.labels)
        evaluation[target] = {"anova": anova.as_dict()}
        if not anova.degenerate:
            evaluation[target]["tukey"] = tukey_hsd(
                table.column(target), model.labels, cfg.alpha
            ).as_dict()

    artifacts = []

    def _artifact(name: str) -> Path:
        artifacts.append(name)
        return out / name

    model.centroids_to_csv(_artifact("centroids.csv"))
    write_labels_csv(_artifact("labels.csv"), table, model.labels)
    model.to_json(_artifact("model.json"))
    corr.to_csv(_artifact("correlation.csv"))

    if cfg.emit_charts:
        emit_elbow_svg(elbow, _artifact("elbow.svg"))
        emit_scatter_svg(model, z, _artifact("scatter.svg"))
        emit_boxplot_svg(
            table.column(target), model.labels, target, _artifact("boxplot.svg")
        )

    document = {
        "tool_version": __version__,
        "config": cfg.as_dict(),
        "descriptive_stats": stats_block,
        "correlation": corr.as_dict(),
        "selection": selection.as_dict(),
        "elbow": elbow.as_dict(),
        "k": model.k,
        "model": model.as_dict(),
        "label_correlation": label_corr,
        "evaluation": evaluation,
        "artifacts": sorted(artifacts) + ["report.json"],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    report = RunReport(document=document, artifacts=tuple(sorted(artifacts)))
    report.to_json(out / "report.json")
    return report
