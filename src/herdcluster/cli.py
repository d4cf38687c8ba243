"""Command-line front end.

Subcommands: describe, correlate, cluster, evaluate, pipeline.
Exit codes: 0 success, 2 validation error, 3 numerical failure.

`--input` accepts a CSV path or one of the bundled datasets:
`builtin:scores` (the grader-score table) and `builtin:synthetic`
(the moment-matched synthetic measurement table).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, data
from .dataset import describe_all, load_table, write_text
from .errors import NumericalError, ValidationError
from .pipeline import (
    PRESETS, PipelineConfig, correlate, correlation_csv, csv_text, evaluate, fit_model,
    json_text, read_labels, run_pipeline, scan_k, select_for_target, write_model,
)
from .stats import zscore

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _resolve_input(raw: str) -> Path:
    if raw == "builtin:scores":
        return data.scores_path()
    if raw == "builtin:synthetic":
        return data.synthetic_path()
    return Path(raw)  # read_csv reports a missing or unreadable file


def _split_keys(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _parse_k_range(raw: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in raw.split(":"))
    except ValueError:
        raise ValidationError(
            f"--k-range must look like LO:HI, got {raw!r}"
        ) from None
    return lo, hi


def _alpha(raw: str) -> float:
    try:
        if 0.0 < (alpha := float(raw)) < 1.0:  # NaN fails too
            return alpha
    except ValueError:  # a non-number gets the same message
        pass
    raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {raw!r}")


def cmd_describe(args) -> int:
    table = load_table(_resolve_input(args.input))
    rows = [d.as_dict() for d in describe_all(table)]
    text = (json_text(rows) if args.format == "json"
            else csv_text(rows[0], (row.values() for row in rows)))
    write_text(args.out, text)
    return 0


def cmd_correlate(args) -> int:
    corr = correlate(load_table(_resolve_input(args.input)))
    text = json_text(corr.as_dict()) if args.format == "json" else correlation_csv(corr)
    write_text(args.out, text)
    return 0


def cmd_cluster(args) -> int:
    k_range = _parse_k_range(args.k_range)
    table = load_table(_resolve_input(args.input))
    _, selection = select_for_target(table, args.target, args.features,
                                     _split_keys(args.exclude))
    z = zscore(table, selection.selected)
    elbow = None if args.k is not None else scan_k(z, k_range, args.seed)
    model = fit_model(z, args.k, elbow, args.seed)
    write_model(args.out, z, model)
    print(f"k={model.k} inertia={model.inertia:.6f} features={','.join(selection.selected)}")
    return 0


def cmd_evaluate(args) -> int:
    table = load_table(_resolve_input(args.input))
    labels = read_labels(args.labels, table.animal_ids)
    results = evaluate(table.column(args.target), labels, args.alpha)
    anova = results["anova"]
    print(
        f"ANOVA {args.target}: F({anova.df_between},{anova.df_within})"
        f"={anova.f_stat:.4f} p={anova.p_value:.6f}"
        + (" [degenerate]" if anova.degenerate else "")
    )
    if "tukey" in results:
        print(results["tukey"].to_text())
    if args.out:
        write_text(args.out, json_text({name: r.as_dict() for name, r in results.items()}))
    return 0


def cmd_pipeline(args) -> int:
    overrides = dict(
        feature_count=args.features,
        k=args.k,
        k_range=_parse_k_range(args.k_range),
        seed=args.seed,
        alpha=args.alpha,
        output_dir=args.out,
        emit_charts=args.charts,
    )
    input_path = _resolve_input(args.input)
    if args.preset:
        if args.target or args.exclude:
            raise ValidationError("--preset replaces --target/--exclude")
        cfg = PipelineConfig.from_preset(args.preset, str(input_path), **overrides)
    else:
        if not args.target:
            raise ValidationError("either --preset or --target is required")
        cfg = PipelineConfig(
            input_path=str(input_path),
            target=args.target,
            exclude=_split_keys(args.exclude),
            **overrides,
        )
    report = run_pipeline(cfg)
    doc = report.document
    print(
        f"k={doc['k']} features={','.join(doc['selection']['selected'])} "
        f"report={Path(cfg.output_dir) / 'report.json'}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herdcluster",
        description="Clustering and statistical analysis of herd measurement tables.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--input", required=True,
                       help="CSV path, builtin:scores or builtin:synthetic")
        p.set_defaults(func=func)
        return p

    def add_clustering(p):
        p.add_argument("--features", type=int, default=3)
        p.add_argument("--exclude", help="comma-separated keys to exclude")
        p.add_argument("--k", type=int, help="number of clusters (default: the elbow's knee)")
        p.add_argument("--k-range", default="1:10")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")

    p = add_command("describe", cmd_describe, "descriptive statistics per column")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = add_command("correlate", cmd_correlate, "Pearson correlation matrix")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = add_command("cluster", cmd_cluster, "feature selection + k-means")
    p.add_argument("--target", required=True)
    add_clustering(p)

    p = add_command("evaluate", cmd_evaluate, "ANOVA + Tukey HSD for given labels")
    p.add_argument("--labels", required=True, help="labels.csv from cluster/pipeline")
    p.add_argument("--target", required=True)
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--out", help="also write JSON results here")

    p = add_command("pipeline", cmd_pipeline, "full analysis chain")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--target")
    add_clustering(p)
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--charts", action="store_true", help="emit SVG charts")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
