"""herdcluster benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a herdcluster checkout; herdcluster is imported from
its `src/`.  The run generates its inputs from the seed (in a child
process), times set-up in fresh interpreters, then calls
`herdcluster.cli.main(argv)` in this process, one op after another, for
`--seconds`.  Every op's output is checked after the window.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs every op of
the window twice, untraced and traced, plus the probes, and prints the
per-layer metrics and the tracing overhead.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Records (machine, every metric, span dump) go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = (4, 3)  # set-ups timed before and after the window
P90_MIN_OPS = 100       # so that at least 10 samples lie beyond the 90th percentile
CHILD_TIMEOUT_S = 120


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_op(cli, spec, op_id, passes, tracer=None):
    """One timed `cli.main(argv)` call.  Its output is then moved aside
    (`<out>.p<pass>`) so the next op on the same input writes afresh."""
    from workloads import OpRecord

    stdout, stderr = io.StringIO(), io.StringIO()
    code, error = None, ""
    if tracer is not None:
        tracer.op = op_id
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(list(spec.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a failed op is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    kept = None
    if spec.out and os.path.exists(spec.out):
        passes[spec.out] = passes.get(spec.out, 0) + 1
        kept = f"{spec.out}.p{passes[spec.out]}"
        os.replace(spec.out, kept)
    return OpRecord(op_id, spec, seconds, code, error, stdout.getvalue(), kept)


def run_loop(cli, specs, seconds, min_ops):
    """Closed loop, one client: the next op starts when the last ends."""
    records, passes = [], {}
    start = time.perf_counter()
    while len(records) < min_ops or time.perf_counter() - start < seconds:
        spec = specs[len(records) % len(specs)]
        records.append(run_op(cli, spec, f"op{len(records)}", passes))
    return records, time.perf_counter() - start


def setup_samples(src: Path, warmup_argv, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), str(src), json.dumps(warmup_argv)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        sample = json.loads(child.stdout.strip().splitlines()[-1])
        if sample["exit_code"] != 0:
            raise RuntimeError(f"warm-up op exited {sample['exit_code']}: {child.stderr}")
        samples.append(sample["setup_s"])
    return samples


def restart_probe(tracer, member_id, expected, work):
    """Single-restart fits with seeds 0..9 (exactly the ten restarts of the
    seed-0 fit the ops make), then full-size `assign` passes."""
    import gen
    from herdcluster import clustering, dataset, stats

    exp = expected[member_id]
    tracer.op = "probe:restarts"
    z = stats.zscore(dataset.load_table(gen.input_paths(work, member_id)[0]), exp["features"])
    fits, model = [], None
    for seed in range(10):
        cfg = clustering.KMeansConfig(k=exp["k"], n_restarts=1, seed=seed)
        start = time.perf_counter()
        model = clustering.kmeans_fit(z, cfg)
        fits.append((time.perf_counter() - start, len(model.inertia_history) - 1, cfg.max_iter))
    model = clustering.order_clusters(model)
    tracer.op = "probe:assign"
    assign_seconds = []
    for _ in range(5):
        start = time.perf_counter()
        clustering.assign(model, z)
        assign_seconds.append(time.perf_counter() - start)
    return fits, assign_seconds


def end_to_end(args, cli, specs, src, warmup_argv, checker):
    setup = setup_samples(src, warmup_argv, SETUP_SAMPLES[0])
    min_ops = 2 * len(specs) if args.workload == "herd_pipeline" else 1
    records, elapsed = run_loop(cli, specs, args.seconds, min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # more set-ups after the window, so their median spans the whole run
    setup += setup_samples(src, warmup_argv, SETUP_SAMPLES[1])
    failed = checker.check_all(records)
    latencies = [r.seconds for r in records]
    n = len(records)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": n / elapsed, "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    samples = {"setup_s": f"median of {len(setup)} set-ups", "ops_per_s": f"{n} ops",
               "op_p50_ms": f"{n} ops", "peak_rss_mb": "1 process"}
    extra = {"error_rate": {"value": failed / n, "unit": "ratio"}}
    if n >= P90_MIN_OPS:
        extra["op_p90_ms"] = {"value": 1e3 * statistics.quantiles(latencies, n=10)[8],
                              "unit": "ms"}
    lines = [f"{name:<16}{m['value']:>14.6g} {m['unit']:<6} (n = {samples[name]})"
             for name, m in metrics.items()]
    if "op_p90_ms" in extra:
        lines.append(f"{'op_p90_ms':<16}{extra['op_p90_ms']['value']:>14.6g} ms     "
                     f"(n = {n} ops; not gated)")
    else:
        lines.append(f"{'op_p90_ms':<16}{'-':>14} ms     (n = {n} ops < {P90_MIN_OPS}: "
                     "fewer than 10 samples beyond it)")
    lines.append(f"{'error_rate':<16}{failed / n:>14.6g} ratio  ({failed} of {n} ops failed)")
    record = {"elapsed_s": elapsed, "setup_samples_s": setup, "latencies_s": latencies,
              "extra_metrics": extra}
    return records, metrics, lines, record


def traced(args, cli, specs, expected, work, checker, manifest):
    import gen
    import spans
    import workloads

    passes: dict[str, int] = {}
    tracer = spans.Tracer()

    def run_traced(spec, op_id):
        tracer.install()
        try:
            return run_op(cli, spec, op_id, passes, tracer)
        finally:
            tracer.uninstall()

    # each op runs twice, untraced and traced, in alternating order, so
    # that drift in the machine's speed cancels out of the overhead
    untraced, traced_ops = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        i = len(untraced)
        spec = specs[i % len(specs)]
        if i % 2:
            traced_ops.append(run_traced(spec, f"B{i}"))
        untraced.append(run_op(cli, spec, f"A{i}", passes))
        if not i % 2:
            traced_ops.append(run_traced(spec, f"B{i}"))

    tracer.install()
    try:
        probes = [run_op(cli, spec, f"probe:{spec.kind}", passes, tracer)
                  for spec in workloads.probe_specs(work)]
        # the iteration counts of the workload's largest herd, when its ops fit
        fit_member = (max(manifest["schedule"], key=lambda m: expected[m]["n"])
                      if args.workload in ("herd_pipeline", "large_herd_cluster")
                      else gen.PROBE_ID)
        fits, assign_seconds = restart_probe(tracer, fit_member, expected, work)
    finally:
        tracer.uninstall()
    records = untraced + traced_ops + probes
    checker.check_all(records)
    overhead_ms = 1e3 * (sum(r.seconds for r in traced_ops)
                         - sum(r.seconds for r in untraced)) / len(untraced)
    metrics, source = spans.per_layer(tracer, [r.op_id for r in traced_ops],
                                      [r.op_id for r in probes], checker, fits,
                                      assign_seconds, overhead_ms)
    lines = [f"{name:<32}{m['value']:>14.6g} {m['unit']:<6} ({source[name]})"
             for name, m in metrics.items()]
    lines.insert(0, f"{len(untraced)} ops each run untraced and traced, {len(probes)} probe "
                    "ops; (ops) = the workload's own traced ops, (probe) = the probes")
    Path(".perfbench_out").mkdir(exist_ok=True)
    tracer.dump(f".perfbench_out/{args.workload}-seed{args.seed}-spans.json")
    return records, metrics, lines, {"metric_source": source}


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ.setdefault(var, "1")
    import workloads

    args = parse_args(argv, tuple(workloads.KINDS))
    src = Path.cwd() / "src"
    if not (src / "herdcluster" / "__init__.py").is_file():
        print("error: no src/herdcluster here; run from the root of a herdcluster "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from herdcluster import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported herdcluster from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    work = f".perfbench_work/{args.workload}-{args.seed}-{os.getpid()}"
    try:
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--dir", work],
                       timeout=CHILD_TIMEOUT_S, check=True)
        manifest = json.loads(Path(work, "manifest.json").read_text(encoding="utf-8"))
        Path(work, "out").mkdir()
        expected = workloads.load_expected(args.workload)
        checker = workloads.Checker(work, expected)
        specs = workloads.schedule(args.workload, manifest["schedule"], work)
        warmup = workloads.op_spec(workloads.KINDS[args.workload][0], manifest["warmup"], work)
        warm = run_op(cli, warmup, "warmup", {})
        if warm.exit_code != 0 or warm.error:
            print(f"error: warm-up op failed: {warm.error or warm.exit_code}", file=sys.stderr)
            return 1
        if args.trace:
            records, metrics, lines, record = traced(args, cli, specs, expected, work,
                                                     checker, manifest)
        else:
            records, metrics, lines, record = end_to_end(args, cli, specs, src,
                                                         list(warmup.argv), checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [r for r in records if r.problems]
    info = machine_info()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"{len(manifest['schedule'])} inputs, {len(records)} ops checked, "
          f"{len(failures)} failed")
    print("machine: " + json.dumps(info, sort_keys=True))
    for line in lines:
        print("  " + line)
    for rec in failures[:10]:
        print(f"  FAILED {rec.op_id} {' '.join(rec.spec.argv[:3])}: {'; '.join(rec.problems)[:300]}")
    Path(".perfbench_out").mkdir(exist_ok=True)
    result = {"correct": not failures, "attempted": len(records), "failed": len(failures),
              "metrics": metrics}
    Path(f".perfbench_out/{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "args": vars(args), "machine": info, **record}) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
