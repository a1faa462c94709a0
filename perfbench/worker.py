"""One benchmark process: import, set up a workload, warm up, then time ops.

Started by run.py with the BLAS and rakeuq thread counts already pinned in
its environment. It prints ``ready <json>`` once set up; run.py times the
process from its start to that line. With --setup-only it stops there.
Otherwise it runs ops in the segments run.py asks for on stdin (see
measure) and prints one JSON line of results. Op times are scaled to
reference host speed (see hostspeed.py).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, no_span

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WARMUP_OPS = 1
# A run times at least this many untraced ops, so that at least ten lie
# beyond p90, going on past its --seconds for at most MAX_EXTRA_S.
MIN_TIMED = 100
MAX_EXTRA_S = 90
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RAKEUQ_THREADS")

# Per-layer time metrics: the per-op median self time of one span name.
LAYER_SPANS = {
    "io.load_ms": "io.load",
    "io.report_ms": "io.report",
    "fourier.design_ms": "fourier.design",
    "fourier.fit_ms": "fourier.fit",
    "propagation.field_ms": "propagation.field",
    "propagation.grid_ms": "propagation.grid",
    "residuals.metrics_ms": "residuals.metrics",
    "area.average_ms": "area.average",
    "legacy.ms": "legacy",
    "efficiency.taylor_ms": "efficiency.taylor",
    "montecarlo.scan_ms": "montecarlo.scan",
    "montecarlo.mc_propagate_ms": "montecarlo.mc_propagate",
    "montecarlo.rake_mc_ms": "montecarlo.rake_mc",
}
# Per-layer counts: the per-op median of one counter.
LAYER_COUNTS = (
    "montecarlo.scan_ridge_pairs",
    "montecarlo.scan_flagged_pairs",
    "residuals.ridge_moment_mismatch",
)


def run_op(workload, host, span=no_span):
    """Time one op; returns (wall ns, index of the calibration sample taken
    just before it, counters, error). Only the op itself is timed and traced,
    not making its input, the calibration kernel or the check. A failed op
    (it raised, or its output failed the check) keeps its wall time and
    returns the exception as its error."""
    workload.prepare()
    sample = host.sample()
    start = time.perf_counter_ns()
    try:
        with span("op"):
            out = workload.run(span)
    except Exception as exc:
        return time.perf_counter_ns() - start, sample, None, exc
    duration = time.perf_counter_ns() - start
    try:
        return duration, sample, workload.check(out), None
    except Exception as exc:
        return duration, sample, None, exc


def report_failure(label, error, first):
    """A failed op goes to stderr, with its traceback if it is the first."""
    if first:
        traceback.print_exception(error, file=sys.stderr)
    print(f"{label} failed: {type(error).__name__}: {error}", file=sys.stderr)


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, counters, factors, traced_ns, untraced_ns):
    per_op = {
        op: {name: ns * factors[op] for name, ns in times.items()}
        for op, times in tracer.self_times().items() if op in factors
    }
    traced_ops = list(per_op)
    metrics = {
        metric: median_or_zero(per_op[op].get(name, 0) for op in traced_ops) / 1e6
        for metric, name in LAYER_SPANS.items()
    }
    for name in LAYER_COUNTS:
        metrics[name] = median_or_zero(c.get(name, 0) for c in counters.values())

    def total(name):
        return sum(c.get(name, 0) for c in counters.values())

    def rate(draws, span_name):
        return median_or_zero(
            counters[op][draws] / (per_op[op][span_name] / 1e9)
            for op in traced_ops if draws in counters[op]
        )

    metrics["fourier.ridge_frac"] = ratio(total("fourier.ridge_fits"), total("fourier.fits"))
    metrics["montecarlo.mc_draws_per_s"] = rate("montecarlo.mc_draws", "montecarlo.mc_propagate")
    metrics["montecarlo.rake_draws_per_s"] = rate("montecarlo.rake_draws", "montecarlo.rake_mc")
    metrics["montecarlo.rake_failed_frac"] = ratio(
        total("montecarlo.rake_failed"), total("montecarlo.rake_draws")
    )
    untraced = statistics.median(untraced_ns)
    metrics["trace.overhead_frac"] = (statistics.median(traced_ns) - untraced) / untraced
    return metrics


def p50_p90(values):
    cuts = statistics.quantiles(values, n=10) if len(values) > 1 else [values[0]] * 9
    return statistics.median(values), cuts[8]


def end_to_end_metrics(passed_ns, timed_ns):
    """Latency percentiles of the passing ops; throughput is passing ops per
    second of all timed op wall time, failed ops' time included."""
    ms = [d / 1e6 for d in passed_ns]
    p50, p90 = p50_p90(ms)
    return {
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "ops_per_s": len(passed_ns) / (timed_ns / 1e9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, sum(1 for d in ms if d > p90)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import rakeuq.cli  # noqa: F401  (the import that setup_s and cli.import_ms measure)

    import_ms = (time.perf_counter() - start) * 1e3
    import numpy
    import rakeuq
    import scipy

    import workloads
    from hostspeed import HostSpeed

    if not Path(rakeuq.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"imported rakeuq from {rakeuq.__file__}, not from this checkout's src/")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        host = HostSpeed(workload.host_kernel)
        for _ in range(WARMUP_OPS):
            error = run_op(workload, host)[3]
            if error is not None:
                report_failure("warm-up op", error, first=True)
        info = {
            "import_ms": import_ms,
            "threads": {name: os.environ.get(name) for name in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        print("ready " + json.dumps(info), flush=True)
        if args.setup_only:
            return
        result = measure(workload, host, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        result.pop("tracer").write(path, {"workload": args.workload, "seed": args.seed})
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result), flush=True)


def measure(workload, host, trace):
    """Run ops in the segments that run.py asks for on stdin.

    ``run <seconds>`` runs ops for that long and answers ``paused``; the
    process then idles while run.py takes a set-up sample. ``finish
    <seconds>`` runs the last segment, goes on until at least MIN_TIMED
    untraced ops have been timed (or MAX_EXTRA_S have gone by) and returns
    the result. A traced run alternates traced and untraced ops, so that the
    tracing overhead is measured on the same stretch of time.
    """
    tracer = Tracer() if trace else None
    done = {}  # op id -> (traced, wall ns, calibration sample, counters); passed ops only
    timed = []  # (wall ns, calibration sample) of every timed op, failed ones too
    failed = 0

    def run_until(deadline, min_untraced=0):
        nonlocal failed
        while True:
            op = len(timed)
            untraced = op // 2 if trace else op
            now = time.perf_counter()
            if now >= deadline and untraced >= min_untraced:
                return
            if now >= deadline + MAX_EXTRA_S:
                print(f"warning: only {untraced} untraced ops timed", file=sys.stderr)
                return
            traced = bool(trace) and op % 2 == 0
            if traced:
                tracer.op_id = op
            wall, sample, counters, error = run_op(workload, host, tracer.span if traced else no_span)
            timed.append((wall, sample))
            if error is None:
                done[op] = (traced, wall, sample, counters)
            else:
                failed += 1
                report_failure(f"op {op}", error, first=failed == 1)

    for line in sys.stdin:
        command = line.split()
        if command[0] == "run":
            run_until(time.perf_counter() + float(command[1]))
            print("paused", flush=True)
        elif command[0] == "finish":
            run_until(time.perf_counter() + float(command[1]), 2 if trace else MIN_TIMED)
            break
    factors = [host.factor(sample) for _, sample in timed]
    durations = {True: [], False: []}
    for op, (traced, wall, _, _) in done.items():
        durations[traced].append(wall * factors[op])
    if not durations[False] or (trace and not durations[True]):
        sys.exit(f"no op passed; {failed} of {len(timed)} failed")
    result = {"attempted": len(timed), "failed": failed}
    raw_p50, raw_p90 = p50_p90([done[op][1] / 1e6 for op in done if not done[op][0]])
    if trace:
        traced_ops = [op for op, entry in done.items() if entry[0]]
        result["metrics"] = layer_metrics(
            tracer, {op: done[op][3] for op in traced_ops}, {op: factors[op] for op in traced_ops},
            durations[True], durations[False],
        )
        result["metrics"]["op.raw_ms_p50"] = raw_p50
        result["layers"] = tracer.layer_table()
        result["tracer"] = tracer
    else:
        timed_ns = sum(wall * factor for (wall, _), factor in zip(timed, factors))
        result["metrics"], result["beyond_p90"] = end_to_end_metrics(durations[False], timed_ns)
        result["timed"] = len(durations[False])
    result["raw_ms_p50_p90"] = [raw_p50, raw_p90]
    result["calibration_ms"] = statistics.median(host.kernel_ms)
    return result


if __name__ == "__main__":
    main()
