"""rakeuq benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 16 --trace 0

Run it from the root of a checkout; it imports rakeuq from that checkout's
src/ and nowhere else. Workloads: paper_batch, dense_traverse, basis_scan,
mc_sampling (see perfbench/README.md for why each one exists).

A run pins OPENBLAS/OMP/MKL_NUM_THREADS and RAKEUQ_THREADS to 1 and imports
rakeuq.cli once in a throwaway interpreter so the page cache is warm. It
then starts the measuring worker and runs its ops in SETUPS segments of
--seconds / SETUPS each. Between segments, while the worker idles, it times
one more fresh worker from its start until it reports ready (import, seeded
inputs, warm-up op), so that the SETUPS set-up samples are spread over the
run. Each set-up sample is scaled to reference host speed by an import
kernel timed just before it (ImportKernel) and setup_s is their
median; op times are scaled by hostspeed.HostSpeed. Raw times are printed
before the result.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a run that traces every other op. The last line of stdout is the result, a
JSON object; the metric names and units are those of BENCHMARK.json.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 6
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "RAKEUQ_THREADS": "1",
}
# Seconds a worker may take beyond what it was asked for before it is killed.
GRACE_S = 60
# The last segment may run on for worker.MAX_EXTRA_S to reach its op count.
MAX_FINISH_S = 90 + GRACE_S


class ImportKernel:
    """Calibration of set-up times: a fresh interpreter importing numpy and
    scipy.linalg, timed from its start until it reports the import done.

    Set-up is mostly the same kind of work (starting an interpreter and
    importing numpy and scipy), so it speeds up and slows down with this
    kernel, while nothing in rakeuq changes the kernel. REF_S is its median
    on the reference machine (see hostspeed.HostSpeed).
    """

    REF_S = 0.45

    def __init__(self, env, cwd):
        self.cmd = [sys.executable, "-c", "import numpy, scipy.linalg; print('imported', flush=True)"]
        self.env = env
        self.cwd = cwd
        self.ref_s = self.REF_S

    def sample(self):
        # Wait for the line with select, as for a worker's ready line: a wait
        # with a timeout polls in steps of up to 50 ms.
        start = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, env=self.env, cwd=self.cwd, text=True)
        try:
            line = read_line(proc, GRACE_S)
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=GRACE_S)
        finally:
            stop(proc)
        if line != "imported\n" or proc.returncode != 0:
            raise RuntimeError(f"import kernel exited with code {proc.returncode}")
        return elapsed


def read_line(proc, timeout):
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else ""


def start_worker(args, env, setup_only):
    """Start one worker; returns (process, seconds to ready, ready info)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL if setup_only else subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = read_line(proc, GRACE_S)
    setup = time.perf_counter() - start
    if not line.startswith("ready "):
        stop(proc)
        raise RuntimeError(f"worker exited with code {proc.returncode} before it was ready")
    return proc, setup, json.loads(line[len("ready "):])


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def command(proc, line, reply, timeout):
    """Send one command to the measuring worker and wait for its reply line."""
    proc.stdin.write(line + "\n")
    proc.stdin.flush()
    out = read_line(proc, timeout)
    if not out:
        stop(proc)
        raise RuntimeError(f"worker exited with code {proc.returncode} during {line!r}")
    if not out.startswith(reply):
        raise RuntimeError(f"worker answered {out!r} to {line!r}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_batch", "dense_traverse", "basis_scan", "mc_sampling"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "rakeuq" / "__init__.py").is_file():
        print(f"error: no rakeuq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", "import rakeuq.cli"], env=env, cwd=ROOT,
                   check=True, timeout=GRACE_S)
    kernel = ImportKernel(env, ROOT)
    samples = []  # (raw set-up s, raw import ms, import kernel s)

    def setup_sample(setup_only):
        kernel_s = kernel.sample()
        proc, setup, info = start_worker(args, env, setup_only)
        samples.append((setup, info.pop("import_ms"), kernel_s))
        return proc, info

    worker, info = setup_sample(setup_only=False)
    try:
        segment = args.seconds / SETUPS
        for _ in range(SETUPS - 1):
            command(worker, f"run {segment!r}", "paused", segment + GRACE_S)
            extra, _ = setup_sample(setup_only=True)
            try:
                extra.communicate(timeout=GRACE_S)
            finally:
                stop(extra)
        result_line = command(worker, f"finish {segment!r}", "{", segment + MAX_FINISH_S)
        worker.communicate(timeout=GRACE_S)
    finally:
        stop(worker)
    if worker.returncode != 0:
        raise RuntimeError(f"worker exited with code {worker.returncode}")
    result = json.loads(result_line)

    setups = [setup * kernel.ref_s / kernel_s for setup, _, kernel_s in samples]
    imports = [ms * kernel.ref_s / kernel_s for _, ms, kernel_s in samples]
    metrics = result["metrics"]
    if args.trace:
        metrics["cli.import_ms"] = statistics.median(imports)
        metrics["setup.raw_s"] = statistics.median(s for s, _, _ in samples)
    else:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    print(f"environment: {json.dumps(info)}")
    print(f"{SETUPS} set-up samples, raw s: " + ", ".join(f"{s:.3f}" for s, _, _ in samples))
    print("  import kernel s: " + ", ".join(f"{k:.3f}" for _, _, k in samples))
    print("  at reference speed s: " + ", ".join(f"{s:.3f}" for s in setups))
    print("op calibration kernel median {:.3f} ms; raw op_ms p50 {:.3f}, p90 {:.3f}".format(
        result["calibration_ms"], *result["raw_ms_p50_p90"]))
    if args.trace:
        print(f"traced run: {result['attempted']} ops, every other one traced; spans in {result['trace_file']}")
        print(f"{'span':28s} {'count':>7s} {'raw self ms':>11s} {'share':>7s}")
        for name, row in result["layers"].items():
            print(f"{name:28s} {row['count']:7d} {row['self_ms']:11.2f} {row['share']:7.3f}")
    else:
        print(f"{args.workload}: {result['timed']} ops timed, {result['beyond_p90']} beyond p90")
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
