"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly (one second of ops, then on
to the 100-op minimum of an untraced run), untraced and traced,
and checks that the last line of output is the result object, that every
metric BENCHMARK.json names is printed with its unit and nothing else, and
that no op failed. Then checks that the benchmark exits non-zero, without a
result, in a directory that holds only BENCHMARK.json and perfbench/.
Takes about three minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / "perfbench" / "out" / "bare"


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def check_result(spec, workload, trace, proc):
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}\n{proc.stderr[-2000:]}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result.get("metrics", {})
    if set(printed) != set(expected):
        problems.append(f"{label}: missing {sorted(set(expected) - set(printed))}, "
                        f"unexpected {sorted(set(printed) - set(expected))}")
    for name, unit in expected.items():
        entry = printed.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r} is not a finite number")
    return problems


def check_bare_directory():
    """Without src/ the benchmark must fail instead of measuring something else."""
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        shutil.copytree(ROOT / "perfbench", BARE / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(BARE, "paper_batch", 0)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace, run(ROOT, workload, trace))
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_bare_directory()
    print(f"bare directory refused: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
