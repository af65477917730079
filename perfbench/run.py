"""Benchmark entry point for dragonbench.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn.  For each one it prints
the machine facts, the digest check and every metric with its unit, then
one JSON line: {"correct", "attempted", "failed", "metrics"}.  --trace 0
gives the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones.  The exit code is 1 when a check fails (a digest mismatch, a wrong
estimate, a traced result that differs from the untraced one) and 2 when
the benchmark cannot run at all.

The set-up time is measured SETUP_SAMPLES times per run, each in a fresh
process, and reported as the median.  The benchmark sets no BLAS thread
variables: it measures the threading a user gets by default.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNNER = HERE / "runner.py"
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170.0
SETUP_TIMEOUT_S = 10.0


class BenchError(Exception):
    pass


def _spawn(extra: list[str], timeout: float) -> dict:
    """Run runner.py in a fresh process; returns its last output line."""
    stamp = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(RUNNER), *extra, "--spawned-at", repr(stamp)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"runner took longer than {timeout:.0f} s: {' '.join(extra)}")
    finally:
        # Pool workers share the runner's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"runner exited with {proc.returncode}: {' '.join(extra)}")
    return json.loads(stdout.strip().splitlines()[-1])


def _setup(common: list[str]) -> float:
    return _spawn([*common, "--setup-only"], SETUP_TIMEOUT_S)["setup_s"]


def _quartiles(values: list[float]) -> str:
    if len(values) < 4:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", quartiles {q1:.4f} .. {q3:.4f}"


def run_workload(name: str, seed: int, seconds: float, trace: int, declared: dict) -> bool:
    """Measure one workload and print its lines; True when every check passed."""
    started = time.monotonic()
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    # Half the extra set-up samples run before the measured process and
    # half after it, so a slow spell of the machine does not hit them all.
    extra = SETUP_SAMPLES - 1 if trace == 0 else 0
    setups = [_setup(common) for _ in range(extra // 2)]
    res = _spawn(common, TIME_LIMIT_S - (time.monotonic() - started) - (extra - extra // 2) * SETUP_TIMEOUT_S)
    setups.append(res["setup_s"])
    setups += [_setup(common) for _ in range(extra - extra // 2)]

    print(f"{name} machine: {json.dumps(res['facts'], sort_keys=True)}")
    dg = res["digest"]
    if dg["pinned"] is None:
        print(f"{name} digest: reference {dg['reference']}; no pinned digest for BLAS {dg['blas_key']}")
    else:
        verdict = "matches" if dg["reference"] == dg["pinned"] else "DOES NOT MATCH"
        print(f"{name} digest: reference {dg['reference']} {verdict} the pin for BLAS {dg['blas_key']}")
    for problem in res["problems"]:
        print(f"{name} check failed: {problem}")

    if trace == 0:
        walls = res["walls"]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        notes = {
            "wall_s": f" (median of {len(walls)} calls{_quartiles(walls)})",
            "setup_s": f" (median of {len(setups)} fresh processes{_quartiles(setups)})",
        }
    else:
        values, notes = res["metrics"], {}
    attempted, failed = res["attempted"], res["failed"]
    print(f"{name} failed_share = {failed / attempted:.4f} share ({failed} of {attempted} attempted)")
    metrics = {}
    for metric in declared:
        if metric not in values:
            raise BenchError(f"{name} did not produce the metric {metric}")
        unit = declared[metric]
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"{name} {metric} = {values[metric]:.6g} {unit}{notes.get(metric, '')}")
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return correct


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "dragonbench" / "__init__.py").is_file():
        print(f"no dragonbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    correct = True
    try:
        for name in [args.workload] if args.workload else names:
            correct &= run_workload(name, args.seed, args.seconds, args.trace, declared)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
