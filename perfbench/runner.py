"""One fresh benchmark process: set up a workload, then measure it.

run.py starts this script with the monotonic time it was started at.
The set-up time runs from then until the inputs are built, just before
the first workload call, so it covers interpreter start, `import
dragonbench` and building the inputs.  With --setup-only the process
stops there.  Otherwise it either times workload calls for --seconds
(--trace 0) or makes one untraced and one traced call and times the
layers (--trace 1).  Either way one call runs on the reference inputs,
and its result is checked against the pinned digest.  The last line of
the output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
MIN_CALLS = 3


def _args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


def _openblas() -> tuple[str, "int | None"]:
    """OpenBLAS core name and thread count, asked of the loaded library."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("scipy_openblas_", ""), ("openblas_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            core = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if threads is not None and core is not None:
                threads.argtypes, threads.restype = [], ctypes.c_int
                core.argtypes, core.restype = [], ctypes.c_char_p
                return core().decode(), threads()
    return "unknown", None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core, threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": core,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "mp_start_method": multiprocessing.get_start_method(),
    }


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def main() -> int:
    args = _args()
    sys.path.insert(0, str(ROOT / "src"))
    import dragonbench

    if Path(dragonbench.__file__).resolve().parent != ROOT / "src" / "dragonbench":
        print(f"imported dragonbench from {dragonbench.__file__}, not this checkout", file=sys.stderr)
        return 2
    from workloads import PINNED_DIGESTS, REFERENCE_SEED, WORKLOADS, FitWide

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    facts = machine_facts()
    attempted = failed = 0
    problems: list[str] = []

    def record(wl, result) -> str:
        nonlocal attempted, failed
        n, bad = wl.outcome(result)
        attempted += n
        failed += bad
        digest = wl.digest(result)
        problems.extend(wl.check(result, digest))
        return digest

    reference = WORKLOADS[args.workload](REFERENCE_SEED)
    blas_key = f"{facts['blas_core']}/{facts['blas_threads']}"
    pinned = PINNED_DIGESTS[args.workload].get(blas_key)
    ref_digest = None

    def check_reference(result):
        nonlocal ref_digest
        ref_digest = record(reference, result)
        if pinned is not None and ref_digest != pinned:
            problems.append(f"reference digest {ref_digest} != pinned {pinned} for BLAS {blas_key}")

    out = {"setup_s": setup_s, "facts": facts}
    start = time.perf_counter()
    deadline = start + args.seconds
    if args.trace == 0:
        # The first call runs on the reference inputs, is checked against
        # the pinned digest and warms the process up; it is not timed.
        # The timed calls run on the seed's inputs.
        check_reference(reference.call(0))
        walls = []
        k = 1
        while True:
            t0 = time.perf_counter()
            result = workload.call(k)
            walls.append(time.perf_counter() - t0)
            record(workload, result)
            k += 1
            if len(walls) >= MIN_CALLS and time.perf_counter() + statistics.median(walls) > deadline:
                break
        out["walls"] = walls
        out["peak_rss_mb"] = _peak_rss_mb()
    else:
        from tracing import Tracer, layer_timings

        check_reference(reference.call(0))
        t0 = time.perf_counter()
        untraced = workload.call(0)
        untraced_wall = time.perf_counter() - t0
        untraced_digest = record(workload, untraced)
        tracer = Tracer()
        t0 = time.perf_counter()
        if isinstance(workload, FitWide):
            # fit-wide calls train_dragonnet itself, so the benchmark wraps that call.
            with tracer.span("run_replication"), tracer.span("train_architecture") as rec:
                traced = workload.call(0)
            rec["epochs"] = traced.metadata["epochs_run"]
            tracer.model, tracer.dataset, tracer.estimator_tags = traced, workload.data, workload.tags
        else:
            with tracer.patched():
                traced = workload.call(0)
        traced_wall = time.perf_counter() - t0
        if record(workload, traced) != untraced_digest:
            problems.append("the traced call's result differs from the untraced call's")
        metrics = tracer.span_metrics()
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics.update(layer_timings(
            workload, tracer.model, tracer.dataset, tracer.estimator_tags, deadline,
            with_datagen="datagen.make_s" not in metrics,
        ))
        out["metrics"] = metrics
        out["spans"] = tracer.spans
    out["digest"] = {"blas_key": blas_key, "reference": ref_digest, "pinned": pinned}
    out.update(attempted=attempted, failed=failed, problems=problems)

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out, indent=1))
    out.pop("spans", None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
