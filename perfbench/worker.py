"""The workload process: set up, report readiness, run the closed loop.

Started by run.py, never imported.  It prints ``READY <json>`` once the
inputs are generated and the first request has warmed the pipeline, then
(unless ``--setup-only``) ``RESULT <json>`` with the raw measurements.
One client sends the next request only after the previous one returned.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    counts = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else None


def run_phase(wl, seconds, speed, tracer=None):
    """Send requests until ``seconds`` have passed, finishing the current cycle.

    The first phase of a run goes on until every request has been sent, so
    each run checks the whole input set and its failures depend on the seed
    alone.  A request's input properties are tallied on its first visit.

    Returns one ``[request index, latency s, scaled latency s, members,
    failed, known failed]`` record per attempt, and the count of exceptions
    by type.  ``speed`` (a calibrate.Speed) samples the calibration loop
    before and after each request, untimed.
    """
    attempts = []
    errors: dict[str, int] = {}
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(wl.cycle):
            index = wl.position % len(wl.requests)
            wl.position += 1
            req = wl.requests[index]
            speed.sample()
            exc = out = None
            if tracer is not None:
                tracer.enabled = True
            start = time.perf_counter()
            try:
                out = wl.run(req)
            except Exception as err:  # a member failure is counted, never fatal
                exc = err
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            speed.sample()
            if exc is not None:
                name = type(exc).__name__
                if name not in errors:
                    traceback.print_exception(exc, file=sys.stderr)
                errors[name] = errors.get(name, 0) + 1
            wl.tally.counting = index not in wl.seen
            wl.seen.add(index)
            outcomes = wl.check(req, out, exc)
            failed = sum(1 for ok, _ in outcomes if not ok)
            known = sum(1 for ok, is_known in outcomes if not ok and is_known)
            attempts.append([index, latency, speed.scale(latency), len(outcomes), failed, known])
        if time.perf_counter() >= deadline and len(wl.seen) == len(wl.requests):
            break
    return {"attempts": attempts, "errors": errors, "scale": speed.overall()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    warnings.simplefilter("ignore", RuntimeWarning)  # overflowing growth factors are expected
    start = time.perf_counter()
    import quadflow  # noqa: F401

    import_ms = 1e3 * (time.perf_counter() - start)
    import numpy as np
    import scipy

    import calibrate
    import workloads

    if args.workload == "oracle":
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = workloads.ORACLE_AS_CAP if hard == resource.RLIM_INFINITY else min(hard, workloads.ORACLE_AS_CAP)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), args.scale, ROOT, workdir)
        wl.position = 0
        wl.seen = set()
        wl.run(wl.requests[getattr(wl, "warm_up", 0)])  # first-call costs inside numpy and scipy
        print("READY " + json.dumps({"import_ms": import_ms}), flush=True)
        if args.setup_only:
            return 0
        if args.trace and args.workload == "cli":
            wl.in_process = True  # spans need the CLI in this process, with and without them
        phases = [run_phase(wl, args.seconds, calibrate.Speed(wl.probe))]
        spans = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            phases.append(run_phase(wl, args.seconds, calibrate.Speed(wl.probe), tracer))
            spans = tracer.stats
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace else resource.RUSAGE_SELF
        result = {
            "phases": phases,
            "spans": spans,
            "peak_rss_kib": resource.getrusage(who).ru_maxrss,
            "tally": wl.tally.report(),
            "as_cap_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
            "blas_threads": blas_threads(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "llc_bytes": workloads.last_level_cache_bytes(),
        }
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
