"""quadflow benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, kernel_calculus, oracle, cli (see workloads.py).  Run from
a checkout of the repository; the package is imported from ``src/``.

The benchmark starts a fresh workload process (worker.py) several times with
``--setup-only`` and once more for the measured run; ``setup_s`` is the
median time from process start to readiness.  The measured process then
sends requests in a closed loop with one client for ``--seconds``, going
round its input set, and at least once through all of it.  Every time is
scaled by the machine speed that calibrate.py measures next to it, so the
figures read as on a machine of fixed speed.  A distinct request's latency is the median over its attempts;
throughput, median and tail are taken over the distinct requests.
``attempted`` and ``failed`` count each member of the input set once.  With
``--trace 1`` the loop runs twice, without and then with per-layer spans,
and the per-layer metrics and the trace overhead are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric by name and unit, the failure ratio, the tail
percentile with its sample count, and the run record.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import calibrate
from spans import FUNCTIONS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "kernel_calculus", "oracle", "cli")
SETUP_PROBES = {"full": 6, "tiny": 1}
TIME_LIMIT_S = 170.0
BLAS_THREADS = 1  # no more than nproc; one thread keeps runs on the shared cores steady


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env.pop("QUADFLOW_TOL", None)
    return env


class Worker:
    """One workload process; killed at the time limit, always waited for."""

    def __init__(self, argv: list[str], deadline: float):
        self.speed = calibrate.Speed(calibrate.START, window=3)
        for _ in range(3):
            self.speed.sample()
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env(),
        )
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def ready(self) -> tuple[float, float, dict]:
        """Seconds from process start to readiness, scaled and as measured, and the READY payload."""
        line = self.proc.stdout.readline()
        setup = time.perf_counter() - self.start
        if not line.startswith("READY "):
            raise RuntimeError("workload process ended before it was ready")
        return self.speed.scale(setup), setup, json.loads(line[len("READY "):])

    def result(self) -> dict:
        lines = self.proc.stdout.read().splitlines()
        if self.proc.wait() != 0 or not lines or not lines[-1].startswith("RESULT "):
            raise RuntimeError(f"workload process failed with exit code {self.proc.returncode}")
        return json.loads(lines[-1][len("RESULT "):])

    def close(self) -> None:
        """Wait for the process to end; the timer kills it at the time limit."""
        self.proc.wait()
        self.timer.cancel()
        self.proc.stdout.close()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def per_request(phase: dict) -> list[tuple[float, int, int]]:
    """(median scaled latency, members, most failures) of each distinct request."""
    groups: dict[int, list] = {}
    for index, _, scaled, members, failed, _ in phase["attempts"]:
        group = groups.setdefault(index, [[], members, 0])
        group[0].append(scaled)
        group[2] = max(group[2], failed)
    return [(statistics.median(lats), members, failed) for lats, members, failed in groups.values()]


def outcomes(phases: list[dict]) -> tuple[int, int, int]:
    """Members, failed members and failures no known defect explains, over the input set.

    Each distinct request counts once, with its most failures on any attempt
    of any phase; the first phase sends every request, so the counts depend
    on the seed alone, not on how many requests fit in the run.
    """
    worst: dict[int, tuple[int, int, int]] = {}
    for phase in phases:
        for index, _, _, members, failed, known in phase["attempts"]:
            _, most, unexplained = worst.get(index, (members, 0, 0))
            worst[index] = (members, max(most, failed), max(unexplained, failed - known))
    return tuple(sum(column) for column in zip(*worst.values()))


def items_per_s(phase: dict) -> float:
    """Members verified correct per scaled second of request latency."""
    requests = per_request(phase)
    return sum(m - f for _, m, f in requests) / sum(lat for lat, _, _ in requests)


def end_to_end(phase: dict, setup_s: float, peak_rss_kib: int) -> dict:
    requests = per_request(phase)
    latencies = [lat for lat, _, _ in requests]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items_per_s(phase), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "item_tail_ms": (1e3 * tail(latencies)[0], "ms"),
        "ok_ratio": (sum(m - f for _, m, f in requests) / sum(m for _, m, _ in requests), "1"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MiB"),
    }


def per_layer(result: dict, import_ms: float) -> dict:
    base, traced = result["phases"]
    stats = result["spans"]
    out = {}
    for layer, name, _, can_raise in FUNCTIONS:
        label = f"{layer}.{name}"
        calls, self_ns, raised, nbytes = stats[label]
        out[label + ".calls"] = (calls, "count")
        out[label + ".self_ms"] = (self_ns / 1e6 * traced["scale"], "ms")
        if can_raise:
            out[label + ".raised"] = (raised, "count")
        if label == "oracle.discretize":
            out[label + ".bytes"] = (nbytes, "B")
    out["cli.import_ms"] = (import_ms, "ms")
    members = sum(a[3] for a in traced["attempts"])
    out["symplectic.CanonicalTransform.calls_per_member"] = (
        stats["symplectic.CanonicalTransform"][0] / members, "1")
    out["ext.logm.calls_per_member"] = (stats["ext.logm"][0] / members, "1")
    out["trace.overhead_items_per_s"] = (items_per_s(base) - items_per_s(traced), "1/s")
    return out


def run_record(args, result: dict, raw_setups: list[float]) -> dict:
    sha = None
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        sha = head
    except OSError:
        pass  # the checkout need not be a git repository
    src_lines = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "git_sha": sha, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": result["blas_threads"],
        "python": sys.version.split()[0], "numpy": result["numpy"], "scipy": result["scipy"],
        "llc_bytes": result["llc_bytes"],
        "address_space_cap_bytes": result["as_cap_bytes"] if result["as_cap_bytes"] >= 0 else None,
        "src_lines": src_lines,
        "setup_samples_unscaled_s": raw_setups,
        "input_properties": result["tally"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SETUP_PROBES), default="full",
                        help="tiny: a few members per workload, for the smoke test")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "quadflow", "__init__.py")):
        print(f"error: no quadflow sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale]
    setups, raw_setups, imports = [], [], []
    try:
        for probe_run in range(SETUP_PROBES[args.scale] + 1):
            worker = Worker(argv + ["--setup-only"] * (probe_run < SETUP_PROBES[args.scale]), deadline)
            try:
                setup, raw, info = worker.ready()
                setups.append(setup)
                raw_setups.append(raw)
                imports.append(info["import_ms"] * setup / raw)
                if probe_run == SETUP_PROBES[args.scale]:
                    result = worker.result()
            finally:
                worker.close()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))  # each worker removed its own directory
        except OSError:
            pass

    phases = result["phases"]
    attempted, failed, unexpected = outcomes(phases)
    if args.trace:
        metrics = per_layer(result, statistics.median(imports))
    else:
        metrics = end_to_end(phases[0], statistics.median(setups), result["peak_rss_kib"])
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:.6g} {unit}")
    _, pct, count = tail([lat for lat, _, _ in per_request(phases[0])])
    print(f"{'fail_ratio':52s} {failed / attempted:.6g} 1  "
          f"({failed} of {attempted}; {failed - unexpected} explained by known oracle defects)")
    print(f"note: item_tail_ms is p{pct:.4g} of {count} distinct requests "
          f"({len(phases[0]['attempts'])} attempts)")
    errors = {}
    for p in phases:
        for name, n in p["errors"].items():
            errors[name] = errors.get(name, 0) + n
    record = run_record(args, result, raw_setups)
    record.update(fail_ratio=failed / attempted, tail_percentile=pct, tail_samples=count, errors=errors)
    print("run_record " + json.dumps(record))
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
