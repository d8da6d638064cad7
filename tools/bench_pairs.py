"""python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workloads W[,W...] --seeds A-B [-o OUT.json]

Alternating parent/change pairs of perfbench/run.py, one run at a time, and their summary.

PARENT_TREE and CHANGE_TREE are two checkouts (a `git clone` of the parent commit, say, and
the working tree of the change); each runs its own perfbench/run.py on its own src/.  For
every workload and seed there is one pair, and the pairs alternate which side runs first: the
change in the first pair of a workload, the parent in the second, and so on.  Each run lasts
the run_seconds of BENCHMARK.json.  Every run gets PYTHONDONTWRITEBYTECODE=1, so neither tree
gains __pycache__ and each cold start compiles what it imports.

The output (standard output, or OUT.json) holds each pair's end-to-end metrics and failure
counts and, per workload and metric, both sides' median and quartiles (inclusive method),
the change's wins (a pair where the change reads better, in the direction BENCHMARK.json
gives; ties count for neither), the median change as a ratio of the medians less one, and the
parent's quartile spread.  A run that exits non-zero keeps its exit code and the tail of its
standard error in its pair, and the runs go on; such a pair is left out of the medians and
counted.  Per workload and side, the output counts the runs that failed, the runs that read
"correct": false, and the summed failed and attempted items.  It records both trees' git sha
(and whether the tree has uncommitted changes), nproc, the Python and NumPy versions and
PYTHONDONTWRITEBYTECODE.  OUT.json is rewritten after each pair, so a run cut short keeps
the pairs it finished.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
STDERR_TAIL_LINES = 5


def parse_seeds(text: str) -> list[int]:
    """'3401-3410' or '3401,3405' (or both, comma-separated) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_result(stdout: str) -> dict:
    """The metrics, failure counts and correctness of one run.py run, from its standard output."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def read_run(code: int, stdout: str, stderr: str) -> dict:
    """parse_result of a run that exited 0; otherwise its exit code and the tail of its standard error."""
    if code != 0:
        return {"exit_code": code, "stderr_tail": stderr.strip().splitlines()[-STDERR_TAIL_LINES:]}
    return parse_result(stdout)


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: medians, quartiles, wins and median change of the pairs of one workload.

    Each pair holds a "parent" and a "change" result of read_run; better maps a
    metric name to "higher" or "lower".  A pair with a failed run is left out.
    """
    pairs = [p for p in pairs if not any("exit_code" in p[side] for side in SIDES)]
    if not pairs:
        return {}
    out = {}
    for name, direction in better.items():
        sides = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(sides["parent"], sides["change"]))
        entry = {}
        for side, values in sides.items():
            entry[f"{side}_median"] = statistics.median(values)
            entry[f"{side}_quartiles"] = quartiles(values)
        q1, q3 = entry["parent_quartiles"]
        entry.update(
            change_wins=f"{wins}/{len(pairs)}",
            median_change=entry["change_median"] / entry["parent_median"] - 1.0,
            parent_quartile_spread=q3 - q1,
        )
        out[name] = entry
    return out


def failures(pairs: list[dict]) -> dict:
    """The pairs left out of the summary and, per side, its failed runs, runs that read
    "correct": false, and the failed and attempted items summed over the runs that finished."""
    out = {"pairs_left_out": sum(any("exit_code" in p[side] for side in SIDES) for p in pairs)}
    for side in SIDES:
        done = [p[side] for p in pairs if "exit_code" not in p[side]]
        out[side] = {"runs_failed": len(pairs) - len(done),
                     "runs_incorrect": sum(not run["correct"] for run in done),
                     "items_failed": sum(run["failed"] for run in done),
                     "items_attempted": sum(run["attempted"] for run in done)}
    return out


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile, inclusive method; a single value is both."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def tree_record(tree: str) -> dict:
    """git sha of the tree's HEAD and whether the tree differs from it; None outside git."""
    def git(*args):
        proc = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha, "uncommitted_changes": bool(status) if sha else None}


def run_one(tree: str, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False,
    )
    return read_run(proc.returncode, proc.stdout, proc.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 3401-3410")
    parser.add_argument("-o", "--output", help="write the JSON here instead of standard output")
    args = parser.parse_args()

    import numpy

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    trees = dict(zip(SIDES, (args.parent_tree, args.change_tree)))
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": "one pair per workload and seed, one run at a time; pairs alternate which side runs "
                  "first, the change in a workload's first pair; wins count pairs where the change reads "
                  "better, ties for neither; "
                  "quartiles by the inclusive method; median_change is change median / parent median - 1",
        "trees": {side: tree_record(tree) for side, tree in trees.items()},
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
                    "numpy": numpy.__version__},
        "PYTHONDONTWRITEBYTECODE": "1",
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES[::-1] if i % 2 == 0 else SIDES
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = pair[side] = run_one(trees[side], workload, seed, seconds)
                shown = (f"exit code {run['exit_code']}" if "exit_code" in run
                         else f"items_per_s {run['metrics']['items_per_s']:.6g}")
                print(f"{workload} seed {seed} {side}: {shown}", file=sys.stderr, flush=True)
            pairs.append(pair)
            report["workloads"][workload] = {"summary": summarize(pairs, better), "failures": failures(pairs),
                                             "pairs": pairs}
            if args.output:  # rewritten after each pair, so a run cut short keeps the finished ones
                with open(args.output, "w") as fh:
                    json.dump(report, fh, indent=1)
                    fh.write("\n")
    if not args.output:
        sys.stdout.write(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
