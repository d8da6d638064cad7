"""The pair runner's parsing and summary, on canned perfbench/run.py output; no run is started."""
import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run_output(items_per_s, p50_ms, failed=0):
    """The standard output of one run.py run, in its layout: metric lines, notes, the result line."""
    metrics = {"items_per_s": (items_per_s, "1/s"), "item_p50_ms": (p50_ms, "ms")}
    lines = [f"{name:52s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"{'fail_ratio':52s} {failed / 100:.6g} 1  ({failed} of 100; 0 explained by known oracle defects)",
              "note: item_tail_ms is p90 of 100 distinct requests (100 attempts)",
              "run_record " + json.dumps({"workload": "sweep", "seed": 3}),
              json.dumps({"correct": True, "attempted": 100, "failed": failed,
                          "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}})]
    return "\n".join(lines) + "\n"


def test_parse_result_reads_the_last_line():
    got = bench_pairs.parse_result(run_output(41000.5, 2.25, failed=3))
    assert got == {"correct": True, "attempted": 100, "failed": 3,
                   "metrics": {"items_per_s": 41000.5, "item_p50_ms": 2.25}}


def test_summary_medians_quartiles_wins_and_change():
    parent = [(100.0, 2.0), (110.0, 2.0), (90.0, 2.2), (105.0, 1.8), (95.0, 2.1)]
    change = [(120.0, 1.9), (110.0, 2.0), (130.0, 1.7), (100.0, 1.9), (125.0, 1.6)]
    pairs = [{"seed": s, "parent": bench_pairs.parse_result(run_output(*p)),
              "change": bench_pairs.parse_result(run_output(*c))}
             for s, p, c in zip(range(5), parent, change)]
    summary = bench_pairs.summarize(pairs, {"items_per_s": "higher", "item_p50_ms": "lower"})
    rate = summary["items_per_s"]
    assert rate["parent_median"] == 100.0 and rate["change_median"] == 120.0
    assert rate["parent_quartiles"] == [95.0, 105.0] and rate["change_quartiles"] == [110.0, 125.0]
    assert rate["parent_quartile_spread"] == 10.0
    assert rate["change_wins"] == "3/5"  # 110 = 110 is a tie, 100 < 105 a loss
    assert rate["median_change"] == pytest.approx(0.2)
    p50 = summary["item_p50_ms"]
    assert p50["change_wins"] == "3/5"  # lower is better: 2.0 = 2.0 ties, 1.9 > 1.8 loses
    assert p50["parent_median"] == 2.0 and p50["change_median"] == 1.9
    assert p50["median_change"] == pytest.approx(-0.05)


def test_summary_of_one_pair():
    pair = {"parent": bench_pairs.parse_result(run_output(100.0, 2.0)),
            "change": bench_pairs.parse_result(run_output(90.0, 2.0))}
    rate = bench_pairs.summarize([pair], {"items_per_s": "higher"})["items_per_s"]
    assert rate["parent_quartiles"] == [100.0, 100.0] and rate["change_wins"] == "0/1"
    assert rate["median_change"] == pytest.approx(-0.1)


def test_seed_ranges():
    assert bench_pairs.parse_seeds("3401-3404") == [3401, 3402, 3403, 3404]
    assert bench_pairs.parse_seeds("7,9-10") == [7, 9, 10]


def failed_run(code=1):
    return bench_pairs.read_run(code, "", "Traceback (most recent call last):\n" + "  line\n" * 8 + "MemoryError\n")


def test_a_failed_run_keeps_its_exit_code_and_stderr_tail():
    run = failed_run(137)
    assert run["exit_code"] == 137 and len(run["stderr_tail"]) == bench_pairs.STDERR_TAIL_LINES
    assert run["stderr_tail"][-1] == "MemoryError"
    assert bench_pairs.read_run(0, run_output(100.0, 2.0), "")["metrics"]["items_per_s"] == 100.0


def test_failed_runs_are_left_out_of_the_medians_and_counted():
    ok = lambda rate, failed=0: bench_pairs.read_run(0, run_output(rate, 2.0, failed=failed), "")
    incorrect = ok(50.0)
    incorrect["correct"] = False
    pairs = [{"parent": ok(100.0, failed=2), "change": ok(110.0)},
             {"parent": failed_run(), "change": ok(500.0)},
             {"parent": ok(120.0), "change": failed_run(2)},
             {"parent": ok(80.0, failed=1), "change": incorrect}]
    rate = bench_pairs.summarize(pairs, {"items_per_s": "higher"})["items_per_s"]
    assert rate["change_wins"] == "1/2"  # the two pairs with a failed run are not compared
    assert rate["parent_median"] == 90.0 and rate["change_median"] == 80.0
    assert bench_pairs.failures(pairs) == {
        "pairs_left_out": 2,
        "parent": {"runs_failed": 1, "runs_incorrect": 0, "items_failed": 3, "items_attempted": 300},
        "change": {"runs_failed": 1, "runs_incorrect": 1, "items_failed": 0, "items_attempted": 300},
    }


def test_summary_of_pairs_that_all_failed_is_empty():
    pairs = [{"parent": failed_run(), "change": failed_run()}]
    assert bench_pairs.summarize(pairs, {"items_per_s": "higher"}) == {}
    assert bench_pairs.failures(pairs)["pairs_left_out"] == 1
