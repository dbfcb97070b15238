"""The aggregation of scripts/bench_compare.py, on hand-made run records."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _path)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

END_TO_END = [{"name": "round_s", "better": "lower", "bound": 0.25},
              {"name": "rougeL", "better": "higher", "bound": 0.15}]


def _run(round_s, rouge_l=47.0, rounds=4, correct=True, failed=0):
    return {"metrics": {"round_s": round_s, "rougeL": rouge_l}, "rounds": rounds,
            "correct": correct, "attempted": 100, "failed": failed}


def test_quartiles_are_inclusive_and_one_value_is_its_own_quartiles():
    q = bench_compare.quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (q["q1"], q["median"], q["q3"]) == (2.0, 3.0, 4.0)
    assert q["values"] == [4.0, 1.0, 3.0, 2.0, 5.0]
    q = bench_compare.quartiles([2.5])
    assert (q["q1"], q["median"], q["q3"]) == (2.5, 2.5, 2.5)


def test_a_gain_in_nine_of_ten_pairs_past_the_base_iqr_is_better():
    base = [2.8, 2.7, 2.9, 2.6, 2.8, 3.0, 2.75, 2.85, 2.7, 2.8]
    change = [b - 0.5 for b in base]
    change[3] = 2.7  # one pair where the checkout is slower
    m = bench_compare.compare_metric(list(zip(base, change)), "lower", 0.25)
    assert m["change_better_in"] == 9 and m["pairs"] == 10
    assert m["base"]["median"] == pytest.approx(2.8)
    assert m["change"]["median"] == pytest.approx(2.3)
    assert m["relative_change"] == pytest.approx(-0.5 / 2.8)
    assert not m["within_noise"] and m["verdict"] == "better"
    change[0] = 2.9  # eight of ten
    m = bench_compare.compare_metric(list(zip(base, change)), "lower", 0.25)
    assert m["change_better_in"] == 8
    assert m["verdict"] == "better in fewer than 9 of 10 pairs"


def test_a_difference_inside_the_base_iqr_is_within_noise():
    base, change = [10.0, 11.0, 12.0, 13.0, 14.0], [10.5, 11.5, 12.5, 13.5, 14.5]
    m = bench_compare.compare_metric(list(zip(base, change)), "lower", 0.25)
    assert m["base_iqr"] == 2.0 and m["within_noise"] and not m["base_iqr_exceeds_bound"]
    assert m["change_better_in"] == 0 and m["verdict"] == "within noise"


def test_worse_is_judged_against_the_bound():
    base, change = [10.0, 10.0, 10.0], [11.0, 11.0, 11.0]
    assert bench_compare.compare_metric(list(zip(base, change)), "lower",
                                        0.25)["verdict"] == "worse, inside bound"
    assert bench_compare.compare_metric(list(zip(base, change)), "lower",
                                        0.05)["verdict"] == "worse beyond bound"
    # for a metric where higher is better, a fall is the worse direction
    m = bench_compare.compare_metric([(50.0, 40.0)] * 3, "higher", 0.15)
    assert m["change_better_in"] == 0 and m["verdict"] == "worse beyond bound"


def test_a_base_iqr_wider_than_the_bound_leaves_the_metric_unresolved():
    wide = [(5.0, 13.0), (10.0, 13.0), (20.0, 13.0)]  # IQR 7.5 > 0.25 x median 10
    m = bench_compare.compare_metric(wide, "lower", 0.25)
    assert m["base_iqr_exceeds_bound"] and m["verdict"] == "unresolved"
    wide = [(5.0, 6.0), (10.0, 9.0), (20.0, 19.0)]  # 3 of 3 pairs, medians 1.0 apart
    assert bench_compare.compare_metric(wide, "lower", 0.25)["verdict"] == "unresolved"
    # unless every change run beats every base run, with the medians past the IQR
    apart = [(5.0, 1.0), (10.0, 1.5), (20.0, 2.0)]
    m = bench_compare.compare_metric(apart, "lower", 0.25)
    assert m["base_iqr_exceeds_bound"] and m["verdict"] == "better"
    # an IQR equal to the bound still resolves
    m = bench_compare.compare_metric([(9.0, 8.0), (10.0, 9.0), (14.0, 13.0)], "lower", 0.25)
    assert m["base_iqr"] == 2.5 and not m["base_iqr_exceeds_bound"]
    assert m["verdict"] == "within noise"


def test_a_gain_with_a_larger_failed_share_is_not_better():
    pairs = [(2.8, 2.3), (2.7, 2.2), (2.9, 2.4), (2.8, 2.3)]
    m = bench_compare.compare_metric(pairs, "lower", 0.25, {"base": 0.0, "change": 0.01})
    assert m["change_better_in"] == 4
    assert m["verdict"] == "better, but more operations failed"
    m = bench_compare.compare_metric(pairs, "lower", 0.25, {"base": 0.02, "change": 0.01})
    assert m["verdict"] == "better"


def test_aggregate_keeps_rounds_correctness_and_failures_per_side():
    runs = [{"pair": i, "seed": 1 + i, "first": ("base", "change")[i % 2],
             "base": _run(2.8 + 0.01 * i, rounds=4), "change": _run(2.3 + 0.01 * i, rounds=5)}
            for i in range(4)]
    runs[2]["change"]["failed"] = 10
    runs[3]["base"] = {"metrics": {}, "rounds": 0, "correct": False, "attempted": 0,
                       "failed": 0}  # a run that exited with an error
    w = bench_compare.aggregate(runs, END_TO_END)
    assert w["metrics"]["round_s"]["pairs"] == 3  # the broken pair is left out
    assert w["metrics"]["round_s"]["change_better_in"] == 3
    assert w["metrics"]["round_s"]["verdict"] == "better, but more operations failed"
    assert w["metrics"]["rougeL"]["verdict"] == "within noise"
    assert w["rounds_per_run"] == {"base": [4, 4, 4, 0], "change": [5, 5, 5, 5]}
    assert w["correct"] == {"base": False, "change": True}
    assert w["failed_share"] == {"base": 0.0, "change": 10 / 400}
