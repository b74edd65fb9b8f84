"""`tools/bench_pairs.py`'s summary of paired runs, on synthetic records; no
benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "study_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "eval_lists_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
DIGESTS = {"1": {"lock": "ab12"}}


def record(study_s, eval_lists_per_s, digests=DIGESTS, correct=True):
    return {"correct": correct, "error": None, "digests": digests,
            "metrics": {"study_s": study_s, "eval_lists_per_s": eval_lists_per_s}}


def test_medians_quartiles_and_wins():
    parent = [record(1.0, 100.0), record(1.2, 110.0), record(0.8, 90.0), record(1.0, 105.0)]
    change = [record(0.9, 130.0), record(1.3, 120.0), record(0.7, 140.0), record(0.9, 100.0)]
    summary = bench_pairs.summarize(parent, change, END_TO_END)
    study, evals = summary["metrics"]["study_s"], summary["metrics"]["eval_lists_per_s"]
    # statistics.quantiles(n=4), the exclusive method perfbench uses
    assert study["parent"] == pytest.approx((0.85, 1.0, 1.15))
    assert evals["parent"] == pytest.approx((92.5, 102.5, 108.75))
    assert evals["change"] == pytest.approx((105.0, 125.0, 137.5))
    # lower is better for study_s: pairs 0, 2 and 3 are wins, pair 1 a loss
    assert study["wins"] == 3 and study["n"] == 4
    # higher is better for eval_lists_per_s: pair 3 (100 < 105) is a loss
    assert evals["wins"] == 3
    assert evals["relative"] == pytest.approx(125.0 / 102.5 - 1.0)
    assert evals["beyond_parent_iqr"]          # 22.5 > 108.75 - 92.5
    assert not study["beyond_parent_iqr"]      # 0.1 < 1.15 - 0.85
    assert summary["ok"] and summary["digests_match"] and summary["all_correct"]
    text = bench_pairs.format_summary(summary)
    assert "eval_lists_per_s" in text and "3/4" in text and "digests match: yes" in text


def test_a_tie_is_no_win():
    summary = bench_pairs.summarize([record(1.0, 100.0)], [record(1.0, 100.0)], END_TO_END)
    assert [m["wins"] for m in summary["metrics"].values()] == [0, 0]
    assert summary["metrics"]["study_s"]["parent"] == (1.0, 1.0, 1.0)


def test_digest_mismatch_fails():
    other = {"1": {"lock": "cd34"}}
    summary = bench_pairs.summarize([record(1.0, 100.0), record(1.0, 100.0)],
                                    [record(1.0, 100.0), record(1.0, 100.0, digests=other)],
                                    END_TO_END)
    assert not summary["digests_match"] and not summary["ok"]
    assert "digests match: NO" in bench_pairs.format_summary(summary)


def test_incorrect_or_unfinished_run_fails():
    unfinished = {"correct": False, "error": "exit 3: boom", "digests": None, "metrics": {}}
    summary = bench_pairs.summarize([record(1.0, 100.0), record(1.0, 100.0)],
                                    [record(1.0, 100.0, correct=False), unfinished],
                                    END_TO_END)
    assert not summary["all_correct"] and not summary["ok"]
    # the unfinished pair has no metrics, so each metric counts one pair
    assert summary["metrics"]["study_s"]["n"] == 1
    assert summary["errors"] == ["exit 3: boom"]


def test_unequal_run_counts_refused():
    with pytest.raises(ValueError, match="2 parent runs but 1 change runs"):
        bench_pairs.summarize([record(1.0, 1.0)] * 2, [record(1.0, 1.0)], END_TO_END)
