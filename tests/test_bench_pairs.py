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


def record(study_s, eval_lists_per_s, digests=DIGESTS, correct=True, attempted=10, failed=0):
    return {"correct": correct, "error": None, "digests": digests,
            "attempted": attempted, "failed": failed,
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


def test_worse_beyond_bound_flagged():
    # study_s (lower is better) 1.0 -> 1.3 is 30% worse, beyond its 25%;
    # eval_lists_per_s (higher is better) 100 -> 80 is 20% worse, inside it
    summary = bench_pairs.summarize([record(1.0, 100.0)] * 3, [record(1.3, 80.0)] * 3,
                                    END_TO_END)
    study, evals = summary["metrics"]["study_s"], summary["metrics"]["eval_lists_per_s"]
    assert study["beyond_bound"] and not evals["beyond_bound"]
    assert not summary["within_bounds"] and not summary["ok"]
    assert summary["digests_match"] and summary["all_correct"]
    assert "YES (25%)" in bench_pairs.format_summary(summary)
    # better by any amount is never beyond the bound
    summary = bench_pairs.summarize([record(1.0, 100.0)] * 3, [record(0.5, 200.0)] * 3,
                                    END_TO_END)
    assert summary["within_bounds"] and summary["ok"]
    evals = bench_pairs.summarize([record(1.0, 100.0)], [record(1.0, 74.0)], END_TO_END)
    assert evals["metrics"]["eval_lists_per_s"]["beyond_bound"]


def test_failed_share_per_side():
    parent = [record(1.0, 100.0, attempted=10), record(1.0, 100.0, attempted=30, failed=1)]
    change = [record(1.0, 100.0, attempted=20, failed=1), record(1.0, 100.0, attempted=20)]
    summary = bench_pairs.summarize(parent, change, END_TO_END)
    assert summary["failed"]["parent"] == {"attempted": 40, "failed": 1, "share": 0.025}
    assert summary["failed"]["change"] == {"attempted": 40, "failed": 1, "share": 0.025}
    assert not summary["failed_share_rose"]
    text = bench_pairs.format_summary(summary)
    assert "failed share: parent 1/40 (2.50%), change 1/40 (2.50%)" in text
    change[1] = record(1.0, 100.0, attempted=20, failed=1)
    summary = bench_pairs.summarize(parent, change, END_TO_END)
    assert summary["failed_share_rose"] and not summary["ok"]
    assert "the change failed more" in bench_pairs.format_summary(summary)


def test_main_exits_1_when_the_change_fails_more(monkeypatch, tmp_path, capsys):
    """`main` on stub runs: equal digests and correct runs, but the change
    fails a larger share of operations."""
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "study_s", "unit": "s", "better": "lower", "bound": 0.25},'
        ' {"name": "eval_lists_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}')

    def stub(checkout, workload, seed, seconds):
        return record(1.0, 100.0, failed=int(checkout.name == "change"))

    monkeypatch.setattr(bench_pairs, "run_once", stub)
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "serve-wide", "--pairs", "2"])
    assert code == 1
    assert "the change failed more" in capsys.readouterr().out
