"""Paired benchmark runs of two checkouts, alternating which side runs first.

    python3 tools/bench_pairs.py PARENT CHANGE --workload serve-wide --pairs 10
    python3 tools/bench_pairs.py PARENT CHANGE --workload serve-wide --seed 7001 \\
        --pairs 2 --seconds 38

PARENT and CHANGE are two checkouts of this repository. Each pair runs
`perfbench/run.py --trace 0` once in each, from the checkout's root, with its
results in a temporary directory; the parent runs first in even-numbered
pairs (0, 2, ...) and second in odd ones. For each end-to-end metric of the
change's BENCHMARK.json it prints the median [lower, upper quartile] of each
side, the change's relative move, how many pairs the change won, whether
the medians differ by more than the parent's interquartile spread, and
whether the change's median is worse than the parent's by more than the
metric's `bound`. Then it prints each side's failed share of operations
(perfbench's `failed` over `attempted`, summed over the side's runs) and
whether every run's digests equal the first parent run's.

Exit status: 0 when every run is correct, every digest matches, no metric is
worse beyond its bound and the change failed no larger share of operations
than the parent; 1 otherwise (a run that failed to finish is not correct);
2 on bad arguments. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int | None, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in `checkout`: `{"correct",
    "attempted", "failed", "metrics": {name: value}, "digests", "error"}`;
    a run that did not finish reports no counts."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as results:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", str(seconds), "--trace", "0", "--results-dir", results]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        files = sorted(Path(results).glob("*.json"))
        if proc.returncode != 0 or not lines or len(files) != 1:
            return {"correct": False, "metrics": {}, "digests": None,
                    "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
        summary = json.loads(lines[-1])
        digests = json.loads(files[0].read_text(encoding="utf-8"))["digests"]
    return {"correct": bool(summary["correct"]), "error": None, "digests": digests,
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {name: m["value"] for name, m in summary["metrics"].items()}}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), as perfbench computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _failed_share(runs: list[dict]) -> dict:
    """Failed over attempted operations, summed over `runs`; a run that did
    not finish counts neither."""
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return {"attempted": attempted, "failed": failed,
            "share": failed / attempted if attempted else 0.0}


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Compare paired runs: `parent[i]` and `change[i]` are pair i's records
    (as `run_once` returns them), `end_to_end` the BENCHMARK.json metric
    specs. Pairs in which either run lacks a metric are left out of it."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs but {len(change)} change runs")
    metrics = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        base = _quartiles([p for p, _ in pairs])
        new = _quartiles([c for _, c in pairs])
        wins = sum(1 for p, c in pairs if (c > p if higher else c < p))
        relative = (new[1] - base[1]) / base[1] if base[1] else None
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "n": len(pairs),
            "parent": base, "change": new, "wins": wins, "relative": relative,
            "beyond_parent_iqr": abs(new[1] - base[1]) > base[2] - base[0],
            "bound": spec["bound"],
            "beyond_bound": relative is not None
                            and (-relative if higher else relative) > spec["bound"],
        }
    runs = parent + change
    reference = parent[0]["digests"] if parent else None
    digests_match = reference is not None and all(r["digests"] == reference for r in runs)
    all_correct = all(r["correct"] for r in runs)
    failed = {"parent": _failed_share(parent), "change": _failed_share(change)}
    failed_share_rose = failed["change"]["share"] > failed["parent"]["share"]
    within_bounds = not any(m["beyond_bound"] for m in metrics.values())
    return {"metrics": metrics, "digests_match": digests_match, "all_correct": all_correct,
            "failed": failed, "failed_share_rose": failed_share_rose,
            "within_bounds": within_bounds,
            "errors": [r["error"] for r in runs if r.get("error")],
            "ok": digests_match and all_correct and within_bounds and not failed_share_rose}


def _number(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def format_summary(summary: dict) -> str:
    lines = [f"{'metric':<20}{'parent median [q1, q3]':>30}{'change median [q1, q3]':>30}"
             f"{'move':>9}{'wins':>8}  beyond parent IQR  worse beyond bound"]
    for name, m in summary["metrics"].items():
        cells = [f"{_number(q2)} [{_number(q1)}, {_number(q3)}]"
                 for q1, q2, q3 in (m["parent"], m["change"])]
        move = "" if m["relative"] is None else f"{m['relative']:+.1%}"
        iqr = "yes" if m["beyond_parent_iqr"] else "no"
        bound = f"{'YES' if m['beyond_bound'] else 'no'} ({m['bound']:.0%})"
        lines.append(f"{name:<20}{cells[0]:>30}{cells[1]:>30}{move:>9}"
                     f"{m['wins']:>4}/{m['n']:<3}  {iqr:<17}  {bound}")
    shares = [f"{side} {f['failed']}/{f['attempted']} ({f['share']:.2%})"
              for side, f in summary["failed"].items()]
    lines.append(f"failed share: {', '.join(shares)}"
                 f"{' -- the change failed more' if summary['failed_share_rose'] else ''}")
    lines.append(f"digests match: {'yes' if summary['digests_match'] else 'NO'}")
    lines.append(f"every run correct: {'yes' if summary['all_correct'] else 'NO'}")
    lines.extend(f"error: {e}" for e in summary["errors"])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: the workload's default seed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=38.0)
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} holds no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))

    parent, change = [], []
    for i in range(args.pairs):
        order = [(args.parent, parent), (args.change, change)]
        if i % 2:
            order.reverse()
        for checkout, runs in order:
            runs.append(run_once(checkout, args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done ({'parent' if i % 2 == 0 else 'change'} first)",
              file=sys.stderr, flush=True)
    summary = summarize(parent, change, spec["end_to_end"])
    print(format_summary(summary))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
