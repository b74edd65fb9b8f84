"""Run one newsrec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-wide --seed 1 --seconds 38 --trace 0

Run from the repository root. Passes over the run's worlds repeat, one
after the other in this single process, until the next pass would end after
`--seconds`. With `--trace 0` the end-to-end metrics are printed; with
`--trace 1` each untraced pass is followed by a traced one, and the
per-layer metrics plus the tracing overhead are printed. perfbench/README.md
defines every metric; names and units come from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A full record (machine,
seeds, per-pass values, sha256 digests of every stage's output, failures)
goes to perfbench/results/, and the traced run's spans next to it.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported: the load is one closed-loop
# caller, and extra BLAS threads would compete with it on a small machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import datetime as dt
import itertools
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def throughputs(passes) -> dict[str, float]:
    """Lists emitted by both treatments, per second of serving and per second
    of evaluation, over `passes` together."""
    lists = sum(p.lists_served for p in passes)
    return {
        "serve_lists_per_s": lists / sum(p.times["serve"] for p in passes),
        "eval_lists_per_s": lists / sum(p.times.get("evaluate", 0.0) + p.times["compare"]
                                        for p in passes),
    }


def end_to_end(p) -> dict[str, float]:
    return {"setup_s": p.times["setup"], "study_s": p.study_s,
            "train_s": p.times["train"], **throughputs([p])}


# A run measures a fixed set of worlds drawn from its seed, in turn, so that
# no single world decides a run's figures.
WORLDS_PER_RUN = 3


def world_seeds(seed: int) -> list[int]:
    return [seed * 1000 + j for j in range(WORLDS_PER_RUN)]


def measure(workload, seed: int, seconds: float, trace: bool, selfcheck: bool,
            work: Path, spans_path: Path) -> dict:
    """Repeat passes over the run's worlds, in turn, for about `seconds`;
    return the raw record. When tracing, each untraced pass is followed by
    a traced pass on the same world."""
    from tracing import Tracer, layer_metrics
    from workloads import Pass, StageFailed, world_config

    shape = workload.tiny if selfcheck else workload.shape
    seeds = world_seeds(seed)
    plain, traced, failures = [], [], []
    attempted = 0
    references: dict[int, dict] = {}  # world seed -> digests of its first pass
    # The per-layer figures cover the first traced pass on each world, so
    # they count the same work however many passes fit in `seconds`.
    layer_tracer = Tracer()
    bytes_written = 0

    def one_pass(tracer, world, pass_shape, label):
        nonlocal attempted
        p = Pass(tracer, references.get(world.seed))
        try:
            if tracer is None:
                workload.run(workload, p, world, pass_shape, work)
            else:
                with tracer:
                    workload.run(workload, p, world, pass_shape, work)
        except StageFailed:
            pass
        attempted += p.attempted
        failures.extend(f"{label}: {f}" for f in p.failures)
        return p

    # An untimed pass on a self-check world first, so that no measured pass
    # pays for first calls; its failures still count.
    one_pass(None, world_config(workload.tiny, seeds[0]), workload.tiny, "warm-up")
    worlds = [world_config(shape, s) for s in seeds]

    start = time.perf_counter()
    unit_times = []
    for unit in itertools.count():
        world = worlds[unit % len(worlds)]
        # Stop when the next pass would end after `seconds`, once every world
        # has had a pass.
        if unit >= len(worlds) and (time.perf_counter() - start
                                    + statistics.median(unit_times) > seconds):
            break
        unit_start = time.perf_counter()
        label = f"pass {unit + 1}, world {world.seed}"
        p = one_pass(None, world, shape, label)
        plain.append(p)
        if p.ok:
            references.setdefault(world.seed, p.digests)
        if trace:
            first = unit < len(worlds)
            p = one_pass(layer_tracer if first else Tracer(), world, shape,
                         label + " (traced)")
            if p.ok:
                traced.append(p)
            if first:
                bytes_written += p.bytes_written
        unit_times.append(time.perf_counter() - unit_start)
    measured_s = time.perf_counter() - start
    if trace:
        layer_tracer.write(spans_path)

    ok_plain = [p for p in plain if p.ok]
    record = {
        "world_seeds": seeds,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "measured_s": measured_s,
        "passes": [{"traced": False, "ok": p.ok, "times": p.times,
                    "lists_served": p.lists_served} for p in plain]
                  + [{"traced": True, "ok": True, "times": p.times,
                      "lists_served": p.lists_served} for p in traced],
        "digests": {str(s): d for s, d in references.items()},
        "samples": {},
        "values": {},
    }
    if ok_plain:
        e2e = [end_to_end(p) for p in ok_plain]
        record["samples"] = {k: [m[k] for m in e2e] for k in e2e[0]}
        record["samples"]["peak_rss_mb"] = [_peak_rss_mb()]
        # A run's throughput is its total work over its total time; the
        # timings are medians over the passes.
        record["values"] = throughputs(ok_plain)
    if trace and traced and ok_plain:
        layers = layer_metrics(layer_tracer)
        layers["cli.bytes_written"] = bytes_written
        layers["trace.spans"] = len(layer_tracer.spans)
        layers["trace.overhead_s"] = (statistics.median(p.study_s for p in traced)
                                      - statistics.median(p.study_s for p in ok_plain))
        record["samples"].update({k: [v] for k, v in layers.items()})
    return record


def main(argv=None) -> int:
    if not (SRC / "newsrec" / "__init__.py").is_file():
        print(f"error: the newsrec sources are missing: {SRC / 'newsrec'} not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        help="world seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="tiny world, for the benchmark's own tests")
    parser.add_argument("--results-dir", type=Path, default=BENCH_DIR / "results")
    args = parser.parse_args(argv)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    stamp = dt.datetime.now(dt.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    stem = f"{workload.name}_seed{seed}_trace{args.trace}_{stamp}"
    args.results_dir.mkdir(parents=True, exist_ok=True)
    spans_path = args.results_dir / f"{stem}.spans.json.gz"
    work = BENCH_DIR / ".work" / f"{stem}_{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = measure(workload, seed, args.seconds, bool(args.trace),
                         args.selfcheck, work, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples, overrides = record.pop("samples"), record.pop("values")
    metrics, detail = {}, {}
    for m in declared:
        values = samples.get(m["name"])
        value = overrides.get(m["name"], statistics.median(values) if values else 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if values:
            detail[m["name"]] = {"unit": m["unit"], "median": value,
                                 "quartiles": _quartiles(values), "n": len(values),
                                 "samples": values}
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = [m["name"] for m in declared if samples and m["name"] not in samples]
    if missing or set(samples) - known:
        print(f"error: metrics out of step with BENCHMARK.json: missing {missing}, "
              f"undeclared {sorted(set(samples) - known)}", file=sys.stderr)
        return 3
    correct = record["failed"] == 0 and bool(samples)
    if not samples:
        record["failures"].append("no pass completed")

    result = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seed": seed, "default_seed": workload.default_seed,
        "heldout_seed": workload.heldout_seed,
        "seconds": args.seconds, "trace": args.trace, "selfcheck": args.selfcheck,
        "shape": dataclasses.asdict(workload.tiny if args.selfcheck else workload.shape),
        "machine": machine_info(),
        "load": "closed loop, one caller, one stage after another, single-threaded",
        "wait_s": "not measured: single-threaded with no queue, so no layer waits",
        "spans_file": spans_path.name if spans_path.exists() else None,
        "correct": correct, **record, "metrics": detail,
    }
    result_path = args.results_dir / f"{stem}.json"
    result_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")

    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"result: {result_path}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
