"""Outside-in layer tracing for the newsrec benchmark.

`Tracer.install()` replaces the public functions of each newsrec layer with
timing wrappers, in every newsrec module that holds a reference to them, so
a call is traced whichever module it is looked up from (for example
`newsrec.ranker.extract_matrix` as well as `newsrec.features.extract_matrix`).
Methods such as `TreeEnsemble.raw_scores` are patched on their class.
The program itself is not changed; `uninstall()` puts every original back.

Each call becomes a span (name, start, end, parent) kept in memory. A span's
self time is its duration minus the durations of its direct children.
Count hooks run after the call returns and record work counts (rows,
candidates, distinct keys) at the same boundary.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

# A hook sees the tracer, the call's result and its arguments.
Hook = Callable[["Tracer", Any, tuple, dict], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_events(tr, result, args, kwargs):
    tr.counts["corpus.load_corpus.events"] += len(result.events)


def _profile_key(tr, result, args, kwargs):
    tr.distinct("features.build_profile",
                (_arg(args, kwargs, 1, "user_id"), _arg(args, kwargs, 2, "as_of")))


def _extract_rows(tr, result, args, kwargs):
    tr.counts["features.extract_matrix.rows"] += len(result)


def _training_key(tr, result, args, kwargs):
    tr.distinct("features.build_training_set",
                (_arg(args, kwargs, 1, "day"), _arg(args, kwargs, 2, "rng_seed")))


def _train_work(tr, result, args, kwargs):
    tr.counts["gbdt.train.row_trees"] += len(args[0]) * len(result.trees)


def _score_work(tr, result, args, kwargs):
    model, X = args[0], args[1]
    tr.counts["gbdt.raw_scores.rows"] += len(X)
    tr.counts["gbdt.raw_scores.row_trees"] += len(X) * len(model.trees)


def _pipeline_lists(tr, result, args, kwargs):
    tr.counts["ranker.lists_emitted"] += len(result)
    tr.counts["ranker.fallback_lists"] += sum(1 for lst in result if lst.fallback)


def _rank_candidates(tr, result, args, kwargs):
    tr.counts["ranker.rank.candidates"] += len(_arg(args, kwargs, 2, "cands"))


def _read_lists(tr, result, args, kwargs):
    tr.counts["ranker.read_emissions.lists"] += len(result)


def _diversity_key(tr, result, args, kwargs):
    articles = _arg(args, kwargs, 0, "articles")
    tr.distinct("usefulness.intra_list_diversity",
                (tuple(a.id for a in articles), _arg(args, kwargs, 1, "attr")))


def _user_days(tr, result, args, kwargs):
    tr.counts["evaluation.offline_eval.user_days"] += result.n_user_days


# (module, attribute, span name, count hook). A "Class.method" attribute is
# patched on the class. Functions that no metric reports (save_corpus,
# manual_lists, align, ndcg_by_section) are still traced so that their time
# is not charged to their caller's self time.
TARGETS: list[tuple[str, str, str, Optional[Hook]]] = [
    ("newsrec.corpus", "generate_world", "corpus.generate_world", None),
    ("newsrec.corpus", "load_corpus", "corpus.load_corpus", _count_events),
    ("newsrec.corpus", "save_corpus", "corpus.save_corpus", None),
    ("newsrec.features", "build_profile", "features.build_profile", _profile_key),
    ("newsrec.features", "extract_matrix", "features.extract_matrix", _extract_rows),
    ("newsrec.features", "build_training_set", "features.build_training_set",
     _training_key),
    ("newsrec.gbdt", "train", "gbdt.train", _train_work),
    ("newsrec.gbdt", "TreeEnsemble.raw_scores", "gbdt.raw_scores", _score_work),
    ("newsrec.gbdt", "save", "gbdt.save", None),
    ("newsrec.gbdt", "load", "gbdt.load", None),
    ("newsrec.ranker", "train_schedule", "ranker.train_schedule", None),
    ("newsrec.ranker", "run_pipeline", "ranker.run_pipeline", _pipeline_lists),
    ("newsrec.ranker", "rank", "ranker.rank", _rank_candidates),
    ("newsrec.ranker", "rerank", "ranker.rerank", None),
    ("newsrec.ranker", "slice_sections", "ranker.slice_sections", None),
    ("newsrec.ranker", "manual_lists", "ranker.manual_lists", None),
    ("newsrec.ranker", "write_emissions", "ranker.write_emissions", None),
    ("newsrec.ranker", "read_emissions", "ranker.read_emissions", _read_lists),
    ("newsrec.usefulness", "intra_list_diversity", "usefulness.intra_list_diversity",
     _diversity_key),
    ("newsrec.usefulness", "serendipity", "usefulness.serendipity", None),
    ("newsrec.usefulness", "dynamism", "usefulness.dynamism", None),
    ("newsrec.usefulness", "coverage", "usefulness.coverage", None),
    ("newsrec.usefulness", "align", "usefulness.align", None),
    ("newsrec.evaluation", "offline_eval", "evaluation.offline_eval", _user_days),
    ("newsrec.evaluation", "collect_metric_samples", "evaluation.collect_metric_samples",
     None),
    ("newsrec.evaluation", "compare_treatments", "evaluation.compare_treatments", None),
    ("newsrec.evaluation", "compare_manual_recsys", "evaluation.compare_manual_recsys",
     None),
    ("newsrec.evaluation", "ndcg_by_section", "evaluation.ndcg_by_section", None),
    ("newsrec.evaluation", "t_test", "evaluation.t_test", None),
    ("newsrec.cli", "cmd_generate", "cli.generate", None),
    ("newsrec.cli", "cmd_train", "cli.train", None),
    ("newsrec.cli", "cmd_run", "cli.run", None),
    ("newsrec.cli", "cmd_evaluate", "cli.evaluate", None),
    ("newsrec.cli", "cmd_compare", "cli.compare", None),
]

LAYERS = ("corpus", "features", "gbdt", "ranker", "usefulness", "evaluation", "cli")


class Tracer:
    """Spans and counters for one traced pass of a workload."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1, raised)
        self.spans: list[tuple[int, float, float, int, bool]] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._restore: list[tuple[object, str, object]] = []
        self._passes = 0  # installs so far; keys of different passes differ

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self) -> tuple[int, int, float]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, name_id: int, index: int, parent: int, start: float,
               raised: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name_id, start, end, parent, raised)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block; used for the benchmark's stages."""
        name_id = self._name_id(name)
        index, parent, start = self._open()
        raised = True
        try:
            yield
            raised = False
        finally:
            self._close(name_id, index, parent, start, raised)

    def wrap(self, name: str, fn, hook: Optional[Hook] = None):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent, start = self._open()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                self._close(name_id, index, parent, start, raised)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return traced

    def distinct(self, name: str, key) -> None:
        """Record a call's key; ids repeat between worlds, so keys are per pass."""
        self.keys[name].add((self._passes, key))

    def install(self) -> None:
        self._passes += 1
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "newsrec" or n.startswith("newsrec."))]
        for module_name, attr, name, hook in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Aggregation

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, errors."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0} for n in self.names}
        for i, (name_id, start, end, _, raised) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["errors"] += int(raised)
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON: the name table plus one row per span."""
        payload = {"fields": ["name", "start", "end", "parent", "raised"],
                   "names": self.names, "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name.

    A layer the workload never calls reports zero time and zero calls.
    """
    t = tr.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0}
    g = lambda name: t.get(name, zero)
    c = tr.counts
    distinct = lambda name: _ratio(len(tr.keys[name]), g(name)["calls"])
    m: dict[str, float] = {
        "corpus.generate_world.s": g("corpus.generate_world")["s"],
        "corpus.load_corpus.s": g("corpus.load_corpus")["s"],
        "corpus.load_corpus.events_per_s": _ratio(c["corpus.load_corpus.events"],
                                                  g("corpus.load_corpus")["s"]),
        "features.build_profile.calls": g("features.build_profile")["calls"],
        "features.build_profile.s": g("features.build_profile")["s"],
        "features.build_profile.distinct_share": distinct("features.build_profile"),
        "features.extract_matrix.calls": g("features.extract_matrix")["calls"],
        "features.extract_matrix.rows": c["features.extract_matrix.rows"],
        "features.extract_matrix.s": g("features.extract_matrix")["s"],
        "features.build_training_set.calls": g("features.build_training_set")["calls"],
        "features.build_training_set.s": g("features.build_training_set")["s"],
        "features.build_training_set.distinct_share":
            distinct("features.build_training_set"),
        "gbdt.train.calls": g("gbdt.train")["calls"],
        "gbdt.train.s": g("gbdt.train")["s"],
        "gbdt.train.row_trees_per_s": _ratio(c["gbdt.train.row_trees"],
                                             g("gbdt.train")["s"]),
        "gbdt.raw_scores.calls": g("gbdt.raw_scores")["calls"],
        "gbdt.raw_scores.rows": c["gbdt.raw_scores.rows"],
        "gbdt.raw_scores.s": g("gbdt.raw_scores")["s"],
        "gbdt.raw_scores.row_trees_per_s": _ratio(c["gbdt.raw_scores.row_trees"],
                                                  g("gbdt.raw_scores")["s"]),
        "gbdt.save.s": g("gbdt.save")["s"],
        "gbdt.load.s": g("gbdt.load")["s"],
        "ranker.run_pipeline.self_s": g("ranker.run_pipeline")["self_s"],
        "ranker.train_schedule.self_s": g("ranker.train_schedule")["self_s"],
        "ranker.lists_emitted": c["ranker.lists_emitted"],
        "ranker.fallback_share": _ratio(c["ranker.fallback_lists"],
                                        c["ranker.lists_emitted"]),
        "ranker.rank.calls": g("ranker.rank")["calls"],
        "ranker.rank.candidates_mean": _ratio(c["ranker.rank.candidates"],
                                              g("ranker.rank")["calls"]),
        "ranker.rerank.s": g("ranker.rerank")["s"],
        "ranker.slice_sections.s": g("ranker.slice_sections")["s"],
        "ranker.write_emissions.s": g("ranker.write_emissions")["s"],
        "ranker.read_emissions.s": g("ranker.read_emissions")["s"],
        "ranker.read_emissions.lists_per_s": _ratio(c["ranker.read_emissions.lists"],
                                                    g("ranker.read_emissions")["s"]),
        "usefulness.intra_list_diversity.calls":
            g("usefulness.intra_list_diversity")["calls"],
        "usefulness.intra_list_diversity.s": g("usefulness.intra_list_diversity")["s"],
        "usefulness.intra_list_diversity.distinct_share":
            distinct("usefulness.intra_list_diversity"),
        "usefulness.serendipity.calls": g("usefulness.serendipity")["calls"],
        "usefulness.serendipity.s": g("usefulness.serendipity")["s"],
        "usefulness.dynamism.s": g("usefulness.dynamism")["s"],
        "usefulness.coverage.s": g("usefulness.coverage")["s"],
        "evaluation.compare_treatments.self_s":
            g("evaluation.compare_treatments")["self_s"],
        "evaluation.compare_manual_recsys.self_s":
            g("evaluation.compare_manual_recsys")["self_s"],
        "evaluation.collect_metric_samples.self_s":
            g("evaluation.collect_metric_samples")["self_s"],
        "evaluation.offline_eval.self_s": g("evaluation.offline_eval")["self_s"],
        "evaluation.offline_eval.user_days": c["evaluation.offline_eval.user_days"],
        "evaluation.t_test.calls": g("evaluation.t_test")["calls"],
    }
    for cmd in ("generate", "train", "run", "evaluate", "compare"):
        m[f"cli.{cmd}.s"] = g(f"cli.{cmd}")["s"]
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(row["errors"] for name, row in t.items()
                                   if name.startswith(layer + "."))
    return m
