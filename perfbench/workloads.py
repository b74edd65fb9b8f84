"""The benchmark's workloads: one end-to-end pass of each study.

Every workload is cut from the committed reference world
(`newsrec.worlds.reference_world`) and differs only in shape, so each
stresses a different layer:

* serve-wide  - every user served on a short horizon: ensemble scoring, the
                ranker and the list metrics dominate; training is the
                smaller share.
* train-deep  - long histories, deeper and larger ensembles, few users
                served: `build_training_set` and the split search dominate.
* cli-chain   - the five `newsrec` subcommands in-process on a small world:
                the same layers reached through files (JSONL ingestion,
                model save/load, emission logs, per-attribute metric rows).

A pass runs named stages. `setup` is world generation, `lock` records the
behaviour-lock digests and round-trip checks; every other stage is part of
the measured study. The program only ever sees the world generated from the
seed (see `world_config`). Functions are looked up on their modules at call time so that the
tracer's wrappers are used when tracing is on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import newsrec.cli
import newsrec.corpus
import newsrec.evaluation
import newsrec.gbdt
import newsrec.ranker
from newsrec.corpus import Kind, SyntheticWorldConfig, generate_world
from newsrec.evaluation import ComparisonReport, SampleSummary, TTestVariant
from newsrec.ranker import Section, Treatment
from newsrec.worlds import reference_pipeline, reference_world

STUDY_STAGES = ("train", "serve", "evaluate", "compare")


class StageFailed(Exception):
    """Ends a pass after a stage raised or failed one of its checks."""


class CheckFailed(Exception):
    pass


class Pass:
    """One pass of a workload: stage times, work counts, digests and ops.

    Every stage is one operation; it fails when it raises or one of its
    checks fails, and the pass stops there.
    """

    def __init__(self, tracer=None, expected_digests: Optional[dict] = None):
        self.tracer = tracer
        self.expected_digests = expected_digests
        self.times: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.lists_served = 0
        self.bytes_written = 0
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    @contextlib.contextmanager
    def stage(self, name: str):
        self.attempted += 1
        span = self.tracer.span(f"stage.{name}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                yield
        except Exception as exc:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            raise StageFailed from exc
        finally:
            self.times[name] = time.perf_counter() - start

    @staticmethod
    def check(ok, message: str) -> None:
        if not ok:
            raise CheckFailed(message)

    def digest(self, key: str, data: bytes) -> None:
        self.digests[key] = hashlib.sha256(data).hexdigest()

    def verify_digests(self) -> None:
        """Every pass of a run must reproduce the first pass's digests."""
        if self.expected_digests is None:
            return
        differing = sorted(k for k in self.expected_digests.keys() | self.digests.keys()
                           if self.expected_digests.get(k) != self.digests.get(k))
        self.check(not differing, f"digests differ from the first pass: {differing}")

    @property
    def study_s(self) -> float:
        return sum(self.times.get(s, 0.0) for s in STUDY_STAGES)


@dataclass(frozen=True)
class Shape:
    users: int
    days: int
    sessions: int
    impressions: int
    trees: int
    depth: int
    refresh_hours: float
    served_users: Optional[int] = None  # None serves every user


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    heldout_seed: int
    shape: Shape
    tiny: Shape  # the self-check size
    run: Callable[["Workload", Pass, SyntheticWorldConfig, Shape, Path], None]
    dynamism_check: bool = False


# Click volume drives most of the work: training-set sizes, how deep the
# trees grow, click-triggered lists. At the generator's fixed click threshold
# the click-through rate spreads by about 40% across seeds (interquartile
# range over median), so each world instead fixes its click-through rate.
CLICK_THROUGH_RATE = 0.05


def world_config(shape: Shape, seed: int) -> SyntheticWorldConfig:
    """The reference world cut to `shape` and drawn from `seed`, with the
    click threshold set so that CLICK_THROUGH_RATE of the impressions of a
    first draw would be clicked."""
    world = dataclasses.replace(
        reference_world(), seed=seed, n_users=shape.users, n_days=shape.days,
        sessions_per_day=shape.sessions, impressions_per_session=shape.impressions)
    corpus, truth = generate_world(world)
    probs = sorted(truth.click_prob(e.user_id, e.article_id)
                   for e in corpus.events if e.kind is Kind.IMPRESSION)
    threshold = probs[int(len(probs) * (1.0 - CLICK_THROUGH_RATE))]
    return dataclasses.replace(world, click_threshold=threshold)


def _check_study(p: Pass, wl: Workload, shape: Shape,
                 reports: list[ComparisonReport]) -> None:
    """Every report validates. On a full-size world of a workload that asks
    for it, the dynamism treatment has the higher dynamism mean; on a tiny
    world the direction is not a property of the study."""
    p.check(reports, "no comparison reports")
    for report in reports:
        report.validate()
    if wl.dynamism_check and shape == wl.shape:
        (r,) = [r for r in reports if r.metric == "dynamism"]
        p.check(r.group_b.mean > r.group_a.mean,
                f"dynamism mean {r.group_b.mean} under the dynamism treatment is not "
                f"above the baseline's {r.group_a.mean}")


def _json_bytes(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def run_in_process(wl: Workload, p: Pass, world: SyntheticWorldConfig, shape: Shape,
                   work: Path) -> None:
    corpus_mod, ranker, evaluation, gbdt = (newsrec.corpus, newsrec.ranker,
                                            newsrec.evaluation, newsrec.gbdt)
    with p.stage("setup"):
        corpus, truth = corpus_mod.generate_world(world)
        p.check(corpus.events, "generated world has no events")
    base = reference_pipeline(world)
    base = dataclasses.replace(
        base, refresh_interval=shape.refresh_hours * 3600.0,
        train=dataclasses.replace(base.train, n_trees=shape.trees, max_depth=shape.depth))
    dyn = dataclasses.replace(base, treatment=Treatment.DYNAMISM)
    users = corpus.user_ids()[:shape.served_users]

    with p.stage("train"):
        models = ranker.train_schedule(corpus, base)
        p.check(models, "no nightly model was trained")
    with p.stage("serve"):
        lists_a = ranker.run_pipeline(corpus, base, users, models=models)
        lists_b = ranker.run_pipeline(corpus, dyn, users, models=models)
        manual = ranker.manual_lists(corpus, base.t_start, corpus.time_span()[1],
                                     rng_seed=world.seed * 7919 + 11)
        p.check(lists_a and lists_b and manual, "an emission stream is empty")
    p.lists_served = len(lists_a) + len(lists_b)
    with p.stage("compare"):
        ab = evaluation.compare_treatments(lists_a, lists_b, corpus)
        widget = [l for l in lists_a if l.section is Section.MN_WIDGET and not l.fallback]
        mr = evaluation.compare_manual_recsys(manual, widget, corpus)
        _check_study(p, wl, shape, ab + mr)

    with p.stage("lock"):
        articles, events = work / "articles.jsonl", work / "events.jsonl"
        corpus_mod.save_corpus(corpus, articles, events)
        p.digest("corpus/articles.jsonl", articles.read_bytes())
        p.digest("corpus/events.jsonl", events.read_bytes())
        p.check(corpus_mod.load_corpus(articles, events, truth.word_vectors) == corpus,
                "the generated corpus does not survive save_corpus + load_corpus")
        path = work / "model.json"
        for i, (_, model) in enumerate(models):
            gbdt.save(model, path)
            saved = path.read_bytes()
            p.digest(f"models/{i:02d}.json", saved)
            gbdt.save(gbdt.load(path), path)
            p.check(path.read_bytes() == saved, f"model {i} does not survive load + save")
        path = work / "emissions.jsonl"
        for name, lists in (("baseline", lists_a), ("dynamism", lists_b),
                            ("manual", manual)):
            ranker.write_emissions(path, lists)
            p.digest(f"emissions_{name}.jsonl", path.read_bytes())
            p.check(ranker.read_emissions(path) == lists,
                    f"{name} emissions do not survive write + read")
        p.digest("compare_ab.json", _json_bytes([r.to_dict() for r in ab]))
        p.digest("compare_manual.json", _json_bytes([r.to_dict() for r in mr]))
        p.verify_digests()


def cli_config(world: SyntheticWorldConfig, shape: Shape, out: Path) -> dict:
    """The reference experiment config (configs/reference.json) with `world`."""
    return {
        "seed": world.seed,
        "out": str(out),
        "world": dataclasses.asdict(world),
        "pipeline": {"start_day_offset": 1, "candidate_window_days": 7.0,
                     "refresh_interval_hours": shape.refresh_hours,
                     "nightly_train_hour": 1, "lambda": 0.5,
                     "rec_label_threshold": 0.5, "mnpage_cap": 20},
        "train": {"n_trees": shape.trees, "max_depth": shape.depth,
                  "learning_rate": reference_pipeline(reference_world()).train.learning_rate},
        "treatments": ["baseline", "dynamism"],
        "manual_updates_per_day": [8, 16],
        "eval_ks": [5, 10],
        "variant": "student",
    }


def _report_from_dict(d: dict) -> ComparisonReport:
    return ComparisonReport(
        metric=d["metric"], group_a=SampleSummary(**d["group_a"]),
        group_b=SampleSummary(**d["group_b"]), t_stat=d["t_stat"],
        p_value=d["p_value"], significant=d["significant"],
        variant=TTestVariant(d["variant"]), df=d["df"])


def run_cli_chain(wl: Workload, p: Pass, world: SyntheticWorldConfig, shape: Shape,
                  work: Path) -> None:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    config = work / "config.json"
    config.write_text(json.dumps(cli_config(world, shape, out), indent=2),
                      encoding="utf-8")

    def newsrec_cmd(command: str) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = newsrec.cli.main([command, "--config", str(config),
                                     "--seed", str(world.seed)])
        p.check(code == 0, f"newsrec {command} exited {code}: {stderr.getvalue().strip()}")

    with p.stage("setup"):
        newsrec_cmd("generate")
    with p.stage("train"):
        newsrec_cmd("train")
    with p.stage("serve"):
        newsrec_cmd("run")
    with p.stage("evaluate"):
        newsrec_cmd("evaluate")
    with p.stage("compare"):
        newsrec_cmd("compare")

    with p.stage("lock"):
        files = sorted(f for f in out.rglob("*") if f.is_file())
        for f in files:
            p.digest(f.relative_to(out).as_posix(), f.read_bytes())
        p.bytes_written = sum(f.stat().st_size for f in files)
        for name in ("baseline", "dynamism"):
            with (out / f"emissions_{name}.jsonl").open("rb") as fh:
                p.lists_served += sum(1 for line in fh if line.strip())
        p.check(p.lists_served, "no lists were emitted")
        reports = [_report_from_dict(d)
                   for name in ("compare_ab.json", "compare_manual.json")
                   for d in json.loads((out / "reports" / name).read_text(encoding="utf-8"))]
        _check_study(p, wl, shape, reports)
        p.verify_digests()


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="serve-wide",
        default_seed=20240101, heldout_seed=7001,
        shape=Shape(users=12, days=5, sessions=3, impressions=10, trees=30, depth=3,
                    refresh_hours=3.0),
        tiny=Shape(users=6, days=3, sessions=2, impressions=8, trees=4, depth=2,
                   refresh_hours=6.0),
        run=run_in_process, dynamism_check=True),
    Workload(
        name="train-deep",
        default_seed=20240102, heldout_seed=7002,
        shape=Shape(users=20, days=5, sessions=3, impressions=10, trees=40, depth=4,
                    refresh_hours=6.0, served_users=8),
        tiny=Shape(users=6, days=3, sessions=3, impressions=10, trees=4, depth=3,
                   refresh_hours=12.0, served_users=3),
        run=run_in_process),
    Workload(
        name="cli-chain",
        default_seed=20240101, heldout_seed=7003,
        shape=Shape(users=10, days=4, sessions=3, impressions=10, trees=30, depth=3,
                    refresh_hours=3.0),
        tiny=Shape(users=6, days=3, sessions=2, impressions=8, trees=4, depth=2,
                   refresh_hours=6.0),
        run=run_cli_chain),
)}
