"""Serving pipeline: candidate selection, per-user ranking, section slicing,
the recency re-ranker, and the simulated hourly/nightly schedule.

The pipeline walks a simulated clock over the corpus horizon. Nightly it
trains a fresh model on the trailing seven days of implicit feedback; every
refresh interval (and immediately after each click) it regenerates the
clicking user's lists. Each regeneration emits three RankedLists: the
fresh-articles widget (top 5, <= 24h old), the missed-last-week strip
(top 5, older than 24h but within 7 days), and the full personalized page.

The recency score of an article published at t is

    dyn(t) = 1 - 1 / (1 + ln(1 + (t - t_start) / 3600))

clamped to 0 before t_start, and the re-ranker orders by
lambda * model_score + (1 - lambda) * dyn.
"""

from __future__ import annotations

import datetime as dt
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, Optional, Sequence

import numpy as np

from .corpus import (DAY, WEEK, Article, Corpus, Kind, _finite, _finite_number, _integer,
                     _str, _str_list, day_start, read_jsonl, utc_date, write_jsonl)
from .features import (ArticleFeatureCache, ProfileCache, UserProfile,
                       article_table, build_training_set, extract_matrix)
from .gbdt import TrainConfig, TreeEnsemble, train

MANUAL_USER = "__manual__"
# Feature rows scored per block of a serving tick. Per-call overhead dominates
# one user's ~100-row matrix, while a large block costs memory: scoring holds
# several (trees, rows) arrays per tree level, so 1024-row blocks of a
# 40-tree model raised peak memory by about 3% where 512 rows kept it near
# one user at a time, for about the same speed.
_BLOCK_ROWS = 512


class RankerError(ValueError):
    pass


class Section(Enum):
    MANUAL = "manual"
    MN_WIDGET = "mn_widget"
    MISSED_LW = "missed_lw"
    MN_PAGE = "mn_page"


class Treatment(Enum):
    BASELINE = "baseline"
    DYNAMISM = "dynamism"


SECTION_CAPS = {Section.MANUAL: 5, Section.MN_WIDGET: 5, Section.MISSED_LW: 5}


@dataclass(frozen=True, slots=True)
class RankedList:
    user_id: str
    section: Section
    at: float
    items: tuple[tuple[str, float], ...]
    fallback: bool = False
    rec_labels: Optional[tuple[bool, ...]] = None

    def __post_init__(self):
        cap = SECTION_CAPS.get(self.section)
        if cap is not None and len(self.items) > cap:
            raise RankerError(f"{self.section.value} list exceeds cap {cap}")
        ids = [aid for aid, _ in self.items]
        if len(set(ids)) != len(ids):
            raise RankerError("duplicate article ids in ranked list")
        scores = [s for _, s in self.items]
        if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
            raise RankerError("items must be sorted non-increasing by score")
        if self.rec_labels is not None and len(self.rec_labels) != len(self.items):
            raise RankerError("rec_labels must be as long as items")

    def ids(self) -> list[str]:
        return [aid for aid, _ in self.items]

    def top(self, n: int) -> "RankedList":
        return RankedList(self.user_id, self.section, self.at, self.items[:n],
                          self.fallback,
                          self.rec_labels[:n] if self.rec_labels is not None else None)


@dataclass(frozen=True)
class PipelineConfig:
    t_start: float
    candidate_window: float = WEEK
    refresh_interval: float = 3600.0
    nightly_train_hour: int = 2
    treatment: Treatment = Treatment.BASELINE
    blend_lambda: float = 0.5
    rec_label_threshold: float = 0.5
    rng_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    mnpage_cap: Optional[int] = None

    def __post_init__(self):
        for name in ("nightly_train_hour", "rng_seed"):
            _integer(getattr(self, name), name, RankerError)
        for name in ("t_start", "candidate_window", "refresh_interval", "rec_label_threshold"):
            if not _finite(getattr(self, name)):
                raise RankerError(f"{name} must be finite, not {getattr(self, name)!r}")
        if not 0.0 <= self.blend_lambda <= 1.0:
            raise RankerError("lambda must be in [0, 1]")
        if self.candidate_window <= 0:
            raise RankerError("candidate_window must be > 0")
        if self.refresh_interval <= 0:
            raise RankerError("refresh_interval must be > 0")
        if not 0 <= self.nightly_train_hour <= 23:
            raise RankerError("nightly_train_hour must be an hour of day")
        if self.rng_seed < 0:
            raise RankerError(f"rng_seed must be >= 0, not {self.rng_seed}")
        if (self.mnpage_cap is not None
                and _integer(self.mnpage_cap, "mnpage_cap", RankerError) < 1):
            raise RankerError("mnpage_cap must be an integer >= 1")


def candidates(corpus: Corpus, at: float, window: float) -> list[Article]:
    """Articles published in the half-open window (at - window, at]."""
    if window <= 0:
        raise RankerError("window must be > 0")
    return corpus.published_between(at - window, at)


def _sort_items(scored: Iterable[tuple[Article, float]]) -> list[tuple[str, float]]:
    # Score descending, then newest publication, then lexicographic id.
    ordered = sorted(scored, key=lambda p: (-p[1], -p[0].published_at, p[0].id))
    return [(a.id, float(s)) for a, s in ordered]


def rank(model: TreeEnsemble, profile: UserProfile, cands: Sequence[Article],
         at: float, corpus: Corpus) -> RankedList:
    """Score candidates for one user and return the full MNPage ranking."""
    if not cands:
        return RankedList(profile.user_id, Section.MN_PAGE, at, ())
    ids = [a.id for a in cands]
    X = extract_matrix([profile], ids, at, corpus)
    scores = model.predict_matrix(X)
    items = _sort_items(zip(cands, scores))
    return RankedList(profile.user_id, Section.MN_PAGE, at, tuple(items))


def slice_sections(full: RankedList, at: float, corpus: Corpus,
                   recommended: AbstractSet[str], mnpage_cap: Optional[int]
                   ) -> dict[Section, RankedList]:
    """The widget, missed-last-week and page lists emitted for `full`, in
    that order, each built once: the strips keep the full list's order (age
    exactly 24h still counts as fresh), the page is cut to `mnpage_cap`
    items (None keeps all), and an item is labelled by `id in recommended`."""
    strips: dict[Section, list] = {Section.MN_WIDGET: [], Section.MISSED_LW: []}
    for aid, score in full.items:
        age = at - corpus.articles[aid].published_at
        if age <= WEEK:
            section = Section.MN_WIDGET if age <= DAY else Section.MISSED_LW
            if len(strips[section]) < SECTION_CAPS[section]:
                strips[section].append((aid, score))
    strips[Section.MN_PAGE] = full.items[:mnpage_cap]
    return {section: RankedList(full.user_id, section, at, tuple(items),
                                fallback=full.fallback,
                                rec_labels=tuple(aid in recommended for aid, _ in items))
            for section, items in strips.items()}


def dyn_score_at(published_at: float, t_start: float) -> float:
    """Recency score in [0, 1); 0 for anything published at or before t_start."""
    hours = (published_at - t_start) / 3600.0
    if hours <= 0.0:
        return 0.0
    return 1.0 - 1.0 / (1.0 + math.log(1.0 + hours))


def rerank(full: RankedList, blend_lambda: float, t_start: float,
           corpus: Corpus) -> RankedList:
    """Blend model scores with recency: lambda*S + (1-lambda)*dyn, then
    re-sort. Membership is unchanged; lambda=1 keeps the input order."""
    if not 0.0 <= blend_lambda <= 1.0:
        raise RankerError("lambda must be in [0, 1]")
    rescored = []
    for aid, score in full.items:
        art = corpus.articles[aid]
        rescored.append((art, blend_lambda * score + (1.0 - blend_lambda)
                         * dyn_score_at(art.published_at, t_start)))
    return RankedList(full.user_id, full.section, full.at,
                      tuple(_sort_items(rescored)), fallback=full.fallback)


# --------------------------------------------------------------------------
# Nightly training schedule
# --------------------------------------------------------------------------

def _nightly_times(cfg: PipelineConfig, t_end: float) -> list[float]:
    first_day = day_start(cfg.t_start)
    times = []
    t = first_day + cfg.nightly_train_hour * 3600.0
    while t < t_end:
        if t >= cfg.t_start:
            times.append(t)
        t += DAY
    return times


def train_schedule(corpus: Corpus, cfg: PipelineConfig,
                   t_end: Optional[float] = None) -> list[tuple[float, TreeEnsemble]]:
    """Train the nightly models over the horizon.

    At each nightly time, examples are built per-day over the previous
    seven calendar days and stacked in date order; a night whose examples
    hold no click or no non-click produces no model (the previous one stays
    active). Per-day sampling seeds derive from rng_seed and the day
    ordinal, so the schedule is reproducible, and each day's examples are
    built once and shared by the nights whose window holds it.
    """
    if t_end is None:
        t_end = corpus.time_span()[1]
    schedule: list[tuple[float, TreeEnsemble]] = []
    by_day: dict[dt.date, tuple[np.ndarray, np.ndarray]] = {}
    for t in _nightly_times(cfg, t_end):
        day0 = utc_date(t)
        days = [day0 - dt.timedelta(days=back) for back in range(7, 0, -1)]
        for day in days:
            if day not in by_day:
                seed = cfg.rng_seed * 100003 + day.toordinal()
                by_day[day] = build_training_set(corpus, day, seed)[:2]
        X = np.concatenate([by_day[day][0] for day in days])
        y = np.concatenate([by_day[day][1] for day in days])
        by_day.pop(days[0])  # no later night's window holds it
        if not 0 < y.sum() < len(y):
            continue
        schedule.append((t, train(X, y, cfg.train)))
    return schedule


# --------------------------------------------------------------------------
# Pipeline
# --------------------------------------------------------------------------

def _utc(t: float) -> str:
    return dt.datetime.fromtimestamp(t, tz=dt.timezone.utc).isoformat()


@dataclass(frozen=True, slots=True)
class _Tick:
    """One serving instant's candidates as arrays, in `candidates` order:
    their rows in the corpus's `article_table`, which sort like their ids
    because the table's ids are sorted, negated publication times, recency
    scores, and the widget (age <= 24h) and missed-last-week (24h < age <= 7d)
    masks."""
    at: float
    ids: list[str]
    rows: np.ndarray
    neg_published: np.ndarray
    dyn: np.ndarray
    fresh: np.ndarray
    missed: np.ndarray


def _tick(table: ArticleFeatureCache, dyn: np.ndarray, at: float,
          cands: Sequence[Article]) -> _Tick:
    ids = [a.id for a in cands]
    rows = table.rows(ids)
    published = table.published[rows]
    age = at - published
    # the WEEK bound matters when the candidate window is longer than 7 days
    return _Tick(at, ids, rows, -published, dyn[rows], age <= DAY,
                 (age > DAY) & (age <= WEEK))


def _emit_block(out: list[RankedList], corpus: Corpus, cfg: PipelineConfig,
                model: Optional[TreeEnsemble], profiles: ProfileCache,
                users: Sequence[str], tick: _Tick) -> None:
    """Append each user's widget, missed-last-week and page lists at
    `tick.at`, user by user: the lists `rank` (or the recency fallback),
    `rerank` under DYNAMISM and `slice_sections` give, from one feature
    matrix, one model call and one sort of the (user, candidate) score array.
    Labels are the model scores before the blend against the threshold."""
    shape = (len(users), len(tick.ids))
    if model is None:
        scores, labels = np.broadcast_to(tick.dyn, shape), np.zeros(shape, dtype=bool)
    else:
        X = extract_matrix([profiles.get(user, tick.at) for user in users], tick.ids,
                           tick.at, corpus)
        scores = model.predict_matrix(X).reshape(shape)
        labels = scores >= cfg.rec_label_threshold
        if cfg.treatment is Treatment.DYNAMISM:
            lam = cfg.blend_lambda
            scores = lam * scores + (1.0 - lam) * tick.dyn
    # `_sort_items`' key: score descending, newest first, then id (as row)
    order = np.lexsort((np.broadcast_to(tick.rows, shape),
                        np.broadcast_to(tick.neg_published, shape), -scores), axis=-1)
    for user, user_order, user_scores, user_labels in zip(users, order, scores, labels):
        for section, picked in (
                (Section.MN_WIDGET,
                 user_order[tick.fresh[user_order]][:SECTION_CAPS[Section.MN_WIDGET]]),
                (Section.MISSED_LW,
                 user_order[tick.missed[user_order]][:SECTION_CAPS[Section.MISSED_LW]]),
                (Section.MN_PAGE, user_order[:cfg.mnpage_cap])):
            out.append(RankedList(user, section, tick.at,
                                  tuple(zip([tick.ids[i] for i in picked.tolist()],
                                            user_scores[picked].tolist())),
                                  fallback=model is None,
                                  rec_labels=tuple(user_labels[picked].tolist())))


def run_pipeline(corpus: Corpus, cfg: PipelineConfig, users: Sequence[str],
                 models: Sequence[tuple[float, TreeEnsemble]],
                 t_end: Optional[float] = None) -> list[RankedList]:
    """Simulate the serving schedule over [t_start, t_end).

    Emits, in chronological order, every user's section lists at each
    refresh tick plus an extra regeneration for a user immediately after
    each of their clicks. Until the first nightly model exists users get
    recency-ordered lists flagged as fallback. `models` is the nightly
    schedule (from `train_schedule`), which treatments share. Its times must
    increase strictly; a model serves from its time (inclusive) until the
    next one's.
    """
    if t_end is None:
        t_end = corpus.time_span()[1]
    if t_end <= cfg.t_start:
        raise RankerError("empty horizon")
    table = article_table(corpus)
    times = [t for t, _ in models]
    for i, (t, model) in enumerate(models):
        if i and t <= times[i - 1]:
            raise RankerError(
                f"model schedule out of order: model {i} active from {_utc(t)} does not "
                f"follow model {i - 1} active from {_utc(times[i - 1])}")
        error = model.schema_error(table.width)
        if error:
            raise RankerError(f"model active from {_utc(t)}: {error}")

    # Event queue ordered by (time, priority): refreshes precede click
    # triggers at equal timestamps.
    REFRESH, CLICK = 0, 1
    queue: list[tuple[float, int, Optional[str]]] = []
    t = cfg.t_start
    while t < t_end:
        queue.append((t, REFRESH, None))
        t += cfg.refresh_interval
    user_set = set(users)
    for ev in corpus.events_between(cfg.t_start, t_end):
        if ev.kind is Kind.CLICK and ev.user_id in user_set:
            queue.append((ev.at, CLICK, ev.user_id))
    queue.sort(key=lambda q: (q[0], q[1], q[2] or ""))

    out: list[RankedList] = []
    ordered_users = sorted(user_set)
    profiles = ProfileCache(corpus)
    # `dyn_score_at` per article, once: np.log need not round like math.log
    dyn = np.array([dyn_score_at(p, cfg.t_start) for p in table.published.tolist()])
    for at, kind, uid in queue:
        # the latest model trained at or before `at`, if any
        i = bisect_right(times, at)
        active = models[i - 1][1] if i else None
        tick = _tick(table, dyn, at, candidates(corpus, at, cfg.candidate_window))
        tick_users = ordered_users if kind == REFRESH else [uid]
        step = max(1, _BLOCK_ROWS // max(len(tick.ids), 1))
        for lo in range(0, len(tick_users), step):
            _emit_block(out, corpus, cfg, active, profiles, tick_users[lo:lo + step], tick)
    return out


# --------------------------------------------------------------------------
# Manual (editorial) baseline
# --------------------------------------------------------------------------

def manual_updates_range(value) -> tuple[int, int]:
    """`value` as the (low, high) daily count of editorial updates: two
    integers with 0 <= low <= high and high >= 1, else RankerError."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in value)
            and 0 <= value[0] <= value[1] and value[1] >= 1):
        raise RankerError("must be two integers [low, high], 0 <= low <= high, high >= 1")
    return value[0], value[1]


def manual_lists(corpus: Corpus, t_start: float, t_end: float, rng_seed: int = 0,
                 updates_range: tuple[int, int] = (8, 16)) -> list[RankedList]:
    """Editor-curated top-5 stream, synthesized at irregular times (uniform
    count per day within `updates_range`, averaging ~12/day) by a
    non-personalized popularity-plus-noise score over the trailing 24h of
    publications. On file it is an emission log (`write_emissions`)."""
    low, high = manual_updates_range(updates_range)
    rng = np.random.default_rng(rng_seed)
    click_counts: dict[str, int] = {}
    click_events = [(e.at, e.article_id) for e in corpus.events if e.kind is Kind.CLICK]
    click_pos = 0

    out: list[RankedList] = []
    day = day_start(t_start)
    while day < t_end:
        n_updates = int(rng.integers(low, high + 1))
        times = np.sort(rng.uniform(6 * 3600, 23 * 3600, size=n_updates))
        for offset in times:
            at = day + float(offset)
            if not t_start <= at < t_end:
                continue
            while click_pos < len(click_events) and click_events[click_pos][0] <= at:
                aid = click_events[click_pos][1]
                click_counts[aid] = click_counts.get(aid, 0) + 1
                click_pos += 1
            pool = corpus.published_between(at - DAY, at)
            if not pool:
                continue
            # log damping keeps editor noise relevant once clicks accumulate
            scored = [(a, math.log1p(click_counts.get(a.id, 0)) + 1.5 * rng.random())
                      for a in pool]
            items = _sort_items(scored)[:5]
            out.append(RankedList(MANUAL_USER, Section.MANUAL, at, tuple(items)))
        day += DAY
    return out


# --------------------------------------------------------------------------
# Emission log (the substrate all metrics consume)
# --------------------------------------------------------------------------

def _emission_record(lst: RankedList) -> dict:
    record = {
        "user": lst.user_id,
        "section": lst.section.value,
        "at": lst.at,
        "ids": [aid for aid, _ in lst.items],
        "scores": [s for _, s in lst.items],
        "fallback": lst.fallback,
    }
    if lst.rec_labels is not None:
        record["rec_labels"] = list(lst.rec_labels)
    return record


def _parse_emission(obj) -> RankedList:
    ids, scores = _str_list(obj, "ids"), obj["scores"]
    if len(ids) != len(scores):
        raise RankerError(f"{len(ids)} ids but {len(scores)} scores")
    labels = obj.get("rec_labels")
    if labels is not None and (not isinstance(labels, list)
                               or any(not isinstance(x, bool) for x in labels)):
        raise TypeError("rec_labels must be a list of booleans")
    fallback = obj.get("fallback", False)
    if not isinstance(fallback, bool):
        raise TypeError(f"fallback must be a boolean, not {fallback!r}")
    return RankedList(
        user_id=_str(obj, "user"),
        section=Section(obj["section"]),
        at=_finite_number(obj["at"], "at"),
        items=tuple((aid, _finite_number(s, "a score")) for aid, s in zip(ids, scores)),
        fallback=fallback,
        rec_labels=tuple(labels) if labels is not None else None,
    )


def write_emissions(path: str | Path, emissions: Iterable[RankedList]) -> None:
    write_jsonl(path, map(_emission_record, emissions))


def read_emissions(path: str | Path,
                   check: Optional[Callable[[RankedList], None]] = None) -> list[RankedList]:
    """The lists of an emission log; a malformed line, or a list that
    `check` refuses with a ValueError, raises RankerError naming path:line."""
    def parse(obj) -> RankedList:
        lst = _parse_emission(obj)
        if check is not None:
            check(lst)
        return lst

    return read_jsonl(path, parse, RankerError)
