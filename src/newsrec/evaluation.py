"""Offline accuracy evaluation, two-sample significance testing, treatment
comparison, and the before/after behavior-shift report.

Accuracy follows the replay protocol: per user-day with at least one click,
the day's displayed articles (clicked plus seen-not-clicked) are re-ranked
by the model trained through the previous day, and binary-gain NDCG and
P/R@k are macro-averaged over user-days.

The two-sample t statistic (pooled Student by default, Welch by flag) gets
its two-sided p-value from the regularized incomplete beta function,
evaluated by a continued fraction to 1e-10 absolute tolerance.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import (DAY, Article, Corpus, Kind, _integer, date_start, day_start,
                     utc_date)
from .features import (ProfileCache, UserProfile, article_table, build_profile,
                       extract_matrix)
from .gbdt import TreeEnsemble
from .ranker import RankedList, Section, _sort_items, _utc
from .usefulness import (AttributeKind, CoverageScope, MetricSample, align, coverage,
                         dynamism, intra_list_diversity, serendipity, sim, unexpectedness)


class EvalError(ValueError):
    pass


# --------------------------------------------------------------------------
# Ranking accuracy
# --------------------------------------------------------------------------

def ndcg(ranking: Sequence[str], clicked: set[str]) -> Optional[float]:
    """Binary-gain NDCG: DCG over 1-based ranks with 1/log2(i+1) discounts,
    ideal DCG places every clicked item at the top. None (no sample) when
    the ranking is empty or contains no clicked item."""
    if not ranking or not clicked:
        return None
    dcg = sum(1.0 / math.log2(i + 2) for i, aid in enumerate(ranking) if aid in clicked)
    if dcg == 0.0:
        return None
    idcg = sum(1.0 / math.log2(i + 2) for i in range(len(clicked)))
    return dcg / idcg


def precision_recall_at(ranking: Sequence[str], clicked: set[str],
                        k: int) -> Optional[tuple[float, float]]:
    """(P@k, R@k); the precision denominator stays k even for short
    rankings. None (no sample) when there are no clicks."""
    if not clicked:
        return None
    hits = sum(1 for aid in ranking[:k] if aid in clicked)
    return hits / k, hits / len(clicked)


@dataclass
class AccuracyReport:
    ndcg: float
    p_at: dict[int, float]
    r_at: dict[int, float]
    n_user_days: int

    def validate(self) -> None:
        values = [self.ndcg, *self.p_at.values(), *self.r_at.values()]
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise EvalError("accuracy metrics must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "ndcg": self.ndcg,
            "p_at": {str(k): v for k, v in sorted(self.p_at.items())},
            "r_at": {str(k): v for k, v in sorted(self.r_at.items())},
            "n_user_days": self.n_user_days,
        }


# A scorer maps (profile, candidate articles, time) to an array of scores.
Scorer = Callable[[UserProfile, Sequence[Article], float], np.ndarray]


def ensemble_scorer(model: TreeEnsemble, corpus: Corpus) -> Scorer:
    error = model.schema_error(article_table(corpus).width)
    if error:
        raise EvalError(error)

    def score(profile: UserProfile, articles: Sequence[Article], at: float) -> np.ndarray:
        X = extract_matrix([profile], [a.id for a in articles], at, corpus)
        return model.predict_matrix(X)

    return score


def scorers_from_schedule(schedule: Sequence[tuple[float, TreeEnsemble]],
                          corpus: Corpus) -> dict[dt.date, Scorer]:
    """Map each serving day to the scorer of the model trained that night
    (i.e. on data through the previous day)."""
    out: dict[dt.date, Scorer] = {}
    for t, model in schedule:
        day = utc_date(t)
        out[day] = ensemble_scorer(model, corpus)
    return out


def _user_day_candidates(corpus: Corpus, day_ts: float
                         ) -> dict[str, tuple[set[str], list[str]]]:
    """Per user: (clicked ids, clicked + displayed-not-clicked ids)."""
    events = corpus.events_between(day_ts, day_ts + DAY)
    clicked: dict[str, set[str]] = {}
    shown: dict[str, set[str]] = {}
    for ev in events:
        if ev.kind is Kind.CLICK:
            clicked.setdefault(ev.user_id, set()).add(ev.article_id)
        else:
            shown.setdefault(ev.user_id, set()).add(ev.article_id)
    out = {}
    for uid, clicks in clicked.items():
        pool = clicks | shown.get(uid, set())
        out[uid] = (clicks, sorted(pool))
    return out


def offline_eval(corpus: Corpus, scorers: Mapping[dt.date, Scorer],
                 ks: Sequence[int] = (5, 10)) -> AccuracyReport:
    """Replay each user-day's displayed articles through that day's model,
    for every day of `scorers` in date order.

    `scorers` maps each day to the scorer of the model trained through the
    previous day (see `scorers_from_schedule`). User-days without clicks
    are skipped (macro-averaging over defined samples only). Each k of `ks`
    must be an integer >= 1, listed once; any other is refused before the
    replay. Scorer output other than one finite score per pool article
    raises EvalError.
    """
    for i, k in enumerate(ks):
        if _integer(k, "k", EvalError) < 1:
            raise EvalError(f"k must be >= 1, not {k}")
        if k in ks[:i]:  # each user-day would be counted once per listing
            raise EvalError(f"k {k} is listed more than once")
    ndcg_samples: list[float] = []
    pr_samples: dict[int, list[tuple[float, float]]] = {k: [] for k in ks}
    for day, scorer in sorted(scorers.items()):
        day_ts = date_start(day)
        per_user = _user_day_candidates(corpus, day_ts)
        for uid in sorted(per_user):
            clicks, pool_ids = per_user[uid]
            articles = [corpus.articles[aid] for aid in pool_ids]
            profile = build_profile(corpus, uid, day_ts)
            scores = np.asarray(scorer(profile, articles, day_ts))
            where, n = f"scorer of {day}, user {uid!r}", len(articles)
            if scores.shape != (n,):
                got = len(scores) if scores.ndim == 1 else f"shape {scores.shape}"
                raise EvalError(f"{where}: {got} scores for {n} pool articles")
            if not np.isfinite(scores).all():
                raise EvalError(f"{where}: score {scores[~np.isfinite(scores)][0]} is not finite")
            ranking = _sort_items(zip(articles, scores))[0]
            value = ndcg(ranking, clicks)
            if value is None:
                continue
            ndcg_samples.append(value)
            for k in ks:
                pr = precision_recall_at(ranking, clicks, k)
                assert pr is not None
                pr_samples[k].append(pr)
    if not ndcg_samples:
        raise EvalError("no user-days with clicks in the requested range")
    report = AccuracyReport(
        ndcg=sum(ndcg_samples) / len(ndcg_samples),
        p_at={k: sum(p for p, _ in v) / len(v) for k, v in pr_samples.items()},
        r_at={k: sum(r for _, r in v) / len(v) for k, v in pr_samples.items()},
        n_user_days=len(ndcg_samples),
    )
    report.validate()
    return report


# --------------------------------------------------------------------------
# Two-sample t-test
# --------------------------------------------------------------------------

class TTestVariant(Enum):
    STUDENT = "student"
    WELCH = "welch"


@dataclass(frozen=True)
class SampleSummary:
    n: int
    mean: float
    sd: float

    def to_dict(self) -> dict:
        return {"n": self.n, "mean": self.mean, "sd": self.sd}


@dataclass
class ComparisonReport:
    metric: str
    group_a: SampleSummary
    group_b: SampleSummary
    t_stat: float
    p_value: float
    significant: bool
    variant: TTestVariant = TTestVariant.STUDENT
    df: float = 0.0

    def validate(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise EvalError(f"{self.metric}: p-value {self.p_value} outside [0, 1]")
        if self.significant != (self.p_value < SIGNIFICANCE_LEVEL):
            raise EvalError(f"{self.metric}: significance flag inconsistent")

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "group_a": self.group_a.to_dict(),
            "group_b": self.group_b.to_dict(),
            "t_stat": self.t_stat,
            "df": self.df,
            "p_value": self.p_value,
            "significant": self.significant,
            "variant": self.variant.value,
        }


_BETA_TOL = 1e-10
SIGNIFICANCE_LEVEL = 0.05  # a report is significant when p < SIGNIFICANCE_LEVEL


def _beta_cont_fraction(a: float, b: float, x: float) -> float:
    # Lentz's algorithm for the incomplete beta continued fraction.
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        coef = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        coef = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise EvalError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) to 1e-10 absolute tolerance."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_fraction(a, b, x) / a
    return 1.0 - front * _beta_cont_fraction(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided p-value of a t statistic."""
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / (df + t * t), df / 2.0, 0.5)


def t_test(sample_a: Sequence[float], sample_b: Sequence[float],
           variant: TTestVariant = TTestVariant.STUDENT,
           metric: str = "") -> ComparisonReport:
    """Two-sample t-test. Student pools variances with df = na + nb - 2;
    Welch uses the Welch-Satterthwaite degrees of freedom."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise EvalError("each sample needs n >= 2")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise EvalError("samples must be finite")
    na, nb = len(a), len(b)
    ma, mb = float(a.mean()), float(b.mean())
    va, vb = float(a.var(ddof=1)), float(b.var(ddof=1))

    if variant is TTestVariant.STUDENT:
        df = float(na + nb - 2)
        sp2 = ((na - 1) * va + (nb - 1) * vb) / df
        se = math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    else:
        sa, sb = va / na, vb / nb
        se = math.sqrt(sa + sb)
        if se > 0.0:
            df = (sa + sb) ** 2 / (sa * sa / (na - 1) + sb * sb / (nb - 1))
        else:
            df = float(na + nb - 2)

    if se == 0.0:
        if ma == mb:
            t, p = 0.0, 1.0
        else:
            t = math.inf if ma > mb else -math.inf
            p = 0.0
    else:
        t = (ma - mb) / se
        p = t_sf_two_sided(t, df)

    report = ComparisonReport(
        metric=metric,
        group_a=SampleSummary(na, ma, math.sqrt(va)),
        group_b=SampleSummary(nb, mb, math.sqrt(vb)),
        t_stat=t,
        p_value=p,
        significant=p < SIGNIFICANCE_LEVEL,
        variant=variant,
        df=df,
    )
    report.validate()
    return report


def _t_tests(tests: Iterable[tuple[str, Sequence[float], Sequence[float]]],
             variant: TTestVariant) -> list[ComparisonReport]:
    """One `t_test` per `(metric, sample_a, sample_b)`, in order. A metric
    whose samples are too small to test (n < 2 on either side) is left out,
    so a short horizon drops a metric rather than failing the study."""
    return [t_test(a, b, variant=variant, metric=metric)
            for metric, a, b in tests if len(a) >= 2 and len(b) >= 2]


# --------------------------------------------------------------------------
# Metric sample collection over emission logs
# --------------------------------------------------------------------------

ALL_ATTRIBUTES = (AttributeKind.SECTION, AttributeKind.TAGS,
                  AttributeKind.AUTHORS, AttributeKind.EMBEDDING)
STUDY_METRICS = ("dynamism", "serendipity", "coverage", "diversity")
COVERAGE_SCOPES = (CoverageScope.PER_USER, CoverageScope.ALL_USERS)
TOP_N = 5  # the studies measure each emitted list's top 5


def _consecutive_dynamism(lists: Iterable[RankedList]) -> list[Optional[float]]:
    """Per list, in the order given: its dynamism against the previous list
    of its (user, section) stream; None for a stream's first list and for an
    empty list."""
    previous: dict[tuple[str, Section], RankedList] = {}
    out = []
    for lst in lists:
        key = (lst.user_id, lst.section)
        prev = previous.get(key)
        out.append(None if prev is None else dynamism(prev, lst))
        previous[key] = lst
    return out


def _daily_coverage(corpus: Corpus, served: Iterable[tuple[float, RankedList | Sequence[str]]],
                    scopes: Sequence[CoverageScope]) -> dict[float, list[float]]:
    """Per UTC day that published anything, in day order: the coverage of
    that day's served lists over `corpus.published_on(day)`, one value per
    scope. `served` pairs each list with a time on its day."""
    by_day: dict[float, list] = {}
    for at, lst in served:
        by_day.setdefault(day_start(at), []).append(lst)
    out = {}
    for day_ts in sorted(by_day):
        published = [a.id for a in corpus.published_on(day_ts)]
        if published:
            out[day_ts] = [coverage(by_day[day_ts], published, scope) for scope in scopes]
    return out


def _articles(corpus: Corpus, ids: Iterable[str]) -> list[Article]:
    return [corpus.articles[aid] for aid in ids]


def _by_attribute(terms: Sequence[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Per attribute of ALL_ATTRIBUTES, its value of each term 4-tuple, in
    the terms' order."""
    return list(zip(*terms)) if terms else [()] * len(ALL_ATTRIBUTES)


class _ListValues:
    """One study call's diversity and serendipity values, each distinct list's
    computed once: the four `intra_list_diversity` values (ALL_ATTRIBUTES
    order) keyed by the list's id tuple, and the four `serendipity` values
    keyed by (id tuple, `ProfileCache.window_key` of the profile).

    Below them, each term is computed once too: the four `sim` values of an
    article pair keyed by the ordered id pair (the list's earlier id first),
    and the four `unexpectedness` values of an item keyed by (window key,
    article id). A list's values are the definitions called with its terms
    in their order, so a repeated key returns the floats a new call would.
    A study makes one memo, with its own `ProfileCache`, and drops both."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.profiles = ProfileCache(corpus)
        self._diversity: dict[tuple[str, ...], tuple[Optional[float], ...]] = {}
        self._serendipity: dict[tuple, tuple[Optional[float], ...]] = {}
        self._pairs: dict[tuple[str, str], tuple[float, ...]] = {}
        self._items: dict[tuple, tuple[float, ...]] = {}

    def diversity(self, ids: tuple[str, ...]) -> tuple[Optional[float], ...]:
        values = self._diversity.get(ids)
        if values is None:
            articles = _articles(self.corpus, ids)
            pairs = [self._pair(a, b) for i, a in enumerate(articles) for b in articles[i + 1:]]
            values = tuple(intra_list_diversity(articles, attr, sims=sims)
                           for attr, sims in zip(ALL_ATTRIBUTES, _by_attribute(pairs)))
            self._diversity[ids] = values
        return values

    def serendipity(self, ids: tuple[str, ...], user_id: str, at: float
                    ) -> tuple[Optional[float], ...]:
        """The list's serendipity for `user_id`'s profile at `at`; an empty
        list has none, so it reads no profile."""
        window = self.profiles.window_key(user_id, at) if ids else None
        key = (ids, window)
        values = self._serendipity.get(key)
        if values is None:
            articles = _articles(self.corpus, ids)
            profile = self.profiles.get(user_id, at) if ids else None
            items = [self._item(window, a, profile) for a in articles]
            values = tuple(serendipity(articles, profile, attr, terms=terms)
                           for attr, terms in zip(ALL_ATTRIBUTES, _by_attribute(items)))
            self._serendipity[key] = values
        return values

    def _pair(self, a: Article, b: Article) -> tuple[float, ...]:
        key = (a.id, b.id)
        terms = self._pairs.get(key)
        if terms is None:
            terms = tuple(sim(a, b, attr) for attr in ALL_ATTRIBUTES)
            self._pairs[key] = terms
        return terms

    def _item(self, window: tuple, article: Article, profile: UserProfile
              ) -> tuple[float, ...]:
        key = (window, article.id)
        terms = self._items.get(key)
        if terms is None:
            terms = tuple(unexpectedness(article, profile, attr) for attr in ALL_ATTRIBUTES)
            self._items[key] = terms
        return terms


def _metric_pass(emissions: Sequence[RankedList], memo: _ListValues):
    """The one metric pass over a stream: per list in (at, user, section)
    order, its top-TOP_N cut, the cut's dynamism within its (user, section)
    stream, and the cut's diversity and serendipity per attribute (tuples in
    ALL_ATTRIBUTES order, each value None where undefined); then the cuts'
    `_daily_coverage` in COVERAGE_SCOPES."""
    ordered = sorted(emissions, key=lambda l: (l.at, l.user_id, l.section.value))
    tops = [lst.top(TOP_N) for lst in ordered]
    divs, sers = [], []
    for top in tops:
        divs.append(memo.diversity(top.ids))
        sers.append(memo.serendipity(top.ids, top.user_id, top.at))
    daily = _daily_coverage(memo.corpus, ((t.at, t) for t in tops), COVERAGE_SCOPES)
    return tops, _consecutive_dynamism(tops), divs, sers, daily


def collect_metric_samples(streams: Mapping[str, Sequence[RankedList]], corpus: Corpus
                           ) -> list[MetricSample]:
    """The audit CSV's MetricSample rows of each treatment's emission stream,
    streams in mapping order, each labelled with its treatment name. From
    `_metric_pass`, with one memo for all streams: per list, its dynamism,
    then per attribute its diversity and serendipity; then per day its
    coverage in each scope."""
    memo = _ListValues(corpus)  # one for all streams
    rows: list[MetricSample] = []
    for treatment, emissions in streams.items():
        tops, dyns, divs, sers, daily = _metric_pass(emissions, memo)
        for top, dyn, list_divs, list_sers in zip(tops, dyns, divs, sers):
            section, at = top.section.value, top.at
            if dyn is not None:
                rows.append(MetricSample("dynamism", dyn, None, treatment, section, at))
            for attr, div, ser in zip(ALL_ATTRIBUTES, list_divs, list_sers):
                if div is not None:
                    rows.append(MetricSample("diversity", div, attr, treatment, section, at))
                if ser is not None:
                    rows.append(MetricSample("serendipity", ser, attr, treatment, section, at))
        for day_ts, values in daily.items():
            rows.extend(MetricSample("coverage", value, None, treatment, scope.value, day_ts)
                        for scope, value in zip(COVERAGE_SCOPES, values))
    return rows


def _clicks_by_user_day_section(corpus: Corpus) -> dict[tuple[str, float, Section], set[str]]:
    """Click ids grouped by (user, day, section), using each click event's
    display context to attribute it to a section; a click whose context
    names no section is left out."""
    sections = {s.value: s for s in Section}
    out: dict[tuple[str, float, Section], set[str]] = {}
    for ev in corpus.events:
        if ev.kind is not Kind.CLICK:
            continue
        section = sections.get(ev.context.value)
        if section is None:
            continue
        key = (ev.user_id, day_start(ev.at), section)
        out.setdefault(key, set()).add(ev.article_id)
    return out


def ndcg_by_section(emissions: Sequence[RankedList], corpus: Corpus
                    ) -> dict[Section, list[float]]:
    """Table-8-style samples: per (user, day, section), the mean NDCG of
    that day's emitted lists against the user's same-section clicks."""
    clicks = _clicks_by_user_day_section(corpus)
    acc: dict[tuple[str, float, Section], list[float]] = {}
    for lst in emissions:
        if lst.section is Section.MANUAL:
            continue
        key = (lst.user_id, day_start(lst.at), lst.section)
        clicked = clicks.get(key)
        if not clicked:
            continue
        value = ndcg(lst.ids, clicked)
        if value is not None:
            acc.setdefault(key, []).append(value)
    out: dict[Section, list[float]] = {
        Section.MN_WIDGET: [], Section.MISSED_LW: [], Section.MN_PAGE: [],
    }
    for key in sorted(acc, key=lambda k: (k[1], k[0], k[2].value)):
        out[key[2]].append(sum(acc[key]) / len(acc[key]))
    return out


def compare_treatments(emissions_a: Sequence[RankedList],
                       emissions_b: Sequence[RankedList], corpus: Corpus,
                       variant: TTestVariant = TTestVariant.STUDENT
                       ) -> list[ComparisonReport]:
    """Usefulness metrics plus per-section NDCG of two treatment streams,
    each compared with a two-sample t-test (group_a vs group_b). From
    `_metric_pass`, in its list order: dynamism per list that has one,
    diversity and serendipity per list as the mean over its attributes, and
    all-users coverage per day. Metrics too small to test are left out
    (see `_t_tests`)."""
    if not emissions_a or not emissions_b:
        raise EvalError("empty emission stream")
    memo = _ListValues(corpus)  # one for both streams
    samples = []
    for emissions in (emissions_a, emissions_b):
        _, dyns, divs, sers, daily = _metric_pass(emissions, memo)
        samples.append({
            "dynamism": [v for v in dyns if v is not None],
            "serendipity": [sum(v) / len(ALL_ATTRIBUTES) for v in sers if None not in v],
            "coverage": [all_users for _, all_users in daily.values()],
            "diversity": [sum(v) / len(ALL_ATTRIBUTES) for v in divs if None not in v],
        })
    samples_a, samples_b = samples
    ndcg_a = ndcg_by_section(emissions_a, corpus)
    ndcg_b = ndcg_by_section(emissions_b, corpus)
    sections = (Section.MISSED_LW, Section.MN_WIDGET, Section.MN_PAGE)
    return _t_tests([(m, samples_a[m], samples_b[m]) for m in STUDY_METRICS]
                    + [(f"ndcg_{s.value}", ndcg_a[s], ndcg_b[s]) for s in sections],
                    variant)


def compare_manual_recsys(manual_stream: Sequence[RankedList],
                          recsys_stream: Sequence[RankedList], corpus: Corpus,
                          variant: TTestVariant = TTestVariant.STUDENT
                          ) -> list[ComparisonReport]:
    """Manual-curation baseline vs personalized lists (group_a = manual).

    Of `recsys_stream` only the widget lists served by a model count: the
    editors' top 5 is compared with the MN widget, and fallback lists are
    no recommendations. Updates are aligned at manual timestamps: per manual
    update, each user's most recent widget list. Diversity and serendipity
    are compared per attribute over lists (manual serendipity is measured
    against each aligned user's own history); dynamism over consecutive
    lists (aligned and all-changes variants); coverage per day in both
    per-user and all-users scopes. Metrics too small to test are left out
    (see `_t_tests`), as in `compare_treatments`. A manual-stream list
    whose section is not MANUAL is refused with an EvalError.
    """
    for manual in manual_stream:
        if manual.section is not Section.MANUAL:
            raise EvalError(f"the manual stream holds a {manual.section.value} list "
                            f"(user {manual.user_id!r}, at {_utc(manual.at)})")
    recsys_stream = [l for l in recsys_stream
                     if l.section is Section.MN_WIDGET and not l.fallback]
    if not manual_stream or not recsys_stream:
        raise EvalError("empty emission stream (no manual or model-served widget lists)")
    manual_stream = sorted(manual_stream, key=lambda l: l.at)
    pairs = align(manual_stream, recsys_stream)
    if not pairs:
        raise EvalError("alignment produced no pairs")
    memo = _ListValues(corpus)

    # per list, values in ALL_ATTRIBUTES order: manual diversity per manual
    # list; per aligned pair, the recsys list's diversity and both lists'
    # serendipity for the aligned user at the manual update
    manual_div = [memo.diversity(manual.ids) for manual in manual_stream]
    recsys_div, manual_ser, recsys_ser = [], [], []
    for manual, lst in pairs:
        recsys_div.append(memo.diversity(lst.ids))
        manual_ser.append(memo.serendipity(manual.ids, lst.user_id, manual.at))
        recsys_ser.append(memo.serendipity(lst.ids, lst.user_id, manual.at))

    def defined(values: Iterable[Optional[float]]) -> list[float]:
        return [v for v in values if v is not None]

    tests = []
    for metric, samples_a, samples_b in (("diversity", manual_div, recsys_div),
                                         ("serendipity", manual_ser, recsys_ser)):
        for i, attr in enumerate(ALL_ATTRIBUTES):
            tests.append((f"{metric}_{attr.value}", defined(v[i] for v in samples_a),
                          defined(v[i] for v in samples_b)))

    manual_dyn = defined(_consecutive_dynamism(manual_stream))
    # users in id order, each user's lists in stream order
    aligned_dyn = defined(_consecutive_dynamism(
        sorted((lst for _, lst in pairs), key=lambda l: l.user_id)))
    all_dyn = defined(_consecutive_dynamism(
        sorted(recsys_stream, key=lambda l: (l.user_id, l.at))))
    tests.append(("dynamism_aligned", manual_dyn, aligned_dyn))
    tests.append(("dynamism_all", manual_dyn, all_dyn))

    manual_cov = _daily_coverage(corpus, ((l.at, l) for l in manual_stream),
                                 (CoverageScope.ALL_USERS,))
    recsys_cov = _daily_coverage(corpus, ((l.at, l) for l in recsys_stream), COVERAGE_SCOPES)
    days = [day_ts for day_ts in manual_cov if day_ts in recsys_cov]
    for i, scope in enumerate(COVERAGE_SCOPES):
        tests.append((f"coverage_{scope.value}", [manual_cov[d][0] for d in days],
                      [recsys_cov[d][i] for d in days]))
    return _t_tests(tests, variant)


def behavior_shift(corpus: Corpus, before: tuple[float, float],
                   after: tuple[float, float],
                   variant: TTestVariant = TTestVariant.STUDENT
                   ) -> list[ComparisonReport]:
    """Reading-behavior comparison between two periods: per-user daily-click
    diversity per attribute, plus all-users daily coverage of clicks.
    Metrics too small to test are left out (see `_t_tests`), as in the
    studies: a one-day period has one coverage value, so it drops coverage."""

    def period_samples(t0: float, t1: float):
        clicks: dict[tuple[str, float], list[str]] = {}
        for ev in corpus.events_between(t0, t1):
            if ev.kind is Kind.CLICK:
                key = (ev.user_id, day_start(ev.at))
                clicks.setdefault(key, []).append(ev.article_id)
        if not clicks:
            raise EvalError("period has no clicks")
        div: dict[AttributeKind, list[float]] = {a: [] for a in ALL_ATTRIBUTES}
        for key in sorted(clicks):
            articles = _articles(corpus, clicks[key])
            for attr in ALL_ATTRIBUTES:
                value = intra_list_diversity(articles, attr)
                if value is not None:
                    div[attr].append(value)
        daily = _daily_coverage(corpus, ((day_ts, ids) for (_, day_ts), ids in clicks.items()),
                                (CoverageScope.ALL_USERS,))
        return div, [values[0] for values in daily.values()]

    div_before, cov_before = period_samples(*before)
    div_after, cov_after = period_samples(*after)
    return _t_tests([(f"click_diversity_{attr.value}", div_before[attr], div_after[attr])
                     for attr in ALL_ATTRIBUTES]
                    + [("coverage", cov_before, cov_after)], variant)


# --------------------------------------------------------------------------
# Plain-text report tables
# --------------------------------------------------------------------------

def format_accuracy_table(report: AccuracyReport) -> str:
    ks = sorted(report.p_at)
    header = ["NDCG"] + [f"R@{k}" for k in ks] + [f"P@{k}" for k in ks]
    row = [f"{report.ndcg:.4f}"] + [f"{report.r_at[k]:.4f}" for k in ks] \
        + [f"{report.p_at[k]:.4f}" for k in ks]
    width = max(len(c) for c in header + row) + 2
    lines = ["".join(c.rjust(width) for c in header),
             "".join(c.rjust(width) for c in row),
             f"  (n_user_days = {report.n_user_days})"]
    return "\n".join(lines)


def format_comparison_table(reports: Sequence[ComparisonReport],
                            label_a: str = "A", label_b: str = "B") -> str:
    head = f"{'metric':<28}{label_a:>12}{label_b:>12}{'t':>10}{'p':>10}  sig"
    lines = [head, "-" * len(head)]
    for r in reports:
        lines.append(
            f"{r.metric:<28}{r.group_a.mean:>12.4f}{r.group_b.mean:>12.4f}"
            f"{r.t_stat:>10.3f}{r.p_value:>10.4f}  {'*' if r.significant else ''}"
        )
    return "\n".join(lines)
