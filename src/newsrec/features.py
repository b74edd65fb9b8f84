"""Feature extraction: (user history, article, time) -> fixed-width vectors.

Three families mirror the serving model's inputs: article features (hashed
section, counts, temporal, stylometric, embedding coordinates), user
features (7-day reading aggregates), and user-article compatibility
features (overlaps, cosine, length ratio, article age).

The exact schema is documented by `feature_names` / `write_schema`; its
width follows from `SECTION_BUCKETS` and the corpus's embedding width.
"""

from __future__ import annotations

import datetime as dt
import json
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import DAY, WEEK, Corpus, InteractionEvent, Kind, date_start

SCHEMA_VERSION = 1
SECTION_BUCKETS = 16  # hash buckets of the one-hot article section
TOP_K = 3  # most frequent values summed by the user_topk_*_mass features

_event_at = attrgetter("at")


class FeatureError(ValueError):
    pass


def stable_bucket(value: str, buckets: int) -> int:
    """Deterministic string -> bucket index (crc32; stable across runs)."""
    return zlib.crc32(value.encode("utf-8")) % buckets


def feature_names(embedding_dim: int) -> list[str]:
    """The ordered feature schema; its length is the feature width."""
    names = [f"art_section_hash_{i}" for i in range(SECTION_BUCKETS)]
    names += [
        "art_tag_count", "art_author_count", "art_pub_hour", "art_pub_dow",
        "art_word_count", "art_sentence_count", "art_paragraph_count",
        "art_char_length", "art_hapax_count", "art_dis_count",
    ]
    names += [f"art_emb_{i}" for i in range(embedding_dim)]
    names += [
        "user_mean_word_count", "user_n_clicks",
        "user_topk_tag_mass", "user_topk_author_mass", "user_topk_section_mass",
    ]
    names += [
        "ua_tag_jaccard", "ua_author_jaccard", "ua_section_match",
        "ua_embedding_cosine", "ua_length_ratio", "ua_age_hours",
    ]
    return names


def write_schema(embedding_dim: int, path: str | Path) -> None:
    """Dump the ordered feature schema for audit."""
    names = feature_names(embedding_dim)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "width": len(names),
        "section_buckets": SECTION_BUCKETS,
        "embedding_dim": embedding_dim,
        "top_k": TOP_K,
        "features": names,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


@dataclass(frozen=True)
class UserProfile:
    """Aggregate of one user's clicks in a 7-day window. Instants whose
    windows hold the same clicks may share one profile, so it is frozen and
    its `mean_embedding` array read-only (its norm is cached)."""

    user_id: str
    tag_freq: dict[str, int]
    author_freq: dict[str, int]
    section_freq: dict[str, int]
    mean_word_count: float
    mean_embedding: np.ndarray
    n_clicks: int

    def __post_init__(self):
        self.mean_embedding.flags.writeable = False

    @cached_property
    def embedding_norm(self) -> float:
        """Norm of `mean_embedding`, computed once per profile."""
        return float(np.linalg.norm(self.mean_embedding))


def empty_profile(user_id: str, embedding_dim: int) -> UserProfile:
    return UserProfile(user_id=user_id, tag_freq={}, author_freq={}, section_freq={},
                       mean_word_count=0.0, mean_embedding=np.zeros(embedding_dim),
                       n_clicks=0)


def _click_window(clicks: list[InteractionEvent], as_of: float) -> tuple[int, int]:
    """Positions `lo:hi` of the clicks with at in [as_of - 7d, as_of) in a
    user's time-sorted clicks."""
    lo = bisect_left(clicks, as_of - WEEK, key=_event_at)
    return lo, bisect_left(clicks, as_of, lo, key=_event_at)


def build_profile(corpus: Corpus, user_id: str, as_of: float) -> UserProfile:
    """Aggregate the user's Click events with at in [as_of - 7d, as_of).

    Unknown users get an empty profile; impressions never contribute.
    """
    clicks = corpus.clicks_of(user_id)
    lo, hi = _click_window(clicks, as_of)
    if lo == hi:
        return empty_profile(user_id, corpus.embedding_dim)
    tag_freq: dict[str, int] = {}
    author_freq: dict[str, int] = {}
    section_freq: dict[str, int] = {}
    emb_total = np.zeros(corpus.embedding_dim)
    wc_total = 0
    for ev in clicks[lo:hi]:
        art = corpus.articles[ev.article_id]
        for t in art.tags:
            tag_freq[t] = tag_freq.get(t, 0) + 1
        for a in art.authors:
            author_freq[a] = author_freq.get(a, 0) + 1
        section_freq[art.section] = section_freq.get(art.section, 0) + 1
        emb_total += art.embedding
        wc_total += art.word_count
    n = hi - lo
    return UserProfile(user_id, tag_freq, author_freq, section_freq,
                       wc_total / n, emb_total / n, n)


class ProfileCache:
    """`build_profile` results keyed by click window: instants whose
    [at - 7d, at) windows hold the same clicks of a user share one profile."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._cache: dict[tuple[str, int, int], UserProfile] = {}

    def window_key(self, user_id: str, at: float) -> tuple[str, int, int]:
        """The key `get` files the profile of `user_id` at `at` under:
        `(user, lo, hi)`, where `lo:hi` are the positions of `[at - 7d, at)`
        in the user's time-sorted clicks. Equal keys, equal profiles."""
        return (user_id, *_click_window(self.corpus.clicks_of(user_id), at))

    def get(self, user_id: str, at: float) -> UserProfile:
        key = self.window_key(user_id, at)
        if key not in self._cache:
            self._cache[key] = build_profile(self.corpus, user_id, at)
        return self._cache[key]


def _topk_mass(freq: dict[str, int], k: int) -> float:
    total = sum(freq.values())
    if total == 0:
        return 0.0
    top = sorted(freq.values(), reverse=True)[:k]
    return sum(top) / total


def _pub_hour(ts: float) -> float:
    return float(int(ts % DAY) // 3600)


def _pub_dow(ts: float) -> float:
    # Epoch day 0 (1970-01-01) was a Thursday; Monday = 0.
    return float((int(ts // DAY) + 3) % 7)


class _ValueTable:
    """One discrete attribute's value sets: which values of the corpus-wide
    vocabulary each article holds, as a 0/1 (article, value) matrix."""

    def __init__(self, value_sets: Sequence[frozenset[str]]):
        self.index = {v: j for j, v in enumerate(sorted(set().union(*value_sets)))}
        self.member = np.zeros((len(value_sets), len(self.index)))
        for i, values in enumerate(value_sets):
            for v in values:
                self.member[i, self.index[v]] = 1.0
        self.counts = self.member.sum(axis=1)

    def jaccard(self, rows: np.ndarray, value_sets: Sequence[Iterable[str]],
                out: np.ndarray) -> None:
        """Write into `out[u, i]` the Jaccard overlap of row `rows[i]`'s value
        set with `value_sets[u]`. An empty union (no value on either side)
        leaves 0.0 there; the article-article Jaccard in `usefulness` reads
        1.0 there."""
        held = np.zeros((len(value_sets), len(self.index)))
        for u, values in enumerate(value_sets):
            for v in values:
                j = self.index.get(v)
                if j is not None:
                    held[u, j] = 1.0
        # Sums of 0/1 terms are whole numbers far below 2**53, so this float
        # matmul counts exactly in any summation order, and the ratio below is
        # the correctly rounded quotient of two integers. It is several times
        # faster than numpy's integer matmul, which has no BLAS kernel.
        inter = held @ self.member[rows].T
        union = self.counts[rows] + held.sum(axis=1)[:, None] - inter
        np.divide(inter, union, out=out, where=union > 0)


class ArticleFeatureCache:
    """Precomputed per-article blocks so scoring can run matrix-at-a-time.

    One per corpus, from `article_table`; `extract_matrix` then assembles
    the rows of many profiles against one candidate set with numpy only.
    """

    def __init__(self, corpus: Corpus):
        self.width = len(feature_names(corpus.embedding_dim))
        self.ids = sorted(corpus.articles)
        self.index = {aid: i for i, aid in enumerate(self.ids)}
        arts = [corpus.articles[aid] for aid in self.ids]
        n = len(arts)

        b = SECTION_BUCKETS
        self.static = np.zeros((n, b + 10 + corpus.embedding_dim))
        for i, a in enumerate(arts):
            self.static[i, stable_bucket(a.section, b)] = 1.0
            self.static[i, b:b + 10] = (
                len(a.tags), len(a.authors), _pub_hour(a.published_at),
                _pub_dow(a.published_at), a.word_count, a.sentence_count,
                a.paragraph_count, a.char_length, a.hapax_count, a.dis_count)
            self.static[i, b + 10:] = a.embedding

        self.tags = _ValueTable([a.tags for a in arts])
        self.authors = _ValueTable([a.authors for a in arts])
        self.section_index = {sec: j for j, sec in enumerate(sorted({a.section for a in arts}))}
        self.section_codes = np.array([self.section_index[a.section] for a in arts],
                                      dtype=np.intp)
        self.word_counts = np.array([a.word_count for a in arts], dtype=np.float64)
        self.published = np.array([a.published_at for a in arts])
        self.emb = np.array([a.embedding for a in arts]).reshape(n, corpus.embedding_dim)
        self.emb_norm = np.linalg.norm(self.emb, axis=1)

    def rows(self, article_ids: Sequence[str]) -> np.ndarray:
        return np.array([self.index[aid] for aid in article_ids], dtype=np.intp)


def article_table(corpus: Corpus) -> ArticleFeatureCache:
    """The corpus's per-article feature table, built on its first use and
    kept with the corpus: a corpus is immutable, so its table never goes stale,
    and no caller can pair a corpus with another corpus's table."""
    if corpus._article_table is None:
        corpus._article_table = ArticleFeatureCache(corpus)
    return corpus._article_table


def extract_matrix(profiles: Sequence[UserProfile], article_ids: Sequence[str], at: float,
                   corpus: Corpus) -> np.ndarray:
    """The feature map: one row per (profile, article of `corpus`) pair,
    stacked so that profile u owns rows [u * n, (u + 1) * n) for n article
    ids; see `feature_names` for the exact layout. The article columns are
    gathered once and the profile columns filled for all profiles at once;
    each row equals the row of a one-profile call.

    Conventions for degenerate inputs: an empty profile gives zero
    overlaps, cosine 0 and length ratio 1; a zero mean word count also pins
    the ratio to 1, so every feature stays finite.
    """
    table = article_table(corpus)
    for profile in profiles:
        if profile.mean_embedding.shape != table.emb.shape[1:]:
            raise FeatureError(
                f"embedding dim mismatch: profile {profile.mean_embedding.shape} vs "
                f"articles {table.emb.shape[1:]}")
    rows = table.rows(article_ids)
    out = np.zeros((len(profiles), len(rows), table.width))
    user0 = table.static.shape[1]
    out[:, :, :user0] = table.static[rows]
    user = np.array([(p.mean_word_count, p.n_clicks, _topk_mass(p.tag_freq, TOP_K),
                      _topk_mass(p.author_freq, TOP_K), _topk_mass(p.section_freq, TOP_K))
                     for p in profiles], dtype=np.float64).reshape(len(profiles), 5)
    out[:, :, user0:user0 + 5] = user[:, None, :]
    mean_wc = user[:, :1]

    ua0 = user0 + 5
    table.tags.jaccard(rows, [p.tag_freq for p in profiles], out[:, :, ua0 + 0])
    table.authors.jaccard(rows, [p.author_freq for p in profiles], out[:, :, ua0 + 1])

    read = np.zeros((len(profiles), len(table.section_index)), dtype=bool)
    for u, p in enumerate(profiles):
        for sec, count in p.section_freq.items():
            if count > 0 and sec in table.section_index:
                read[u, table.section_index[sec]] = True
    out[:, :, ua0 + 2] = read[:, table.section_codes[rows]]

    # one matrix-vector product per profile: a gemm over all profiles may
    # sum in another order and change the last bit
    emb, emb_norm = table.emb[rows], table.emb_norm[rows]
    for u, p in enumerate(profiles):
        if p.embedding_norm > 0:
            denom = emb_norm * p.embedding_norm
            np.divide(emb @ p.mean_embedding, denom, out=out[u, :, ua0 + 3],
                      where=denom > 0)

    out[:, :, ua0 + 4] = 1.0
    np.divide(table.word_counts[rows], mean_wc, out=out[:, :, ua0 + 4], where=mean_wc > 0)
    out[:, :, ua0 + 5] = (at - table.published[rows]) / 3600.0
    return out.reshape(len(profiles) * len(rows), table.width)


def build_training_set(corpus: Corpus, day: dt.date, rng_seed: int
                       ) -> tuple[np.ndarray, np.ndarray, list[InteractionEvent]]:
    """Implicit-feedback examples for one day, as `(X, y, events)`: every
    click is a positive; negatives are an equal-size uniform sample (without
    replacement, seeded) of the day's impressions whose (user, article) was
    not clicked that day. `X` holds one `extract_matrix` row per example,
    with the user's profile as of the event time; `y` its label (1 = click,
    0 = not clicked); `events` the example's event. Rows sort by (at, user,
    article, clicks first). A day without clicks has no rows.
    """
    t0 = date_start(day)
    day_events = corpus.events_between(t0, t0 + DAY)
    clicks = [e for e in day_events if e.kind is Kind.CLICK]
    clicked_pairs = {(e.user_id, e.article_id) for e in clicks}
    candidates = [e for e in day_events
                  if e.kind is Kind.IMPRESSION
                  and (e.user_id, e.article_id) not in clicked_pairs]

    if not clicks:
        return np.empty((0, article_table(corpus).width)), np.empty(0), []

    candidates.sort(key=lambda e: (e.at, e.user_id, e.article_id))
    rng = np.random.default_rng(rng_seed)
    take = min(len(clicks), len(candidates))
    if take < len(candidates):
        chosen = sorted(rng.choice(len(candidates), size=take, replace=False))
        negatives = [candidates[i] for i in chosen]
    else:
        negatives = candidates

    labeled = [(e, 1.0) for e in clicks] + [(e, 0.0) for e in negatives]
    labeled.sort(key=lambda el: (el[0].at, el[0].user_id, el[0].article_id, -el[1]))
    profiles = ProfileCache(corpus)
    X = np.array([extract_matrix([profiles.get(ev.user_id, ev.at)], [ev.article_id],
                                 ev.at, corpus)[0] for ev, _ in labeled])
    return X, np.array([label for _, label in labeled]), [ev for ev, _ in labeled]
