"""Data model, JSONL ingestion, and deterministic synthetic-world generation.

A corpus is an immutable snapshot: an id-indexed set of articles plus a
time-ordered log of impression/click events. Article content statistics
(word/sentence/paragraph/char counts, hapax and dis legomena, the average
word embedding) are always derived from the body at construction time, so a
corpus serialized to JSONL and reloaded is equal to the original. Every
JSONL record file (articles, events, the ranker's emission logs) is read by
`read_jsonl` and written by `write_jsonl`.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from datetime import date, datetime, timezone
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

import numpy as np

DAY = 86400.0
WEEK = 7 * DAY


class CorpusError(ValueError):
    """A corpus file or record violates the data contract."""


_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_SENTENCE_RE = re.compile(r"[.!?]+")
_PARAGRAPH_RE = re.compile(r"\n\s*\n")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def day_start(at: float) -> float:
    """Midnight (UTC) of the day containing `at`, as epoch seconds."""
    return math.floor(at / DAY) * DAY


def date_start(day: date) -> float:
    """Midnight (UTC) starting `day`, as epoch seconds."""
    return datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp()


def utc_date(at: float) -> date:
    """The UTC date of the day containing `at`."""
    return datetime.fromtimestamp(day_start(at), tz=timezone.utc).date()


class WordVectors:
    """In-memory word-vector table, loadable from the plain-text format
    '<vocab> <dim>' header followed by '<word> <f1> ... <fD>' lines."""

    def __init__(self, vectors: Mapping[str, np.ndarray], dim: int):
        self.dim = int(dim)
        self._vectors = dict(vectors)
        for word, vec in self._vectors.items():
            if vec.shape != (self.dim,):
                raise CorpusError(f"vector for {word!r} has dim {vec.shape}, expected ({self.dim},)")
        # one check over the stacked table; the word is looked up on failure
        if self._vectors and not np.isfinite(np.stack(list(self._vectors.values()))).all():
            word = next(w for w, v in self._vectors.items() if not np.isfinite(v).all())
            raise CorpusError(f"vector for {word!r} is not finite")

    def vector(self, word: str) -> Optional[np.ndarray]:
        return self._vectors.get(word)

    def __len__(self) -> int:
        return len(self._vectors)

    def words(self) -> list[str]:
        return sorted(self._vectors)

    @classmethod
    def from_file(cls, path: str | Path) -> "WordVectors":
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            try:
                n, dim = map(int, fh.readline().split())
            except ValueError:  # not exactly two integers
                raise CorpusError(f"{path}:1: expected '<vocab> <dim>' header") from None
            if n < 0 or dim < 1:
                raise CorpusError(f"{path}:1: header needs vocab >= 0 and dim >= 1")
            vectors: dict[str, np.ndarray] = {}
            for lineno, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split(" ")
                if len(parts) != dim + 1:
                    raise CorpusError(f"{path}:{lineno}: expected word plus {dim} floats")
                try:
                    vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
                except ValueError:
                    raise CorpusError(f"{path}:{lineno}: expected word plus {dim} floats"
                                      ) from None
                if not np.isfinite(vec).all():
                    raise CorpusError(f"{path}:{lineno}: vector for {parts[0]!r} "
                                      "is not finite")
                if parts[0] in vectors:
                    raise CorpusError(f"{path}:{lineno}: word {parts[0]!r} repeats")
                vectors[parts[0]] = vec
        if len(vectors) != n:
            raise CorpusError(f"{path}: header claims {n} words, found {len(vectors)}")
        return cls(vectors, dim)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(f"{len(self._vectors)} {self.dim}\n")
            for word in sorted(self._vectors):
                coords = " ".join(repr(float(x)) for x in self._vectors[word])
                fh.write(f"{word} {coords}\n")


def compute_embedding(body: str, provider: WordVectors) -> np.ndarray:
    """Elementwise mean of the vectors of all body tokens known to the
    provider; unknown words contribute nothing, and an all-unknown body
    yields the zero vector."""
    total = np.zeros(provider.dim, dtype=np.float64)
    hits = 0
    for token in tokenize(body):
        vec = provider.vector(token)
        if vec is not None:
            total += vec
            hits += 1
    return total / hits if hits else total


def text_stats(body: str) -> tuple[int, int, int, int, int, int]:
    """(word, sentence, paragraph, char, hapax, dis) counts of a body."""
    tokens = tokenize(body)
    counts: dict[str, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    hapax = sum(1 for c in counts.values() if c == 1)
    dis = sum(1 for c in counts.values() if c == 2)
    sentences = sum(1 for s in _SENTENCE_RE.split(body) if s.strip())
    paragraphs = sum(1 for p in _PARAGRAPH_RE.split(body) if p.strip())
    return len(tokens), sentences, paragraphs, len(body), hapax, dis


@dataclass(frozen=True, eq=False)
class Article:
    """One article and its content statistics.

    It also carries two values computed once, when it is made:
    `embedding_norm`, the norm of `embedding` (one `np.linalg.norm` per
    vector), and `section_set`, `section` as a one-value set. It is frozen
    and its `embedding` array read-only, so neither can go stale.
    """

    id: str
    published_at: float
    section: str
    tags: frozenset[str]
    authors: frozenset[str]
    title: str
    body: str
    word_count: int
    sentence_count: int
    paragraph_count: int
    char_length: int
    hapax_count: int
    dis_count: int
    embedding: np.ndarray

    def __post_init__(self):
        # set here, not as cached properties: a cached property writes into
        # `__dict__` later, which on CPython 3.11 gives every article a dict
        # of its own (about 0.7 KB more per article)
        self.embedding.flags.writeable = False
        object.__setattr__(self, "embedding_norm", float(np.linalg.norm(self.embedding)))
        object.__setattr__(self, "section_set", frozenset((self.section,)))

    @classmethod
    def from_content(
        cls,
        id: str,
        published_at: float,
        section: str,
        tags: Iterable[str],
        authors: Iterable[str],
        title: str,
        body: str,
        provider: WordVectors,
    ) -> "Article":
        wc, sc, pc, cl, hapax, dis = text_stats(body)
        art = cls(
            id=id,
            published_at=float(published_at),
            section=section,
            tags=frozenset(tags),
            authors=frozenset(authors),
            title=title,
            body=body,
            word_count=wc,
            sentence_count=sc,
            paragraph_count=pc,
            char_length=cl,
            hapax_count=hapax,
            dis_count=dis,
            embedding=compute_embedding(body, provider),
        )
        art.validate(provider.dim)
        return art

    def validate(self, embedding_dim: int) -> None:
        if not self.id:
            raise CorpusError("article id must be nonempty")
        if not math.isfinite(self.published_at):
            raise CorpusError(f"article {self.id}: published_at not finite")
        if "" in self.tags or "" in self.authors:
            raise CorpusError(f"article {self.id}: empty string in tags/authors")
        if min(self.word_count, self.sentence_count, self.paragraph_count,
               self.char_length, self.hapax_count, self.dis_count) < 0:
            raise CorpusError(f"article {self.id}: negative content statistic")
        if self.hapax_count + 2 * self.dis_count > self.word_count:
            raise CorpusError(f"article {self.id}: hapax + 2*dis exceeds word count")
        if self.embedding.shape != (embedding_dim,):
            raise CorpusError(
                f"article {self.id}: embedding dim {self.embedding.shape} != ({embedding_dim},)"
            )
        if not np.isfinite(self.embedding).all():
            raise CorpusError(f"article {self.id}: embedding is not finite")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Article):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(mine, theirs) if f.name == "embedding" else mine == theirs):
                return False
        return True


class Kind(Enum):
    IMPRESSION = "impression"
    CLICK = "click"


class Context(Enum):
    MANUAL = "manual"
    MN_WIDGET = "mn_widget"
    MISSED_LW = "missed_lw"
    MN_PAGE = "mn_page"
    RECOMMENDED_LABEL = "recommended_label"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    user_id: str
    article_id: str
    at: float
    kind: Kind
    context: Context


class Corpus:
    """Immutable article + event snapshot with time-indexed access helpers.

    Events are sorted by (at, user, article, kind) and exact duplicates on
    (user, article, at, kind) are collapsed at construction.
    """

    def __init__(self, articles: Iterable[Article], events: Iterable[InteractionEvent],
                 embedding_dim: int):
        self.embedding_dim = int(embedding_dim)
        by_id: dict[str, Article] = {}
        for art in articles:
            if art.id in by_id:
                raise CorpusError(f"duplicate article id {art.id!r}")
            art.validate(self.embedding_dim)
            by_id[art.id] = art
        # read-only: the article table and publication index are built from it
        self.articles: Mapping[str, Article] = MappingProxyType(by_id)

        seen: set[tuple[str, str, float, Kind]] = set()
        deduped: list[InteractionEvent] = []
        unknown: set[str] = set()
        for ev in events:
            if not math.isfinite(ev.at):
                raise CorpusError(f"event at {ev.at} not finite")
            if ev.article_id not in self.articles:
                unknown.add(ev.article_id)
                continue
            key = (ev.user_id, ev.article_id, ev.at, ev.kind)
            if key in seen:
                continue
            seen.add(key)
            deduped.append(ev)
        if unknown:
            raise CorpusError(
                "events reference unknown article ids: " + ", ".join(sorted(unknown))
            )
        deduped.sort(key=lambda e: (e.at, e.user_id, e.article_id, e.kind.value))
        self.events: list[InteractionEvent] = deduped

        self._event_times = [e.at for e in self.events]
        self._pub_sorted = sorted(self.articles.values(), key=lambda a: (a.published_at, a.id))
        self._pub_times = [a.published_at for a in self._pub_sorted]
        self._clicks_by_user: dict[str, list[InteractionEvent]] = {}
        for ev in self.events:
            if ev.kind is Kind.CLICK:
                self._clicks_by_user.setdefault(ev.user_id, []).append(ev)
        self._article_table = None  # built on first use by `features.article_table`

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.embedding_dim == other.embedding_dim
            and self.events == other.events
            and self.articles.keys() == other.articles.keys()
            and all(self.articles[k] == other.articles[k] for k in self.articles)
        )

    def events_between(self, t0: float, t1: float) -> list[InteractionEvent]:
        """Events with at in the half-open interval [t0, t1)."""
        lo = bisect_left(self._event_times, t0)
        hi = bisect_left(self._event_times, t1)
        return self.events[lo:hi]

    def published_between(self, t0: float, t1: float) -> list[Article]:
        """Articles with published_at in the half-open interval (t0, t1]."""
        lo = bisect_right(self._pub_times, t0)
        hi = bisect_right(self._pub_times, t1)
        return self._pub_sorted[lo:hi]

    def published_on(self, day_ts: float) -> list[Article]:
        """Articles published on the day starting at `day_ts`, in
        [day_ts, day_ts + DAY): midnight belongs to the day it starts."""
        lo = bisect_left(self._pub_times, day_ts)
        hi = bisect_left(self._pub_times, day_ts + DAY)
        return self._pub_sorted[lo:hi]

    def clicks_of(self, user_id: str) -> list[InteractionEvent]:
        """The user's clicks in time order; empty for an unknown user."""
        return self._clicks_by_user.get(user_id, [])

    def user_ids(self) -> list[str]:
        return sorted({e.user_id for e in self.events})

    def time_span(self) -> tuple[float, float]:
        """(earliest, latest) timestamp over publications and events."""
        times = []
        if self._pub_times:
            times.extend((self._pub_times[0], self._pub_times[-1]))
        if self._event_times:
            times.extend((self._event_times[0], self._event_times[-1]))
        if not times:
            raise CorpusError("empty corpus has no time span")
        return min(times), max(times)


def read_jsonl(path: str | Path, parse, error: type[Exception]) -> list:
    """`parse` of each non-blank line of a JSONL file, in file order.

    Malformed JSON, a line that is not a JSON object, a missing key
    (KeyError) and a rejected value (TypeError, ValueError or
    OverflowError from `parse`) raise `error` naming path:line."""
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError("expected a JSON object")
                out.append(parse(obj))
            except json.JSONDecodeError as exc:
                raise error(f"{where}: malformed JSON: {exc.msg}") from exc
            except KeyError as exc:
                raise error(f"{where}: missing field {exc.args[0]!r}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise error(f"{where}: {exc}") from exc
    return out


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> None:
    """One `json.dumps(record, sort_keys=True)` line per record."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# YYYY-MM-DD, optionally followed by "T" or a space and HH:MM[:SS[.fff[fff]]],
# then optionally by "Z" or a +-HH:MM offset. Python 3.11's fromisoformat reads
# more forms than 3.10's (such as 20240102T100000Z), and 3.10's takes any
# character between date and time; a string is checked against this pattern
# first, so that it reads alike on both.
_ISO_TIMESTAMP_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[T ][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?"
    r"(?:Z|[+-][0-9]{2}:[0-9]{2})?)?")


def _parse_timestamp(value) -> float:
    """Epoch seconds from a finite number or an ISO-8601 string of the form
    `_ISO_TIMESTAMP_RE` (UTC if the string carries no offset)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if math.isfinite(value):
            return float(value)
    elif isinstance(value, str):
        if not _ISO_TIMESTAMP_RE.fullmatch(value):
            raise CorpusError(f"bad timestamp {value!r}")
        try:
            stamp = datetime.fromisoformat(value.replace("Z", "+00:00"))
        except ValueError:
            raise CorpusError(f"bad timestamp {value!r}") from None
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        return stamp.timestamp()
    raise CorpusError(f"bad timestamp {value!r}")


def _finite(value: int | float) -> bool:
    """Whether a number converts to a finite float: not NaN or an infinity
    (which Python's json also reads), nor an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large to convert to a float
        return False


def _integer(value, what: str, error: type[Exception] = TypeError) -> int:
    """`value`, an integer: a bool, a float (2.0, 2.5 or NaN) or a string
    raises `error` naming `what`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, not {value!r}")
    return value


def _finite_number(value, what: str) -> float:
    """`value`, a finite JSON number (not a bool or a string), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not _finite(value):
        raise TypeError(f"{what} must be a finite number, not {value!r}")
    return float(value)


def _str(obj: Mapping, key: str, required: bool = True) -> str:
    """obj[key], or "" when it is absent and not `required`; it must be a
    string."""
    value = obj[key] if required else obj.get(key, "")
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string")
    return value


def _str_list(obj: Mapping, key: str, required: bool = True) -> list[str]:
    """obj[key], or [] when it is absent and not `required`; it must be a
    list of strings."""
    value = obj[key] if required else obj.get(key, [])
    if not isinstance(value, list) or any(not isinstance(x, str) for x in value):
        raise TypeError(f"{key} must be a list of strings")
    return value


def _article_record(art: Article) -> dict:
    # content fields only; derived statistics are recomputed on load
    return {"id": art.id, "published_at": art.published_at, "section": art.section,
            "tags": sorted(art.tags), "authors": sorted(art.authors),
            "title": art.title, "body": art.body}


def _event_record(ev: InteractionEvent) -> dict:
    return {"user_id": ev.user_id, "article_id": ev.article_id, "at": ev.at,
            "kind": ev.kind.value, "context": ev.context.value}


def _parse_event(obj: Mapping) -> InteractionEvent:
    return InteractionEvent(
        user_id=_str(obj, "user_id"),
        article_id=_str(obj, "article_id"),
        at=_parse_timestamp(obj["at"]),
        kind=Kind(obj["kind"]),
        context=Context(obj.get("context", "other")),
    )


def load_corpus(articles_path: str | Path, events_path: str | Path,
                embeddings: WordVectors) -> Corpus:
    """Load a corpus from the articles/events JSONL files, recomputing all
    content-derived fields from the body text."""
    def parse_article(obj: Mapping) -> Article:
        return Article.from_content(
            id=_str(obj, "id"),
            published_at=_parse_timestamp(obj["published_at"]),
            section=_str(obj, "section"),
            tags=_str_list(obj, "tags", required=False),
            authors=_str_list(obj, "authors", required=False),
            title=_str(obj, "title", required=False),
            body=_str(obj, "body", required=False),
            provider=embeddings,
        )

    articles = read_jsonl(articles_path, parse_article, CorpusError)
    events = read_jsonl(events_path, _parse_event, CorpusError)
    return Corpus(articles, events, embeddings.dim)


def save_corpus(corpus: Corpus, articles_path: str | Path, events_path: str | Path) -> None:
    """Write the articles/events JSONL files."""
    write_jsonl(articles_path, (_article_record(corpus.articles[aid])
                                for aid in sorted(corpus.articles)))
    write_jsonl(events_path, map(_event_record, corpus.events))


# --------------------------------------------------------------------------
# Synthetic world
# --------------------------------------------------------------------------

# 2024-01-01T00:00:00Z; divisible by 86400 so day boundaries are clean.
DEFAULT_WORLD_START = 1_704_067_200.0

_CONTEXT_CHOICES = [Context.MANUAL, Context.MN_WIDGET, Context.MISSED_LW,
                    Context.MN_PAGE, Context.RECOMMENDED_LABEL, Context.OTHER]
_CONTEXT_WEIGHTS = [0.25, 0.20, 0.10, 0.15, 0.05, 0.25]
_AFFINITY_GAIN = 6.0
_APPEAL_GAIN = 1.0
_CLICK_BIAS = -3.0


@dataclass(frozen=True)
class SyntheticWorldConfig:
    seed: int = 0
    n_users: int = 50
    n_days: int = 7
    articles_per_day: int = 24
    n_tags: int = 120
    n_authors: int = 40
    n_sections: int = 8
    zipf_exponent: float = 1.1
    user_affinity_dim: int = 16
    click_noise: float = 0.0
    embedding_dim: int = 32
    # Generator knobs beyond the core contract, all defaulted.
    vocab_size: int = 1200
    n_personas: int = 8
    sessions_per_day: int = 2
    impressions_per_session: int = 8
    click_threshold: float = 0.5
    start: float = DEFAULT_WORLD_START

    def __post_init__(self):
        counts = ("n_users", "n_days", "articles_per_day", "n_tags", "n_authors",
                  "n_sections", "user_affinity_dim", "embedding_dim", "vocab_size",
                  "n_personas", "sessions_per_day", "impressions_per_session")
        for name in ("seed", *counts):
            _integer(getattr(self, name), name, ValueError)
        bad = sorted(k for k in counts if getattr(self, k) < 1)
        if bad:
            raise ValueError(f"counts must be >= 1: {', '.join(bad)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        for name in ("zipf_exponent", "click_noise", "click_threshold", "start"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be > 0")
        if not 0.0 <= self.click_noise <= 1.0:
            raise ValueError("click_noise must be in [0, 1]")


@dataclass
class GroundTruth:
    """The latent click model behind a generated world.

    click_prob is the exact probability the generator consulted when
    deciding clicks; with click_noise = 0 an impression is clicked iff
    click_prob >= click_threshold (and the article was not already clicked
    by that user).
    """

    user_vectors: dict[str, np.ndarray]
    article_vectors: dict[str, np.ndarray]
    appeal: dict[str, float]
    click_threshold: float
    click_noise: float
    word_vectors: WordVectors

    def click_prob(self, user_id: str, article_id: str) -> float:
        u = self.user_vectors[user_id]
        a = self.article_vectors[article_id]
        z = (_AFFINITY_GAIN * float(u @ a)
             + _APPEAL_GAIN * (self.appeal[article_id] - 0.5)
             + _CLICK_BIAS)
        return 1.0 / (1.0 + math.exp(-z))


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = ranks ** (-exponent)
    return p / p.sum()


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def generate_world(cfg: SyntheticWorldConfig) -> tuple[Corpus, GroundTruth]:
    """Deterministically generate a corpus plus its latent click model.

    Users belong to personas anchored on section/tag latents; article
    latents combine their section and tags. Impressions are recency- and
    appeal-biased samples of the last 48h of publications; click decisions
    threshold the latent probability (see GroundTruth).
    """
    rng = np.random.default_rng(cfg.seed)
    A, D = cfg.user_affinity_dim, cfg.embedding_dim

    sections = [f"section{k:02d}" for k in range(cfg.n_sections)]
    tags = [f"tag{k:03d}" for k in range(cfg.n_tags)]
    authors = [f"author{k:03d}" for k in range(cfg.n_authors)]
    words = [f"w{k:04d}" for k in range(cfg.vocab_size)]

    section_probs = _zipf_probs(cfg.n_sections, cfg.zipf_exponent)
    tag_probs = _zipf_probs(cfg.n_tags, cfg.zipf_exponent)
    author_probs = _zipf_probs(cfg.n_authors, cfg.zipf_exponent)
    word_probs = _zipf_probs(cfg.vocab_size, cfg.zipf_exponent)

    section_lat = rng.normal(size=(cfg.n_sections, A))
    section_lat /= np.linalg.norm(section_lat, axis=1, keepdims=True)
    tag_lat = rng.normal(size=(cfg.n_tags, A))
    tag_lat /= np.linalg.norm(tag_lat, axis=1, keepdims=True)

    word_mat = rng.normal(scale=1.0 / math.sqrt(D), size=(cfg.vocab_size, D))
    word_vectors = WordVectors({w: word_mat[i] for i, w in enumerate(words)}, D)
    # Each tag reads the vocabulary through its own permutation, so tag
    # mixtures give articles distinguishable embeddings.
    tag_word_perm = np.stack([rng.permutation(cfg.vocab_size) for _ in range(cfg.n_tags)])

    personas = []
    for _ in range(cfg.n_personas):
        secs = rng.choice(cfg.n_sections, size=min(2, cfg.n_sections), replace=False,
                          p=section_probs)
        tgs = rng.choice(cfg.n_tags, size=min(3, cfg.n_tags), replace=False, p=tag_probs)
        base = section_lat[secs].sum(axis=0) + 0.8 * tag_lat[tgs].sum(axis=0)
        personas.append(_unit(base + 0.2 * rng.normal(size=A)))
    persona_of_user = rng.integers(0, cfg.n_personas, size=cfg.n_users)

    user_ids = [f"u{k:04d}" for k in range(cfg.n_users)]
    user_vectors = {
        uid: _unit(personas[persona_of_user[i]] + 0.35 * rng.normal(size=A))
        for i, uid in enumerate(user_ids)
    }

    # Articles, day by day.
    articles: list[Article] = []
    article_vectors: dict[str, np.ndarray] = {}
    appeal: dict[str, float] = {}
    max_section_prob = float(section_probs.max())
    idx = 0
    for day in range(cfg.n_days):
        base_ts = cfg.start + day * DAY
        pub_offsets = np.sort(rng.uniform(6 * 3600, 20 * 3600, size=cfg.articles_per_day))
        for k in range(cfg.articles_per_day):
            aid = f"a{idx:05d}"
            idx += 1
            sec_i = int(rng.choice(cfg.n_sections, p=section_probs))
            n_t = int(rng.integers(1, min(5, cfg.n_tags + 1)))
            tag_is = rng.choice(cfg.n_tags, size=n_t, replace=False, p=tag_probs)
            n_a = int(rng.integers(1, min(3, cfg.n_authors + 1)))
            auth_is = rng.choice(cfg.n_authors, size=n_a, replace=False, p=author_probs)

            lat = section_lat[sec_i] + tag_lat[tag_is].mean(axis=0)
            article_vectors[aid] = _unit(lat + 0.3 * rng.normal(size=A))
            # Editors favour articles in popular sections.
            appeal[aid] = float(np.clip(
                0.55 * section_probs[sec_i] / max_section_prob + 0.45 * rng.random(), 0, 1))

            mix = 0.5 * word_probs.copy()
            for ti in tag_is:
                mix[tag_word_perm[ti]] += (0.5 / n_t) * word_probs
            n_par = int(rng.integers(2, 5))
            paragraphs = []
            for _ in range(n_par):
                n_sent = int(rng.integers(2, 6))
                sent_lens = rng.integers(6, 15, size=n_sent)
                drawn = rng.choice(cfg.vocab_size, size=int(sent_lens.sum()), p=mix)
                sents, pos = [], 0
                for ln in sent_lens:
                    sents.append(" ".join(words[w] for w in drawn[pos:pos + ln]) + ".")
                    pos += ln
                paragraphs.append(" ".join(sents))
            body = "\n\n".join(paragraphs)
            title_words = rng.choice(cfg.vocab_size, size=int(rng.integers(4, 9)), p=mix)
            title = " ".join(words[w] for w in title_words)

            articles.append(Article.from_content(
                id=aid,
                published_at=base_ts + float(pub_offsets[k]),
                section=sections[sec_i],
                tags=[tags[t] for t in tag_is],
                authors=[authors[a] for a in auth_is],
                title=title,
                body=body,
                provider=word_vectors,
            ))

    truth = GroundTruth(
        user_vectors=user_vectors,
        article_vectors=article_vectors,
        appeal=appeal,
        click_threshold=cfg.click_threshold,
        click_noise=cfg.click_noise,
        word_vectors=word_vectors,
    )

    pub_ts = np.array([a.published_at for a in articles])
    appeal_arr = np.array([appeal[a.id] for a in articles])

    events: list[InteractionEvent] = []
    clicked: dict[str, set[str]] = {uid: set() for uid in user_ids}
    context_probs = np.array(_CONTEXT_WEIGHTS)
    for day in range(cfg.n_days):
        base_ts = cfg.start + day * DAY
        for uid in user_ids:
            session_times = np.sort(rng.uniform(7 * 3600, 22.5 * 3600,
                                                size=cfg.sessions_per_day))
            for st in session_times:
                now = base_ts + float(st)
                pool = np.nonzero((pub_ts <= now) & (pub_ts > now - 2 * DAY))[0]
                # Already-clicked articles are not shown to the user again.
                pool = np.array([i for i in pool if articles[int(i)].id not in clicked[uid]],
                                dtype=np.intp)
                if pool.size == 0:
                    continue
                age_h = (now - pub_ts[pool]) / 3600.0
                w = np.exp(-age_h / 24.0) * (0.5 + appeal_arr[pool])
                w /= w.sum()
                take = min(cfg.impressions_per_session, pool.size)
                chosen = rng.choice(pool, size=take, replace=False, p=w)
                for j, ai in enumerate(chosen):
                    art = articles[int(ai)]
                    imp_at = now + 20.0 * j
                    ctx = _CONTEXT_CHOICES[int(rng.choice(len(context_probs), p=context_probs))]
                    events.append(InteractionEvent(uid, art.id, imp_at, Kind.IMPRESSION, ctx))
                    if art.id in clicked[uid]:
                        continue
                    p = truth.click_prob(uid, art.id)
                    if rng.random() < cfg.click_noise:
                        do_click = rng.random() < p
                    else:
                        do_click = p >= cfg.click_threshold
                    if do_click:
                        clicked[uid].add(art.id)
                        events.append(InteractionEvent(uid, art.id, imp_at + 45.0,
                                                       Kind.CLICK, ctx))

    return Corpus(articles, events, D), truth
