"""Beyond-accuracy metrics: diversity, dynamism, serendipity, coverage.

All four metrics live in [0, 1] and are computed over ranked lists (or
pairs of consecutive lists) drawn from an emission log:

* intra-list diversity: mean pairwise dissimilarity,
      Div(R) = sum_{i<j} (1 - Sim(c_i, c_j)) / (n(n-1)/2)
  with Jaccard similarity for discrete attributes and max-normalized
  [0,1]-mapped cosine for embeddings;
* dynamism: fraction of a list that is new vs the previous list,
      |L2 \\ L1| / |L2|;
* serendipity: mean unexpectedness of the served items against the user's
  7-day profile (frequency mass for discrete attributes, cosine for
  embeddings);
* coverage: share of the day's publications served, per user
  (macro-averaged) or unioned across users.

`sim` (a pair's similarity) and `unexpectedness` (an item's, under a
profile) are the one definition of each term, over Article objects;
`intra_list_diversity` and `serendipity` aggregate a list's terms, which a
caller may pass in precomputed (`evaluation` does, from a per-call memo).
An article caches its embedding norm and section set, a profile its
mean-embedding norm.

Gini and Shannon entropy of attribute count distributions are provided as
the cross-check dispersion measures.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import Article
from .features import UserProfile
from .ranker import RankedList


class AttributeKind(Enum):
    SECTION = "section"
    TAGS = "tags"
    AUTHORS = "authors"
    EMBEDDING = "embedding"


@dataclass(frozen=True)
class MetricSample:
    metric: str
    value: float
    attribute: Optional[AttributeKind] = None
    treatment: str = ""
    scope: str = ""
    at: float = 0.0


def attribute_values(article: Article, attr: AttributeKind) -> frozenset[str]:
    if attr is AttributeKind.SECTION:
        return article.section_set
    if attr is AttributeKind.TAGS:
        return article.tags
    if attr is AttributeKind.AUTHORS:
        return article.authors
    raise ValueError("embedding attribute has no discrete values")


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def _cosine01(u: np.ndarray, v: np.ndarray, nu: float, nv: float) -> float:
    """Cosine of `u` and `v`, given their norms, mapped to [0, 1]; zero
    vectors are maximally dissimilar."""
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return (float(u @ v / (nu * nv)) + 1.0) / 2.0


def sim(a: Article, b: Article, attr: AttributeKind) -> float:
    """Pairwise article similarity in [0, 1] for one attribute.

    Note the per-list max-normalization of embedding similarities happens
    inside intra_list_diversity, not here.
    """
    if attr is AttributeKind.EMBEDDING:
        return _cosine01(a.embedding, b.embedding, a.embedding_norm, b.embedding_norm)
    return _jaccard(attribute_values(a, attr), attribute_values(b, attr))


def intra_list_diversity(articles: Sequence[Article], attr: AttributeKind, *,
                         sims: Optional[Sequence[float]] = None) -> Optional[float]:
    """Mean pairwise dissimilarity of a list; None for lists shorter than 2.

    `sims` are the list's pair similarities, `sim(articles[i], articles[j],
    attr)` in (i, j), i < j, order; when None they are computed here.
    Embedding similarities are divided by the list's maximum pairwise
    similarity first ("normalized by the maximal score"); if that maximum
    is 0 every pair is already maximally dissimilar.
    """
    n = len(articles)
    if sims is not None and len(sims) != n * (n - 1) // 2:
        raise ValueError(f"{len(sims)} pair similarities for a list of {n}")
    if n < 2:
        return None
    if sims is None:
        sims = [sim(articles[i], articles[j], attr) for i in range(n) for j in range(i + 1, n)]
    if attr is AttributeKind.EMBEDDING:
        top = max(sims)
        if top > 0.0:
            sims = [s / top for s in sims]
    return sum(1.0 - s for s in sims) / len(sims)


def _ids_of(obj) -> Sequence[str]:
    return obj.ids if isinstance(obj, RankedList) else list(obj)


def dynamism(l1, l2) -> Optional[float]:
    """Fraction of the newer list absent from the older one; None if the
    newer list is empty. Accepts RankedLists or id sequences."""
    new = _ids_of(l2)
    if not new:
        return None
    old = set(_ids_of(l1))
    return sum(1 for aid in new if aid not in old) / len(new)


def _freq_mass(values: frozenset[str], freq: Mapping[str, int]) -> float:
    """Share of `freq`'s counts held by `values`; at most 1."""
    total = sum(freq.values())
    if total == 0:
        return 0.0
    mass = sum(freq.get(v, 0) for v in values) / total
    return min(mass, 1.0)


def _profile_freq(profile: UserProfile, attr: AttributeKind) -> Mapping[str, int]:
    if attr is AttributeKind.SECTION:
        return profile.section_freq
    if attr is AttributeKind.TAGS:
        return profile.tag_freq
    return profile.author_freq


def unexpectedness(article: Article, profile: UserProfile, attr: AttributeKind) -> float:
    """How unexpected `article` is under the user's 7-day history: 1 minus
    its cosine to the profile's mean embedding, or minus its values'
    frequency mass."""
    if attr is AttributeKind.EMBEDDING:
        return 1.0 - _cosine01(profile.mean_embedding, article.embedding,
                               profile.embedding_norm, article.embedding_norm)
    return 1.0 - _freq_mass(attribute_values(article, attr), _profile_freq(profile, attr))


def serendipity(articles: Sequence[Article], profile: UserProfile, attr: AttributeKind, *,
                terms: Optional[Sequence[float]] = None) -> Optional[float]:
    """Mean `unexpectedness` of the list's items; `terms` are those values
    in list order, computed here when None. Every item is unexpected for an
    empty history. None for an empty list."""
    if terms is not None and len(terms) != len(articles):
        raise ValueError(f"{len(terms)} item terms for a list of {len(articles)}")
    if not articles:
        return None
    if profile.n_clicks == 0:
        return 1.0
    if terms is None:
        terms = [unexpectedness(a, profile, attr) for a in articles]
    return sum(terms) / len(articles)


class CoverageScope(Enum):
    PER_USER = "per_user"
    ALL_USERS = "all_users"


def coverage(emissions: Iterable[RankedList | Sequence[str]], published: Iterable[str],
             scope: CoverageScope) -> Optional[float]:
    """Share of `published` article ids served by the emissions.

    PER_USER computes each user's share of RankedLists and macro-averages;
    ALL_USERS unions served ids across the whole stream, which may also hold
    id sequences (a day's clicks, say). None when nothing was published.
    """
    pub = set(published)
    if not pub:
        return None
    if scope is CoverageScope.PER_USER:
        per_user: dict[str, set[str]] = {}
        for lst in emissions:
            served = per_user.setdefault(lst.user_id, set())
            served.update(lst.ids)
        if not per_user:
            return 0.0
        shares = [len(served & pub) / len(pub) for _, served in sorted(per_user.items())]
        return sum(shares) / len(shares)
    served_all: set[str] = set()
    for lst in emissions:
        served_all.update(_ids_of(lst))
    return len(served_all & pub) / len(pub)


def gini(freqs: Mapping[str, int] | Sequence[int]) -> Optional[float]:
    """Gini coefficient of a count distribution: mean absolute pairwise
    difference over twice the mean. 0 for uniform counts; None when empty."""
    counts = np.asarray(sorted(freqs.values() if isinstance(freqs, Mapping) else freqs),
                        dtype=np.float64)
    if counts.size == 0:
        return None
    mean = counts.mean()
    if mean == 0.0:
        return 0.0
    k = counts.size
    # For sorted x: sum_{i,j} |x_i - x_j| = 2 * sum_i (2i - k + 1) x_i
    i = np.arange(k)
    mad = 2.0 * float(((2 * i - k + 1) * counts).sum()) / (k * k)
    return mad / (2.0 * mean)


def entropy(freqs: Mapping[str, int] | Sequence[int]) -> Optional[float]:
    """Shannon entropy (bits) of a count distribution; None when empty."""
    counts = np.asarray(list(freqs.values() if isinstance(freqs, Mapping) else freqs),
                        dtype=np.float64)
    if counts.size == 0:
        return None
    total = counts.sum()
    if total == 0.0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def align(manual_stream: Sequence[RankedList],
          recsys_stream: Sequence[RankedList]) -> list[tuple[RankedList, RankedList]]:
    """Pair each manual update with every user's most recent emission at or
    before that timestamp; users with no emission yet are skipped."""
    by_user: dict[str, list[RankedList]] = {}
    for lst in recsys_stream:
        by_user.setdefault(lst.user_id, []).append(lst)
    for lists in by_user.values():
        lists.sort(key=lambda l: l.at)
    times = {uid: [l.at for l in lists] for uid, lists in by_user.items()}

    pairs: list[tuple[RankedList, RankedList]] = []
    for manual in sorted(manual_stream, key=lambda l: l.at):
        for uid in sorted(by_user):
            i = bisect_right(times[uid], manual.at)
            if i:
                pairs.append((manual, by_user[uid][i - 1]))
    return pairs


def write_metric_samples(path: str | Path, samples: Iterable[MetricSample]) -> None:
    """CSV dump of metric samples: metric, attribute, treatment, scope,
    value, timestamp."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "attribute", "treatment", "scope", "value", "timestamp"])
        for s in samples:
            writer.writerow([
                s.metric,
                s.attribute.value if s.attribute else "",
                s.treatment,
                s.scope,
                repr(s.value),
                repr(s.at),
            ])
