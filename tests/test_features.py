import dataclasses
import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from newsrec.corpus import DAY, WEEK, Article, Corpus, Kind
from newsrec.features import (SCHEMA_VERSION, SECTION_BUCKETS, TOP_K,
                              FeatureError, ProfileCache, UserProfile, _pub_dow,
                              _pub_hour, _topk_mass, article_table, build_profile,
                              build_training_set, empty_profile, extract_matrix,
                              feature_names, stable_bucket, write_schema)

from conftest import T0, click, impression, make_article, make_corpus

H = 3600.0


def corpus_with_clicks(articles, events, dim=4):
    return Corpus(articles, events, dim)


def extract_row(profile, article, at, dim=4, corpus=None):
    """The served feature map (`extract_matrix`) on a one-article row."""
    if corpus is None:
        corpus = corpus_with_clicks([article], [], dim)
    return extract_matrix([profile], [article.id], at, corpus)[0]


# Scalar reference feature map: `extract_matrix` must reproduce it row by row.

def _jaccard(a: frozenset, b: set | frozenset) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def extract(profile: UserProfile, article: Article, at: float) -> np.ndarray:
    dim = len(article.embedding)
    out = np.zeros(SECTION_BUCKETS + 10 + dim + 5 + 6)
    out[stable_bucket(article.section, SECTION_BUCKETS)] = 1.0
    base = SECTION_BUCKETS
    out[base + 0] = len(article.tags)
    out[base + 1] = len(article.authors)
    out[base + 2] = _pub_hour(article.published_at)
    out[base + 3] = _pub_dow(article.published_at)
    out[base + 4] = article.word_count
    out[base + 5] = article.sentence_count
    out[base + 6] = article.paragraph_count
    out[base + 7] = article.char_length
    out[base + 8] = article.hapax_count
    out[base + 9] = article.dis_count
    emb0 = base + 10
    out[emb0:emb0 + dim] = article.embedding

    user0 = emb0 + dim
    out[user0 + 0] = profile.mean_word_count
    out[user0 + 1] = profile.n_clicks
    out[user0 + 2] = _topk_mass(profile.tag_freq, TOP_K)
    out[user0 + 3] = _topk_mass(profile.author_freq, TOP_K)
    out[user0 + 4] = _topk_mass(profile.section_freq, TOP_K)

    ua0 = user0 + 5
    out[ua0 + 0] = _jaccard(article.tags, set(profile.tag_freq))
    out[ua0 + 1] = _jaccard(article.authors, set(profile.author_freq))
    out[ua0 + 2] = 1.0 if profile.section_freq.get(article.section, 0) > 0 else 0.0
    out[ua0 + 3] = _cosine(profile.mean_embedding, article.embedding)
    out[ua0 + 4] = (article.word_count / profile.mean_word_count
                    if profile.mean_word_count > 0 else 1.0)
    out[ua0 + 5] = (at - article.published_at) / 3600.0
    return out


# Linear-scan reference profile: `build_profile` must reproduce it field by field.

def profile_oracle(corpus: Corpus, user_id: str, as_of: float) -> UserProfile:
    tag_freq: dict[str, int] = {}
    author_freq: dict[str, int] = {}
    section_freq: dict[str, int] = {}
    emb_total = np.zeros(corpus.embedding_dim)
    wc_total = 0
    n = 0
    for ev in corpus.events:
        if ev.kind is not Kind.CLICK or ev.user_id != user_id:
            continue
        if not (as_of - WEEK <= ev.at < as_of):
            continue
        art = corpus.articles[ev.article_id]
        for t in art.tags:
            tag_freq[t] = tag_freq.get(t, 0) + 1
        for a in art.authors:
            author_freq[a] = author_freq.get(a, 0) + 1
        section_freq[art.section] = section_freq.get(art.section, 0) + 1
        emb_total += art.embedding
        wc_total += art.word_count
        n += 1
    if n == 0:
        return UserProfile(user_id, {}, {}, {}, 0.0, np.zeros(corpus.embedding_dim), 0)
    return UserProfile(user_id, tag_freq, author_freq, section_freq,
                       wc_total / n, emb_total / n, n)


def assert_same_profile(got: UserProfile, want: UserProfile):
    assert got.user_id == want.user_id
    assert got.n_clicks == want.n_clicks
    assert got.mean_word_count == want.mean_word_count
    assert got.tag_freq == want.tag_freq
    assert got.author_freq == want.author_freq
    assert got.section_freq == want.section_freq
    assert np.array_equal(got.mean_embedding, want.mean_embedding)


class TestBuildProfile:
    def test_unknown_user_empty_profile(self):
        corpus = corpus_with_clicks([make_article("a1")], [])
        prof = build_profile(corpus, "nobody", T0)
        assert prof.n_clicks == 0
        assert np.array_equal(prof.mean_embedding, np.zeros(4))
        assert prof.tag_freq == {}

    def test_single_click_aggregates(self):
        art = make_article("a1", tags=("a", "b"), authors=("x",),
                           embedding=[1, 2, 3, 4], word_count=80)
        corpus = corpus_with_clicks([art], [click("u1", "a1", T0 - 100)])
        prof = build_profile(corpus, "u1", T0)
        assert prof.n_clicks == 1
        assert prof.tag_freq == {"a": 1, "b": 1}
        assert np.array_equal(prof.mean_embedding, art.embedding)
        assert prof.mean_word_count == 80

    def test_mean_embedding_is_read_only(self):
        # its norm is cached, and cached profiles are shared
        art = make_article("a1", embedding=[3, 4, 0, 0])
        corpus = corpus_with_clicks([art], [click("u1", "a1", T0 - 100)])
        for prof in (build_profile(corpus, "u1", T0), empty_profile("u1", 4)):
            norm = prof.embedding_norm
            with pytest.raises(ValueError, match="read-only"):
                prof.mean_embedding[0] = 1.0
            assert prof.embedding_norm == norm

    def test_three_clicks_mean_word_count(self):
        arts = [make_article(f"a{i}", word_count=wc)
                for i, wc in enumerate([50, 75, 100])]
        events = [click("u1", f"a{i}", T0 - 10 * (i + 1)) for i in range(3)]
        corpus = corpus_with_clicks(arts, events)
        prof = build_profile(corpus, "u1", T0)
        # brute-force aggregation oracle
        assert prof.mean_word_count == pytest.approx(sum([50, 75, 100]) / 3)
        assert prof.n_clicks == 3

    def test_window_boundaries_half_open(self):
        arts = [make_article(f"a{i}") for i in range(3)]
        events = [
            click("u1", "a0", T0 - WEEK),      # inclusive lower bound
            click("u1", "a1", T0 - 1),         # inside
            click("u1", "a2", T0),             # as_of itself excluded
        ]
        corpus = corpus_with_clicks(arts, events)
        prof = build_profile(corpus, "u1", T0)
        assert prof.n_clicks == 2

    def test_impressions_do_not_count(self):
        art = make_article("a1", tags=("a",))
        corpus = corpus_with_clicks([art], [impression("u1", "a1", T0 - 5)])
        assert build_profile(corpus, "u1", T0).n_clicks == 0

    @given(st.data())
    def test_equals_linear_scan(self, data):
        arts = [make_article(
            f"a{i}", section=data.draw(st.sampled_from(["s0", "s1"])),
            tags=data.draw(st.frozensets(st.sampled_from("abc"), max_size=2)),
            authors=data.draw(st.frozensets(st.sampled_from("pq"), max_size=2)),
            embedding=data.draw(st.lists(st.floats(-3, 3), min_size=4, max_size=4)),
            word_count=data.draw(st.integers(20, 500)))
            for i in range(data.draw(st.integers(1, 4)))]
        as_of = T0 + WEEK
        # offsets from as_of in hours: -168 is the window's first instant,
        # 0 is as_of itself; repeats give equal timestamps
        offsets = st.sampled_from([-200.0, -168.0, -167.5, -100.0, -1.0, 0.0, 5.0])
        events = [(click if kind else impression)(user, aid, as_of + h * H)
                  for kind, user, aid, h in data.draw(st.lists(st.tuples(
                      st.booleans(), st.sampled_from(["u1", "u2"]),
                      st.sampled_from([a.id for a in arts]), offsets), max_size=12))]
        corpus = make_corpus(arts, events)
        for user in ("u1", "u2", "nobody"):
            assert_same_profile(build_profile(corpus, user, as_of),
                                profile_oracle(corpus, user, as_of))


class TestProfileCache:
    """One profile per distinct set of a user's clicks in [at - 7d, at)."""

    def build(self):
        arts = [make_article("a", tags=("x",), embedding=[1, 0, 0, 0]),
                make_article("b", tags=("y",), embedding=[0, 1, 0, 0]),
                make_article("c", tags=("x", "y"), embedding=[1, 1, 0, 0])]
        clicks = [click("u1", "a", T0 + H), click("u1", "b", T0 + 2 * DAY)]
        return make_corpus(arts, clicks)

    def check(self, cache, user, at):
        profile = cache.get(user, at)
        assert_same_profile(profile, profile_oracle(cache.corpus, user, at))
        return profile

    def test_same_clicks_share_one_profile(self):
        cache = ProfileCache(self.build())
        first = self.check(cache, "u1", T0 + 3 * H)
        assert self.check(cache, "u1", T0 + DAY) is first
        assert cache.get("u1", T0 + 2 * DAY) is first  # [at - 7d, at) excludes at
        # the window still holds the click at T0 + H exactly 7 days later
        both = self.check(cache, "u1", T0 + H + WEEK)
        assert both is not first and both.n_clicks == 2
        assert self.check(cache, "u1", T0 + H + WEEK + 1.0).n_clicks == 1

    def test_users_never_share_a_profile(self):
        arts = [make_article("a", tags=("x",), embedding=[1, 0, 0, 0]),
                make_article("b", tags=("y",), embedding=[0, 1, 0, 0])]
        cache = ProfileCache(make_corpus(arts, [click("u1", "a", T0), click("u2", "b", T0)]))
        u1, u2 = self.check(cache, "u1", T0 + H), self.check(cache, "u2", T0 + H)
        assert u1 is not u2
        assert (u1.tag_freq, u2.tag_freq) == ({"x": 1}, {"y": 1})

    def test_click_entering_or_leaving_gives_new_profile(self):
        cache = ProfileCache(self.build())
        only_a = self.check(cache, "u1", T0 + DAY)
        both = self.check(cache, "u1", T0 + 2 * DAY + H)  # b enters
        only_b = self.check(cache, "u1", T0 + H + WEEK + 1.0)  # a leaves
        empty = self.check(cache, "u1", T0 + 10 * DAY)  # b leaves
        assert len({id(p) for p in (only_a, both, only_b, empty)}) == 4
        assert [p.n_clicks for p in (only_a, both, only_b, empty)] == [1, 2, 1, 0]
        assert (only_a.tag_freq, only_b.tag_freq) == ({"x": 1}, {"y": 1})

    def test_unknown_user_has_empty_profile(self):
        cache = ProfileCache(self.build())
        profile = self.check(cache, "nobody", T0 + DAY)
        assert profile.n_clicks == 0 and profile.embedding_norm == 0.0


class TestExtract:
    def test_empty_profile_conventions(self):
        art = make_article("a1", tags=("a",), authors=("x",), embedding=[1, 0, 0, 0])
        prof = empty_profile("u1", 4)
        names = feature_names(4)
        fv = extract_row(prof, art, T0)
        get = lambda name: fv[names.index(name)]
        assert get("ua_tag_jaccard") == 0.0
        assert get("ua_author_jaccard") == 0.0
        assert get("ua_section_match") == 0.0
        assert get("ua_embedding_cosine") == 0.0
        assert get("ua_length_ratio") == 1.0

    def test_self_profile_similarity(self):
        art = make_article("a1", tags=("a", "b"), authors=("x",),
                           embedding=[1, 2, 0, 0], word_count=60)
        corpus = corpus_with_clicks([art], [click("u1", "a1", T0 - 5)])
        prof = build_profile(corpus, "u1", T0)
        names = feature_names(4)
        fv = extract_row(prof, art, T0, corpus=corpus)
        get = lambda name: fv[names.index(name)]
        assert get("ua_tag_jaccard") == 1.0
        assert get("ua_author_jaccard") == 1.0
        assert get("ua_section_match") == 1.0
        assert get("ua_embedding_cosine") == pytest.approx(1.0)
        assert get("ua_length_ratio") == pytest.approx(1.0)

    def test_tag_jaccard_hand_oracle(self):
        profile_arts = [make_article(f"p{i}", tags=(t,)) for i, t in enumerate("abc")]
        cand = make_article("cand", tags=("b", "c", "d"))
        events = [click("u1", f"p{i}", T0 - 10 - i) for i in range(3)]
        corpus = corpus_with_clicks(profile_arts + [cand], events)
        prof = build_profile(corpus, "u1", T0)
        names = feature_names(4)
        fv = extract_row(prof, cand, T0, corpus=corpus)
        # brute-force set-overlap oracle
        inter = {"a", "b", "c"} & {"b", "c", "d"}
        union = {"a", "b", "c"} | {"b", "c", "d"}
        assert fv[names.index("ua_tag_jaccard")] == pytest.approx(len(inter) / len(union))
        assert fv[names.index("ua_tag_jaccard")] == pytest.approx(0.5)

    def test_purity_and_finiteness(self):
        # a corpus rejects hapax + 2 * dis above the word count
        art = make_article("a1", word_count=0, hapax_count=0, dis_count=0,
                           embedding=[0, 0, 0, 0])
        prof = empty_profile("u1", 4)
        v1 = extract_row(prof, art, T0)
        v2 = extract_row(prof, art, T0)
        assert np.array_equal(v1, v2)
        assert np.isfinite(v1).all()

    def test_dimension_mismatch_raises(self):
        art = make_article("a1", dim=8)
        prof = empty_profile("u1", 4)
        with pytest.raises(FeatureError, match="dim"):
            extract_row(prof, art, T0, dim=8)
        prof = dataclasses.replace(prof, mean_embedding=np.ones(4))
        with pytest.raises(FeatureError, match="dim"):
            extract_row(prof, art, T0, dim=8)

    def test_width_matches_schema(self):
        art = make_article("a1")
        width = len(feature_names(4))
        assert article_table(corpus_with_clicks([art], [])).width == width
        assert len(extract_row(empty_profile("u1", 4), art, T0)) == width

    def test_schema_json(self, tmp_path):
        write_schema(4, tmp_path / "schema.json")
        payload = json.loads((tmp_path / "schema.json").read_text())
        assert payload["features"] == feature_names(4)
        assert payload["width"] == len(payload["features"])
        assert payload["embedding_dim"] == 4
        assert (payload["section_buckets"], payload["top_k"]) == (16, 3)
        assert payload["schema_version"] == SCHEMA_VERSION


class TestExtractMatrix:
    def test_matches_scalar_extract(self, tiny_world):
        cfg, corpus, _ = tiny_world
        at = cfg.start + 3 * 86400.0
        ids = sorted(corpus.articles)[:40]
        profs = [build_profile(corpus, uid, at) for uid in corpus.user_ids()[:5]]
        M = extract_matrix(profs, ids, at, corpus)
        assert M.shape == (len(profs) * len(ids), article_table(corpus).width)
        jaccards = [feature_names(cfg.embedding_dim).index(f"ua_{attr}_jaccard")
                    for attr in ("tag", "author")]
        for u, prof in enumerate(profs):
            for i, aid in enumerate(ids[:10]):
                row = extract(prof, corpus.articles[aid], at)
                assert np.allclose(M[u * len(ids) + i], row, atol=1e-12), aid
                # counted overlaps: the quotient of two integers, exactly
                assert np.array_equal(M[u * len(ids) + i, jaccards], row[jaccards]), aid

    def test_all_finite_over_world(self, tiny_world):
        cfg, corpus, _ = tiny_world
        prof = empty_profile("u1", cfg.embedding_dim)
        M = extract_matrix([prof], sorted(corpus.articles), cfg.start, corpus)
        assert np.isfinite(M).all()

    def test_dimension_mismatch_in_any_profile_raises(self, tiny_world):
        cfg, corpus, _ = tiny_world
        good = empty_profile("u1", cfg.embedding_dim)
        with pytest.raises(FeatureError, match="dim"):
            extract_matrix([good, empty_profile("u2", 4)], sorted(corpus.articles), T0,
                           corpus)


def _drawn_profile(corpus, kind, user, at):
    built = build_profile(corpus, user, at)
    if kind == "empty":
        return empty_profile(user, corpus.embedding_dim)
    if kind == "zero-embedding":  # clicks, but a mean embedding of norm 0
        return dataclasses.replace(built, mean_embedding=np.zeros(corpus.embedding_dim))
    return built


ALL_ROWS = list(range(50))  # tiny_world's articles, by position in sorted ids


@given(hour=st.integers(0, 5 * 24),
       drawn=st.lists(st.tuples(st.sampled_from(["built", "empty", "zero-embedding"]),
                                st.integers(0, 19), st.integers(-48, 0)), max_size=5),
       repeat=st.booleans(),
       positions=st.lists(st.integers(0, 49), unique=True, max_size=12))
@example(hour=72, drawn=[("built", 0, 0)], repeat=False, positions=ALL_ROWS)
@example(hour=72, drawn=[("built", 0, 0), ("built", 1, 0)], repeat=True, positions=ALL_ROWS)
@example(hour=72, drawn=[("empty", 0, 0), ("built", 1, 0), ("zero-embedding", 2, 0)],
         repeat=False, positions=ALL_ROWS)
@example(hour=72, drawn=[("built", 0, 0), ("built", 1, 0)], repeat=False, positions=[])
def test_stacked_profiles_equal_one_profile_calls(tiny_world, hour, drawn, repeat, positions):
    cfg, corpus, _ = tiny_world
    users, ids = corpus.user_ids(), sorted(corpus.articles)
    assert len(ids) == len(ALL_ROWS)
    at = cfg.start + hour * H
    profs = [_drawn_profile(corpus, kind, users[u % len(users)], at + back * H)
             for kind, u, back in drawn]
    if profs and repeat:
        profs.append(profs[0])  # the same profile object twice in one call
    ids = [ids[i] for i in positions]
    width = article_table(corpus).width
    stacked = extract_matrix(profs, ids, at, corpus)
    one_by_one = [extract_matrix([p], ids, at, corpus) for p in profs]
    assert stacked.shape == (len(profs) * len(ids), width)
    assert np.array_equal(stacked, np.concatenate(one_by_one or [np.zeros((0, width))]))


@given(a=st.frozensets(st.sampled_from("abcdef"), max_size=5),
       b=st.frozensets(st.sampled_from("abcdef"), max_size=5))
def test_jaccard_symmetric(a, b):
    assert _jaccard(a, b) == _jaccard(b, a)


@given(u=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
       v=st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_cosine_bounded(u, v):
    c = _cosine(np.array(u), np.array(v))
    assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


class TestBuildTrainingSet:
    def _day(self, cfg, offset):
        return dt.datetime.fromtimestamp(cfg.start + offset * 86400.0,
                                         tz=dt.timezone.utc).date()

    def test_equal_ratio_and_determinism(self, tiny_world):
        cfg, corpus, _ = tiny_world
        day = self._day(cfg, 2)
        X1, y1, ev1 = build_training_set(corpus, day, 11)
        X2, y2, ev2 = build_training_set(corpus, day, 11)
        assert X1.shape == (len(y1), article_table(corpus).width)
        assert len(ev1) == len(y1)
        assert (y1 == 1).sum() == (y1 == 0).sum() > 0
        assert ev1 == ev2
        assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
        _, y3, ev3 = build_training_set(corpus, day, 12)
        assert [(e.user_id, e.article_id) for e, label in zip(ev3, y3) if label == 0] != \
               [(e.user_id, e.article_id) for e, label in zip(ev1, y1) if label == 0]

    def test_rows_are_extract_matrix_rows(self, tiny_world):
        cfg, corpus, _ = tiny_world
        X, y, events = build_training_set(corpus, self._day(cfg, 2), 11)
        keys = [(e.at, e.user_id, e.article_id, -label) for e, label in zip(events, y)]
        assert keys == sorted(keys)
        for row, label, e in zip(X, y, events):
            assert label == (e.kind is Kind.CLICK)
            profile = build_profile(corpus, e.user_id, e.at)
            assert (row == extract_matrix([profile], [e.article_id], e.at, corpus)[0]).all()

    def test_negative_exhaustion(self):
        arts = [make_article(f"a{i}") for i in range(6)]
        events = []
        for i in range(4):  # 4 clicks
            events.append(click("u1", f"a{i}", T0 + 60 * i))
        events.append(impression("u1", "a4", T0 + 1000))
        events.append(impression("u1", "a5", T0 + 2000))
        corpus = corpus_with_clicks(arts, events)
        day = dt.datetime.fromtimestamp(T0, tz=dt.timezone.utc).date()
        _, y, _ = build_training_set(corpus, day, 0)
        assert (y == 1).sum() == 4
        assert (y == 0).sum() == 2  # all that exist

    def test_clicked_impressions_not_negatives(self):
        arts = [make_article("a0"), make_article("a1")]
        events = [impression("u1", "a0", T0 + 10), click("u1", "a0", T0 + 20),
                  impression("u1", "a1", T0 + 30)]
        corpus = corpus_with_clicks(arts, events)
        day = dt.datetime.fromtimestamp(T0, tz=dt.timezone.utc).date()
        _, y, events = build_training_set(corpus, day, 0)
        neg_ids = [e.article_id for e, label in zip(events, y) if label == 0]
        assert neg_ids == ["a1"]

    def test_zero_positives_empty(self):
        arts = [make_article("a0")]
        corpus = corpus_with_clicks(arts, [impression("u1", "a0", T0 + 10)])
        day = dt.datetime.fromtimestamp(T0, tz=dt.timezone.utc).date()
        X, y, events = build_training_set(corpus, day, 0)
        assert X.shape == (0, article_table(corpus).width)
        assert y.shape == (0,)
        assert events == []
