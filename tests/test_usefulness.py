import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from newsrec.corpus import DAY
from newsrec.features import ProfileCache, UserProfile, build_profile, empty_profile
from newsrec.ranker import RankedList, Section
from newsrec.usefulness import (AttributeKind, CoverageScope, MetricSample, align, coverage,
                                dynamism, entropy, gini, intra_list_diversity, serendipity,
                                sim, unexpectedness, write_metric_samples)

from conftest import T0, click, make_article, make_corpus


def profile_with(tag_freq=None, author_freq=None, section_freq=None,
                 mean_embedding=None, n_clicks=1, dim=4):
    return UserProfile(
        user_id="u1", tag_freq=tag_freq or {}, author_freq=author_freq or {},
        section_freq=section_freq or {}, mean_word_count=100.0,
        mean_embedding=np.zeros(dim) if mean_embedding is None
        else np.asarray(mean_embedding, dtype=float),
        n_clicks=n_clicks)


def ranked(user, section, at, ids):
    return RankedList(user, section, at, tuple(ids),
                      tuple(float(len(ids) - i) for i in range(len(ids))))


class TestSim:
    def test_identical_tag_sets(self):
        a = make_article("a", tags=("x", "y"))
        b = make_article("b", tags=("x", "y"))
        assert sim(a, b, AttributeKind.TAGS) == 1.0

    def test_jaccard_arithmetic(self):
        a = make_article("a", tags=("a", "b"))
        b = make_article("b", tags=("b", "c"))
        assert sim(a, b, AttributeKind.TAGS) == pytest.approx(1 / 3)

    def test_section_singleton_set(self):
        a = make_article("a", section="s1")
        b = make_article("b", section="s2")
        assert sim(a, b, AttributeKind.SECTION) == 0.0
        assert sim(a, a, AttributeKind.SECTION) == 1.0

    def test_orthogonal_embeddings(self):
        a = make_article("a", embedding=[1, 0, 0, 0])
        b = make_article("b", embedding=[0, 1, 0, 0])
        assert sim(a, b, AttributeKind.EMBEDDING) == pytest.approx(0.5)

    def test_zero_embedding_convention(self):
        a = make_article("a", embedding=[0, 0, 0, 0])
        b = make_article("b", embedding=[1, 0, 0, 0])
        assert sim(a, b, AttributeKind.EMBEDDING) == 0.0

    def test_self_similarity_one(self):
        a = make_article("a", tags=("x",), authors=("p",), embedding=[1, 2, 0, 0])
        for attr in AttributeKind:
            assert sim(a, a, attr) == pytest.approx(1.0)


def brute_force_diversity(articles, attr):
    """Explicit double-loop oracle for the pairwise diversity formula."""
    n = len(articles)
    sims = []
    for i in range(n):
        for j in range(i + 1, n):
            sims.append(sim(articles[i], articles[j], attr))
    if attr is AttributeKind.EMBEDDING and max(sims) > 0:
        sims = [s / max(sims) for s in sims]
    return sum(1 - s for s in sims) / (n * (n - 1) / 2)


class TestIntraListDiversity:
    def test_identical_items_zero(self):
        arts = [make_article(f"a{i}", tags=("x",)) for i in range(4)]
        assert intra_list_diversity(arts, AttributeKind.TAGS) == 0.0

    def test_disjoint_items_one(self):
        arts = [make_article(f"a{i}", tags=(f"t{i}",)) for i in range(4)]
        assert intra_list_diversity(arts, AttributeKind.TAGS) == 1.0

    def test_hand_oracle_three_items(self):
        arts = [make_article("a1", tags=("a", "b")),
                make_article("a2", tags=("b", "c")),
                make_article("a3", tags=("d",))]
        value = intra_list_diversity(arts, AttributeKind.TAGS)
        assert value == pytest.approx(((1 - 1 / 3) + 1 + 1) / 3)
        assert value == pytest.approx(8 / 9)

    def test_short_list_undefined(self):
        assert intra_list_diversity([make_article("a")], AttributeKind.TAGS) is None
        assert intra_list_diversity([], AttributeKind.TAGS) is None

    def test_embedding_max_normalization(self):
        arts = [make_article("a1", embedding=[1, 0, 0, 0]),
                make_article("a2", embedding=[1, 0.1, 0, 0]),
                make_article("a3", embedding=[0, 1, 0, 0])]
        value = intra_list_diversity(arts, AttributeKind.EMBEDDING)
        assert value == pytest.approx(brute_force_diversity(arts, AttributeKind.EMBEDDING))

    def test_all_zero_embeddings_fully_diverse(self):
        arts = [make_article(f"a{i}", embedding=[0, 0, 0, 0]) for i in range(3)]
        assert intra_list_diversity(arts, AttributeKind.EMBEDDING) == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        arts = [make_article(f"a{i}", tags=tuple(rng.choice(list("abcde"),
                                                            size=2, replace=False)),
                             embedding=rng.normal(size=4))
                for i in range(5)]
        for attr in AttributeKind:
            base = intra_list_diversity(arts, attr)
            for _ in range(5):
                perm = list(rng.permutation(5))
                shuffled = [arts[i] for i in perm]
                assert intra_list_diversity(shuffled, attr) == pytest.approx(base)


class TestDynamism:
    def test_identical_lists_zero(self):
        l1 = ranked("u", Section.MN_PAGE, T0, ["a", "b", "c"])
        assert dynamism(l1, l1) == 0.0

    def test_disjoint_lists_one(self):
        l1 = ranked("u", Section.MN_PAGE, T0, ["a", "b"])
        l2 = ranked("u", Section.MN_PAGE, T0 + 1, ["c", "d"])
        assert dynamism(l1, l2) == 1.0

    def test_direct_set_difference(self):
        l1 = ranked("u", Section.MN_PAGE, T0, ["a", "b", "c", "d", "e"])
        l2 = ranked("u", Section.MN_PAGE, T0 + 1, ["a", "b", "x", "y", "z"])
        assert dynamism(l1, l2) == pytest.approx(0.6)

    def test_empty_newer_list_undefined(self):
        l1 = ranked("u", Section.MN_PAGE, T0, ["a"])
        l2 = ranked("u", Section.MN_PAGE, T0 + 1, [])
        assert dynamism(l1, l2) is None

    def test_not_symmetric(self):
        l1 = ["a", "b"]
        l2 = ["a", "x", "y", "z", "w"]
        assert dynamism(l1, l2) == pytest.approx(4 / 5)
        assert dynamism(l2, l1) == pytest.approx(1 / 2)
        assert dynamism(l1, l2) != dynamism(l2, l1)


class TestSerendipity:
    def test_unseen_tags_fully_unexpected(self):
        prof = profile_with(tag_freq={"x": 2})
        art = make_article("a", tags=("p", "q"))
        assert serendipity([art], prof, AttributeKind.TAGS) == 1.0

    def test_embedding_match_fully_expected(self):
        prof = profile_with(mean_embedding=[1, 2, 0, 0])
        art = make_article("a", embedding=[2, 4, 0, 0])  # same direction
        assert serendipity([art], prof, AttributeKind.EMBEDDING) == pytest.approx(0.0)

    def test_frequency_mass_hand_oracle(self):
        prof = profile_with(tag_freq={"a": 3, "b": 1})
        art = make_article("x", tags=("a",))
        # mass of "a" = 3/4 -> unexpectedness 1/4
        assert serendipity([art], prof, AttributeKind.TAGS) == pytest.approx(0.25)

    def test_mass_clamped_to_one(self):
        prof = profile_with(tag_freq={"a": 3, "b": 1})
        art = make_article("x", tags=("a", "b", "zz"))
        value = serendipity([art], prof, AttributeKind.TAGS)
        assert value == 0.0  # mass 1.0 clamped, never negative

    def test_empty_profile_everything_new(self):
        prof = empty_profile("u1", 4)
        arts = [make_article("a", tags=("t",), embedding=[1, 0, 0, 0])]
        for attr in AttributeKind:
            assert serendipity(arts, prof, attr) == 1.0

    def test_empty_list_no_sample(self):
        assert serendipity([], profile_with(), AttributeKind.TAGS) is None

    def test_new_article_never_decreases(self):
        prof = profile_with(tag_freq={"a": 5, "b": 2})
        base = [make_article("x", tags=("a",)), make_article("y", tags=("a", "b"))]
        before = serendipity(base, prof, AttributeKind.TAGS)
        extended = base + [make_article("z", tags=("never-seen",))]
        after = serendipity(extended, prof, AttributeKind.TAGS)
        assert after >= before


H = 3600.0


@st.composite
def small_corpora(draw):
    """A corpus of one zero-embedding article ("z") and up to five drawn
    ones, with drawn clicks by "u1" and "u2"; "u0" never clicks."""
    arts = [make_article("z", section="s0", tags=("a",), authors=("p",))]
    for i in range(draw(st.integers(1, 5))):
        arts.append(make_article(
            f"a{i}", section=draw(st.sampled_from(["s0", "s1", "s2"])),
            tags=draw(st.frozensets(st.sampled_from("abcd"), max_size=3)),
            authors=draw(st.frozensets(st.sampled_from("pq"), max_size=2)),
            embedding=draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4))))
    ids = [a.id for a in arts]
    clicks = [click(user, aid, T0 + h * H) for user, aid, h in draw(st.lists(
        st.tuples(st.sampled_from(["u1", "u2"]), st.sampled_from(ids), st.integers(0, 240)),
        max_size=12))]
    return make_corpus(arts, clicks)


def pair_rule_values(article, attr):
    return {AttributeKind.SECTION: frozenset((article.section,)),
            AttributeKind.TAGS: article.tags, AttributeKind.AUTHORS: article.authors}[attr]


def pair_rule_cosine01(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return (float(u @ v / (nu * nv)) + 1.0) / 2.0


def pair_rule_diversity(articles, attr):
    """Diversity by the per-pair rule: each pair takes its norms and value
    sets afresh, nothing is cached."""
    n = len(articles)
    if n < 2:
        return None
    sims = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = articles[i], articles[j]
            if attr is AttributeKind.EMBEDDING:
                sims.append(pair_rule_cosine01(a.embedding, b.embedding))
            else:
                va, vb = pair_rule_values(a, attr), pair_rule_values(b, attr)
                sims.append(len(va & vb) / len(va | vb) if va | vb else 1.0)
    if attr is AttributeKind.EMBEDDING and max(sims) > 0.0:
        top = max(sims)
        sims = [s / top for s in sims]
    return sum(1.0 - s for s in sims) / len(sims)


def pair_rule_serendipity(articles, profile, attr):
    """Serendipity by the per-item rule: each item takes the profile's
    frequency total and the mean embedding's norm afresh."""
    if not articles:
        return None
    terms = []
    for a in articles:
        if profile.n_clicks == 0:
            terms.append(1.0)
        elif attr is AttributeKind.EMBEDDING:
            terms.append(1.0 - pair_rule_cosine01(profile.mean_embedding, a.embedding))
        else:
            freq = {AttributeKind.SECTION: profile.section_freq,
                    AttributeKind.TAGS: profile.tag_freq,
                    AttributeKind.AUTHORS: profile.author_freq}[attr]
            total = sum(freq.values())
            mass = sum(freq.get(v, 0) for v in pair_rule_values(a, attr)) / total if total else 0.0
            terms.append(1.0 - min(mass, 1.0))
    return sum(terms) / len(articles)


def definitions_match_pair_rule(corpus, ids, user, at, profiles=None):
    profiles = profiles or ProfileCache(corpus)
    articles = [corpus.articles[aid] for aid in ids]
    profile = build_profile(corpus, user, at)
    for attr in AttributeKind:
        assert intra_list_diversity(articles, attr) == pair_rule_diversity(articles, attr)
        assert (serendipity(articles, profiles.get(user, at), attr)
                == pair_rule_serendipity(articles, profile, attr))


class TestPairRuleOracle:
    """The definitions, reading each article's cached norm and section set
    and each list's frequency total once, give the same float as the
    per-pair rule that recomputes them."""

    @given(st.data())
    def test_random_lists(self, data):
        # one profile cache answers several lists, users and instants, as in a study
        corpus = data.draw(small_corpora())
        profiles = ProfileCache(corpus)
        for _ in range(data.draw(st.integers(1, 4))):
            ids = data.draw(st.lists(st.sampled_from(sorted(corpus.articles)), max_size=7))
            user = data.draw(st.sampled_from(["u0", "u1", "u2"]))
            at = T0 + data.draw(st.integers(0, 420)) * H
            definitions_match_pair_rule(corpus, ids, user, at, profiles)

    @pytest.mark.parametrize("ids", [
        [], ["a"], ["z", "a"], ["a", "a"], ["a", "z", "b", "a", "c"], ["z", "z", "z"],
    ], ids=["empty", "one-item", "zero-embedding", "repeated-id", "mixed", "all-zero"])
    @pytest.mark.parametrize("user", ["u0", "u1"], ids=["empty-history", "history"])
    def test_edge_lists(self, ids, user):
        arts = [make_article("z", tags=("x",)),
                make_article("a", section="s1", tags=("x", "y"), authors=("p",),
                             embedding=[1, 2, 0, 0]),
                make_article("b", tags=("y",), authors=("p", "q"), embedding=[0, -1, 3, 0]),
                make_article("c", section="s2", embedding=[1, 1, 1, 1])]
        clicks = [click("u1", "a", T0 + H), click("u1", "z", T0 + 2 * H),
                  click("u1", "c", T0 + 3 * H)]
        definitions_match_pair_rule(make_corpus(arts, clicks), ids, user, T0 + DAY)

    def test_zero_mean_embedding_profile(self):
        # the only click in the window is on the zero-embedding article
        arts = [make_article("z"), make_article("a", embedding=[1, 0, 0, 0])]
        corpus = make_corpus(arts, [click("u1", "z", T0)])
        profile = ProfileCache(corpus).get("u1", T0 + H)
        assert profile.embedding_norm == 0.0 and profile.n_clicks == 1
        definitions_match_pair_rule(corpus, ["a", "z"], "u1", T0 + H)


class TestPrecomputedTerms:
    """Given a list's terms, `intra_list_diversity` and `serendipity` only
    aggregate them; the terms `sim` and `unexpectedness` give, in (i, j),
    i < j, and list order, make the floats they compute themselves."""

    @given(st.data())
    def test_terms_give_the_computed_floats(self, data):
        corpus = data.draw(small_corpora())
        ids = data.draw(st.lists(st.sampled_from(sorted(corpus.articles)), max_size=7))
        articles = [corpus.articles[aid] for aid in ids]
        profile = build_profile(corpus, data.draw(st.sampled_from(["u0", "u1", "u2"])),
                                T0 + data.draw(st.integers(0, 420)) * H)
        n = len(articles)
        for attr in AttributeKind:
            sims = [sim(articles[i], articles[j], attr) for i in range(n) for j in range(i + 1, n)]
            terms = [unexpectedness(a, profile, attr) for a in articles]
            assert (intra_list_diversity(articles, attr, sims=sims)
                    == intra_list_diversity(articles, attr))
            assert serendipity(articles, profile, attr, terms=terms) == serendipity(
                articles, profile, attr)

    def test_given_terms_are_aggregated(self):
        arts = [make_article(f"a{i}", tags=("x",)) for i in range(3)]
        assert intra_list_diversity(arts, AttributeKind.TAGS, sims=[0.25, 0.5, 0.75]) == 0.5
        # embedding similarities are still divided by the list's maximum
        assert intra_list_diversity(arts, AttributeKind.EMBEDDING,
                                    sims=[0.25, 0.5, 0.5]) == pytest.approx(1 / 6)
        prof = profile_with(tag_freq={"x": 1})
        assert serendipity(arts, prof, AttributeKind.TAGS, terms=[0.5, 1.0, 0.0]) == 0.5
        # an empty history keeps its rule: every item is unexpected
        assert serendipity(arts, profile_with(n_clicks=0), AttributeKind.TAGS,
                           terms=[0.5, 1.0, 0.0]) == 1.0

    @pytest.mark.parametrize("n, given_n", [(3, 2), (3, 4), (1, 1), (0, 1), (2, 0)])
    def test_wrong_length_refused(self, n, given_n):
        arts = [make_article(f"a{i}", tags=("x",)) for i in range(n)]
        prof = profile_with(tag_freq={"x": 1})
        with pytest.raises(ValueError, match=f"{given_n} pair similarities for a list of {n}"):
            intra_list_diversity(arts, AttributeKind.TAGS, sims=[0.5] * given_n)
        if given_n != n:
            with pytest.raises(ValueError, match=f"{given_n} item terms for a list of {n}"):
                serendipity(arts, prof, AttributeKind.TAGS, terms=[0.5] * given_n)


class TestCoverage:
    def test_per_user_fraction(self):
        published = [f"p{i}" for i in range(70)]
        lists = [ranked("u1", Section.MN_WIDGET, T0 + i, [f"p{i}"]) for i in range(7)]
        assert coverage(lists, published, CoverageScope.PER_USER) == pytest.approx(0.1)

    def test_union_vs_mean(self):
        published = [f"p{i}" for i in range(10)]
        lists = [ranked("u1", Section.MN_WIDGET, T0, [f"p{i}" for i in range(5)]),
                 ranked("u2", Section.MN_WIDGET, T0, [f"p{i}" for i in range(5, 10)])]
        assert coverage(lists, published, CoverageScope.ALL_USERS) == 1.0
        assert coverage(lists, published, CoverageScope.PER_USER) == pytest.approx(0.5)
        id_lists = [list(l.ids) for l in lists]  # ALL_USERS also takes plain id sequences
        assert coverage(id_lists, published, CoverageScope.ALL_USERS) == 1.0

    def test_all_users_dominates_per_user(self):
        rng = np.random.default_rng(4)
        published = [f"p{i}" for i in range(30)]
        lists = []
        for u in range(6):
            for t in range(4):
                ids = rng.choice(published, size=5, replace=False)
                lists.append(ranked(f"u{u}", Section.MN_WIDGET, T0 + t, list(ids)))
        per_user_values = [
            coverage([l for l in lists if l.user_id == f"u{u}"], published,
                     CoverageScope.ALL_USERS)
            for u in range(6)
        ]
        all_users = coverage(lists, published, CoverageScope.ALL_USERS)
        assert all_users >= max(per_user_values)
        assert all_users >= coverage(lists, published, CoverageScope.PER_USER)

    def test_empty_published_no_sample(self):
        assert coverage([], [], CoverageScope.ALL_USERS) is None


def brute_force_gini(counts):
    """O(k^2) pairwise-difference oracle."""
    counts = list(counts)
    k = len(counts)
    mean = sum(counts) / k
    if mean == 0:
        return 0.0
    mad = sum(abs(a - b) for a in counts for b in counts) / (k * k)
    return mad / (2 * mean)


class TestGiniEntropy:
    def test_uniform_counts(self):
        freqs = {c: 4 for c in "abcde"}
        assert gini(freqs) == pytest.approx(0.0)
        assert entropy(freqs) == pytest.approx(math.log2(5))

    def test_single_value(self):
        assert gini({"a": 9}) == 0.0
        assert entropy({"a": 9}) == 0.0

    def test_hand_example(self):
        freqs = {"a": 8, "b": 2}
        expected_entropy = -0.8 * math.log2(0.8) - 0.2 * math.log2(0.2)
        assert entropy(freqs) == pytest.approx(expected_entropy, abs=1e-10)
        assert entropy(freqs) == pytest.approx(0.7219, abs=5e-5)
        assert gini(freqs) == pytest.approx(brute_force_gini([8, 2]), abs=1e-12)

    def test_empty_no_sample(self):
        assert gini({}) is None
        assert entropy({}) is None

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=12))
    def test_gini_matches_pairwise_oracle(self, counts):
        assert gini(counts) == pytest.approx(brute_force_gini(counts), abs=1e-12)


class TestAlign:
    def manual(self, at):
        return ranked("__manual__", Section.MANUAL, at, ["m1", "m2"])

    def test_pair_counts_full_histories(self):
        # 377 manual updates x 115 users, all users emitted before the first
        manual = [self.manual(T0 + 60.0 * i) for i in range(377)]
        recsys = [ranked(f"u{u:03d}", Section.MN_WIDGET, T0 - 1.0, ["a"])
                  for u in range(115)]
        pairs = align(manual, recsys)
        assert len(pairs) == 377 * 115 == 43355

    def test_manual_before_any_emission_skipped(self):
        manual = [self.manual(T0)]
        recsys = [ranked("u1", Section.MN_WIDGET, T0 + 10, ["a"])]
        assert align(manual, recsys) == []

    def test_most_recent_at_or_before(self):
        manual = [self.manual(T0 + 100)]
        older = ranked("u1", Section.MN_WIDGET, T0 + 50, ["old"])
        newer = ranked("u1", Section.MN_WIDGET, T0 + 100, ["exact"])
        later = ranked("u1", Section.MN_WIDGET, T0 + 150, ["future"])
        pairs = align(manual, [later, older, newer])
        assert len(pairs) == 1
        assert pairs[0][1].ids == ("exact",)

    def test_interleaving_invariance(self):
        rng = np.random.default_rng(8)
        manual = [self.manual(T0 + 3600.0 * i) for i in range(5)]
        recsys = [ranked(f"u{u}", Section.MN_WIDGET, T0 + 1800.0 * i, [f"a{u}{i}"])
                  for u in range(3) for i in range(6)]
        base = align(manual, recsys)
        for _ in range(3):
            shuffled = list(recsys)
            rng.shuffle(shuffled)
            assert align(manual, shuffled) == base


def test_metric_samples_csv(tmp_path):
    samples = [MetricSample("diversity", 0.5, AttributeKind.TAGS, "baseline",
                            "mn_widget", T0)]
    write_metric_samples(tmp_path / "m.csv", samples)
    with open(tmp_path / "m.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "attribute", "treatment", "scope", "value", "timestamp"]
    assert rows[1][0] == "diversity"
    assert float(rows[1][4]) == 0.5
