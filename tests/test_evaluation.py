import datetime as dt
import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from newsrec import evaluation, usefulness
from newsrec.corpus import DAY, Corpus
from newsrec.evaluation import (EvalError, TTestVariant, behavior_shift,
                                collect_metric_samples, compare_manual_recsys,
                                compare_treatments, ensemble_scorer, ndcg, offline_eval,
                                precision_recall_at, regularized_incomplete_beta,
                                t_test)
from newsrec.features import ProfileCache, article_table, build_profile
from newsrec.gbdt import TrainConfig, TreeEnsemble
from newsrec.ranker import (MANUAL_USER, PipelineConfig, RankedList, Section,
                            Treatment, manual_lists, serve_treatments, train_schedule)
from newsrec.usefulness import AttributeKind, intra_list_diversity, serendipity

from conftest import T0, click, impression, make_article


class TestNdcg:
    def test_single_click_at_rank_one(self):
        assert ndcg(["a", "b", "c"], {"a"}) == pytest.approx(1.0)

    def test_single_click_at_rank_two(self):
        # hand DCG: rel at rank 2 -> 1/log2(3); ideal -> 1/log2(2) = 1
        value = ndcg(["x", "a", "y", "z", "w"], {"a"})
        assert value == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
        assert value == pytest.approx(0.6309, abs=5e-5)

    def test_absent_click_no_sample(self):
        assert ndcg(["x", "y"], {"a"}) is None

    def test_empty_ranking_no_sample(self):
        assert ndcg([], {"a"}) is None

    def test_one_iff_clicked_fill_top_ranks(self):
        assert ndcg(["a", "b", "x", "y"], {"a", "b"}) == pytest.approx(1.0)
        assert ndcg(["a", "x", "b", "y"], {"a", "b"}) < 1.0

    def test_idcg_uses_all_clicked_even_if_ranking_short(self):
        # two clicked, only one rankable: cannot reach 1
        assert ndcg(["a"], {"a", "b"}) == pytest.approx(
            1.0 / (1.0 + 1.0 / math.log2(3.0)))

    @given(st.integers(1, 8), st.integers(0, 30))
    def test_bounded_by_one(self, n_clicked, seed):
        rng = np.random.default_rng(seed)
        ranking = [f"a{i}" for i in rng.permutation(10)]
        clicked = set(rng.choice([f"a{i}" for i in range(10)], size=n_clicked,
                                 replace=False))
        value = ndcg(ranking, clicked)
        assert value is None or value <= 1.0 + 1e-12


class TestPrecisionRecall:
    def test_hand_example(self):
        ranking = ["c1", "x", "c2", "y", "z", "c3"]
        clicked = {"c1", "c2", "c3", "c4"}
        p, r = precision_recall_at(ranking, clicked, 5)
        assert p == pytest.approx(2 / 5)
        assert r == pytest.approx(2 / 4)

    def test_all_clicked_in_topk(self):
        p, r = precision_recall_at(["a", "b", "x"], {"a", "b"}, 3)
        assert r == 1.0

    def test_short_ranking_keeps_k_denominator(self):
        p, r = precision_recall_at(["a"], {"a"}, 5)
        assert p == pytest.approx(1 / 5)
        assert r == 1.0

    def test_no_clicks_no_sample(self):
        assert precision_recall_at(["a"], set(), 5) is None

    @given(st.integers(0, 50))
    def test_shared_hit_count(self, seed):
        rng = np.random.default_rng(seed)
        ids = [f"a{i}" for i in range(12)]
        ranking = list(rng.permutation(ids))
        clicked = set(rng.choice(ids, size=int(rng.integers(1, 6)), replace=False))
        k = int(rng.integers(1, 10))
        p, r = precision_recall_at(ranking, clicked, k)
        assert p * k == pytest.approx(r * len(clicked))
        assert abs(p * k - round(p * k)) < 1e-9


class TestOfflineEval:
    def build_world(self):
        arts = [make_article(f"a{i}", T0 + (i % 3) * 3600) for i in range(6)]
        events = []
        for u, (clicked, seen) in enumerate([("a0", ["a1", "a2"]),
                                             ("a3", ["a4", "a5"])]):
            uid = f"u{u}"
            events.append(click(uid, clicked, T0 + 10 * 3600 + u))
            for i, aid in enumerate(seen):
                events.append(impression(uid, aid, T0 + 11 * 3600 + i + u))
        return Corpus(arts, events, 4)

    def test_oracle_scorer_perfect(self):
        corpus = self.build_world()
        clicked_ids = {"a0", "a3"}

        def oracle(profile, articles, at):
            return np.array([1.0 if a.id in clicked_ids else 0.0 for a in articles])

        day = dt.datetime.fromtimestamp(T0, tz=dt.timezone.utc).date()
        report = offline_eval(corpus, {day: oracle})
        assert report.ndcg == pytest.approx(1.0)
        assert report.n_user_days == 2
        assert report.r_at[5] == pytest.approx(1.0)

    @pytest.mark.parametrize("k, message", [
        (0, "k must be >= 1, not 0"),
        (-1, "k must be >= 1, not -1"),
        (5.5, "k must be an integer, not 5.5"),
        (5, "k 5 is listed more than once"),  # its user-days would count twice
    ], ids=["zero", "negative", "fractional", "repeated"])
    def test_bad_k_refused_before_replay(self, k, message):
        corpus = self.build_world()
        replayed = []

        def scorer(profile, articles, at):
            replayed.append(at)
            return np.zeros(len(articles))

        day = dt.datetime.fromtimestamp(T0, tz=dt.timezone.utc).date()
        with pytest.raises(EvalError, match=re.escape(message)):
            offline_eval(corpus, {day: scorer}, ks=(5, k))
        assert replayed == []

    @pytest.mark.parametrize("output, message", [
        (lambda n: np.zeros(n - 1), "2 scores for 3 pool articles"),
        (lambda n: np.zeros(n + 2), "5 scores for 3 pool articles"),
        (lambda n: np.zeros((n, 1)), "shape (3, 1) scores for 3 pool articles"),
        (lambda n: np.array([0.5] * (n - 1) + [np.nan]), "score nan is not finite"),
        (lambda n: np.array([-np.inf] + [0.5] * (n - 1)), "score -inf is not finite"),
    ], ids=["short", "long", "2-d", "nan", "inf"])
    def test_bad_scorer_output_refused(self, output, message):
        """`_sort_items` zips articles with scores, so a short output would
        drop articles from the ranking, and a NaN would sort anywhere."""
        corpus = self.build_world()
        day = dt.datetime.fromtimestamp(T0, tz=dt.timezone.utc).date()
        with pytest.raises(EvalError, match=re.escape(f"scorer of {day}, user 'u0': {message}")):
            offline_eval(corpus, {day: lambda profile, articles, at: output(len(articles))})

    def test_schema_mismatch_refused(self):
        corpus = self.build_world()
        stale = TreeEnsemble(trees=[], learning_rate=0.1, base_score=0.0,
                             schema_version=99, n_features=1)
        narrow = TreeEnsemble(trees=[], learning_rate=0.1, base_score=0.0,
                              schema_version=1, n_features=1)
        width = article_table(corpus).width
        for model, message in ((stale, "version 99.*running schema is version 1"),
                               (narrow, f"expects 1 features.*has {width}")):
            with pytest.raises(EvalError, match=message):
                ensemble_scorer(model, corpus)

    def test_no_samples_raises(self):
        corpus = self.build_world()
        day = dt.datetime.fromtimestamp(T0 + 40 * DAY, tz=dt.timezone.utc).date()
        def scorer(profile, articles, at):
            return np.zeros(len(articles))
        with pytest.raises(EvalError):
            offline_eval(corpus, {day: scorer})


# Externally computed reference values (scipy.stats.ttest_ind), frozen.
TTEST_REFERENCE = [
    ("student", [1, 2, 3, 4, 5], [2, 3, 4, 5, 6],
     -1.0, 0.34659350708733416),
    ("student", [0.5, 0.5, 0.6, 0.7], [0.9, 1.1, 1.0, 1.2, 0.8],
     -4.69436226095058, 0.0022231285429437325),
    ("student", [10, 11, 12, 13, 14, 15, 16], [10.5, 11.5, 12.5],
     1.1224972160321824, 0.29420760887977565),
    ("student", [0.01, 0.02, 0.015, 0.017, 0.022, 0.018], [0.02, 0.025, 0.03, 0.027],
     -3.13660610729821, 0.013876148106415317),
    ("student", [-1.5, 0.3, 2.2, 0.9, -0.4, 1.1, 0.0, 0.7], [0.2, 0.5, -0.1, 0.8, 1.9, -0.6],
     -0.06891091270610282, 0.946195518174493),
    ("welch", [1, 2, 3, 4, 5], [2, 3, 4, 5, 6],
     -1.0, 0.34659350708733416),
    ("welch", [0.5, 0.5, 0.6, 0.7], [0.9, 1.1, 1.0, 1.2, 0.8],
     -4.97709037203752, 0.0018689862857043278),
    ("welch", [10, 11, 12, 13, 14, 15, 16], [10.5, 11.5, 12.5],
     1.5, 0.17338088970556623),
    ("welch", [0.01, 0.02, 0.015, 0.017, 0.022, 0.018], [0.02, 0.025, 0.03, 0.027],
     -3.1352722326441005, 0.017909498143715924),
]

# Externally computed reference values (scipy.special.betainc), frozen.
BETAINC_REFERENCE = [
    (0.5, 2.0, 3.0, 0.6875),
    (0.888888888888889, 4.0, 0.5, 0.34659350708733433),
    (0.1, 0.5, 0.5, 0.20483276469913345),
    (0.99, 5.0, 1.0, 0.9509900498999999),
    (0.3, 10.0, 2.0, 4.723919999999998e-05),
]


class TestTTest:
    def test_spec_example(self):
        r = t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert r.t_stat == pytest.approx(-1.0, abs=1e-12)
        assert r.df == 8
        assert r.p_value == pytest.approx(0.3466, abs=5e-5)

    @pytest.mark.parametrize("variant,a,b,t_ref,p_ref", TTEST_REFERENCE)
    def test_against_reference_implementation(self, variant, a, b, t_ref, p_ref):
        r = t_test(a, b, TTestVariant(variant))
        assert r.t_stat == pytest.approx(t_ref, abs=1e-10)
        assert r.p_value == pytest.approx(p_ref, abs=1e-10)

    @pytest.mark.parametrize("x,p,q,ref", BETAINC_REFERENCE)
    def test_incomplete_beta_reference(self, x, p, q, ref):
        assert regularized_incomplete_beta(x, p, q) == pytest.approx(ref, abs=1e-10)

    def test_identical_samples(self):
        r = t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.t_stat == 0.0
        assert r.p_value == 1.0
        assert not r.significant

    def test_swap_flips_sign_keeps_p(self):
        a, b = [1.0, 2.0, 3.5], [2.0, 4.0, 4.5]
        r1 = t_test(a, b)
        r2 = t_test(b, a)
        assert r1.t_stat == pytest.approx(-r2.t_stat)
        assert r1.p_value == pytest.approx(r2.p_value)

    def test_zero_variance_equal_means(self):
        r = t_test([2.0, 2.0, 2.0], [2.0, 2.0])
        assert r.t_stat == 0.0
        assert r.p_value == 1.0

    def test_zero_variance_different_means(self):
        r = t_test([2.0, 2.0], [3.0, 3.0])
        assert math.isinf(r.t_stat)
        assert r.p_value == 0.0
        assert r.significant

    def test_insufficient_n(self):
        with pytest.raises(EvalError, match="n >= 2"):
            t_test([1.0], [1.0, 2.0])

    def test_welch_df_differs_for_unequal_variances(self):
        a = [0.0, 0.1, -0.1, 0.05, -0.05]
        b = [0.0, 5.0, -5.0, 2.5, -2.5]
        student = t_test(a, b, TTestVariant.STUDENT)
        welch = t_test(a, b, TTestVariant.WELCH)
        assert student.df == 8
        assert welch.df < 8

    def test_null_p_values_roughly_uniform(self):
        # 1000 simulated nulls; Kolmogorov-Smirnov sanity check at alpha=0.01
        rng = np.random.default_rng(123)
        pvals = []
        for _ in range(1000):
            a = rng.normal(size=12)
            b = rng.normal(size=12)
            pvals.append(t_test(a, b).p_value)
        pvals = np.sort(pvals)
        n = len(pvals)
        grid = np.arange(1, n + 1) / n
        d = float(np.max(np.maximum(np.abs(grid - pvals),
                                    np.abs(pvals - (np.arange(n) / n)))))
        assert d < 1.6276 / math.sqrt(n)  # KS critical value at alpha=0.01


H = 3600.0


def hand_built_corpus():
    """Articles a, b, e published on day 0 and c, d on day 1. u1's profile
    from T0 + 1h on is one click on a; no other user clicks."""
    day0, day1 = T0 + H / 2, T0 + DAY + H / 2  # publication times
    arts = [
        make_article("a", day0, section="s1", tags=("x",), authors=("p",),
                     embedding=[1, 0, 0, 0]),
        make_article("b", day0, section="s2", tags=("x", "y"), authors=("q",),
                     embedding=[0, 1, 0, 0]),
        make_article("e", day0),  # no tags, no authors, zero embedding
        make_article("c", day1, section="s1", tags=("y",), authors=("p",),
                     embedding=[1, 0, 0, 0]),
        make_article("d", day1, section="s2", authors=("q",),
                     embedding=[0, 0, 1, 0]),
    ]
    return Corpus(arts, [click("u1", "a", T0 + H)], 4)


def hand_built_list(user, section, at, *ids, fallback=False):
    return RankedList(user, section, at, ids, tuple(float(len(ids) - i) for i in range(len(ids))),
                      fallback=fallback)


def hand_built_treatment_stream():
    """A widget stream over `hand_built_corpus` that never serves e."""
    W = Section.MN_WIDGET
    return [
        hand_built_list("u1", W, T0 + 2 * H, "a", "b"),
        hand_built_list("u2", W, T0 + 2 * H, "a"),             # one item: no diversity
        hand_built_list("u1", W, T0 + 3 * H, "b"),             # follows u1's [a, b]
        hand_built_list("u2", W, T0 + DAY + 2 * H),            # empty: no serendipity, dynamism
        hand_built_list("u2", W, T0 + DAY + 3 * H, "c", "d"),  # follows u2's empty list
        hand_built_list("u1", W, T0 + DAY + 3 * H, "c"),       # follows u1's [b]
    ]


def hand_built_study1_streams():
    """(manual, recsys) over `hand_built_corpus`."""
    W = Section.MN_WIDGET
    manual = [hand_built_list(MANUAL_USER, Section.MANUAL, at, *ids) for at, ids in (
        (T0 + 6 * H, ("b", "e")),  # out of order on purpose
        (T0 + 4 * H, ("a", "b")),
        (T0 + DAY + 4 * H, ("c", "d")),
        (T0 + DAY + 6 * H, ("d",)),
    )]
    recsys = [
        hand_built_list("u1", W, T0 + 2 * H, "a", "b"),
        hand_built_list("u2", W, T0 + 3 * H, "b"),
        # ignored: they would be u1's and u2's latest lists at 4h and 6h
        hand_built_list("u1", Section.MN_PAGE, T0 + 3 * H, "e", "a", "b"),
        hand_built_list("u1", Section.MISSED_LW, T0 + 3 * H, "e"),
        hand_built_list("u2", W, T0 + 3.5 * H, "a", "e", fallback=True),
        hand_built_list("u1", W, T0 + 5 * H, "b"),
        hand_built_list("u3", W, T0 + 5 * H, "a"),  # nothing before the 4h update
        hand_built_list("u1", W, T0 + DAY + 2 * H, "c"),
        hand_built_list("u2", W, T0 + DAY + 2 * H, "c", "d"),
    ]
    return manual, recsys


@pytest.fixture(scope="module")
def small_runs(tiny_world):
    wcfg, corpus, _ = tiny_world
    base = PipelineConfig(
        t_start=wcfg.start + DAY, refresh_interval=6 * 3600.0, nightly_train_hour=1,
        rng_seed=3, train=TrainConfig(n_trees=6, max_depth=2, learning_rate=0.3),
        mnpage_cap=10)
    schedule = train_schedule(corpus, base)
    streams = serve_treatments(corpus, base, corpus.user_ids(), schedule,
                               (Treatment.BASELINE, Treatment.DYNAMISM))
    ems_b, ems_d = streams[Treatment.BASELINE], streams[Treatment.DYNAMISM]
    return corpus, ems_b, ems_d


class TestCompareTreatments:
    def test_self_comparison_no_differences(self, small_runs):
        corpus, ems_b, _ = small_runs
        reports = compare_treatments(ems_b, ems_b, corpus)
        for r in reports:
            assert r.group_a.mean == pytest.approx(r.group_b.mean)
            assert r.t_stat == pytest.approx(0.0)
            assert not r.significant

    def test_interleaving_invariance(self, small_runs):
        corpus, ems_b, ems_d = small_runs
        rng = np.random.default_rng(0)
        shuffled = list(ems_b)
        rng.shuffle(shuffled)
        r1 = compare_treatments(ems_b, ems_d, corpus)
        r2 = compare_treatments(shuffled, ems_d, corpus)
        for a, b in zip(r1, r2):
            assert a.to_dict() == b.to_dict()

    def test_report_fields_valid(self, small_runs):
        corpus, ems_b, ems_d = small_runs
        reports = compare_treatments(ems_b, ems_d, corpus)
        names = [r.metric for r in reports]
        assert names[:4] == ["dynamism", "serendipity", "coverage", "diversity"]
        # missed_lw clicks are too sparse on this small world to test
        assert {"ndcg_mn_widget", "ndcg_mn_page"} <= set(names)
        for r in reports:
            r.validate()

    def test_hand_built_stream_samples(self):
        stream = hand_built_treatment_stream()
        by_metric = {r.metric: r.group_a
                     for r in compare_treatments(stream, stream, hand_built_corpus())}

        # per list, the mean over section, tags, authors, embedding; the
        # embedding similarity of an orthogonal pair is its own list maximum
        div_ab = (1.0 + 0.5 + 1.0 + 0.0) / 4
        div_cd = (1.0 + 1.0 + 1.0 + 0.0) / 4
        assert by_metric["diversity"].n == 2
        assert by_metric["diversity"].mean == pytest.approx((div_ab + div_cd) / 2)
        # u2 finds everything unexpected; for u1, a and c match the profile's
        # section, author and embedding, b matches its tag x and half its cosine
        ser_ab = ((0 + 1) / 2 + (0 + 0) / 2 + (0 + 1) / 2 + (0 + 0.5) / 2) / 4
        ser_b = (1 + 0 + 1 + 0.5) / 4
        ser_c = (0 + 1 + 0 + 0) / 4
        assert by_metric["serendipity"].n == 5
        assert by_metric["serendipity"].mean == pytest.approx(
            (ser_ab + 1.0 + ser_b + 1.0 + ser_c) / 5)
        # [a, b] -> [b]: 0; [] -> [c, d]: 1; [b] -> [c]: 1
        assert by_metric["dynamism"].n == 3
        assert by_metric["dynamism"].mean == pytest.approx(2 / 3)
        # all users: day 0 serves a and b of a, b, e; day 1 serves c and d.
        # Per user the days would read (2/3 + 1/3) / 2 and (1/2 + 1) / 2.
        assert by_metric["coverage"].n == 2
        assert by_metric["coverage"].mean == pytest.approx((2 / 3 + 1.0) / 2)

    def test_empty_stream_rejected(self, small_runs):
        corpus, ems_b, _ = small_runs
        with pytest.raises(EvalError, match="empty"):
            compare_treatments([], ems_b, corpus)


def test_sample_order_pinned(monkeypatch):
    """Every sample the t-tests and the metrics CSV take from the hand-built
    streams, in order. `t_test` takes numpy's pairwise-summed mean and
    variance, so a sample's order sets the bits of its report."""
    calls = []
    t_test = evaluation.t_test

    def recorded(a, b, *args, **kwargs):
        calls.append((kwargs["metric"], list(a), list(b)))
        return t_test(a, b, *args, **kwargs)

    monkeypatch.setattr(evaluation, "t_test", recorded)
    corpus = hand_built_corpus()
    stream = hand_built_treatment_stream()
    compare_treatments(stream, stream, corpus)
    # Lists in (at, user, section) order: u1 [a, b], u2 [a], u1 [b], u2 [],
    # then at day 1 3h u1 [c] before u2 [c, d]. Dynamism per (user, section)
    # stream in that order; diversity and serendipity the mean over the
    # attributes of each list that has them; all-users coverage per day.
    study2 = [("dynamism", [0.0, 1.0, 1.0]),
              ("serendipity", [0.3125, 1.0, 0.625, 0.25, 1.0]),
              ("coverage", [2 / 3, 1.0]),
              ("diversity", [0.625, 0.75])]
    assert calls == [(metric, sample, sample) for metric, sample in study2]

    calls.clear()
    compare_manual_recsys(*hand_built_study1_streams(), corpus)
    u2_u3 = [1.0, 1.0]  # u2 and u3 never click: every item is unexpected
    study1 = [
        # manual lists in time order; the recsys side per aligned pair
        ("diversity_section", [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
        ("diversity_tags", [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]),
        ("diversity_authors", [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
        ("diversity_embedding", [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]),
        # pairs per manual update in time order, users in id order: 4h u1,
        # u2; then 6h, day 1 4h and day 1 6h u1, u2, u3 each
        ("serendipity_section", [0.5, 1.0, 1.0, *u2_u3, 0.5, *u2_u3, 1.0, *u2_u3],
         [0.5, 1.0, 1.0, *u2_u3, 0.0, *u2_u3, 0.0, *u2_u3]),
        ("serendipity_tags", [0.0, 1.0, 0.5, *u2_u3, 1.0, *u2_u3, 1.0, *u2_u3],
         [0.0, 1.0, 0.0, *u2_u3, 1.0, *u2_u3, 1.0, *u2_u3]),
        ("serendipity_authors", [0.5, 1.0, 1.0, *u2_u3, 0.5, *u2_u3, 1.0, *u2_u3],
         [0.5, 1.0, 1.0, *u2_u3, 0.0, *u2_u3, 0.0, *u2_u3]),
        ("serendipity_embedding", [0.25, 1.0, 0.75, *u2_u3, 0.25, *u2_u3, 0.5, *u2_u3],
         [0.25, 1.0, 0.5, *u2_u3, 0.0, *u2_u3, 0.0, *u2_u3]),
        # the manual stream in time order; users in id order, each user's
        # pairs in stream order
        ("dynamism_aligned", [0.5, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
        ("dynamism_all", [0.5, 1.0, 0.0], [0.0, 1.0, 1.0]),
        # per day
        ("coverage_per_user", [1.0, 1.0], [(2 / 3 + 1 / 3 + 1 / 3) / 3, 0.75]),
        ("coverage_all_users", [1.0, 1.0], [2 / 3, 1.0]),
    ]
    assert calls == study1

    rows = [(r.metric, r.attribute and r.attribute.value, r.scope, (r.at - T0) / H, r.value)
            for r in collect_metric_samples({"t": stream}, corpus)]
    # per list in walk order: dynamism, then per attribute its diversity and
    # serendipity; then per day per-user and all-users coverage
    W = "mn_widget"
    assert rows == [
        ("diversity", "section", W, 2.0, 1.0), ("serendipity", "section", W, 2.0, 0.5),
        ("diversity", "tags", W, 2.0, 0.5), ("serendipity", "tags", W, 2.0, 0.0),
        ("diversity", "authors", W, 2.0, 1.0), ("serendipity", "authors", W, 2.0, 0.5),
        ("diversity", "embedding", W, 2.0, 0.0), ("serendipity", "embedding", W, 2.0, 0.25),
        ("serendipity", "section", W, 2.0, 1.0), ("serendipity", "tags", W, 2.0, 1.0),
        ("serendipity", "authors", W, 2.0, 1.0), ("serendipity", "embedding", W, 2.0, 1.0),
        ("dynamism", None, W, 3.0, 0.0),
        ("serendipity", "section", W, 3.0, 1.0), ("serendipity", "tags", W, 3.0, 0.0),
        ("serendipity", "authors", W, 3.0, 1.0), ("serendipity", "embedding", W, 3.0, 0.5),
        ("dynamism", None, W, 27.0, 1.0),
        ("serendipity", "section", W, 27.0, 0.0), ("serendipity", "tags", W, 27.0, 1.0),
        ("serendipity", "authors", W, 27.0, 0.0), ("serendipity", "embedding", W, 27.0, 0.0),
        ("dynamism", None, W, 27.0, 1.0),
        ("diversity", "section", W, 27.0, 1.0), ("serendipity", "section", W, 27.0, 1.0),
        ("diversity", "tags", W, 27.0, 1.0), ("serendipity", "tags", W, 27.0, 1.0),
        ("diversity", "authors", W, 27.0, 1.0), ("serendipity", "authors", W, 27.0, 1.0),
        ("diversity", "embedding", W, 27.0, 0.0), ("serendipity", "embedding", W, 27.0, 1.0),
        ("coverage", None, "per_user", 0.0, (2 / 3 + 1 / 3) / 2),
        ("coverage", None, "all_users", 0.0, 2 / 3),
        ("coverage", None, "per_user", 24.0, (1 / 2 + 1.0) / 2),
        ("coverage", None, "all_users", 24.0, 1.0),
    ]

class TestCompareManualRecsys:
    def test_runs_and_reports(self, small_runs, tiny_world):
        wcfg, corpus, _ = tiny_world
        _, ems_b, _ = small_runs
        manual = manual_lists(corpus, wcfg.start + DAY, corpus.time_span()[1],
                              rng_seed=99)
        reports = compare_manual_recsys(manual, ems_b, corpus)
        by_name = {r.metric: r for r in reports}
        assert "diversity_section" in by_name
        assert "coverage_all_users" in by_name
        assert "dynamism_aligned" in by_name
        for r in reports:
            r.validate()

    def test_full_stream_equals_widget_stream(self, small_runs, tiny_world):
        wcfg, corpus, _ = tiny_world
        _, ems_b, _ = small_runs
        manual = manual_lists(corpus, wcfg.start + DAY, corpus.time_span()[1],
                              rng_seed=99)
        widget = [l for l in ems_b if l.section is Section.MN_WIDGET and not l.fallback]
        assert len(widget) < len(ems_b) and any(l.fallback for l in ems_b)
        full = [r.to_dict() for r in compare_manual_recsys(manual, ems_b, corpus)]
        assert full == [r.to_dict() for r in compare_manual_recsys(manual, widget, corpus)]

    def test_hand_built_stream_samples(self):
        manual, recsys = hand_built_study1_streams()
        reports = {r.metric: r
                   for r in compare_manual_recsys(manual, recsys, hand_built_corpus())}
        assert len(reports) == 12

        def check(metric, manual_side, recsys_side):
            got = reports[metric]
            for summary, (n, mean) in ((got.group_a, manual_side),
                                       (got.group_b, recsys_side)):
                assert summary.n == n, metric
                assert summary.mean == pytest.approx(mean), metric

        # The 11 aligned pairs, per manual update in time order and user
        # order: 4h: u1 [a, b], u2 [b]; 6h: u1 [b], u2 [b], u3 [a];
        # day 1 4h and 6h each: u1 [c], u2 [c, d], u3 [a].
        # Diversity over manual [a, b], [b, e], [c, d] and over recsys
        # [a, b], [c, d], [c, d]; an orthogonal pair is its own embedding
        # maximum, and e's zero embedding leaves no maximum to divide by.
        check("diversity_section", (3, 1.0), (3, 1.0))
        check("diversity_tags", (3, (0.5 + 1 + 1) / 3), (3, (0.5 + 1 + 1) / 3))
        check("diversity_authors", (3, 1.0), (3, 1.0))
        check("diversity_embedding", (3, (0 + 1 + 0) / 3), (3, 0.0))
        # Serendipity per pair against its user's profile: u2 and u3 find
        # everything unexpected (7 pairs of 1.0). Against u1's click on a,
        # manual [a, b], [b, e], [c, d], [d] and recsys [a, b], [b], [c], [c]:
        check("serendipity_section", (11, (0.5 + 1 + 0.5 + 1 + 7) / 11),
              (11, (0.5 + 1 + 0 + 0 + 7) / 11))
        check("serendipity_tags", (11, (0 + 0.5 + 1 + 1 + 7) / 11),
              (11, (0 + 0 + 1 + 1 + 7) / 11))
        check("serendipity_authors", (11, (0.5 + 1 + 0.5 + 1 + 7) / 11),
              (11, (0.5 + 1 + 0 + 0 + 7) / 11))
        check("serendipity_embedding", (11, (0.25 + 0.75 + 0.25 + 0.5 + 7) / 11),
              (11, (0.25 + 0.5 + 0 + 0 + 7) / 11))
        # manual: [a, b] -> [b, e] -> [c, d] -> [d] reads 1/2, 1, 0.
        # aligned, per user: u1 [a, b] [b] [c] [c] and u2 [b] [b] [c, d] [c, d]
        # read 0, 1, 0 each, u3 [a] [a] [a] reads 0, 0. All lists, per user:
        # u1 [a, b] [b] [c] reads 0, 1; u2 [b] [c, d] reads 1; u3 has one list.
        check("dynamism_aligned", (3, 0.5), (8, 2 / 8))
        check("dynamism_all", (3, 0.5), (3, 2 / 3))
        # day 0 publishes a, b, e: the editors serve all three; u1 serves a
        # and b, u2 b, u3 a. Day 1 publishes c and d: u1 serves c, u2 both.
        check("coverage_per_user", (2, 1.0), (2, ((2 / 3 + 1 / 3 + 1 / 3) / 3 + 3 / 4) / 2))
        check("coverage_all_users", (2, 1.0), (2, (2 / 3 + 1) / 2))


class TestBehaviorShift:
    def build_phase_corpus(self):
        # before: users click inside one tag silo; after: clicks span tags
        arts, events = [], []
        sections = ["s1", "s2"]
        for d in range(4):
            for i in range(6):
                aid = f"d{d}i{i}"
                tags = ("core",) if i < 2 else (f"t{i}",)
                arts.append(make_article(aid, T0 + d * DAY + i * 3600,
                                         section=sections[i % 2], tags=tags))
        for u in range(6):
            uid = f"u{u}"
            for d in range(2):  # before: both clicks in the "core" silo
                for i in (0, 1):
                    events.append(click(uid, f"d{d}i{i}", T0 + d * DAY + 12 * 3600 + u))
            for d in range(2, 4):  # after: clicks span distinct tags
                for i in (0, 2, 3, 4):
                    events.append(click(uid, f"d{d}i{i}", T0 + d * DAY + 12 * 3600 + u))
        return Corpus(arts, events, 4)

    def test_identical_periods_not_significant(self):
        corpus = self.build_phase_corpus()
        period = (T0, T0 + 2 * DAY)
        for r in behavior_shift(corpus, period, period):
            assert not r.significant
            assert r.t_stat == pytest.approx(0.0)

    def test_diversification_direction(self):
        corpus = self.build_phase_corpus()
        reports = behavior_shift(corpus, (T0, T0 + 2 * DAY),
                                 (T0 + 2 * DAY, T0 + 4 * DAY))
        by_name = {r.metric: r for r in reports}
        tags = by_name["click_diversity_tags"]
        assert tags.group_b.mean > tags.group_a.mean
        assert tags.significant
        cov = by_name["coverage"]
        assert cov.group_b.mean > cov.group_a.mean

    def test_one_day_periods_leave_coverage_out(self):
        """A one-day period has one coverage value per side, too few to test:
        coverage is left out, and click diversity (six user-days a side) is
        still compared."""
        corpus = self.build_phase_corpus()
        reports = behavior_shift(corpus, (T0, T0 + DAY), (T0 + 2 * DAY, T0 + 3 * DAY))
        assert [r.metric for r in reports] == [f"click_diversity_{attr.value}"
                                               for attr in AttributeKind]
        assert all(r.group_a.n == r.group_b.n == 6 for r in reports)

    def test_empty_period_rejected(self):
        corpus = self.build_phase_corpus()
        with pytest.raises(EvalError, match="no clicks"):
            behavior_shift(corpus, (T0 - 10 * DAY, T0 - 9 * DAY), (T0, T0 + DAY))


class TestMidnightPublication:
    """Articles published at exactly 00:00 UTC (m1, m2) count toward the day
    that starts then, not the day before."""

    H = 3600.0

    def build_corpus(self):
        H = self.H
        arts = [make_article("a0", T0 + 6 * H), make_article("b0", T0 + 6 * H),
                make_article("m1", T0 + DAY), make_article("a1", T0 + DAY + 6 * H),
                make_article("m2", T0 + 2 * DAY)]
        clicks = [click("u1", "a0", T0 + 10 * H), click("u1", "b0", T0 + 11 * H),
                  click("u1", "m1", T0 + DAY + 10 * H),
                  click("u1", "a1", T0 + DAY + 11 * H)]
        return Corpus(arts, clicks, 4)

    def lists(self, user, section, *served):
        return [RankedList(user, section, T0 + at * self.H,
                           ids, tuple(float(len(ids) - i) for i in range(len(ids))))
                for at, ids in served]

    def recsys(self):
        return self.lists("u1", Section.MN_WIDGET,
                          (7, ("a0", "b0")), (8.5, ("b0", "a0")),
                          (31, ("m1", "a0")), (32.5, ("a0", "m1")))

    def test_collect_metric_samples(self):
        rows = collect_metric_samples({"t": self.recsys()}, self.build_corpus())
        cov = {r.at: r.value for r in rows
               if r.metric == "coverage" and r.scope == "all_users"}
        # day 0 publishes a0, b0, both served; day 1 publishes m1, a1 of which m1
        assert cov == {T0: 1.0, T0 + DAY: 0.5}

    def test_compare_manual_recsys(self):
        manual = self.lists(MANUAL_USER, Section.MANUAL,
                            (8, ("a0", "b0")), (9, ("b0", "a0")),
                            (32, ("m1", "a1")), (33, ("a1", "m1")))
        reports = compare_manual_recsys(manual, self.recsys(), self.build_corpus())
        cov = {r.metric: r for r in reports}["coverage_all_users"]
        assert (cov.group_a.n, cov.group_a.mean) == (2, 1.0)
        assert (cov.group_b.n, cov.group_b.mean) == (2, 0.75)

    def test_behavior_shift(self):
        period = (T0, T0 + 2 * DAY)
        reports = behavior_shift(self.build_corpus(), period, period)
        cov = {r.metric: r for r in reports}["coverage"]
        # u1 clicks everything published on days 0 and 1, m1 included
        assert (cov.group_a.n, cov.group_a.mean) == (2, 1.0)


class TestProfileCacheScope:
    """Two corpora with the same article ids but different embeddings, tags
    and clicks: each comparison call reads its own corpus's articles and
    makes its own profile cache, and none is left behind when it returns."""

    H = 3600.0
    IDS = ("a0", "b0", "m1", "a1")

    def build_corpus(self, variant):
        H = self.H
        times = (T0 + 6 * H, T0 + 6 * H, T0 + DAY, T0 + DAY + 6 * H)
        arts = [make_article(aid, at, section=f"s{i % 2}" if variant else "s",
                             tags=(f"t{i % 2}",) if variant else (f"t{i}",),
                             authors=("p",) if variant else (f"p{i}",),
                             embedding=[2, i * i, 0, 1] if variant else [0, 1, i, 1])
                for i, (aid, at) in enumerate(zip(self.IDS, times))]
        clicked = ("a0", "b0", "m1", "a1") if variant else ("b0", "a0", "a1", "m1")
        clicks = [click("u1", aid, T0 + h * H)
                  for aid, h in zip(clicked, (10, 11, DAY / H + 10, DAY / H + 11))]
        return Corpus(arts, clicks, 4)

    def lists(self, user, section, *served):
        return [RankedList(user, section, T0 + at * self.H,
                           ids, tuple(float(len(ids) - i) for i in range(len(ids))))
                for at, ids in served]

    def streams(self):
        recsys = self.lists("u1", Section.MN_WIDGET, (7, ("a0", "b0")), (8.5, ("b0", "a0")),
                            (31, ("m1", "a0", "a1")), (32.5, ("a1", "m1")))
        dynamic = self.lists("u1", Section.MN_WIDGET, (7, ("b0", "a0")), (8.5, ("a0",)),
                             (31, ("a1", "m1")), (32.5, ("a0", "a1", "m1")))
        manual = self.lists(MANUAL_USER, Section.MANUAL,
                            (8, ("a0", "b0")), (9, ("b0", "a0")),
                            (32, ("m1", "a1")), (33, ("a1", "m1")))
        return recsys, dynamic, manual

    def reports(self, corpus):
        recsys, dynamic, manual = self.streams()
        period = (T0, T0 + 2 * DAY)
        out = [r.to_dict() for r in compare_treatments(recsys, dynamic, corpus)]
        out += [r.to_dict() for r in compare_manual_recsys(manual, recsys, corpus)]
        out += [r.to_dict() for r in behavior_shift(corpus, period, period)]
        out += collect_metric_samples({"t": recsys}, corpus)
        return out

    def test_each_corpus_gets_its_own_values(self):
        ids = ["m1", "a0", "a1"]
        at = T0 + DAY + 12 * self.H
        values = {}
        for variant in (0, 1):
            corpus = self.build_corpus(variant)
            articles = [corpus.articles[aid] for aid in ids]
            profile = ProfileCache(corpus).get("u1", at)
            for attr in AttributeKind:
                values[variant, attr] = (intra_list_diversity(articles, attr),
                                         serendipity(articles, profile, attr))
        for attr in AttributeKind:
            assert values[0, attr] != values[1, attr], attr

    def test_two_streams_equal_two_calls(self):
        corpus = self.build_corpus(0)
        recsys, dynamic, _ = self.streams()
        assert (collect_metric_samples({"a": recsys, "b": dynamic}, corpus)
                == collect_metric_samples({"a": recsys}, corpus)
                + collect_metric_samples({"b": dynamic}, corpus))

    def test_no_cache_outlives_the_comparison_call(self, monkeypatch):
        made = []

        class RecordedCache(ProfileCache):
            def __init__(self, corpus):
                super().__init__(corpus)
                made.append(weakref.ref(self))

        alone = {v: self.reports(self.build_corpus(v)) for v in (1, 0)}
        monkeypatch.setattr(evaluation, "ProfileCache", RecordedCache)
        for variant in (0, 1, 0):
            assert self.reports(self.build_corpus(variant)) == alone[variant]
            gc.collect()
            assert made and all(ref() is None for ref in made)
        assert alone[0] != alone[1]


    def test_studies_call_the_definitions(self, monkeypatch):
        """Every metric pass computes diversity and serendipity by calling
        `intra_list_diversity` and `serendipity` as `evaluation` names them,
        so a wrapper put there (as the benchmark's tracer does) sees each
        distinct call."""
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("intra_list_diversity", "serendipity"):
            monkeypatch.setattr(evaluation, name, counted(name, getattr(evaluation, name)))
        corpus = self.build_corpus(0)
        recsys, dynamic, manual = self.streams()
        period = (T0, T0 + 2 * DAY)
        studies = {
            "compare_treatments": lambda: compare_treatments(recsys, dynamic, corpus),
            "compare_manual_recsys": lambda: compare_manual_recsys(manual, recsys, corpus),
            "collect_metric_samples": lambda: collect_metric_samples({"t": recsys}, corpus),
            "behavior_shift": lambda: behavior_shift(corpus, period, period),
        }
        for study, run in studies.items():
            calls.clear()
            run()
            assert calls.get("intra_list_diversity", 0) > 0, study
            if study != "behavior_shift":  # it compares click diversity only
                assert calls.get("serendipity", 0) > 0, study


# --------------------------------------------------------------------------
# The per-call memo of list values
# --------------------------------------------------------------------------

ALL_ATTRIBUTES = evaluation.ALL_ATTRIBUTES
MEMO_IDS = tuple("abcdefg")


def memo_corpus():
    """a-d published on day 0 and e-g on day 1; d has no tags and a zero
    embedding. u1 clicks a at 1h, b at 3h and e at day 1 1h; u2 clicks f
    at day 1 2h; u3 never clicks."""
    embeddings = ([1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0],
                  [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 1, 0])
    arts = [make_article(aid, T0 + H / 2 + (DAY if i >= 4 else 0.0), section=f"s{i % 3}",
                         tags=() if aid == "d" else (f"t{i % 2}", f"t{i % 3}"),
                         authors=(f"p{i % 2}",), embedding=embeddings[i])
            for i, aid in enumerate(MEMO_IDS)]
    clicks = [click("u1", "a", T0 + H), click("u1", "b", T0 + 3 * H),
              click("u1", "e", T0 + DAY + H), click("u2", "f", T0 + DAY + 2 * H)]
    return Corpus(arts, clicks, 4)


def memo_cases_stream():
    """A stream over `memo_corpus` with every case the memo must get right."""
    W, P = Section.MN_WIDGET, Section.MN_PAGE
    return [
        hand_built_list("u1", W, T0 + 2 * H, "a", "b", "c"),
        hand_built_list("u1", W, T0 + 2.5 * H, "a", "b", "c"),  # repeated, same window
        hand_built_list("u2", W, T0 + 2 * H, "a", "b", "c"),    # the same top 5, another user
        hand_built_list("u1", W, T0 + 4 * H, "a", "b", "c"),    # u1 clicked b at 3h
        hand_built_list("u1", P, T0 + 4 * H, "a", "b", "c", "d", "e", "f", "g"),  # cut at 5
        hand_built_list("u2", P, T0 + 4 * H, "a", "b", "c", "d", "e", "g"),  # same top 5
        hand_built_list("u3", W, T0 + 2 * H),                   # empty
        hand_built_list("u2", W, T0 + 2.5 * H),                 # empty, another user
        hand_built_list("u3", W, T0 + 3 * H, "d", fallback=True),
        hand_built_list("u2", W, T0 + 3 * H, "d", fallback=True),
        hand_built_list("u2", W, T0 + DAY + 3 * H, "e", "f", "g"),
        hand_built_list("u1", W, T0 + DAY + 3 * H, "e", "f", "g"),
        hand_built_list("u1", Section.MISSED_LW, T0 + DAY + 3 * H, "a", "b", "c"),
    ]


def memo_cases_manual():
    return [hand_built_list(MANUAL_USER, Section.MANUAL, T0 + hour * H, *ids)
            for hour, ids in ((2.25, "abc"), (3.5, "abc"), (4.5, "efg"), (4.75, ""),
                              (DAY / H + 4, "efg"), (DAY / H + 5, "abc"))]


class NoMemoValues(evaluation._ListValues):
    """The no-memo oracle: each list's values from the definitions, called
    once per list, with a profile built afresh for each."""

    def diversity(self, ids):
        articles = [self.corpus.articles[aid] for aid in ids]
        return tuple(intra_list_diversity(articles, attr) for attr in ALL_ATTRIBUTES)

    def serendipity(self, ids, user_id, at):
        articles = [self.corpus.articles[aid] for aid in ids]
        profile = build_profile(self.corpus, user_id, at)
        return tuple(serendipity(articles, profile, attr) for attr in ALL_ATTRIBUTES)


def outcome(study):
    """A study's result, or the type and message of the error it raised."""
    try:
        return study()
    except EvalError as exc:
        return type(exc), str(exc)


def studies(corpus, stream, other, manual):
    return {
        "collect_metric_samples": lambda: collect_metric_samples({"t": stream}, corpus),
        "compare_treatments": lambda: compare_treatments(stream, other, corpus),
        "compare_manual_recsys": lambda: compare_manual_recsys(manual, stream, corpus),
    }


def assert_studies_match_oracle(monkeypatch, corpus, stream, other, manual):
    runs = studies(corpus, stream, other, manual)
    memo = {name: outcome(run) for name, run in runs.items()}
    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "_ListValues", NoMemoValues)
        oracle = {name: outcome(run) for name, run in runs.items()}
    assert memo == oracle

    memo = evaluation._ListValues(corpus)
    assert (evaluation._metric_pass(stream, memo)
            == evaluation._metric_pass(stream, NoMemoValues(corpus)))


LIST_POOL = ((), ("a",), ("a", "b", "c"), ("c", "b", "a"), ("e", "f", "g"),
             ("a", "b", "c", "d", "e"), ("a", "b", "c", "d", "e", "f", "g"))


@st.composite
def memo_list(draw, users=("u1", "u2", "u3"),
              sections=(Section.MN_WIDGET, Section.MN_PAGE, Section.MISSED_LW)):
    section = draw(st.sampled_from(sections))
    cap = 5 if section is not Section.MN_PAGE else len(MEMO_IDS)
    ids = draw(st.sampled_from(LIST_POOL) | st.lists(st.sampled_from(MEMO_IDS), unique=True))
    hour = draw(st.sampled_from((2.0, 2.5, 3.0, 4.0, 25.0, 26.5, 27.0)))
    return hand_built_list(draw(st.sampled_from(users)), section, T0 + hour * H,
                           *ids[:cap], fallback=draw(st.booleans()))


@st.composite
def manual_list(draw):
    ids = draw(st.sampled_from(LIST_POOL) | st.lists(st.sampled_from(MEMO_IDS), unique=True))
    hour = draw(st.sampled_from((2.25, 3.5, 4.5, 25.5, 27.5)))
    return hand_built_list(MANUAL_USER, Section.MANUAL, T0 + hour * H, *ids[:5])


class TestListValueMemo:
    """Each study call computes each distinct list's diversity and
    serendipity once; every study reads what a pass without the memo reads."""

    def test_cases_match_the_no_memo_oracle(self, monkeypatch):
        stream = memo_cases_stream()
        assert_studies_match_oracle(monkeypatch, memo_corpus(), stream,
                                    list(reversed(stream)), memo_cases_manual())

    def test_a_click_between_repeats_gives_new_values(self):
        """u1's [a, b, c] at 2h and at 4h have the same ids and diversity, but
        u1 clicked b at 3h, so serendipity must be computed again."""
        corpus = memo_corpus()
        memo = evaluation._ListValues(corpus)
        ids = ("a", "b", "c")
        assert memo.serendipity(ids, "u1", T0 + 2 * H) != memo.serendipity(ids, "u1", T0 + 4 * H)
        assert memo.serendipity(ids, "u1", T0 + 2 * H) == memo.serendipity(
            ids, "u1", T0 + 2.5 * H)

    @given(stream=st.lists(memo_list(), min_size=1, max_size=12),
           other=st.lists(memo_list(), min_size=1, max_size=6),
           manual=st.lists(manual_list(), min_size=1, max_size=5))
    def test_studies_match_the_no_memo_oracle(self, stream, other, manual):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_studies_match_oracle(monkeypatch, memo_corpus(), stream, other, manual)

    def test_definitions_run_once_per_distinct_key(self, monkeypatch):
        """`intra_list_diversity` runs once per distinct id tuple and
        attribute; `serendipity` once per distinct (ids, click window) and
        attribute, where an empty list needs no window."""
        calls = {"intra_list_diversity": [], "serendipity": []}

        def recorded(name, fn):
            def wrapper(articles, *args, **kwargs):
                calls[name].append((tuple(a.id for a in articles), args[-1]))
                return fn(articles, *args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(evaluation, name, recorded(name, getattr(evaluation, name)))
        corpus = memo_corpus()
        windows = ProfileCache(corpus)
        stream, manual = memo_cases_stream(), memo_cases_manual()
        other = [hand_built_list("u3", Section.MN_WIDGET, T0 + 2 * H, "c", "b", "a"),
                 stream[0], stream[3]]

        def diversity_calls(id_tuples):
            return [(ids, attr) for ids in set(id_tuples) for attr in ALL_ATTRIBUTES]

        def serendipity_calls(lists):
            """Per distinct (ids, window) of `(ids, user, at)` lists."""
            keys = {(ids, windows.window_key(user, at) if ids else None)
                    for ids, user, at in lists}
            return [(ids, attr) for ids, _ in keys for attr in ALL_ATTRIBUTES]

        def cuts(lists):
            return [(l.ids[:5], l.user_id, l.at) for l in lists]

        widget = [l for l in stream if l.section is Section.MN_WIDGET and not l.fallback]
        pairs = evaluation.align(sorted(manual, key=lambda l: l.at), widget)
        expected = {
            "collect_metric_samples": (diversity_calls(ids for ids, _, _ in cuts(stream)),
                                       serendipity_calls(cuts(stream))),
            "compare_treatments": (diversity_calls(ids for ids, _, _ in cuts(stream + other)),
                                   serendipity_calls(cuts(stream + other))),
            "compare_manual_recsys": (
                diversity_calls([m.ids for m in manual]
                                + [l.ids for _, l in pairs]),
                serendipity_calls([(m.ids, l.user_id, m.at) for m, l in pairs]
                                  + [(l.ids, l.user_id, m.at) for m, l in pairs])),
        }
        for name, run in studies(corpus, stream, other, manual).items():
            for calls_of in calls.values():
                calls_of.clear()
            run()
            want_divs, want_sers = expected[name]
            assert sorted(calls["intra_list_diversity"], key=repr) == sorted(want_divs, key=repr)
            assert sorted(calls["serendipity"], key=repr) == sorted(want_sers, key=repr)
            # the memo saves calls here: the stream repeats its top 5s
            assert len(calls["intra_list_diversity"]) < 4 * len(stream), name

    def test_terms_computed_once_per_distinct_key(self, monkeypatch):
        """Below the list values, each study computes one `sim` per distinct
        ordered id pair of its lists and attribute, and one `unexpectedness`
        per distinct (click window, article) of a non-empty list and
        attribute."""
        calls = {"sim": [], "unexpectedness": []}
        windows = {}

        def pair_sim(a, b, attr):
            calls["sim"].append(((a.id, b.id), attr))
            return usefulness.sim(a, b, attr)

        def item_term(article, profile, attr):
            calls["unexpectedness"].append(((windows[id(profile)], article.id), attr))
            return usefulness.unexpectedness(article, profile, attr)

        class WindowCache(ProfileCache):
            """Records which click window each profile it returns is for."""

            def get(self, user_id, at):
                profile = super().get(user_id, at)
                windows[id(profile)] = self.window_key(user_id, at)
                return profile

        monkeypatch.setattr(evaluation, "sim", pair_sim)
        monkeypatch.setattr(evaluation, "unexpectedness", item_term)
        monkeypatch.setattr(evaluation, "ProfileCache", WindowCache)
        corpus = memo_corpus()
        keys = ProfileCache(corpus)
        stream, manual = memo_cases_stream(), memo_cases_manual()
        other = [hand_built_list("u3", Section.MN_WIDGET, T0 + 2 * H, "c", "b", "a"),
                 stream[0], stream[3]]

        def expected(lists, served):
            """Per distinct key, each attribute once: `lists` holds the id
            tuples whose diversity a study reads, `served` the (ids, user,
            at) whose serendipity it reads."""
            pairs = {(ids[i], ids[j]) for ids in lists
                     for i in range(len(ids)) for j in range(i + 1, len(ids))}
            items = {(keys.window_key(user, at), aid) for ids, user, at in served
                     for aid in ids}
            slots = sum(len(ids) * (len(ids) - 1) // 2 for ids in lists)
            return ([(pair, attr) for pair in pairs for attr in ALL_ATTRIBUTES],
                    [(item, attr) for item in items for attr in ALL_ATTRIBUTES], slots)

        def cuts(lists):
            return [(l.ids[:5], l.user_id, l.at) for l in lists]

        widget = [l for l in stream if l.section is Section.MN_WIDGET and not l.fallback]
        pairs = evaluation.align(sorted(manual, key=lambda l: l.at), widget)
        want = {
            "collect_metric_samples": expected([ids for ids, _, _ in cuts(stream)],
                                               cuts(stream)),
            "compare_treatments": expected([ids for ids, _, _ in cuts(stream + other)],
                                           cuts(stream + other)),
            "compare_manual_recsys": expected(
                [m.ids for m in manual] + [l.ids for _, l in pairs],
                [(m.ids, l.user_id, m.at) for m, l in pairs]
                + [(l.ids, l.user_id, m.at) for m, l in pairs]),
        }
        for name, run in studies(corpus, stream, other, manual).items():
            for calls_of in calls.values():
                calls_of.clear()
            run()
            want_sims, want_items, pair_slots = want[name]
            assert sorted(calls["sim"], key=repr) == sorted(want_sims, key=repr), name
            assert (sorted(calls["unexpectedness"], key=repr)
                    == sorted(want_items, key=repr)), name
            # the lists share pairs, so the pair terms are fewer than the
            # pair slots of the lists read
            assert len(calls["sim"]) < 4 * pair_slots, name

    def test_manual_stream_of_another_section_refused(self):
        """A treatment's log handed over as the manual stream is refused,
        naming the first list that is not a manual one."""
        manual, recsys = hand_built_study1_streams()
        corpus = hand_built_corpus()
        with pytest.raises(EvalError, match=r"manual stream holds a mn_widget list "
                                            r"\(user 'u1', at 2024-01-01T02:00:00\+00:00\)"):
            compare_manual_recsys(recsys, recsys, corpus)
        page = hand_built_list("u2", Section.MN_PAGE, T0 + 5 * H, "a")
        with pytest.raises(EvalError, match=r"mn_page list \(user 'u2'"):
            compare_manual_recsys([*manual, page], recsys, corpus)
