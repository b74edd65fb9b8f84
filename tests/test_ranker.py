import datetime as dt
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import newsrec.features
import newsrec.ranker
from newsrec.corpus import DAY, WEEK, Corpus, SyntheticWorldConfig, day_start, generate_world
from newsrec.evaluation import offline_eval, scorers_from_schedule
from newsrec.features import (ArticleFeatureCache, article_table, build_profile,
                              build_training_set, empty_profile,
                              feature_names)
from newsrec.gbdt import TrainConfig, TreeEnsemble, train
from newsrec.ranker import (PipelineConfig, RankedList, RankerError, Section,
                            Treatment, candidates, dyn_score_at,
                            manual_lists, rank, read_emissions, rerank,
                            run_pipeline, serve_treatments, slice_sections,
                            train_schedule, write_emissions)

from conftest import T0, click, impression, make_article


# the feature width over the 4-d embeddings of the hand-built corpora
WIDTH = len(feature_names(4))


def constant_model(n_features, base=0.0):
    return TreeEnsemble(trees=[], learning_rate=0.1, base_score=base,
                        schema_version=1, n_features=n_features)


def mini_corpus():
    """Day 0 carries training signal; serving-day articles appear on day 1."""
    arts = [
        make_article("d0a", T0 + 8 * 3600, tags=("x",)),
        make_article("d0b", T0 + 9 * 3600, tags=("y",)),
        make_article("d1a", T0 + DAY + 5 * 3600, tags=("x",)),
        make_article("d1b", T0 + DAY + 6 * 3600, tags=("y",)),
    ]
    events = [
        impression("u1", "d0a", T0 + 10 * 3600),
        click("u1", "d0a", T0 + 10 * 3600 + 60),
        impression("u1", "d0b", T0 + 11 * 3600),
        impression("u2", "d0b", T0 + 12 * 3600),
        click("u2", "d0b", T0 + 12 * 3600 + 60),
        impression("u2", "d0a", T0 + 13 * 3600),
    ]
    return Corpus(arts, events, 4)


def pipe_config(**over):
    defaults = dict(
        t_start=T0 + DAY, refresh_interval=3600.0, nightly_train_hour=0,
        rng_seed=0, train=TrainConfig(n_trees=2, max_depth=1, min_child_weight=0.0))
    defaults.update(over)
    return PipelineConfig(**defaults)


@pytest.mark.parametrize("value", [math.nan, math.inf, 10 ** 400], ids=["nan", "inf", "huge-int"])
@pytest.mark.parametrize("name", ["t_start", "candidate_window", "refresh_interval",
                                  "rec_label_threshold"])
def test_non_finite_pipeline_config_refused(name, value):
    with pytest.raises(RankerError, match=f"{name} must be finite, not {value}"):
        pipe_config(**{name: value})


def test_negative_rng_seed_refused():
    with pytest.raises(RankerError, match="rng_seed must be >= 0, not -1"):
        pipe_config(rng_seed=-1)


@pytest.mark.parametrize("interval", [0.0, -3600.0, 3.6e-9, 0.999])
def test_sub_second_refresh_interval_refused(interval):
    # a step below the float spacing of the clock (2.4e-7 s in 2024) would
    # never move it, so serving would queue refreshes forever
    assert math.ulp(T0) > 3.6e-9
    with pytest.raises(RankerError, match=f"refresh_interval must be >= 1 second, not {interval}"):
        pipe_config(refresh_interval=interval)
    assert pipe_config(refresh_interval=1.0).refresh_interval == 1.0


class TestCandidates:
    def test_empty_corpus(self):
        corpus = Corpus([], [], 4)
        assert candidates(corpus, T0, WEEK) == []

    def test_half_open_boundaries(self):
        arts = [make_article("now", T0), make_article("edge", T0 - WEEK),
                make_article("inside", T0 - WEEK + 1)]
        corpus = Corpus(arts, [], 4)
        got = {a.id for a in candidates(corpus, T0, WEEK)}
        assert got == {"now", "inside"}

    def test_all_articles_within_window(self):
        arts = [make_article(f"a{i}", T0 + i * DAY) for i in range(3)]
        corpus = Corpus(arts, [], 4)
        assert len(candidates(corpus, T0 + 3 * DAY, WEEK)) == 3


class TestRank:
    def test_single_candidate(self):
        art = make_article("a1", T0)
        corpus = Corpus([art], [], 4)
        lst = rank(constant_model(WIDTH), empty_profile("u1", 4), [art], T0, corpus)
        assert len(lst.ids) == 1
        assert lst.section is Section.MN_PAGE

    def test_equal_scores_newer_first_then_id(self):
        arts = [make_article("older", T0 - 3600), make_article("newer", T0 - 60),
                make_article("apple", T0 - 60)]
        corpus = Corpus(arts, [], 4)
        lst = rank(constant_model(WIDTH), empty_profile("u1", 4),
                   arts, T0, corpus)
        assert lst.ids == ("apple", "newer", "older")

    def test_input_order_irrelevant(self):
        arts = [make_article(f"a{i}", T0 - i * 60) for i in range(6)]
        corpus = Corpus(arts, [], 4)
        prof = empty_profile("u1", 4)
        model = constant_model(WIDTH)
        base = rank(model, prof, arts, T0, corpus).ids
        assert rank(model, prof, arts[::-1], T0, corpus).ids == base

    def test_empty_candidates(self):
        corpus = Corpus([], [], 4)
        lst = rank(constant_model(WIDTH), empty_profile("u1", 4), [], T0, corpus)
        assert lst.ids == ()


class TestSliceSections:
    def make_full(self, ages_hours):
        arts = [make_article(f"a{i}", T0 - h * 3600) for i, h in enumerate(ages_hours)]
        corpus = Corpus(arts, [], 4)
        ids = tuple(a.id for a in arts)
        scores = tuple(float(len(arts) - i) for i in range(len(arts)))
        return corpus, RankedList("u1", Section.MN_PAGE, T0, ids, scores)

    def test_all_old_widget_empty(self):
        corpus, full = self.make_full([30, 40, 50])
        sections = slice_sections(full, T0, corpus, frozenset(), None)
        assert sections[Section.MN_WIDGET].ids == ()
        assert len(sections[Section.MISSED_LW].ids) == 3

    def test_caps_at_five(self):
        corpus, full = self.make_full([1, 2, 3, 4, 5, 6, 7] + [30, 31, 32, 33, 34, 35, 36])
        sections = slice_sections(full, T0, corpus, frozenset(), None)
        assert len(sections[Section.MN_WIDGET].ids) == 5
        assert len(sections[Section.MISSED_LW].ids) == 5
        assert len(sections[Section.MN_PAGE].ids) == 14

    def test_exactly_24h_is_fresh(self):
        corpus, full = self.make_full([24])
        sections = slice_sections(full, T0, corpus, frozenset(), None)
        assert sections[Section.MN_WIDGET].ids == ("a0",)
        assert sections[Section.MISSED_LW].ids == ()

    def test_order_preserved(self):
        corpus, full = self.make_full([2, 30, 1, 40, 3])
        sections = slice_sections(full, T0, corpus, frozenset(), None)
        assert sections[Section.MN_WIDGET].ids == ("a0", "a2", "a4")
        assert sections[Section.MISSED_LW].ids == ("a1", "a3")

    def test_labels_follow_recommended_and_page_is_capped(self):
        corpus, full = self.make_full([2, 30, 1, 40, 3])
        sections = slice_sections(full, T0, corpus, {"a0", "a3", "a4"}, 3)
        assert list(sections) == [Section.MN_WIDGET, Section.MISSED_LW, Section.MN_PAGE]
        assert sections[Section.MN_WIDGET].rec_labels == (True, False, True)
        assert sections[Section.MISSED_LW].rec_labels == (False, True)
        page = sections[Section.MN_PAGE]
        assert page.ids == ("a0", "a1", "a2") and page.rec_labels == (True, False, False)
        assert sections[Section.MN_WIDGET].ids == ("a0", "a2", "a4")  # cap is page-only


class TestDynScore:
    def test_at_start_zero(self):
        assert dyn_score_at(T0, T0) == 0.0

    def test_one_hour_value(self):
        expected = 1.0 - 1.0 / (1.0 + math.log(2.0))
        assert dyn_score_at(T0 + 3600, T0) == pytest.approx(expected, abs=1e-9)
        assert dyn_score_at(T0 + 3600, T0) == pytest.approx(0.4094, abs=5e-5)

    def test_strictly_increasing(self):
        values = [dyn_score_at(T0 + h * 3600, T0) for h in range(0, 200, 7)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_clamped_before_start(self):
        assert dyn_score_at(T0 - 5 * DAY, T0) == 0.0

    def test_below_one(self):
        assert dyn_score_at(T0 + 1000 * DAY, T0) < 1.0


class TestRerank:
    def make_list(self, pubs_scores):
        arts = [make_article(f"a{i}", T0 + p * 3600) for i, (p, _) in enumerate(pubs_scores)]
        corpus = Corpus(arts, [], 4)
        pairs = sorted(zip(arts, [s for _, s in pubs_scores]),
                       key=lambda x: (-x[1], -x[0].published_at, x[0].id))
        ids, scores = tuple(a.id for a, _ in pairs), tuple(s for _, s in pairs)
        return corpus, RankedList("u1", Section.MN_PAGE, T0 + 100 * 3600, ids, scores)

    def test_lambda_one_is_order_identity(self):
        corpus, full = self.make_list([(1, 0.9), (50, 0.5), (20, 0.7)])
        out = rerank(full, 1.0, T0, corpus)
        assert out.ids == full.ids

    def test_lambda_zero_sorts_by_recency(self):
        corpus, full = self.make_list([(1, 0.9), (50, 0.5), (20, 0.7)])
        out = rerank(full, 0.0, T0, corpus)
        pubs = [corpus.articles[aid].published_at for aid in out.ids]
        assert pubs == sorted(pubs, reverse=True)

    def test_blended_score_numeric(self):
        corpus, full = self.make_list([(1, 0.8)])
        out = rerank(full, 0.5, T0, corpus)
        expected = 0.5 * 0.8 + 0.5 * (1 - 1 / (1 + math.log(2)))
        assert out.scores[0] == pytest.approx(expected, abs=1e-9)
        assert out.scores[0] == pytest.approx(0.6047, abs=5e-5)

    def test_membership_preserved(self):
        corpus, full = self.make_list([(1, 0.9), (50, 0.5), (20, 0.7), (30, 0.2)])
        out = rerank(full, 0.3, T0, corpus)
        assert sorted(out.ids) == sorted(full.ids)
        assert len(out.ids) == len(full.ids)

    def test_lambda_out_of_range(self):
        corpus, full = self.make_list([(1, 0.9)])
        with pytest.raises(RankerError, match="lambda"):
            rerank(full, 1.5, T0, corpus)


class TestRankedListInvariants:
    def test_caps_enforced(self):
        ids, scores = tuple(f"a{i}" for i in range(6)), tuple(float(10 - i) for i in range(6))
        with pytest.raises(RankerError, match="cap"):
            RankedList("u", Section.MN_WIDGET, T0, ids, scores)

    def test_no_duplicates(self):
        with pytest.raises(RankerError, match="duplicate"):
            RankedList("u", Section.MN_PAGE, T0, ("a", "a"), (1.0, 0.5))

    @pytest.mark.parametrize("ids, scores", [(("a", "b"), (1.0,)), (("a",), (1.0, 0.5))],
                             ids=["fewer-scores", "more-scores"])
    def test_one_score_per_id(self, ids, scores):
        with pytest.raises(RankerError, match=f"{len(ids)} ids but {len(scores)} scores"):
            RankedList("u", Section.MN_PAGE, T0, ids, scores)

    def test_sorted_by_score(self):
        with pytest.raises(RankerError, match="sorted"):
            RankedList("u", Section.MN_PAGE, T0, ("a", "b"), (0.5, 1.0))

    @pytest.mark.parametrize("labels", [(True,), (True, False, True), ()])
    def test_rec_labels_as_long_as_items(self, labels):
        with pytest.raises(RankerError, match="rec_labels must be as long as items"):
            RankedList("u", Section.MN_PAGE, T0, ("a", "b"), (1.0, 0.5), rec_labels=labels)

    @pytest.mark.parametrize("labels", [None, (), (True,)], ids=["unlabelled", "empty", "one"])
    def test_top_keeps_labels(self, labels):
        ids, scores = (("a",), (1.0,)) if labels else ((), ())
        lst = RankedList("u", Section.MN_PAGE, T0, ids, scores, rec_labels=labels)
        assert lst.top(5) == lst

    def test_top_shares_a_short_list_and_cuts_a_long_one(self):
        """A list no longer than `n` is its own top `n`; a longer one is cut
        to a list equal to its prefix, labels included."""
        ids, scores = tuple(f"a{i}" for i in range(7)), tuple(float(10 - i) for i in range(7))
        labels = (True, False) * 3 + (True,)
        short = RankedList("u", Section.MN_WIDGET, T0, ids[:5], scores[:5], fallback=True)
        assert short.top(5) is short and short.top(7) is short
        page = RankedList("u", Section.MN_PAGE, T0, ids, scores, rec_labels=labels)
        assert page.top(7) is page and page.top(9) is page
        assert page.top(5) == RankedList("u", Section.MN_PAGE, T0, ids[:5], scores[:5],
                                         rec_labels=labels[:5])


class TestPipeline:
    def test_schedule_arithmetic(self):
        corpus = mini_corpus()
        cfg = pipe_config()
        t_end = T0 + 2 * DAY
        ems = run_pipeline(corpus, cfg, ["u1", "u2"], models=train_schedule(corpus, cfg, t_end),
                           t_end=t_end)
        assert all(not e.fallback for e in ems)  # model trained at day-1 00:00
        for uid in ("u1", "u2"):
            for section in (Section.MN_WIDGET, Section.MISSED_LW, Section.MN_PAGE):
                count = sum(1 for e in ems
                            if e.user_id == uid and e.section is section)
                assert count == 24, (uid, section)

    def test_click_triggers_extra_emission(self):
        corpus = mini_corpus()
        extra_click_at = T0 + DAY + 10 * 3600 + 1800  # 10:30 on day 1
        events = list(corpus.events) + [
            impression("u1", "d1a", extra_click_at - 60),
            click("u1", "d1a", extra_click_at),
        ]
        corpus2 = Corpus(list(corpus.articles.values()), events, 4)
        cfg = pipe_config()
        t_end = T0 + 2 * DAY
        ems = run_pipeline(corpus2, cfg, ["u1", "u2"], models=train_schedule(corpus2, cfg, t_end),
                           t_end=t_end)
        at_trigger = [e for e in ems if e.at == extra_click_at]
        assert {e.user_id for e in at_trigger} == {"u1"}
        assert len(at_trigger) == 3  # one per section

    def test_fallback_when_no_training_data(self):
        arts = [make_article("a1", T0 + DAY + 3600),
                make_article("a2", T0 + DAY + 7200)]
        corpus = Corpus(arts, [], 4)
        cfg = pipe_config()
        t_end = T0 + DAY + 6 * 3600
        ems = run_pipeline(corpus, cfg, ["u1"], models=train_schedule(corpus, cfg, t_end),
                           t_end=t_end)
        assert ems and all(e.fallback for e in ems)
        page = [e for e in ems if e.section is Section.MN_PAGE and len(e.ids) == 2]
        assert page
        for lst in page:
            pubs = [corpus.articles[aid].published_at for aid in lst.ids]
            assert pubs == sorted(pubs, reverse=True)  # recency order

    def test_lambda_one_dynamism_equals_baseline(self):
        corpus = mini_corpus()
        base_cfg = pipe_config(treatment=Treatment.BASELINE)
        dyn_cfg = pipe_config(treatment=Treatment.DYNAMISM, blend_lambda=1.0)
        t_end = T0 + 2 * DAY
        models = train_schedule(corpus, base_cfg, t_end)
        ems_b = run_pipeline(corpus, base_cfg, ["u1", "u2"], models=models, t_end=t_end)
        ems_d = run_pipeline(corpus, dyn_cfg, ["u1", "u2"], models=models, t_end=t_end)
        assert ems_b == ems_d

    def test_emitted_lists_respect_candidate_window(self, tiny_world):
        wcfg, corpus, _ = tiny_world
        cfg = pipe_config(
            t_start=wcfg.start + DAY, refresh_interval=6 * 3600.0,
            nightly_train_hour=1,
            train=TrainConfig(n_trees=4, max_depth=2, learning_rate=0.3),
            mnpage_cap=10)
        ems = run_pipeline(corpus, cfg, corpus.user_ids()[:5], models=train_schedule(corpus, cfg))
        assert ems
        for lst in ems:
            for aid in lst.ids:
                age = lst.at - corpus.articles[aid].published_at
                assert 0 <= age <= cfg.candidate_window

    def test_determinism(self, tiny_world):
        wcfg, corpus, _ = tiny_world
        cfg = pipe_config(
            t_start=wcfg.start + DAY, refresh_interval=12 * 3600.0,
            nightly_train_hour=1,
            train=TrainConfig(n_trees=4, max_depth=2, learning_rate=0.3),
            mnpage_cap=10)
        users = corpus.user_ids()[:5]
        assert (run_pipeline(corpus, cfg, users, models=train_schedule(corpus, cfg))
                == run_pipeline(corpus, cfg, users, models=train_schedule(corpus, cfg)))

    def test_rec_labels_follow_model_scores(self):
        corpus = mini_corpus()
        cfg = pipe_config(rec_label_threshold=0.5)
        t_end = T0 + DAY + 2 * 3600
        ems = run_pipeline(corpus, cfg, ["u1"], models=train_schedule(corpus, cfg, t_end),
                           t_end=t_end)
        pages = [e for e in ems if e.section is Section.MN_PAGE and not e.fallback]
        assert pages
        for lst in pages:
            assert lst.rec_labels is not None
            for score, label in zip(lst.scores, lst.rec_labels):
                assert label == (score >= 0.5)


    def test_out_of_order_schedule_refused(self):
        models = [(T0 + DAY + h * 3600.0, constant_model(WIDTH, b))
                  for h, b in ((0, 0.1), (6, 0.2), (12, 0.3))]
        for schedule, message in (
                (models[::-1], r"model 1 active from 2024-01-02T06:00:00\+00:00 does not "
                               r"follow model 0 active from 2024-01-02T12:00:00\+00:00"),
                ([models[0], models[2], models[2]], "model 2 active from 2024-01-02T12")):
            with pytest.raises(RankerError, match=message):
                run_pipeline(mini_corpus(), pipe_config(), ["u1"], t_end=T0 + 2 * DAY,
                             models=schedule)

    def test_each_model_serves_from_its_time(self):
        models = [(T0 + DAY + h * 3600.0, constant_model(WIDTH, b))
                  for h, b in ((2, 0.1), (6, 0.2), (12, 0.3))]
        ems = run_pipeline(mini_corpus(), pipe_config(), ["u1"], t_end=T0 + 2 * DAY,
                           models=models)
        pages = [e for e in ems if e.section is Section.MN_PAGE and e.ids]
        assert len({e.at for e in pages}) == 24
        for e in pages:
            served = [m for t, m in models if t <= e.at]
            assert e.fallback == (not served)
            if served:
                score = served[-1].predict_matrix(np.zeros((1, WIDTH)))[0]
                assert set(e.scores) == {score}

    def test_schema_mismatch_refused(self):
        stale = TreeEnsemble(trees=[], learning_rate=0.1, base_score=0.0,
                             schema_version=99, n_features=1)
        narrow = constant_model(1)
        for model, message in ((stale, "version 99.*running schema is version 1"),
                               (narrow, f"expects 1 features.*has {WIDTH}")):
            with pytest.raises(RankerError, match=message):
                run_pipeline(mini_corpus(), pipe_config(), ["u1"], t_end=T0 + 2 * DAY,
                             models=[(T0 + DAY, model)])


def fallback_list(user_id, cands, at, t_start):
    """The full recency-ordered list served before the first model."""
    ids, scores = newsrec.ranker._sort_items((a, dyn_score_at(a.published_at, t_start))
                                             for a in cands)
    return RankedList(user_id, Section.MN_PAGE, at, ids, scores, fallback=True)


def emit_user_oracle(out, corpus, cfg, model, user_id, at):
    """One user's lists built step by step, the reference for the serve
    path: rank (or the fallback), rerank, slice, cut the page with `top`,
    then rebuild each list to attach its labels."""
    cands = candidates(corpus, at, cfg.candidate_window)
    if model is None:
        full = fallback_list(user_id, cands, at, cfg.t_start)
        labels = {aid: False for aid in full.ids}
    else:
        profile = build_profile(corpus, user_id, at)
        full = rank(model, profile, cands, at, corpus)
        labels = {aid: s >= cfg.rec_label_threshold for aid, s in zip(full.ids, full.scores)}
        if cfg.treatment is Treatment.DYNAMISM:
            full = rerank(full, cfg.blend_lambda, cfg.t_start, corpus)
    sections = slice_sections(full, at, corpus, frozenset(), None)
    for section in (Section.MN_WIDGET, Section.MISSED_LW, Section.MN_PAGE):
        lst = sections[section]
        if section is Section.MN_PAGE and cfg.mnpage_cap is not None:
            lst = lst.top(cfg.mnpage_cap)
        out.append(RankedList(lst.user_id, lst.section, lst.at, lst.ids, lst.scores,
                              fallback=lst.fallback,
                              rec_labels=tuple(labels[aid] for aid in lst.ids)))


CLICK_AT = T0 + DAY + 10 * 3600 + 1800  # 10:30 on day 1


def clicked_mini_corpus():
    """`mini_corpus` plus a serving-day click by u1, which triggers an
    extra regeneration at CLICK_AT."""
    corpus = mini_corpus()
    events = list(corpus.events) + [impression("u1", "d1a", CLICK_AT - 60),
                                    click("u1", "d1a", CLICK_AT)]
    return Corpus(list(corpus.articles.values()), events, 4)


def emit_block_oracle(outs, corpus, cfg, model, profiles, users, tick):
    """A block's lists built user by user with `emit_user_oracle`, for each
    treatment's stream under that treatment's config."""
    for treatment, out in outs.items():
        for user_id in users:
            emit_user_oracle(out, corpus, replace(cfg, treatment=treatment), model, user_id,
                             tick.at)


def serve_via_oracle(monkeypatch, corpus, cfg, users, **kwargs):
    """`run_pipeline` with each user's lists built by `emit_user_oracle`."""
    with monkeypatch.context() as m:
        m.setattr(newsrec.ranker, "_emit_block", emit_block_oracle)
        return run_pipeline(corpus, cfg, users, **kwargs)


def oracle_config(wcfg, **over):
    """Six-hourly serving of `tiny_world` from day 1; the first model comes
    at 03:00, so the ticks before it serve fallback lists."""
    return pipe_config(t_start=wcfg.start + DAY, refresh_interval=6 * 3600.0,
                       nightly_train_hour=3,
                       train=TrainConfig(n_trees=4, max_depth=2, learning_rate=0.3), **over)


def aged_corpus():
    """`mini_corpus` plus two articles that pass 7 days of age while
    fewer than five others are between 1 and 7 days old (`w1` is exactly 7
    days old at 12:00 on day 5), one exactly 24 hours old at 00:00 on day 6
    (`d5`), and three published at one instant whose ids do not follow
    their order in `articles`."""
    corpus = mini_corpus()
    arts = list(corpus.articles.values()) + [
        make_article("w0", T0 - 2 * DAY, tags=("x",)),
        make_article("w1", T0 - 1.5 * DAY, tags=("y",)),
        make_article("d5", T0 + 5 * DAY, tags=("x",)),
        make_article("t-b", T0 + 6.5 * DAY, tags=("y",)),
        make_article("t-a", T0 + 6.5 * DAY, tags=("x",)),
        make_article("t-c", T0 + 6.5 * DAY, tags=("y",)),
    ]
    return Corpus(arts, corpus.events, 4)


class TestServeOracle:
    @pytest.mark.parametrize("mnpage_cap", [None, 2])
    @pytest.mark.parametrize("treatment", list(Treatment))
    def test_pipeline_equals_step_by_step_oracle(self, tiny_world, monkeypatch,
                                                 treatment, mnpage_cap):
        wcfg, corpus, _ = tiny_world
        cfg = oracle_config(wcfg, treatment=treatment, mnpage_cap=mnpage_cap)
        users = corpus.user_ids()[:5]
        models = train_schedule(corpus, cfg)
        got = run_pipeline(corpus, cfg, users, models=models)
        assert got == serve_via_oracle(monkeypatch, corpus, cfg, users, models=models)
        assert {e.fallback for e in got} == {False, True}
        assert {label for e in got if not e.fallback for label in e.rec_labels} == {False, True}
        assert any((e.at - cfg.t_start) % cfg.refresh_interval for e in got)  # click triggers
        pages = [len(e.ids) for e in got if e.section is Section.MN_PAGE]
        assert max(pages) == 2 if mnpage_cap else max(pages) > 2

    @pytest.mark.parametrize("block_rows", ["1", "n+1"])
    def test_block_boundaries_equal_oracle(self, tiny_world, monkeypatch, block_rows):
        wcfg, corpus, _ = tiny_world
        cfg = oracle_config(wcfg, treatment=Treatment.DYNAMISM)
        users = corpus.user_ids()[:7]
        models = train_schedule(corpus, cfg)
        # n candidates at noon on day 2: ticks with n rows serve one user per
        # block, ticks with fewer rows two or more, the last block partial
        n = len(candidates(corpus, cfg.t_start + DAY + 12 * 3600, cfg.candidate_window))
        monkeypatch.setattr(newsrec.ranker, "_BLOCK_ROWS", 1 if block_rows == "1" else n + 1)
        blocks = []
        emit_block = newsrec.ranker._emit_block

        def recorded(outs, corpus, cfg, model, profiles, users, tick):
            blocks.append(len(users))
            emit_block(outs, corpus, cfg, model, profiles, users, tick)

        monkeypatch.setattr(newsrec.ranker, "_emit_block", recorded)
        got = run_pipeline(corpus, cfg, users, models=models)
        assert got == serve_via_oracle(monkeypatch, corpus, cfg, users, models=models)
        if block_rows == "1":
            assert set(blocks) == {1}
        else:
            assert 1 in blocks and any(1 < size < len(users) for size in blocks)

    def test_one_profile_per_click_window_one_model_call_per_block(self, tiny_world,
                                                                   monkeypatch):
        wcfg, corpus, _ = tiny_world
        cfg = oracle_config(wcfg)
        models = train_schedule(corpus, cfg)
        built, scored, blocks = [], [], []
        build_profile = newsrec.features.build_profile
        raw_scores = TreeEnsemble.raw_scores
        emit_block = newsrec.ranker._emit_block

        def recorded_profile(corpus, user_id, as_of):
            built.append((user_id, as_of))
            return build_profile(corpus, user_id, as_of)

        def recorded_scores(model, X):
            scored.append(len(X))
            return raw_scores(model, X)

        def recorded_block(outs, corpus, cfg, model, profiles, users, tick):
            if model is not None:
                blocks.append(len(users) * len(tick.ids))
            emit_block(outs, corpus, cfg, model, profiles, users, tick)

        monkeypatch.setattr(newsrec.features, "build_profile", recorded_profile)
        monkeypatch.setattr(TreeEnsemble, "raw_scores", recorded_scores)
        monkeypatch.setattr(newsrec.ranker, "_emit_block", recorded_block)
        # both treatments in one walk: one profile and one model call serve both
        streams = serve_treatments(corpus, cfg, corpus.user_ids(), models, tuple(Treatment))
        got = [e for stream in streams.values() for e in stream]
        served = [e for e in got if not e.fallback and e.section is Section.MN_PAGE]
        windows = {(e.user_id, newsrec.features._click_window(corpus.clicks_of(e.user_id),
                                                              e.at))
                   for e in served}
        assert len(built) == len(windows) < len(served)
        assert scored == blocks and len(blocks) < len(served)

    @pytest.mark.parametrize("model, treatment, blend_lambda, window, mnpage_cap", [
        ("trained", Treatment.DYNAMISM, 0.5, 10 * DAY, None),
        ("trained", Treatment.BASELINE, 0.5, 10 * DAY, 3),
        ("constant", Treatment.BASELINE, 0.5, 10 * DAY, None),
        ("constant", Treatment.DYNAMISM, 0.5, 10 * DAY, None),
        ("trained", Treatment.DYNAMISM, 0.0, 10 * DAY, None),
        ("trained", Treatment.DYNAMISM, 1.0, 10 * DAY, None),
        ("trained", Treatment.DYNAMISM, 0.5, 3600.0, None),
    ], ids=["week-bound", "week-bound-baseline", "ties", "ties-dynamism", "lambda-0",
            "lambda-1", "no-candidates"])
    def test_hand_built_corpus_equals_oracle(self, monkeypatch, model, treatment,
                                             blend_lambda, window, mnpage_cap):
        corpus = aged_corpus()
        # first model at 03:00 on day 1: the 00:00 tick serves fallback lists
        cfg = pipe_config(nightly_train_hour=3, refresh_interval=6 * 3600.0,
                          candidate_window=window, treatment=treatment,
                          blend_lambda=blend_lambda, mnpage_cap=mnpage_cap)
        t_end = T0 + 8 * DAY
        models = (train_schedule(corpus, cfg, t_end) if model == "trained" else
                  [(T0 + DAY + 3 * 3600.0, constant_model(WIDTH, 0.3))])
        users = ["u1", "u2"]
        expected = serve_via_oracle(monkeypatch, corpus, cfg, users, t_end=t_end,
                                    models=models)
        # the order candidates arrive in must not matter: ties fall to the id
        monkeypatch.setattr(newsrec.ranker, "candidates",
                            lambda corpus, at, window: candidates(corpus, at, window)[::-1])
        got = run_pipeline(corpus, cfg, users, t_end=t_end, models=models)
        assert got == expected
        assert {e.fallback for e in got} == {False, True}
        pages = [e for e in got if e.section is Section.MN_PAGE]
        if window == 3600.0:
            assert {bool(e.ids) for e in pages if not e.fallback} == {False, True}
            return
        ages = {e.at - corpus.articles[aid].published_at for e in got for aid in e.ids}
        assert WEEK in ages and DAY in ages
        assert mnpage_cap or max(ages) > WEEK
        if model == "constant":
            served = [e for e in pages if not e.fallback]
            assert any(e.ids[:3] == ("t-a", "t-b", "t-c") for e in served)

    def test_each_emitted_list_constructed_once(self, monkeypatch):
        corpus = clicked_mini_corpus()
        cfg = pipe_config(nightly_train_hour=3, treatment=Treatment.DYNAMISM, mnpage_cap=2)
        models = train_schedule(corpus, cfg, T0 + 2 * DAY)
        counts = {"constructions": 0, "steps": 0, "candidates": 0}
        check = RankedList.__post_init__

        def constructed(lst):
            counts["constructions"] += 1
            check(lst)

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(RankedList, "__post_init__", constructed)
        # the list-at-a-time definitions, which the serve path does not call
        for name in ("rank", "rerank", "slice_sections"):
            monkeypatch.setattr(newsrec.ranker, name,
                                counted(getattr(newsrec.ranker, name), "steps"))
        monkeypatch.setattr(newsrec.ranker, "candidates",
                            counted(candidates, "candidates"))
        out = run_pipeline(corpus, cfg, ["u1", "u2"], t_end=T0 + 2 * DAY, models=models)
        monkeypatch.undo()
        assert len(out) == 3 * (2 * 24 + 1)
        assert {e.fallback for e in out} == {False, True}
        assert counts["constructions"] == len(out)
        assert counts["steps"] == 0
        assert counts["candidates"] == 24 + 1  # once per tick, once per click


class TestServeTreatments:
    @pytest.mark.parametrize("block_rows", [None, "1", "n+1"])
    @pytest.mark.parametrize("mnpage_cap", [None, 2])
    def test_one_walk_equals_one_call_per_treatment(self, tiny_world, monkeypatch,
                                                    mnpage_cap, block_rows):
        wcfg, corpus, _ = tiny_world
        cfg = oracle_config(wcfg, mnpage_cap=mnpage_cap)
        users = corpus.user_ids()[:7]
        models = train_schedule(corpus, cfg)
        if block_rows:
            n = len(candidates(corpus, cfg.t_start + DAY + 12 * 3600, cfg.candidate_window))
            monkeypatch.setattr(newsrec.ranker, "_BLOCK_ROWS",
                                1 if block_rows == "1" else n + 1)
        separate = {t: run_pipeline(corpus, replace(cfg, treatment=t), users, models)
                    for t in Treatment}
        for order in (tuple(Treatment), (Treatment.DYNAMISM, Treatment.BASELINE)):
            got = serve_treatments(corpus, cfg, users, models, order)
            assert list(got) == list(order)
            assert got == separate
        # one treatment alone, whatever `cfg.treatment` says
        for treatment, other in zip(Treatment, reversed(Treatment)):
            alone = serve_treatments(corpus, replace(cfg, treatment=other), users, models,
                                     (treatment,))
            assert alone == {treatment: separate[treatment]}
        baseline = separate[Treatment.BASELINE]
        assert baseline != separate[Treatment.DYNAMISM]
        assert {e.fallback for e in baseline} == {False, True}
        assert any((e.at - cfg.t_start) % cfg.refresh_interval for e in baseline)
        pages = [len(e.ids) for e in baseline if e.section is Section.MN_PAGE]
        assert max(pages) == 2 if mnpage_cap else max(pages) > 2

    def test_fallback_lists_built_once_for_every_stream(self, tiny_world):
        wcfg, corpus, _ = tiny_world
        cfg = oracle_config(wcfg)
        streams = serve_treatments(corpus, cfg, corpus.user_ids()[:5],
                                   train_schedule(corpus, cfg), tuple(Treatment))
        baseline, dynamism = streams.values()
        assert len(baseline) == len(dynamism)
        fallback = [(b, d) for b, d in zip(baseline, dynamism) if b.fallback]
        assert fallback and all(b is d for b, d in fallback)
        assert all(b is not d for b, d in zip(baseline, dynamism) if not b.fallback)

    @pytest.mark.parametrize("treatments, message", [
        ((), "no treatment is listed"),
        ((Treatment.BASELINE, Treatment.DYNAMISM, Treatment.BASELINE),
         "treatment 'baseline' is listed more than once"),
        ((Treatment.BASELINE, "dynamism"), "not a Treatment"),
    ], ids=["empty", "repeated", "not-a-treatment"])
    def test_bad_treatments_refused_before_serving(self, monkeypatch, treatments, message):
        def no_serving(*args):
            raise AssertionError("served before the treatments were checked")

        monkeypatch.setattr(newsrec.ranker, "candidates", no_serving)
        monkeypatch.setattr(newsrec.ranker, "_emit_block", no_serving)
        with pytest.raises(RankerError, match=message):
            serve_treatments(mini_corpus(), pipe_config(), ["u1"],
                             [(T0 + DAY, constant_model(WIDTH))], treatments, T0 + 2 * DAY)


def schedule_oracle(corpus, cfg):
    """Nightly models, building every day's examples again on each night
    whose seven-day window holds it (the path without per-day reuse)."""
    schedule = []
    for t in newsrec.ranker._nightly_times(cfg, corpus.time_span()[1]):
        day0 = dt.datetime.fromtimestamp(day_start(t), tz=dt.timezone.utc).date()
        rows, labels = [], []
        for back in range(7, 0, -1):
            day = day0 - dt.timedelta(days=back)
            seed = cfg.rng_seed * 100003 + day.toordinal()
            X, y, _ = build_training_set(corpus, day, seed)
            rows.extend(X)
            labels.extend(y)
        if set(labels) == {0, 1}:
            schedule.append((t, train(np.array(rows), np.array(labels), cfg.train)))
    return schedule


def model_json(model):
    return json.dumps([model.base_score, model.train_losses,
                       [tree.to_dict() for tree in model.trees]])


class TestTrainSchedule:
    def test_each_day_built_once_same_models(self, tiny_world, monkeypatch):
        wcfg, corpus, _ = tiny_world
        cfg = pipe_config(
            t_start=wcfg.start + DAY, nightly_train_hour=1,
            train=TrainConfig(n_trees=4, max_depth=3, learning_rate=0.3))
        days = []

        def counted(corpus, day, *args, **kwargs):
            days.append(day)
            return build_training_set(corpus, day, *args, **kwargs)

        monkeypatch.setattr(newsrec.ranker, "build_training_set", counted)
        schedule = train_schedule(corpus, cfg)
        monkeypatch.undo()

        assert len(days) == len(set(days)) == 10  # 4 nights, windows overlapping
        expected = schedule_oracle(corpus, cfg)
        assert len(schedule) == len(expected) == 4
        for (t, model), (t_exp, model_exp) in zip(schedule, expected):
            assert t == t_exp
            assert model_json(model) == model_json(model_exp)


def small_world(seed):
    """A world whose article ids (`a00000`...) are those of every other
    seed's world of the same shape."""
    cfg = SyntheticWorldConfig(
        seed=seed, n_users=12, n_days=4, articles_per_day=8, embedding_dim=8,
        user_affinity_dim=4, vocab_size=200, n_tags=20, n_authors=8,
        n_sections=4, n_personas=3, impressions_per_session=5)
    corpus, _ = generate_world(cfg)
    return cfg, corpus


def small_pipe(cfg):
    return pipe_config(t_start=cfg.start + DAY, nightly_train_hour=1,
                       refresh_interval=6 * 3600.0,
                       train=TrainConfig(n_trees=3, max_depth=2, learning_rate=0.3))


class TestArticleTable:
    def test_built_once_for_training_serving_and_replay(self, monkeypatch):
        cfg, corpus = small_world(1)
        pipe = small_pipe(cfg)
        built = []
        init = ArticleFeatureCache.__init__

        def counted(table, corpus):
            built.append(corpus)
            init(table, corpus)

        monkeypatch.setattr(ArticleFeatureCache, "__init__", counted)
        schedule = train_schedule(corpus, pipe)
        users = corpus.user_ids()
        for treatment in Treatment:
            run_pipeline(corpus, replace(pipe, treatment=treatment), users, models=schedule)
        offline_eval(corpus, scorers_from_schedule(schedule, corpus))
        assert schedule and len(built) == 1 and built[0] is corpus

    def test_each_corpus_has_its_own_table(self):
        cfg, a = small_world(1)
        _, b = small_world(2)
        assert sorted(a.articles) == sorted(b.articles)
        assert article_table(a) is article_table(a)
        assert article_table(a) is not article_table(b)
        assert not np.array_equal(article_table(a).emb, article_table(b).emb)

        pipe = small_pipe(cfg)
        other = [model_json(m) for _, m in train_schedule(b, pipe)]
        after_other = [(t, model_json(m)) for t, m in train_schedule(a, pipe)]
        fresh = [(t, model_json(m)) for t, m in train_schedule(small_world(1)[1], pipe)]
        assert after_other == fresh
        assert [m for _, m in fresh] != other


class TestManualLists:
    def test_synthesized_update_counts(self, tiny_world):
        wcfg, corpus, _ = tiny_world
        t_start = wcfg.start + DAY
        t_end = wcfg.start + 4 * DAY
        lists = manual_lists(corpus, t_start, t_end, rng_seed=5)
        per_day = {}
        for lst in lists:
            day = int((lst.at - wcfg.start) // DAY)
            per_day[day] = per_day.get(day, 0) + 1
        # jittered around 12: between 8 and 16 scheduled per day
        assert all(8 <= n <= 16 for n in per_day.values())

    def test_synthesized_causality_and_shape(self, tiny_world):
        wcfg, corpus, _ = tiny_world
        lists = manual_lists(corpus, wcfg.start + DAY, wcfg.start + 3 * DAY, rng_seed=5)
        assert lists
        for lst in lists:
            assert lst.section is Section.MANUAL
            assert len(lst.ids) <= 5
            for aid in lst.ids:
                assert corpus.articles[aid].published_at <= lst.at

    @pytest.mark.parametrize("updates", [(-3, -1), (3, 2), (0, 0), (2.5, 4), (True, 3), (5,)])
    def test_bad_updates_range_rejected(self, updates):
        with pytest.raises(RankerError, match="0 <= low <= high"):
            manual_lists(mini_corpus(), T0 + DAY, T0 + 2 * DAY, updates_range=updates)

    def test_synthesized_deterministic(self, tiny_world):
        wcfg, corpus, _ = tiny_world
        a = manual_lists(corpus, wcfg.start + DAY, wcfg.start + 3 * DAY, rng_seed=5)
        b = manual_lists(corpus, wcfg.start + DAY, wcfg.start + 3 * DAY, rng_seed=5)
        assert a == b


def test_emissions_roundtrip(tmp_path):
    lists = [
        RankedList("u1", Section.MN_WIDGET, T0, ("a", "b"), (0.9, 0.4),
                   rec_labels=(True, False)),
        RankedList("u2", Section.MN_PAGE, T0 + 60, ("c",), (0.2,), fallback=True),
    ]
    write_emissions(tmp_path / "e.jsonl", lists)
    assert read_emissions(tmp_path / "e.jsonl") == lists


def test_emission_log_bytes(tmp_path):
    """The log's line format: one object per list, keys sorted, `ids` and
    `scores` as arrays (each score as `repr` writes it), and `rec_labels`
    only on a labelled list."""
    lists = [
        RankedList("u1", Section.MN_WIDGET, T0, ("a", "b"), (0.9, 0.1 + 0.2),
                   rec_labels=(True, False)),
        RankedList("u2", Section.MN_PAGE, T0 + 60, ("c",), (0.2,), fallback=True),
    ]
    write_emissions(tmp_path / "e.jsonl", lists)
    assert (tmp_path / "e.jsonl").read_bytes() == (
        b'{"at": 1704067200.0, "fallback": false, "ids": ["a", "b"], '
        b'"rec_labels": [true, false], "scores": [0.9, 0.30000000000000004], '
        b'"section": "mn_widget", "user": "u1"}\n'
        b'{"at": 1704067260.0, "fallback": true, "ids": ["c"], "scores": [0.2], '
        b'"section": "mn_page", "user": "u2"}\n')


EMISSION = {"user": "u1", "section": "mn_widget", "at": T0, "ids": ["a", "b"],
            "scores": [0.9, 0.4]}


@pytest.mark.parametrize("bad, message", [
    ("{not json", "malformed JSON"),
    (json.dumps({k: v for k, v in EMISSION.items() if k != "ids"}), "missing field 'ids'"),
    (json.dumps({**EMISSION, "scores": [0.4, 0.9]}), "items must be sorted"),
    ("[1, 2]", "expected a JSON object"),
    (json.dumps({**EMISSION, "user": 7}), "user must be a string"),
    (json.dumps({**EMISSION, "ids": ["a", 2]}), "ids must be a list of strings"),
    (json.dumps({**EMISSION, "scores": [0.9]}), "2 ids but 1 scores"),
    (json.dumps({**EMISSION, "section": "mn_page", "ids": [f"a{i}" for i in range(8)],
                 "scores": [0.5] * 8, "rec_labels": [True]}),
     "rec_labels must be as long as items"),
    (json.dumps({**EMISSION, "rec_labels": "ab"}), "rec_labels must be a list of booleans"),
    (json.dumps({**EMISSION, "rec_labels": [1, 0]}), "rec_labels must be a list of booleans"),
    (json.dumps({**EMISSION, "fallback": "false"}), "fallback must be a boolean"),
    (json.dumps({**EMISSION, "at": "1704153600"}), "at must be a finite number"),
    (json.dumps({**EMISSION, "at": True}), "at must be a finite number"),
    (json.dumps({**EMISSION, "at": float("nan")}), "at must be a finite number"),
    (json.dumps({**EMISSION, "scores": [0.9, float("nan")]}), "a score must be a finite number"),
    (json.dumps({**EMISSION, "scores": ["0.9", "0.1"]}), "a score must be a finite number"),
], ids=["json", "key", "invariant", "object", "user", "ids", "lengths", "labels-length",
        "labels-string", "labels-ints", "fallback-string", "at-string", "at-bool", "at-nan",
        "score-nan", "score-strings"])
def test_read_emissions_errors_name_the_line(tmp_path, bad, message):
    path = tmp_path / "e.jsonl"
    path.write_text(json.dumps(EMISSION) + "\n\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(RankerError, match=f"e.jsonl:3: {message}"):
        read_emissions(path)
