"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy artifacts (the committed reference world, nightly models, treatment
runs) are built lazily inside the first criterion that needs them, so each
test's measured runtime covers its own work. Run with `pytest -s` to see
the per-criterion lines.
"""

import datetime as dt
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from newsrec.cli import main as cli_main
from newsrec.corpus import day_start, generate_world
from newsrec.evaluation import (TTestVariant, _user_day_candidates,
                                compare_manual_recsys, compare_treatments,
                                offline_eval, t_test)
from newsrec.gbdt import TrainConfig, train
from newsrec.ranker import (RankedList, Section, Treatment, dyn_score_at, manual_lists,
                            rerank, serve_treatments, train_schedule)
from newsrec.usefulness import (AttributeKind, CoverageScope, coverage, dynamism,
                                entropy, gini, intra_list_diversity)
from newsrec.worlds import reference_pipeline, reference_world

from conftest import T0, make_article


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"\n[FAIL] criterion {number}: {description} "
              f"(runtime {elapsed:.1f}s over {budget_seconds}s budget)")
        raise AssertionError(f"criterion {number} runtime {elapsed:.1f}s "
                             f">= {budget_seconds}s")
    print(f"\n[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


_cache: dict = {}


def reference_bundle():
    if "bundle" not in _cache:
        wcfg = reference_world()
        corpus, truth = generate_world(wcfg)
        _cache["bundle"] = (wcfg, corpus, truth)
    return _cache["bundle"]


def reference_runs():
    if "runs" not in _cache:
        wcfg, corpus, _ = reference_bundle()
        base_cfg = reference_pipeline(wcfg, Treatment.BASELINE)
        schedule = train_schedule(corpus, base_cfg)
        streams = serve_treatments(corpus, base_cfg, corpus.user_ids(), schedule,
                                   (Treatment.BASELINE, Treatment.DYNAMISM))
        ems_b, ems_d = streams[Treatment.BASELINE], streams[Treatment.DYNAMISM]
        _cache["runs"] = (base_cfg, schedule, ems_b, ems_d)
    return _cache["runs"]


# --------------------------------------------------------------------------
# Criterion 1: metric oracle equivalence on 500 random lists
# --------------------------------------------------------------------------

def _oracle_jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    return len(a & b) / len(union) if union else 1.0


def _oracle_cos01(u, v) -> float:
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = sum(x * y for x, y in zip(u, v))
    return (dot / (nu * nv) + 1.0) / 2.0


def _oracle_diversity(articles, attr):
    n = len(articles)
    if n < 2:
        return None
    sims = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = articles[i], articles[j]
            if attr is AttributeKind.EMBEDDING:
                sims.append(_oracle_cos01(list(a.embedding), list(b.embedding)))
            elif attr is AttributeKind.SECTION:
                sims.append(_oracle_jaccard(frozenset([a.section]),
                                            frozenset([b.section])))
            elif attr is AttributeKind.TAGS:
                sims.append(_oracle_jaccard(a.tags, b.tags))
            else:
                sims.append(_oracle_jaccard(a.authors, b.authors))
    if attr is AttributeKind.EMBEDDING:
        top = max(sims)
        if top > 0.0:
            sims = [s / top for s in sims]
    return sum(1.0 - s for s in sims) / (n * (n - 1) / 2)


def _oracle_dynamism(old_ids, new_ids):
    if not new_ids:
        return None
    count = 0
    for aid in new_ids:
        if aid not in list(old_ids):
            count += 1
    return count / len(new_ids)


def _oracle_gini(counts):
    counts = list(counts)
    k = len(counts)
    mean = sum(counts) / k
    if mean == 0:
        return 0.0
    mad = sum(abs(a - b) for a in counts for b in counts) / (k * k)
    return mad / (2 * mean)


def _oracle_entropy(counts):
    total = sum(counts)
    if total == 0:
        return 0.0
    return -sum((c / total) * math.log2(c / total) for c in counts if c > 0)


def _random_articles(rng, n):
    tags = list("abcdefgh")
    sections = ["s1", "s2", "s3"]
    authors = ["p1", "p2", "p3", "p4"]
    out = []
    for i in range(n):
        emb = rng.normal(size=4)
        if rng.random() < 0.1:
            emb = np.zeros(4)
        out.append(make_article(
            f"a{i}",
            section=sections[rng.integers(len(sections))],
            tags=tuple(rng.choice(tags, size=rng.integers(1, 4), replace=False)),
            authors=tuple(rng.choice(authors, size=rng.integers(1, 3), replace=False)),
            embedding=emb))
    return out


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence on 500 random lists", 10.0):
        rng = np.random.default_rng(12345)
        for trial in range(500):
            n = int(rng.integers(2, 7))
            articles = _random_articles(rng, n)
            for attr in AttributeKind:
                got = intra_list_diversity(articles, attr)
                want = _oracle_diversity(articles, attr)
                assert abs(got - want) <= 1e-12, (trial, attr)

            ids = [a.id for a in articles]
            old = list(rng.choice(ids, size=int(rng.integers(1, n + 1)),
                                  replace=False))
            new = list(rng.choice(ids, size=int(rng.integers(1, n + 1)),
                                  replace=False))
            assert abs(dynamism(old, new) - _oracle_dynamism(old, new)) <= 1e-12

            published = [f"p{i}" for i in range(int(rng.integers(1, 12)))]
            lists = []
            for u in range(int(rng.integers(1, 4))):
                pool = published + ids
                served = rng.choice(pool, size=int(rng.integers(1, min(5, len(pool) + 1))),
                                    replace=False)
                lists.append(RankedList(f"u{u}", Section.MN_PAGE, T0 + u, tuple(served),
                                        tuple(float(len(served) - k)
                                              for k in range(len(served)))))
            got_all = coverage(lists, published, CoverageScope.ALL_USERS)
            union = set()
            for lst in lists:
                union.update(lst.ids)
            assert abs(got_all - len(union & set(published)) / len(published)) <= 1e-12
            got_per = coverage(lists, published, CoverageScope.PER_USER)
            per = []
            for uid in sorted({l.user_id for l in lists}):
                served = set()
                for lst in lists:
                    if lst.user_id == uid:
                        served.update(lst.ids)
                per.append(len(served & set(published)) / len(published))
            assert abs(got_per - sum(per) / len(per)) <= 1e-12

            counts = [int(c) for c in rng.integers(0, 40, size=int(rng.integers(1, 9)))]
            if sum(counts) == 0:
                counts[0] = 1
            assert abs(gini(counts) - _oracle_gini(counts)) <= 1e-12
            assert abs(entropy(counts) - _oracle_entropy(counts)) <= 1e-12


# --------------------------------------------------------------------------
# Criterion 2: recency score and re-ranker unit suite
# --------------------------------------------------------------------------

def test_criterion_2_recency_and_rerank():
    with criterion(2, "recency score and blended re-ranker unit suite", 1.0):
        assert dyn_score_at(T0, T0) == 0.0
        expected = 1.0 - 1.0 / (1.0 + math.log(2.0))
        assert abs(dyn_score_at(T0 + 3600.0, T0) - expected) <= 1e-9

        from newsrec.corpus import Corpus
        rng = np.random.default_rng(2)
        arts = [make_article(f"a{i}", T0 + float(rng.integers(0, 96)) * 3600.0)
                for i in range(12)]
        corpus = Corpus(arts, [], 4)
        scores = rng.random(12)
        pairs = sorted(zip(arts, scores),
                       key=lambda p: (-p[1], -p[0].published_at, p[0].id))
        full = RankedList("u1", Section.MN_PAGE, T0 + 97 * 3600.0,
                          tuple(a.id for a, _ in pairs), tuple(float(s) for _, s in pairs))

        identity = rerank(full, 1.0, T0, corpus)
        assert identity.ids == full.ids

        recency = rerank(full, 0.0, T0, corpus)
        pubs = [corpus.articles[aid].published_at for aid in recency.ids]
        assert pubs == sorted(pubs, reverse=True)


# --------------------------------------------------------------------------
# Criterion 3: GBDT sanity on a separable synthetic set
# --------------------------------------------------------------------------

def test_criterion_3_gbdt_sanity():
    with criterion(3, "GBDT monotone loss, AUC >= 0.95, Newton leaf formula", 10.0):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        model = train(X, y, TrainConfig(n_trees=40, max_depth=3))
        losses = model.train_losses
        assert all(losses[i + 1] <= losses[i] + 1e-9 for i in range(len(losses) - 1))
        scores = model.predict_matrix(X)
        pos = scores[y == 1]
        neg = scores[y == 0]
        wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
                   for p in pos for q in neg)
        auc = wins / (len(pos) * len(neg))
        assert auc >= 0.95

        yleaf = np.array([1] * 140 + [0] * 60, dtype=float)
        lam = 1.0
        single = train(rng.normal(size=(200, 2)), yleaf,
                       TrainConfig(n_trees=1, max_depth=0, learning_rate=1.0, l2_reg=lam),
                       base_score=0.0)
        expected = -(0.5 - yleaf).sum() / (0.25 * len(yleaf) + lam)
        assert abs(single.trees[0].weight[0] - expected) <= 1e-9


# --------------------------------------------------------------------------
# Criterion 4: offline-eval protocol against the generator's ground truth
# --------------------------------------------------------------------------

def test_criterion_4_offline_eval_protocol():
    with criterion(4, "oracle NDCG >= 0.95 and random-scorer P@5 near base rate", 60.0):
        wcfg, corpus, truth = reference_bundle()
        days = sorted({dt.datetime.fromtimestamp(day_start(e.at),
                                                 tz=dt.timezone.utc).date()
                       for e in corpus.events})

        def oracle(profile, articles, at):
            return np.array([truth.click_prob(profile.user_id, a.id)
                             for a in articles])

        report = offline_eval(corpus, {d: oracle for d in days})
        assert report.n_user_days >= 1000
        assert report.ndcg >= 0.95

        rng = np.random.default_rng(4)

        def random_scorer(profile, articles, at):
            return rng.random(len(articles))

        random_report = offline_eval(corpus, {d: random_scorer for d in days})

        expected = []
        for d in days:
            ts = dt.datetime(d.year, d.month, d.day,
                             tzinfo=dt.timezone.utc).timestamp()
            for uid, (clicks, pool) in _user_day_candidates(corpus, ts).items():
                n, m = len(pool), len(clicks)
                expected.append(m / n if n >= 5 else m / 5)
        base_rate = sum(expected) / len(expected)
        assert abs(random_report.p_at[5] - base_rate) <= 0.05


# --------------------------------------------------------------------------
# Criterion 5: Study-2 directional replication
# --------------------------------------------------------------------------

def test_criterion_5_study2_direction():
    with criterion(5, "dynamism treatment raises dynamism significantly; "
                      "per-section NDCG unchanged", 300.0):
        _, corpus, _ = reference_bundle()[:3]
        base_cfg, schedule, ems_b, ems_d = reference_runs()
        reports = {r.metric: r for r in compare_treatments(ems_b, ems_d, corpus)}

        dyn = reports["dynamism"]
        assert dyn.group_b.mean > dyn.group_a.mean
        assert dyn.p_value < 0.05 and dyn.significant

        for section in ("missed_lw", "mn_widget", "mn_page"):
            ndcg_report = reports[f"ndcg_{section}"]
            assert ndcg_report.p_value >= 0.05, section
            assert not ndcg_report.significant


# --------------------------------------------------------------------------
# Criterion 6: Study-1 directional replication
# --------------------------------------------------------------------------

def test_criterion_6_study1_direction():
    with criterion(6, "recsys beats manual on all-users coverage and section "
                      "diversity, loses per-user coverage", 300.0):
        wcfg, corpus, _ = reference_bundle()
        base_cfg, _, ems_b, _ = reference_runs()
        manual = manual_lists(corpus, base_cfg.t_start, corpus.time_span()[1],
                              rng_seed=wcfg.seed * 7919 + 11)
        reports = {r.metric: r for r in compare_manual_recsys(manual, ems_b, corpus)}

        cov_all = reports["coverage_all_users"]
        assert cov_all.group_b.mean > cov_all.group_a.mean  # recsys > manual

        cov_user = reports["coverage_per_user"]
        assert cov_user.group_b.mean < cov_user.group_a.mean  # recsys < manual

        div_section = reports["diversity_section"]
        assert div_section.group_b.mean > div_section.group_a.mean


# --------------------------------------------------------------------------
# Criterion 7: statistics validation
# --------------------------------------------------------------------------

def test_criterion_7_statistics_validation():
    with criterion(7, "t-test matches external references; null p-values uniform", 30.0):
        from test_evaluation import TTEST_REFERENCE
        assert len(TTEST_REFERENCE) >= 5
        for variant, a, b, t_ref, p_ref in TTEST_REFERENCE:
            r = t_test(a, b, TTestVariant(variant))
            assert abs(r.t_stat - t_ref) <= 1e-4
            assert abs(r.p_value - p_ref) <= 1e-4

        rng = np.random.default_rng(777)
        pvals = np.sort([t_test(rng.normal(size=15), rng.normal(size=15)).p_value
                         for _ in range(1000)])
        n = len(pvals)
        grid_hi = np.arange(1, n + 1) / n
        grid_lo = np.arange(n) / n
        d = float(np.max(np.maximum(np.abs(grid_hi - pvals),
                                    np.abs(pvals - grid_lo))))
        assert d < 1.6276 / math.sqrt(n)  # KS critical value, alpha = 0.01


# --------------------------------------------------------------------------
# Criterion 8: full-chain determinism
# --------------------------------------------------------------------------

def _run_chain(config_path, out_dir):
    cfg = json.loads((Path(__file__).parent.parent / "configs" / "smoke.json")
                     .read_text())
    cfg["out"] = str(out_dir)
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    for cmd in ("generate", "train", "run", "evaluate", "compare"):
        code = cli_main([cmd, "--config", str(config_path)])
        assert code == 0, cmd


def test_criterion_8_cli_chain_determinism(tmp_path):
    with criterion(8, "CLI chain run twice is byte-identical", 120.0):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        _run_chain(tmp_path / "cfg_a.json", out_a)
        _run_chain(tmp_path / "cfg_b.json", out_b)

        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
