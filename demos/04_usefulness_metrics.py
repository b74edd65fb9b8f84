"""The four usefulness metrics, and personalized vs editor-curated lists.

Diversity is mean pairwise dissimilarity inside one list; dynamism the
fraction of a list that is new relative to the previous one; serendipity
the mean unexpectedness against the user's 7-day history; coverage the
share of the day's publications actually served. The editor baseline is a
non-personalized popularity-plus-noise top 5, updated ~12 times a day at
irregular times, and the two sources are aligned at the editor's update
timestamps before comparison.
"""

from newsrec import SyntheticWorldConfig, TrainConfig, generate_world
from newsrec.corpus import DAY
from newsrec.evaluation import compare_manual_recsys, format_comparison_table
from newsrec.features import build_profile
from newsrec.ranker import (PipelineConfig, Section, manual_lists, run_pipeline,
                            train_schedule)
from newsrec.usefulness import (AttributeKind, CoverageScope, align, coverage,
                                dynamism, entropy, gini, intra_list_diversity,
                                serendipity)

cfg = SyntheticWorldConfig(seed=41, n_users=30, n_days=5, articles_per_day=14,
                           embedding_dim=16, user_affinity_dim=8, n_personas=4)
corpus, _ = generate_world(cfg)
pipe = PipelineConfig(
    t_start=cfg.start + DAY, refresh_interval=4 * 3600.0, nightly_train_hour=1,
    rng_seed=cfg.seed, train=TrainConfig(n_trees=10, max_depth=2, learning_rate=0.3),
    mnpage_cap=10)
emissions = run_pipeline(corpus, pipe, corpus.user_ids(), models=train_schedule(corpus, pipe))
widget = [l for l in emissions if l.section is Section.MN_WIDGET and not l.fallback]

lst = next(l for l in widget if len(l.items) >= 4)
articles = [corpus.articles[aid] for aid in lst.ids()]
print(f"one widget list for {lst.user_id} ({len(articles)} items):")
for attr in AttributeKind:
    print(f"  intra-list diversity on {attr.value:10s} "
          f"{intra_list_diversity(articles, attr):.4f}")

profile = build_profile(corpus, lst.user_id, lst.at)
print(f"  serendipity vs their 7-day history (tags): "
      f"{serendipity(articles, profile, AttributeKind.TAGS):.4f}")

stream = [l for l in widget if l.user_id == lst.user_id]
pairs = list(zip(stream, stream[1:]))
values = [v for prev, cur in pairs if (v := dynamism(prev, cur)) is not None]
print(f"  mean list-over-list dynamism for that user: "
      f"{sum(values) / len(values):.4f} over {len(values)} consecutive pairs")

day0 = pipe.t_start + DAY
published = [a.id for a in corpus.published_between(day0, day0 + DAY)]
day_lists = [l for l in widget if day0 <= l.at < day0 + DAY]
print(f"\nday-2 coverage of {len(published)} publications: "
      f"per-user {coverage(day_lists, published, CoverageScope.PER_USER):.3f}, "
      f"all-users {coverage(day_lists, published, CoverageScope.ALL_USERS):.3f}")

freqs = {}
for l in day_lists:
    for aid in l.ids():
        freqs[corpus.articles[aid].section] = freqs.get(corpus.articles[aid].section, 0) + 1
print(f"served-section dispersion: gini {gini(freqs):.3f}, "
      f"entropy {entropy(freqs):.3f} bits")

manual = manual_lists(corpus, pipe.t_start, corpus.time_span()[1], rng_seed=404)
print(f"\neditor baseline: {len(manual)} irregular top-5 updates; aligned pairs: "
      f"{len(align(manual, widget))}")
reports = compare_manual_recsys(manual, emissions, corpus)
print(format_comparison_table(reports, "manual", "recsys"))
