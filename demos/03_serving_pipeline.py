"""The simulated serving schedule, section slicing, and recency re-ranking.

A simulated clock trains a fresh model nightly on the trailing week of
feedback and regenerates every user's lists each refresh interval (plus
immediately after each click). Each regeneration emits three lists: the
fresh top-5 widget, the missed-last-week strip, and the full page. The
dynamism treatment re-ranks by a 50/50 blend of model score and a
logarithmic recency score before slicing.
"""

from newsrec import SyntheticWorldConfig, TrainConfig, generate_world
from newsrec.corpus import DAY
from newsrec.ranker import (PipelineConfig, Section, Treatment, dyn_score_at,
                            serve_treatments, train_schedule)

cfg = SyntheticWorldConfig(seed=31, n_users=25, n_days=4, articles_per_day=12,
                           embedding_dim=16, user_affinity_dim=8, n_personas=4)
corpus, _ = generate_world(cfg)

base = PipelineConfig(
    t_start=cfg.start + DAY, refresh_interval=4 * 3600.0, nightly_train_hour=1,
    rng_seed=cfg.seed, train=TrainConfig(n_trees=10, max_depth=2, learning_rate=0.3),
    mnpage_cap=10)

schedule = train_schedule(corpus, base)
print(f"nightly models trained: {len(schedule)}")

users = corpus.user_ids()
# one walk serves both treatments: they differ only in the recency blend
streams = serve_treatments(corpus, base, users, schedule,
                           (Treatment.BASELINE, Treatment.DYNAMISM))
baseline, dynamism = streams[Treatment.BASELINE], streams[Treatment.DYNAMISM]
print(f"emissions per treatment: {len(baseline)} ranked lists "
      f"({len(users)} users x ticks x 3 sections + click triggers)")

# Recency score saturates logarithmically with hours since the study start.
print("\nrecency score by article age relative to study start:")
for hours in (0, 1, 6, 24, 72, 7 * 24):
    print(f"  +{hours:4d}h -> {dyn_score_at(base.t_start + hours * 3600, base.t_start):.4f}")

uid = users[0]
at = base.t_start + 2 * DAY + 12 * 3600
pick = lambda ems, section: next(
    l for l in ems if l.user_id == uid and l.section is section and l.at == at)

print(f"\n{uid}'s widget (fresh top-5) at +2.5 days, baseline vs dynamism:")
b, d = pick(baseline, Section.MN_WIDGET), pick(dynamism, Section.MN_WIDGET)
for bid, bscore, did, dscore in zip(b.ids, b.scores, d.ids, d.scores):
    age_b = (at - corpus.articles[bid].published_at) / 3600
    age_d = (at - corpus.articles[did].published_at) / 3600
    print(f"  {bid} ({bscore:.3f}, {age_b:4.1f}h old)   |   "
          f"{did} ({dscore:.3f}, {age_d:4.1f}h old)")

mean_age = lambda ems: sum(
    (l.at - corpus.articles[aid].published_at) / 3600
    for l in ems if l.section is Section.MN_WIDGET
    for aid in l.ids) / sum(
    len(l.ids) for l in ems if l.section is Section.MN_WIDGET)
print(f"\nmean served-article age in the widget: "
      f"baseline {mean_age(baseline):.1f}h vs dynamism {mean_age(dynamism):.1f}h")
