"""Offline accuracy replay, the simulated A/B test, and behavior shift.

Accuracy replays each user-day's displayed articles through the model
trained the night before and macro-averages NDCG / P@k / R@k. The A/B
harness runs both treatments over the same world and t-tests every metric;
the recency treatment should move dynamism without moving NDCG. Finally,
reading behavior is compared between the first and second half of the
simulation, mirroring a before/after analysis of click diversity.
"""

from newsrec import SyntheticWorldConfig, TrainConfig, generate_world
from newsrec.corpus import DAY
from newsrec.evaluation import (behavior_shift, compare_treatments,
                                format_accuracy_table, format_comparison_table,
                                offline_eval, scorers_from_schedule)
from newsrec.ranker import PipelineConfig, Treatment, serve_treatments, train_schedule

cfg = SyntheticWorldConfig(seed=51, n_users=40, n_days=6, articles_per_day=14,
                           embedding_dim=16, user_affinity_dim=8, n_personas=4)
corpus, _ = generate_world(cfg)
base = PipelineConfig(
    t_start=cfg.start + DAY, refresh_interval=4 * 3600.0, nightly_train_hour=1,
    rng_seed=cfg.seed, train=TrainConfig(n_trees=15, max_depth=3, learning_rate=0.25),
    mnpage_cap=10)

schedule = train_schedule(corpus, base)
report = offline_eval(corpus, scorers_from_schedule(schedule, corpus))
print("offline accuracy of the nightly models (replayed user-days):")
print(format_accuracy_table(report))

users = corpus.user_ids()
streams = serve_treatments(corpus, base, users, schedule,
                           (Treatment.BASELINE, Treatment.DYNAMISM))
ems_base, ems_dyn = streams[Treatment.BASELINE], streams[Treatment.DYNAMISM]

print("\nA/B comparison, baseline vs recency-blended treatment:")
reports = compare_treatments(ems_base, ems_dyn, corpus)
print(format_comparison_table(reports, "baseline", "dynamism"))

mid = cfg.start + 3 * DAY
shift = behavior_shift(corpus, (cfg.start, mid), (mid, cfg.start + 6 * DAY))
print("\nreading-behavior shift, first half vs second half of the simulation:")
print(format_comparison_table(shift, "first", "second"))
