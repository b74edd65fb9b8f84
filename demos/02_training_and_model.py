"""From clicks to a trained click model.

Builds one day of implicit-feedback training data (clicks as positives,
an equal-size sample of seen-not-clicked impressions as negatives),
trains the boosted-tree model, and shows the logistic-loss curve plus
model-file round-tripping.
"""

import datetime as dt
import tempfile
from pathlib import Path

import numpy as np

from newsrec import SyntheticWorldConfig, TrainConfig, generate_world, train
from newsrec.corpus import DAY
from newsrec.features import build_training_set, feature_names
from newsrec.gbdt import load, save

cfg = SyntheticWorldConfig(seed=21, n_users=40, n_days=3, articles_per_day=14,
                           embedding_dim=16, user_affinity_dim=8, n_personas=4)
corpus, truth = generate_world(cfg)

day = dt.datetime.fromtimestamp(cfg.start + 2 * DAY, tz=dt.timezone.utc).date()
examples = build_training_set(corpus, day, rng_seed=1)
n_pos = sum(e.label for e in examples)
print(f"training set for {day}: {len(examples)} examples "
      f"({n_pos} positive / {len(examples) - n_pos} negative, 1:1 by sampling)")
names = feature_names(corpus.embedding_dim)
print(f"feature width {len(names)}; first few names: {names[:4]} ...")

model = train(examples, TrainConfig(n_trees=25, max_depth=3, learning_rate=0.2))
print(f"\nbase score (log-odds of positive rate): {model.base_score:.4f}")
print("training log-loss per boosting round (non-increasing):")
curve = model.train_losses
for i in range(0, len(curve), 5):
    bar = "#" * int(60 * curve[i] / curve[0])
    print(f"  round {i:3d}  {curve[i]:.4f}  {bar}")

X = np.stack([e.features for e in examples])
y = np.array([e.label for e in examples])
p = model.predict_matrix(X)
print(f"\nmean predicted probability on positives: {p[y == 1].mean():.3f}")
print(f"mean predicted probability on negatives: {p[y == 0].mean():.3f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save(model, path)
    again = load(path)
    same = np.array_equal(model.predict_matrix(X), again.predict_matrix(X))
    print(f"\nmodel file round-trip predicts identically: {same}")
