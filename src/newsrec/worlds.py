"""The committed reference experiment setup, used by the acceptance suite
for directional replication (`configs/smoke.json` is the smoke setup)."""

from __future__ import annotations

from .corpus import DAY, SyntheticWorldConfig
from .gbdt import TrainConfig
from .ranker import PipelineConfig, Treatment


def reference_world() -> SyntheticWorldConfig:
    return SyntheticWorldConfig(
        seed=20240101,
        n_users=200,
        n_days=15,
        articles_per_day=32,
        n_tags=100,
        n_authors=40,
        n_sections=8,
        zipf_exponent=1.15,
        user_affinity_dim=16,
        click_noise=0.0,
        embedding_dim=32,
        vocab_size=1200,
        n_personas=10,
        sessions_per_day=2,
        impressions_per_session=8,
    )


def reference_pipeline(world: SyntheticWorldConfig,
                       treatment: Treatment = Treatment.BASELINE) -> PipelineConfig:
    # Serving starts on day 1 so the first nightly model has a day of data.
    return PipelineConfig(
        t_start=world.start + DAY,
        refresh_interval=3 * 3600.0,
        nightly_train_hour=1,
        treatment=treatment,
        blend_lambda=0.5,
        rng_seed=world.seed,
        train=TrainConfig(n_trees=30, max_depth=3, learning_rate=0.15),
        mnpage_cap=20,
    )

