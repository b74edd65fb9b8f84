"""Content-based news recommendation with beyond-accuracy evaluation.

Library layout:

* corpus      - data model, JSONL ingestion, synthetic-world generation
* features    - user profiles and feature extraction
* gbdt        - gradient-boosted trees with a logistic link
* ranker      - serving pipeline, section slicing, recency re-ranking
* usefulness  - diversity, dynamism, serendipity, coverage metrics
* evaluation  - offline accuracy, t-tests, treatment comparisons
* cli         - generate | train | run | evaluate | compare
"""

from .corpus import (Article, Corpus, CorpusError, GroundTruth, InteractionEvent,
                     Kind, Context, SyntheticWorldConfig, WordVectors,
                     compute_embedding, generate_world, load_corpus, save_corpus,
                     tokenize)
from .features import (UserProfile, build_profile, build_training_set, extract_matrix,
                       feature_names, write_schema)
from .gbdt import GbdtError, TrainConfig, Tree, TreeEnsemble, train
from .ranker import (PipelineConfig, RankedList, RankerError, Section, Treatment,
                     candidates, dyn_score_at, manual_lists, rank,
                     read_emissions, rerank, run_pipeline, slice_sections,
                     train_schedule, write_emissions)
from .usefulness import (AttributeKind, CoverageScope, MetricSample, align, coverage,
                         dynamism, entropy, gini, intra_list_diversity, serendipity, sim)
from .evaluation import (AccuracyReport, ComparisonReport, EvalError, TTestVariant,
                         behavior_shift, compare_manual_recsys, compare_treatments,
                         ndcg, offline_eval, precision_recall_at,
                         regularized_incomplete_beta, t_test)

__version__ = "0.1.0"
