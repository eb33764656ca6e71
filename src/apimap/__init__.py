"""Cross-language API mapping through embedding-space alignment.

The pipeline: normalize code-token corpora, train skip-gram embeddings per
language, mine signature-matched seed pairs, solve an initial orthogonal
mapping, improve it adversarially, refine it on synthetic dictionaries, and
answer API-mapping queries by nearest-neighbor search in the aligned spaces.
"""

from .adversarial import (
    AdvConfig,
    Discriminator,
    discriminator_loss,
    mapping_loss,
    selection_criterion,
    train_adversarial,
)
from .corpus import (
    SignatureTable,
    Vocabulary,
    build_vocabulary,
    normalize_sequence,
    to_class_level,
)
from .embedding import (
    EmbeddingSpace,
    TrainConfig,
    load_space,
    save_space,
    train_skipgram,
)
from .errors import DivergenceError, FormatError
from .evaluation import (
    GroundTruth,
    coverage_accuracy_table,
    coverage_rows,
    group_similarity,
    precision_recall_f,
    run_ablation,
    topk_accuracy,
)
from .query import QueryResult, batch_query, map_vector, nearest_neighbors
from .refinement import (
    RefineConfig,
    aligned_scan,
    candidates_cosine_threshold,
    candidates_topk_frequency,
    combine_candidates,
    refine,
)
from .seeding import (
    MappingMatrix,
    SeedDictionary,
    mine_signature_seeds,
    nearest_orthogonal,
    solve_gradient_descent,
    solve_procrustes,
)

__version__ = "0.1.0"

__all__ = [
    "AdvConfig",
    "Discriminator",
    "DivergenceError",
    "EmbeddingSpace",
    "FormatError",
    "GroundTruth",
    "MappingMatrix",
    "QueryResult",
    "RefineConfig",
    "SeedDictionary",
    "SignatureTable",
    "TrainConfig",
    "Vocabulary",
    "aligned_scan",
    "batch_query",
    "build_vocabulary",
    "candidates_cosine_threshold",
    "candidates_topk_frequency",
    "combine_candidates",
    "coverage_accuracy_table",
    "coverage_rows",
    "discriminator_loss",
    "group_similarity",
    "load_space",
    "map_vector",
    "mapping_loss",
    "mine_signature_seeds",
    "nearest_neighbors",
    "nearest_orthogonal",
    "normalize_sequence",
    "precision_recall_f",
    "refine",
    "run_ablation",
    "save_space",
    "selection_criterion",
    "solve_gradient_descent",
    "solve_procrustes",
    "to_class_level",
    "topk_accuracy",
    "train_adversarial",
    "train_skipgram",
]
