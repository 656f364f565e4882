"""Cross-modal retrieval on precomputed embeddings.

Exact top-k cosine search, a trainable linear adapter with contrastive and
match objectives, conflict resolution over ranked lists, and Recall@k
evaluation, all deterministic per seed.
"""

from .data import (
    DatasetManifest,
    EmbeddingMatrix,
    SynthConfig,
    generate_synthetic,
    l2_normalize,
    load_embeddings,
    load_manifest,
    validate_dataset,
)
from .evaluation import EvalReport, compare_reports, recall_at_k
from .objective import (
    AdapterParams,
    Batch,
    TrainConfig,
    apply_adapter,
    contrastive_loss,
    match_loss,
    train_adapter,
)
from .resolver import Resolution, ResolutionPolicy, resolve
from .similarity import Ranking, similarity_matrix, top_k

__all__ = [
    "AdapterParams",
    "Batch",
    "DatasetManifest",
    "EmbeddingMatrix",
    "EvalReport",
    "Ranking",
    "Resolution",
    "ResolutionPolicy",
    "SynthConfig",
    "TrainConfig",
    "apply_adapter",
    "compare_reports",
    "contrastive_loss",
    "generate_synthetic",
    "l2_normalize",
    "load_embeddings",
    "load_manifest",
    "match_loss",
    "recall_at_k",
    "resolve",
    "similarity_matrix",
    "top_k",
    "train_adapter",
    "validate_dataset",
]
