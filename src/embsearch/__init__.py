"""Cross-modal retrieval on precomputed embeddings.

Exact top-k cosine search, a trainable linear adapter with contrastive and
match objectives, conflict resolution over ranked lists, and Recall@k
evaluation, all deterministic per seed.
"""
