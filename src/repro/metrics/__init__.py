"""Effectiveness metrics from the paper's evaluation (§5.2–§5.3)."""

from repro.metrics.cpf import community_ptree_frequency
from repro.metrics.cps import community_pairwise_similarity
from repro.metrics.f1 import best_match_f1, f1_score
from repro.metrics.ldr import level_diversity_ratio
from repro.metrics.stats import average_community_count

__all__ = [
    "community_pairwise_similarity",
    "level_diversity_ratio",
    "community_ptree_frequency",
    "f1_score",
    "best_match_f1",
    "average_community_count",
]
