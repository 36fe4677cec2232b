"""Effectiveness metrics from the paper's evaluation (§5.2–§5.3)."""

from repro.metrics.cpf import average_cpf, community_ptree_frequency
from repro.metrics.cps import community_pairwise_similarity
from repro.metrics.f1 import average_f1, best_match_f1, f1_score
from repro.metrics.ldr import average_ldr, level_diversity_ratio
from repro.metrics.stats import average_community_count

__all__ = [
    "community_pairwise_similarity",
    "level_diversity_ratio",
    "average_ldr",
    "community_ptree_frequency",
    "average_cpf",
    "f1_score",
    "best_match_f1",
    "average_f1",
    "average_community_count",
]
