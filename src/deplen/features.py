"""Predictor extraction and z-scoring.

`extract_features` gives one order's predictors as a plain row in
`feature_names(k)` order; `analysis.build_pairwise_dataset` turns the rows
into balanced pairwise differences (Joachims 2002): even pairs are oriented
reference-minus-variant with label 1, odd pairs variant-minus-reference with
label 0.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constituency import SentencePlan, order_dl

__all__ = [
    "ZScoreStats",
    "extract_features",
    "feature_names",
    "zscore",
    "zscore_stats",
]


def feature_names(k: int) -> list:
    return (["total_dl"]
            + [f"dl_pos{i}" for i in range(1, k + 1)]
            + [f"len_pos{i}" for i in range(1, k + 1)])


def extract_features(plan: SentencePlan, order) -> tuple:
    """Predictors of one linearization in `feature_names(k)` order: total DL,
    then the per-position constituent dependency lengths and word counts
    (position k adjacent to the verb), distances in intervening words."""
    dls, total = order_dl(plan, order)
    lengths = plan.lengths
    return (total, *dls, *(lengths[ci] for ci in order))


@dataclass(frozen=True)
class ZScoreStats:
    mean: np.ndarray
    sd: np.ndarray
    kept: np.ndarray          # indices of retained (non-constant) columns


def zscore_stats(X: np.ndarray):
    """Means and sample (n-1) standard deviations of the columns of X, with
    zero-variance columns dropped and named in the diagnostics.

    Returns (stats, diagnostics).
    """
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    sd = X.std(axis=0, ddof=1)
    kept = np.flatnonzero(sd > 0)
    diagnostics = [f"column {j} has zero variance; dropped" for j in np.flatnonzero(sd == 0)]
    return ZScoreStats(mean[kept], sd[kept], kept), diagnostics


def zscore(X: np.ndarray, stats: Optional[ZScoreStats] = None):
    """Column-standardize a design matrix.

    Without `stats`, the statistics come from X itself (`zscore_stats`).
    With `stats` (held-out folds), the stored statistics and column set are
    reused unchanged.

    Returns (Z, stats, diagnostics).
    """
    X = np.asarray(X, dtype=float)
    diagnostics = []
    if stats is None:
        stats, diagnostics = zscore_stats(X)
    Z = X[:, stats.kept]      # a copy: standardized in place
    Z -= stats.mean
    Z /= stats.sd
    return Z, stats, diagnostics
