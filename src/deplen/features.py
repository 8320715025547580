"""Predictor extraction and z-scoring.

`extract_features` gives one order's predictors as a plain row in
`feature_names(k)` order; `analysis.build_pairwise_dataset` turns the rows
into balanced pairwise differences (Joachims 2002): even pairs are oriented
reference-minus-variant with label 1, odd pairs variant-minus-reference with
label 0.
"""

import numpy as np

from .constituency import SentencePlan, order_dl

__all__ = [
    "extract_features",
    "feature_names",
    "zscore",
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


def zscore(X: np.ndarray):
    """Column-standardize a design matrix by its means and sample (n-1)
    standard deviations, zero-variance columns dropped.

    Returns (Z, kept): the standardized columns and their indices in X.
    """
    X = np.asarray(X, dtype=float)
    sd = X.std(axis=0, ddof=1)
    kept = np.flatnonzero(sd > 0)
    Z = X[:, kept]      # a copy: standardized in place
    Z -= X.mean(axis=0)[kept]
    Z /= sd[kept]
    return Z, kept
