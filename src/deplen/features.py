"""Predictor extraction and z-scoring.

`extract_features` gives one order's per-position predictors as a plain
row; `analysis.build_pairwise_dataset` turns the rows into balanced pairwise
differences (Joachims 2002): even pairs are oriented reference-minus-variant
with label 1, odd pairs variant-minus-reference with label 0.
"""

import numpy as np

from .constituency import SentencePlan

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
    """The per-position constituent dependency lengths of one
    linearization, then their word counts (position k adjacent to the verb),
    distances in intervening words, as `PlanTable.score` gives them. Only
    these k head-to-verb arcs move under reordering, so every other arc, the
    plan's `fixed_dl`, cancels in a pair's delta and is not read. It stays a
    per-order scalar only because the traced benchmark counts its calls,
    until ROADMAP items 2 and 3."""
    dls, start = [], 1
    lengths, offsets, verb = plan.lengths, plan.head_offsets, plan.verb_index
    for ci in order:   # every preverbal head precedes the verb
        dls.append(verb - start - offsets[ci] - 1)
        start += lengths[ci]
    return (*dls, *(lengths[ci] for ci in order))


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
