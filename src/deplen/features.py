"""Predictor extraction and the pairwise ranking transformation.

The transformation turns the imbalanced reference-vs-variant classification
into balanced binary classification over feature-vector differences: even
pairs are oriented reference-minus-variant with label 1, odd pairs
variant-minus-reference with label 0.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constituency import SentencePlan, order_dl

__all__ = [
    "FeatureVector",
    "PairwiseExample",
    "ZScoreStats",
    "extract_features",
    "feature_names",
    "joachims_transform",
    "zscore",
]


@dataclass(frozen=True)
class FeatureVector:
    total_dl: int
    constituent_dl: tuple     # per position 1..k, position k adjacent to the verb
    constituent_length: tuple

    @property
    def k(self) -> int:
        return len(self.constituent_dl)

    def as_array(self) -> np.ndarray:
        return np.array([self.total_dl, *self.constituent_dl,
                         *self.constituent_length], dtype=float)


@dataclass(frozen=True)
class PairwiseExample:
    delta: np.ndarray
    label: int
    pair_id: object
    k: int


def feature_names(k: int) -> list:
    return (["total_dl"]
            + [f"dl_pos{i}" for i in range(1, k + 1)]
            + [f"len_pos{i}" for i in range(1, k + 1)])


def extract_features(plan: SentencePlan, order,
                     convention: str = "intervening") -> FeatureVector:
    """Predictors of one linearization: total DL plus the per-position
    constituent dependency lengths and word counts."""
    dls, total = order_dl(plan, order, convention)
    lengths = tuple(plan.preverbal[ci].length for ci in order)
    return FeatureVector(total, dls, lengths)


def joachims_transform(pairs: Sequence[tuple], pair_ids: Optional[Sequence] = None):
    """Turn (reference, variant) FeatureVector pairs into PairwiseExamples.

    Orientation alternates deterministically by pair ordinal so labels are
    balanced within one example. Pairs with mismatched constituent counts
    are skipped with a diagnostic string.
    """
    examples, diagnostics = [], []
    for ordinal, (ref, var) in enumerate(pairs):
        pid = pair_ids[ordinal] if pair_ids is not None else ordinal
        if ref.k != var.k:
            diagnostics.append(
                f"pair {pid}: constituent count mismatch ({ref.k} vs {var.k})")
            continue
        if ordinal % 2 == 0:
            delta, label = ref.as_array() - var.as_array(), 1
        else:
            delta, label = var.as_array() - ref.as_array(), 0
        examples.append(PairwiseExample(delta, label, pid, ref.k))
    return examples, diagnostics


@dataclass(frozen=True)
class ZScoreStats:
    mean: np.ndarray
    sd: np.ndarray
    kept: np.ndarray          # indices of retained (non-constant) columns


def zscore(X: np.ndarray, stats: Optional[ZScoreStats] = None):
    """Column-standardize a design matrix.

    Without `stats`, means and sample (n-1) standard deviations come from X
    itself; zero-variance columns are dropped with a diagnostic. With
    `stats` (held-out folds), the stored statistics and column set are
    reused unchanged.

    Returns (Z, stats, diagnostics).
    """
    X = np.asarray(X, dtype=float)
    diagnostics = []
    if stats is None:
        mean = X.mean(axis=0)
        sd = X.std(axis=0, ddof=1)
        kept = np.flatnonzero(sd > 0)
        for j in np.flatnonzero(sd == 0):
            diagnostics.append(f"column {j} has zero variance; dropped")
        stats = ZScoreStats(mean[kept], sd[kept], kept)
    Z = (X[:, stats.kept] - stats.mean) / stats.sd
    return Z, stats, diagnostics
