"""Predictor extraction, one order at a time: `extract_features` alone.

`extract_features` gives one order's per-position predictors as a plain
row; `analysis.build_pairwise_dataset` turns the rows into balanced pairwise
differences (Joachims 2002): even pairs are oriented reference-minus-variant
with label 1, odd pairs variant-minus-reference with label 0. The traced
benchmark counts its calls, one per order, so it stays a module of its own.
"""

from .constituency import SentencePlan

__all__ = ["extract_features"]


def extract_features(plan: SentencePlan, order) -> tuple:
    """The per-position constituent dependency lengths of one
    linearization, then their word counts (position k adjacent to the verb),
    distances in intervening words, as `PlanTable.score` gives them. Only
    these k head-to-verb arcs move under reordering, so every other arc, the
    plan's `fixed_dl`, cancels in a pair's delta and is not read. It stays a
    per-order scalar because the traced benchmark counts its calls, one per
    order."""
    dls, start = [], 1
    lengths, offsets, verb = plan.lengths, plan.head_offsets, plan.verb_index
    for ci in order:   # every preverbal head precedes the verb
        dls.append(verb - start - offsets[ci] - 1)
        start += lengths[ci]
    return (*dls, *(lengths[ci] for ci in order))
