"""Counterfactual word-order variants and the ordering strategies.

A variant is a permutation of a plan's k preverbal constituents, represented
as a tuple of their indices in the original left-to-right order, the order
of `plan.lengths` (front of the sentence first); only k is read here.
Permutations, not surface strings, are the unit: two permutations that
happen to produce the same string are distinct variants.

The strategies are array functions, the last axis over one plan's k
constituents; a random order is one seeded `rng.permutation(k)`.
"""

import itertools
import math

import numpy as np

__all__ = [
    "variant_count",
    "generate_variants",
    "ascending_orders",
    "descending_orders",
    "least_effort_moves",
]

DEFAULT_CAP = 100


def variant_count(k: int, cap: int = DEFAULT_CAP) -> int:
    """min(k!, cap) - 1, the number of variants of k constituents."""
    if cap < 2:
        raise ValueError(f"variant cap must be >= 2, got {cap}")
    if k < 2:
        raise ValueError(f"k = {k}: fewer than 2 preverbal constituents")
    return min(math.factorial(k), cap) - 1


def generate_variants(k: int, cap: int = DEFAULT_CAP, seed=None) -> tuple:
    """The variant orders of k constituents: all non-reference permutations
    when k! <= cap, else cap-1 distinct ones sampled uniformly without
    replacement. The reference order, `tuple(range(k))`, is never among
    them. `seed` is anything `np.random.default_rng` takes, a Generator
    included: in the pipeline, the stream `analysis.comparison_orders` derives.

    Sampling draws blocks of 2*cap rows, each shuffled by the same
    Fisher-Yates draws as one `rng.permutation(k)` call, and keeps the first
    cap-1 distinct non-reference rows in draw order: the variants that
    drawing one permutation at a time until cap-1 are found would give.
    """
    count = variant_count(k, cap)
    if count == math.factorial(k) - 1:   # the reference comes first
        return tuple(itertools.permutations(range(k)))[1:]
    rng = np.random.default_rng(seed)
    rows = np.tile(np.arange(k), (2 * cap, 1))
    distinct = dict.fromkeys([tuple(range(k))])   # keys keep draw order
    while len(distinct) <= count:
        block = rng.permuted(rows, axis=1).tolist()
        distinct.update(dict.fromkeys(map(tuple, block)))
    return tuple(itertools.islice(distinct, 1, count + 1))


def ascending_orders(lengths) -> np.ndarray:
    """Shortest first, ties in original left-to-right order: the order of
    each plan whose constituent lengths are a row (..., k) of `lengths`."""
    return np.argsort(lengths, axis=-1, kind="stable")


def descending_orders(lengths) -> np.ndarray:
    """Longest first, ties in original left-to-right order."""
    return np.argsort(np.negative(lengths), axis=-1, kind="stable")


def least_effort_moves(lengths, orders) -> np.ndarray:
    """Each order with its shortest constituent moved next to the verb, all
    other relative orders kept: orders (..., k) of the plans whose
    constituent lengths `lengths` broadcasts to. Ties go to the shortest
    already nearest the verb, so an order whose shortest constituent is
    verb-adjacent is left unchanged."""
    orders = np.asarray(orders)
    k = orders.shape[-1]
    in_order = np.take_along_axis(np.broadcast_to(lengths, orders.shape), orders, axis=-1)
    shortest = in_order == in_order.min(axis=-1, keepdims=True)
    moved = k - 1 - np.argmax(shortest[..., ::-1], axis=-1)[..., None]
    kept = np.arange(k - 1)
    source = np.concatenate([kept + (kept >= moved), moved], axis=-1)
    return np.take_along_axis(orders, source, axis=-1)
