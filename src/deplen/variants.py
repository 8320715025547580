"""Counterfactual word-order variants and the four named ordering strategies.

A variant is a permutation of a plan's preverbal constituents, represented
as a tuple of their indices in the original left-to-right order, the order
of `plan.lengths` (front of the sentence first).
Permutations, not surface strings, are the unit: two permutations that
happen to produce the same string are distinct variants.
"""

import itertools
import math

import numpy as np

from .constituency import SentencePlan
from .treebank import DependencyTree

__all__ = [
    "generate_variants",
    "order_ascending",
    "order_descending",
    "order_random",
    "least_effort_move",
    "linearize",
]

DEFAULT_CAP = 100


def generate_variants(plan: SentencePlan, cap: int = DEFAULT_CAP, seed=None) -> tuple:
    """The variant orders: all non-reference permutations when k! <= cap,
    else cap-1 distinct ones sampled uniformly without replacement. The
    reference order, `tuple(range(k))`, is never among them. `seed` is
    anything `np.random.default_rng` takes, a Generator included.

    Sampling draws blocks of 2*cap rows, each shuffled by the same
    Fisher-Yates draws as one `rng.permutation(k)` call, and keeps the first
    cap-1 distinct non-reference rows in draw order: the variants that
    drawing one permutation at a time until cap-1 are found would give.
    """
    if cap < 2:
        raise ValueError(f"variant cap must be >= 2, got {cap}")
    k = plan.k
    if k < 2:
        raise ValueError("plan has fewer than 2 preverbal constituents")
    if math.factorial(k) <= cap:   # the reference comes first
        return tuple(itertools.permutations(range(k)))[1:]
    rng = np.random.default_rng(seed)
    rows = np.tile(np.arange(k), (2 * cap, 1))
    distinct = dict.fromkeys([tuple(range(k))])   # keys keep draw order
    while len(distinct) < cap:
        block = rng.permuted(rows, axis=1).tolist()
        distinct.update(dict.fromkeys(map(tuple, block)))
    return tuple(itertools.islice(distinct, 1, cap))


def order_ascending(plan: SentencePlan) -> tuple:
    """Shortest first; ties keep original left-to-right order."""
    return tuple(sorted(range(plan.k), key=lambda i: (plan.lengths[i], i)))


def order_descending(plan: SentencePlan) -> tuple:
    """Longest first; ties keep original left-to-right order."""
    return tuple(sorted(range(plan.k), key=lambda i: (-plan.lengths[i], i)))


def order_random(plan: SentencePlan, seed=None) -> tuple:
    return tuple(int(i) for i in np.random.default_rng(seed).permutation(plan.k))


def least_effort_move(plan: SentencePlan, order) -> tuple:
    """Relocate the shortest constituent next to the verb.

    Ties go to the shortest already nearest the verb, so a sentence whose
    shortest constituent is verb-adjacent is left unchanged. All other
    relative orders are preserved.
    """
    lengths = plan.lengths
    shortest = min(lengths[ci] for ci in order)
    pos = max(i for i, ci in enumerate(order) if lengths[ci] == shortest)
    moved = order[pos]
    return tuple(ci for ci in order if ci != moved) + (moved,)


def linearize(tree: DependencyTree, plan: SentencePlan, order) -> DependencyTree:
    """Rebuild `tree`, decomposed as `plan`, with its preverbal constituents
    in the given order.

    Heads are remapped so intra-constituent and postverbal arcs keep their
    structure; output length equals input length.
    """
    if sorted(order) != list(range(plan.k)):
        raise ValueError("order is not a permutation of the preverbal constituents")
    old_positions = plan.positions(order)
    remap = {old: new for new, old in enumerate(old_positions, start=1)}
    remap[0] = 0
    heads, forms, deprels = tree.heads, tree.forms, tree.deprels
    return DependencyTree([remap[heads[old - 1]] for old in old_positions],
                          [forms[old - 1] for old in old_positions],
                          [deprels[old - 1] for old in old_positions])
