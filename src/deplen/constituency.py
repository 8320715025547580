"""Decompose sentences into permutable preverbal constituents and compute
dependency-length metrics.

Distance convention: an arc between positions a and b contributes the number
of intervening words, |a - b| - 1 (Gibson 2000), and every distance here is
in those units. The positional difference |a - b| (Futrell et al. 2015) is
the same count plus 1 per arc, `arc_gap("positional")`; only the products
that report an absolute length add it. A reference-minus-variant delta
counts the same arcs on both sides, so the offset cancels there.
"""

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence, Union

import numpy as np

from .treebank import DependencyTree, is_projective

__all__ = [
    "SentencePlan",
    "PlanTable",
    "Ineligible",
    "arc_gap",
    "decompose",
]

# What one arc adds to its intervening-word count, per distance convention.
ARC_GAP = {"intervening": 0, "positional": 1}


def arc_gap(convention: str) -> int:
    """The per-arc offset of `convention` over intervening words."""
    try:
        return ARC_GAP[convention]
    except KeyError:
        raise ValueError(f"unknown distance convention: {convention!r}") from None


@dataclass(frozen=True)
class Ineligible:
    reason: str


@dataclass(frozen=True, slots=True)
class SentencePlan:
    """A decomposed sentence of `words` words, as integers: its k preverbal
    constituents tile positions 1..verb_index-1, left to right, with
    `lengths[c]` words each and their heads `head_offsets[c]` words into the
    span (from 0). `fixed_dl` sums the intervening words of the arcs that no
    reordering moves: all but the k head-to-verb arcs."""
    verb_index: int           # root token position
    lengths: tuple
    head_offsets: tuple
    fixed_dl: int
    words: int

    @property
    def k(self) -> int:
        return len(self.lengths)

    def positions(self, order: Sequence[int]) -> list:
        """The original position of each word of the sentence with its
        constituents in `order`, the verb and its suffix unmoved."""
        starts = list(accumulate(self.lengths, initial=1))
        return [p for ci in order for p in range(starts[ci], starts[ci + 1])] \
            + list(range(self.verb_index, self.words + 1))


@dataclass(frozen=True)
class PlanTable:
    """Plans of one constituent count k as arrays, row s for plan s: the
    (S x k) constituent lengths and head offsets, and the (S,) verb
    positions, word counts and `fixed_dl`."""
    lengths: np.ndarray
    offsets: np.ndarray
    verbs: np.ndarray
    words: np.ndarray
    fixed_dl: np.ndarray

    @classmethod
    def of(cls, plans: Sequence[SentencePlan]) -> "PlanTable":
        return cls(np.array([p.lengths for p in plans], dtype=np.int64),
                   np.array([p.head_offsets for p in plans], dtype=np.int64),
                   np.array([p.verb_index for p in plans], dtype=np.int64),
                   np.array([p.words for p in plans], dtype=np.int64),
                   np.array([p.fixed_dl for p in plans], dtype=np.int64))

    def score(self, orders: np.ndarray) -> tuple:
        """The (S x m x k) per-position head-to-verb distances and (S x m)
        total DLs of orders[s], plan s's (m x k) orders, all at once: only
        these k arcs move, every other arc adds the plan's `fixed_dl`."""
        lengths = np.take_along_axis(self.lengths[:, None, :], orders, axis=2)
        offsets = np.take_along_axis(self.offsets[:, None, :], orders, axis=2)
        start = np.cumsum(lengths, axis=2) - lengths + 1   # exclusive, from position 1
        dls = self.verbs[:, None, None] - start - offsets - 1
        return dls, dls.sum(axis=2) + self.fixed_dl[:, None]


def decompose(tree: DependencyTree) -> Union[SentencePlan, Ineligible]:
    """Split a projective tree into preverbal constituents + frozen suffix,
    or name why the tree has no such split: non-projective, no preverbal
    constituents, or fewer than 2 of them.

    Preverbal constituents are the yields of root children before the root,
    left to right. Root children after the root (auxiliaries, complement
    clauses, punctuation) stay frozen in the suffix. In a projective tree a
    root child's yield is contiguous and excludes the root, so the preverbal
    yields tile the positions before the verb: each ends where the next
    starts, the last at the verb. A projective yield starts where its head's
    leftmost dependent's yield does, or at the head if that is to its right
    or missing: a chain read off one pass over the heads column.
    """
    if not is_projective(tree):
        return Ineligible("non-projective")
    verb = tree.root_index
    heads = [i for i, h in enumerate(tree.heads[:verb - 1], start=1) if h == verb]
    if not heads:
        return Ineligible("no preverbal constituents")
    if len(heads) < 2:
        return Ineligible("fewer than 2 constituents")
    # each head's leftmost dependent: read right to left, so the last write wins
    leftmost = dict(zip(reversed(tree.heads), range(len(tree), 0, -1)))
    starts = []
    for node in heads:
        while leftmost.get(node, node) < node:
            node = leftmost[node]
        starts.append(node)
    starts.append(verb)
    fixed_dl = sum(abs(h - d) - 1 for d, h in enumerate(tree.heads, start=1)
                   if h and not (h == verb and d < verb))   # not a head-to-verb arc
    return SentencePlan(verb, tuple(b - a for a, b in zip(starts, starts[1:])),
                        tuple(h - a for h, a in zip(heads, starts)), fixed_dl, len(tree))
