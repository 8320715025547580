"""Decompose sentences into permutable preverbal constituents and compute
dependency-length metrics.

Distance convention: an arc between positions a and b contributes the number
of intervening words, |a - b| - 1. A positional-difference convention
(|a - b|) is available behind the `convention` argument for cross-study
comparison but is never the default.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .treebank import DependencyTree, NonProjectiveError, is_projective, subtree_spans

__all__ = [
    "Constituent",
    "SentencePlan",
    "PlanTable",
    "Ineligible",
    "decompose",
    "arc_distance",
    "total_dependency_length",
    "order_dl",
    "constituent_dl",
    "main_verb_dl",
    "main_verb_dl_closed_form",
]

CONVENTIONS = ("intervening", "positional")


def arc_distance(a: int, b: int, convention: str = "intervening") -> int:
    d = abs(a - b)
    if convention == "intervening":
        return d - 1
    if convention == "positional":
        return d
    raise ValueError(f"unknown distance convention: {convention!r}")


@dataclass(frozen=True)
class Constituent:
    head_index: int       # token position of the constituent head (original order)
    span: tuple           # (lo, hi) inclusive token range, original order
    forms: tuple          # surface forms of the span, for reporting

    def __post_init__(self):
        lo, hi = self.span
        if not (lo <= self.head_index <= hi):
            raise ValueError("constituent head outside its span")

    @property
    def length(self) -> int:
        lo, hi = self.span
        return hi - lo + 1

    @property
    def head_right_offset(self) -> int:
        """Number of span tokens strictly after the head."""
        return self.span[1] - self.head_index


@dataclass(frozen=True)
class Ineligible:
    reason: str


@dataclass(frozen=True)
class SentencePlan:
    tree: DependencyTree
    preverbal: tuple          # Constituents, original left-to-right order
    verb_index: int           # root token position

    @property
    def k(self) -> int:
        return len(self.preverbal)

    @property
    def postverbal_suffix(self) -> tuple:
        """Surface forms at and after the verb, frozen under permutation."""
        return self.tree.forms[self.verb_index - 1:]

    @cached_property
    def lengths(self) -> tuple:
        return tuple(c.length for c in self.preverbal)

    @cached_property
    def head_offsets(self) -> tuple:
        """Each constituent's head position within its span, from 0."""
        return tuple(c.head_index - c.span[0] for c in self.preverbal)

    @cached_property
    def fixed_arcs(self) -> tuple:
        """(count, summed |head - dependent|) of the arcs that no reordering
        of the preverbal constituents moves: all but the head-to-verb arcs."""
        heads = {c.head_index for c in self.preverbal}
        spans = [abs(h - d) for h, d in self.tree.arcs() if d not in heads]
        return len(spans), sum(spans)


@dataclass(frozen=True)
class PlanTable:
    """Plans of one constituent count k as arrays, row s for plan s: the
    (S x k) constituent lengths and head offsets, the (S,) verb positions
    and word counts, and the (S x 2) `fixed_arcs`."""
    lengths: np.ndarray
    offsets: np.ndarray
    verbs: np.ndarray
    words: np.ndarray
    fixed_arcs: np.ndarray

    @classmethod
    def of(cls, plans: Sequence[SentencePlan]) -> "PlanTable":
        return cls(np.array([p.lengths for p in plans], dtype=np.int64),
                   np.array([p.head_offsets for p in plans], dtype=np.int64),
                   np.array([p.verb_index for p in plans], dtype=np.int64),
                   np.array([len(p.tree) for p in plans], dtype=np.int64),
                   np.array([p.fixed_arcs for p in plans], dtype=np.int64))

    def score(self, orders: np.ndarray, convention: str = "intervening") -> tuple:
        """`order_dl` of every order at once: orders[s] holds plan s's (m x k)
        orders. Returns the (S x m x k) per-position head-to-verb distances
        and the (S x m) total DLs."""
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown distance convention: {convention!r}")
        gap = 1 if convention == "positional" else 0
        lengths = np.take_along_axis(self.lengths[:, None, :], orders, axis=2)
        offsets = np.take_along_axis(self.offsets[:, None, :], orders, axis=2)
        start = np.cumsum(lengths, axis=2) - lengths + 1   # exclusive, from position 1
        dls = self.verbs[:, None, None] - start - offsets - 1 + gap
        count, span_sum = self.fixed_arcs.T
        return dls, dls.sum(axis=2) + (span_sum - count + gap * count)[:, None]


def decompose(tree: DependencyTree) -> Union[SentencePlan, Ineligible]:
    """Split a projective tree into preverbal constituents + frozen suffix.

    Preverbal constituents are the yields of root children before the root,
    left to right. Root children after the root (auxiliaries, complement
    clauses, punctuation) stay frozen in the suffix. In a projective tree a
    root child's yield is contiguous and excludes the root, so the preverbal
    yields tile the positions before the verb.

    The verb's left dependents come from the heads column; only a tree with
    at least 2 of them has its yields computed.
    """
    if not is_projective(tree):
        raise NonProjectiveError("decompose requires a projective tree")
    verb = tree.root_index
    heads = [i for i, h in enumerate(tree.heads[:verb - 1], start=1) if h == verb]
    if not heads:
        return Ineligible("no preverbal constituents")
    if len(heads) < 2:
        return Ineligible("fewer than 2 constituents")
    spans = subtree_spans(tree)
    constituents = []
    for i in heads:
        lo, hi = spans[i]
        constituents.append(Constituent(i, (lo, hi), tree.forms[lo - 1:hi]))
    return SentencePlan(tree, tuple(constituents), verb)


def total_dependency_length(tree: DependencyTree,
                            convention: str = "intervening") -> int:
    """Sum of head-dependent distances over all arcs of the tree."""
    return sum(arc_distance(h, d, convention) for h, d in tree.arcs())


def order_dl(plan: SentencePlan, order: Sequence[int],
             convention: str = "intervening") -> tuple:
    """(per-position head-to-verb distances, total DL) under `order`, in one
    pass over the constituents: only these k arcs move under permutation,
    every other arc adds the same length, from the plan's `fixed_arcs`."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown distance convention: {convention!r}")
    gap = 1 if convention == "positional" else 0   # added to intervening words
    dls, start = [], 1
    lengths, offsets, verb = plan.lengths, plan.head_offsets, plan.verb_index
    for ci in order:   # every preverbal head precedes the verb
        dls.append(verb - start - offsets[ci] - 1 + gap)
        start += lengths[ci]
    count, span_sum = plan.fixed_arcs
    return tuple(dls), sum(dls) + span_sum - count + gap * count


def constituent_dl(plan: SentencePlan, order: Sequence[int], which: int,
                   convention: str = "intervening") -> int:
    """Distance between constituent `which`'s head and the verb under `order`;
    ValueError if `which` is not in `order`."""
    return order_dl(plan, order, convention)[0][list(order).index(which)]


def main_verb_dl(plan: SentencePlan, order: Sequence[int],
                 convention: str = "intervening") -> int:
    """Sum of head-to-verb distances over all preverbal constituents."""
    return sum(order_dl(plan, order, convention)[0])


def main_verb_dl_closed_form(plan: SentencePlan, order: Sequence[int]) -> int:
    """Equivalent closed form: sum_i length(C_order[i]) * i + sum_j offset(C_j).

    Holds for the intervening-words convention only; must agree with
    main_verb_dl on every plan and order.
    """
    total = sum(i * plan.preverbal[ci].length for i, ci in enumerate(order))
    total += sum(c.head_right_offset for c in plan.preverbal)
    return total
