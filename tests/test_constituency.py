import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deplen.constituency import (ARC_GAP, Ineligible, PlanTable, SentencePlan, arc_gap,
                                 decompose)
from deplen.features import extract_features
from deplen.treebank import is_projective
from deplen.variants import ascending_orders, descending_orders, least_effort_moves

import oracles
from oracles import linearize, order_dl
from conftest import (FIG3_RANDOM_ORDER, eligible_plans, eligible_trees, heads_tree,
                      main_verb_dl, random_plans, random_tree)


class TestDecompose:
    def test_fig3(self, fig3_plan, fig3_tree):
        assert fig3_plan.lengths == (2, 3, 4, 1)
        assert fig3_plan.verb_index == fig3_plan.words == 11
        forms = fig3_tree.forms
        starts = list(itertools.accumulate(fig3_plan.lengths, initial=1))
        assert [forms[lo - 1:hi - 1] for lo, hi in zip(starts, starts[1:])] == \
            [("maa", "ne"), ("baajaar", "jaate", "samaye"),
             ("rote", "hue", "bacche", "ko"), ("toffee",)]
        assert fig3_plan.head_offsets == (0, 1, 2, 0)
        assert fig3_plan.fixed_dl == 0   # every other arc joins neighbours

    def test_verb_initial(self):
        result = decompose([0, 1, 1])
        assert isinstance(result, Ineligible)
        assert result.reason == "no preverbal constituents"

    def test_single_constituent(self):
        result = decompose([2, 3, 0])
        assert isinstance(result, Ineligible)
        assert "fewer than 2" in result.reason

    def test_nonprojective_rejected(self):
        assert decompose([3, 4, 0, 3]) == Ineligible("non-projective")

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    def test_matches_span_oracle(self, seed, n):
        """The same plan or skip reason as decomposing from every token's
        yield, non-projective trees included."""
        tree = random_tree(np.random.default_rng(seed), n)
        assert decompose(tree.heads) == oracles.decompose(tree)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tree=eligible_trees(), data=st.data())
    def test_matches_span_oracle_near_eligible(self, tree, data):
        """Eligible trees with one head moved: arcs that cross, subtrees
        that leave a constituent and constituents that merge."""
        heads = list(tree.heads)
        n = len(heads)
        dependent = data.draw(st.sampled_from([i for i in range(1, n + 1) if heads[i - 1]]))
        heads[dependent - 1] = data.draw(st.integers(1, n).filter(lambda h: h != dependent))
        try:
            tree = heads_tree(heads)
        except ValueError:   # a cycle
            return
        assert decompose(tree.heads) == oracles.decompose(tree)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    def test_random_projective_trees(self, seed, n):
        """A projective tree's preverbal root-child yields tile 1..verb-1
        in order, so the only ineligible outcomes are k < 2."""
        tree = random_tree(np.random.default_rng(seed), n)
        if not is_projective(tree.heads):
            assert decompose(tree.heads) == Ineligible("non-projective")
            return
        verb = tree.heads.index(0) + 1
        heads = [i for i in range(1, verb) if tree.heads[i - 1] == verb]
        result = decompose(tree.heads)
        if len(heads) < 2:
            assert result == Ineligible("no preverbal constituents" if not heads
                                        else "fewer than 2 constituents")
            return
        starts = list(itertools.accumulate(result.lengths, initial=1))
        assert starts[-1] == verb
        assert [lo + offset for lo, offset in zip(starts, result.head_offsets)] == heads
        for lo, hi, head in zip(starts, starts[1:], heads):
            for pos in range(lo, hi):   # descends from the head
                node = pos
                while tree.heads[node - 1] != verb:
                    node = tree.heads[node - 1]
                assert node == head


class TestTotalDependencyLength:
    """The arc-by-arc oracle."""

    def test_adjacent_arc_is_zero(self):
        tree = heads_tree([2, 0])
        assert oracles.total_dependency_length(tree) == 0

    def test_chain_tree(self):
        tree = heads_tree([2, 3, 0])
        assert oracles.total_dependency_length(tree) == 0

    def test_positional_convention(self):
        tree = heads_tree([2, 3, 0])
        assert oracles.total_dependency_length(tree, "positional") == 2

    def test_fig3_descending_main_verb_arcs(self, fig3_plan):
        assert main_verb_dl(fig3_plan, descending_orders(fig3_plan.lengths)) == 13


class TestMainVerbDl:
    def test_fig3_strategies(self, fig3_plan):
        assert main_verb_dl(fig3_plan, ascending_orders(fig3_plan.lengths)) == 23
        assert main_verb_dl(fig3_plan, descending_orders(fig3_plan.lengths)) == 13
        assert main_verb_dl(fig3_plan, FIG3_RANDOM_ORDER) == 20

    def test_fig3b_constituent_arcs(self, fig3_plan):
        desc = descending_orders(fig3_plan.lengths).tolist()
        dls = order_dl(fig3_plan, desc)[0]
        assert list(dls) == [7, 4, 2, 0]
        # "maa ne" sits third in the descending order
        assert dls[desc.index(0)] == 2

    def test_single_constituent_offset(self):
        tree = heads_tree([2, 4, 2, 0, 4])
        # treat as one-constituent order over an artificial 1-element plan:
        # words 1..3 headed by word 2, one word after the head
        plan = SentencePlan(4, (3,), (1,), 0, len(tree))
        assert main_verb_dl(plan, (0,)) == 1

    def test_unknown_convention(self):
        assert ARC_GAP == {"intervening": 0, "positional": 1}
        with pytest.raises(ValueError):
            oracles.arc_distance(1, 5, "manhattan")
        with pytest.raises(ValueError, match="unknown distance convention: 'manhattan'"):
            arc_gap("manhattan")


class TestInvariants:
    def test_reconstruction(self, fig3_plan, fig3_tree):
        assert linearize(fig3_tree, fig3_plan, tuple(range(fig3_plan.k))) == fig3_tree

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(base=eligible_trees(), convention=st.sampled_from(list(ARC_GAP)),
           data=st.data())
    def test_total_minus_main_verb_constant(self, base, convention, data):
        """order_dl against the rebuilt tree, arc by arc: only the k
        head-to-verb arcs move, so total - main-verb DL is the plan's own
        `fixed_dl`. The positional convention is 1 more per arc."""
        plan = decompose(base.heads)
        order = data.draw(st.permutations(range(plan.k)))
        tree = linearize(base, plan, order)
        verb = tree.heads.index(0) + 1
        arcs = [oracles.arc_distance(i, verb, convention) for i in range(1, verb)
                if tree.heads[i - 1] == verb]
        gap = arc_gap(convention)
        dls, total = order_dl(plan, order)
        assert [dl + gap for dl in dls] == arcs
        assert total + gap * (len(tree) - 1) == oracles.total_dependency_length(tree, convention)
        assert (total - sum(dls) == plan.fixed_dl
                == oracles.total_dependency_length(base)
                - main_verb_dl(plan, tuple(range(plan.k))))

    def test_closed_form_on_1000_random_plans(self):
        rng = np.random.default_rng(7)
        for plan in random_plans(seed=11, count=1000):
            order = tuple(int(i) for i in rng.permutation(plan.k))
            assert (main_verb_dl(plan, order)
                    == oracles.main_verb_dl_closed_form(plan, order))


class TestPlanTable:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(plans=st.lists(eligible_plans(k_max=5), min_size=1, max_size=6))
    def test_score_matches_order_dl(self, plans):
        """Every order of every plan, scored per k in one array, as
        `order_dl` scores it alone."""
        for k in {plan.k for plan in plans}:
            group = [plan for plan in plans if plan.k == k]
            orders = list(itertools.permutations(range(k)))
            dls, totals = PlanTable.of(group).score(np.array([orders] * len(group)))
            for s, plan in enumerate(group):
                for m, order in enumerate(orders):
                    expected_dls, expected_total = order_dl(plan, order)
                    assert dls[s, m].tolist() == list(expected_dls)
                    assert totals[s, m] == expected_total


def built_tree(lengths, offsets, suffix):
    """A projective tree whose preverbal constituents have these word counts
    and head offsets, then the verb and `suffix` postverbal words, each on
    its left neighbour. In a constituent every other word attaches straight
    to the head, the rest to their inward neighbour, so arcs other than the
    head-to-verb ones have lengths other than 0 too."""
    verb = sum(lengths) + 1
    heads, start = [], 1
    for length, offset in zip(lengths, offsets):
        head = start + offset
        heads += [verb if pos == head else head if pos % 2 else pos + (pos < head) - (pos > head)
                  for pos in range(start, start + length)]
        start += length
    heads += [0, *range(verb, verb + suffix)]
    return heads_tree(heads)


def fixed_trees(k: int) -> list:
    """Three trees of k preverbal constituents: one-word constituents (every
    length tied); distinct-ish lengths, heads inside, a 2-word suffix; and
    lengths falling from k, heads last, a 1-word suffix."""
    mixed = [(3 * i) % 5 + 1 for i in range(k)]
    return [built_tree([1] * k, [0] * k, 0),
            built_tree(mixed, [i % length for i, length in enumerate(mixed)], 2),
            built_tree(range(k, 0, -1), range(k - 1, -1, -1), 1)]


@pytest.mark.parametrize("k", range(2, 7))
def test_every_order_of_fixed_plans(k):
    """Every order of a few fixed plans of each k, and each order's
    least-effort move, through the kernel and the per-order scalar, against
    the rebuilt tree arc by arc: its head-to-verb arcs, its total and its
    constituents' word counts; the moves against the per-order oracle."""
    orders = np.array(list(itertools.permutations(range(k))))
    for tree in fixed_trees(k):
        plan = decompose(tree.heads)
        assert plan.k == k
        moved = least_effort_moves(plan.lengths, orders)
        assert [tuple(m) for m in moved.tolist()] == \
            [oracles.least_effort_move(plan, order) for order in orders.tolist()]
        dls, totals = PlanTable.of([plan]).score(np.array([orders, moved]))
        for batch, batch_dls, batch_totals in zip((orders, moved), dls.tolist(), totals.tolist()):
            for order, order_dls, total in zip(batch.tolist(), batch_dls, batch_totals):
                rebuilt = linearize(tree, plan, order)
                verb = rebuilt.heads.index(0) + 1
                arcs = [verb - i - 1 for i in range(1, verb) if rebuilt.heads[i - 1] == verb]
                assert order_dls == arcs
                assert total == oracles.total_dependency_length(rebuilt)
                lengths = oracles.decompose(rebuilt).lengths
                assert extract_features(plan, order) == (*arcs, *lengths)
