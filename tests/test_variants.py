import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deplen.constituency import SentencePlan
from deplen.seeding import derive_rng
from deplen.variants import (ascending_orders, descending_orders, generate_variants,
                             least_effort_moves, variant_count)

import oracles
from oracles import linearize
from conftest import FIG3_RANDOM_ORDER, eligible_plans, heads_tree, main_verb_dl, random_plans


def sequential_variants(k, cap, rng):
    """Reference sampler: one `rng.permutation(k)` per draw until cap - 1
    distinct non-reference permutations are found."""
    chosen, seen = [], {tuple(range(k))}
    while len(chosen) < cap - 1:
        p = tuple(int(i) for i in rng.permutation(k))
        if p not in seen:
            seen.add(p)
            chosen.append(p)
    return tuple(chosen)


# rows of constituent lengths, one k for all, short enough to tie often
length_rows = st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.integers(1, 3), min_size=k, max_size=k), min_size=1, max_size=5))


def lengths_plan(lengths) -> SentencePlan:
    """A plan with these constituent lengths, each headed by its first word."""
    verb = sum(lengths) + 1
    return SentencePlan(verb, tuple(lengths), (0,) * len(lengths), 0, verb)


class TestGenerateVariants:
    def test_k4_enumerates_all(self, fig3_plan):
        orders = generate_variants(fig3_plan.k, cap=100, seed=0)
        assert len(orders) == 23
        assert (0, 1, 2, 3) not in orders
        assert len(set(orders)) == 23

    def test_k2_single_variant(self):
        assert generate_variants(2, cap=100, seed=0) == ((1, 0),)

    def test_k5_sampled(self):
        orders = generate_variants(5, cap=100, seed=3)
        assert len(orders) == 99
        assert len(set(orders)) == 99
        assert tuple(range(5)) not in orders

    def test_sampling_over_seeds(self):
        for seed in range(50):
            orders = generate_variants(5, cap=100, seed=seed)
            assert len(set(orders)) == 99
            assert tuple(range(5)) not in orders

    def test_cap_too_small(self, fig3_plan):
        with pytest.raises(ValueError):
            generate_variants(fig3_plan.k, cap=1)

    def test_one_constituent_rejected(self):
        with pytest.raises(ValueError, match="fewer than 2 preverbal constituents"):
            generate_variants(1, cap=100)

    @pytest.mark.parametrize("k, cap, message", [
        (5, 1, "variant cap must be >= 2, got 1"),
        (1, 1, "variant cap must be >= 2, got 1"),    # the cap is checked first
        (1, 100, "k = 1: fewer than 2 preverbal constituents")])
    def test_count_rejects_what_generation_rejects(self, k, cap, message):
        for fn in (variant_count, generate_variants):
            with pytest.raises(ValueError) as err:
                fn(k, cap)
            assert str(err.value) == message

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(5, 9), seed=st.integers(0, 2**63))
    def test_block_draws_match_sequential_draws(self, data, k, seed):
        cap = data.draw(st.integers(2, min(math.factorial(k) - 1, 300)))
        assert generate_variants(k, cap, np.random.default_rng(seed)) == \
            sequential_variants(k, cap, np.random.default_rng(seed))


class TestDeriveRng:
    def test_matches_default_rng_of_digest_integer(self):
        keys = [(0, "s1", "variants"), (7, "s12", "random", 3), (-1, "synth", 0),
                *((seed, f"s{i}", "random", i % 10) for seed in range(5)
                  for i in range(0, 400, 7))]
        for seed, *rest in keys:
            material = "|".join([str(seed), *map(str, rest)]).encode("utf-8")
            digest = hashlib.sha256(material).digest()
            expected = np.random.default_rng(int.from_bytes(digest[:16], "little"))
            got = derive_rng(seed, *rest)
            for _ in range(3):
                assert got.integers(0, 2**63, 4).tolist() == \
                    expected.integers(0, 2**63, 4).tolist()
                assert got.permutation(6).tolist() == expected.permutation(6).tolist()

    def test_separator_in_a_key_names_its_own_stream(self):
        """A key's `|` or `\\` is escaped, so keys that join to the same
        text name different streams."""
        draws = [derive_rng(*keys).integers(0, 2**63, 4).tolist()
                 for keys in [(0, "a|b"), (0, "a", "b"), (0, "a\\", "b"), (0, "a\\|b")]]
        assert len({tuple(d) for d in draws}) == len(draws)

    def test_seed_sequence_pads_words_with_zeros(self):
        # digests whose high words are zero: the int seeds fewer words
        for words in ([5, 0, 0, 0], [1, 2, 3, 0], [0, 7, 0, 0], [2**32 - 1] * 3 + [0],
                      [0, 0, 0, 0]):
            seed = int.from_bytes(np.array(words, dtype="<u4").tobytes(), "little")
            assert (np.random.SeedSequence(seed).generate_state(8).tolist()
                    == np.random.SeedSequence(np.array(words, dtype=np.uint32))
                    .generate_state(8).tolist())


class TestOrderings:
    def test_fig3_ascending_descending(self, fig3_plan):
        assert main_verb_dl(fig3_plan, ascending_orders(fig3_plan.lengths)) == 23
        assert main_verb_dl(fig3_plan, descending_orders(fig3_plan.lengths)) == 13

    def test_tie_break_is_stable(self):
        plan = next(p for p in random_plans(seed=21, count=400)
                    if len(set(p.lengths)) == 1 and p.k >= 3)
        identity = list(range(plan.k))
        assert ascending_orders(plan.lengths).tolist() == identity
        assert descending_orders(plan.lengths).tolist() == identity

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=length_rows)
    def test_rows_match_the_scalar_definitions(self, rows):
        lengths = np.array(rows)
        for row, up, down in zip(rows, ascending_orders(lengths).tolist(),
                                 descending_orders(lengths).tolist()):
            assert tuple(up) == oracles.order_ascending(lengths_plan(row))
            assert tuple(down) == oracles.order_descending(lengths_plan(row))

    def test_random_is_seeded(self):
        # the random strategy is one derived stream's permutation per draw
        assert derive_rng(42, "s1", "random", 0).permutation(4).tolist() == \
            derive_rng(42, "s1", "random", 0).permutation(4).tolist()

    def test_random_uniform(self):
        counts = Counter(tuple(derive_rng(0, f"s{i}", "random", 0).permutation(3).tolist())
                         for i in range(10_000))
        assert len(counts) == 6
        for freq in counts.values():
            assert abs(freq / 10_000 - 1 / 6) < 0.02


class TestLeastEffort:
    def test_fig3c_to_fig3d(self, fig3_plan):
        assert main_verb_dl(fig3_plan, FIG3_RANDOM_ORDER) == 20
        moved = least_effort_moves(fig3_plan.lengths, FIG3_RANDOM_ORDER)
        assert main_verb_dl(fig3_plan, moved) == 17

    def test_noop_when_shortest_already_adjacent(self, fig3_plan):
        # constituent 3 ("toffee") is the shortest
        order = (1, 0, 2, 3)
        assert tuple(least_effort_moves(fig3_plan.lengths, order).tolist()) == order

    def test_k2_equals_descending(self):
        for plan in random_plans(seed=3, count=100, k_max=2):
            for seed in range(3):
                start = np.random.default_rng(seed).permutation(plan.k)
                result = least_effort_moves(plan.lengths, start)
                desc = descending_orders(plan.lengths)
                if plan.lengths[0] != plan.lengths[1]:
                    assert result.tolist() == desc.tolist()
                else:
                    assert main_verb_dl(plan, result) == main_verb_dl(plan, desc)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(plan=eligible_plans(), data=st.data())
    def test_never_increases(self, plan, data):
        start = data.draw(st.permutations(range(plan.k)))
        assert main_verb_dl(plan, least_effort_moves(plan.lengths, start)) <= \
            main_verb_dl(plan, start)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=length_rows, data=st.data())
    def test_broadcast_matches_the_scalar_definition(self, rows, data):
        """(S x m x k) orders against (S x 1 x k) lengths, as the strategy
        curves pass them, and one order against one plan's lengths."""
        k = len(rows[0])
        orders = np.array([[data.draw(st.permutations(range(k))) for _ in range(3)]
                           for _ in rows])
        moved = least_effort_moves(np.array(rows)[:, None], orders)
        assert moved.shape == orders.shape
        for row, row_orders, row_moved in zip(rows, orders.tolist(), moved.tolist()):
            for order, got in zip(row_orders, row_moved):
                assert tuple(got) == oracles.least_effort_move(lengths_plan(row), order)
                assert least_effort_moves(row, order).tolist() == got


class TestLinearize:
    def test_fig3_descending_string(self, fig3_plan, fig3_tree):
        tree = linearize(fig3_tree, fig3_plan, descending_orders(fig3_plan.lengths))
        assert " ".join(tree.forms) == \
            "rote hue bacche ko baajaar jaate samaye maa ne toffee di"

    def test_fig3_ascending_string(self, fig3_plan, fig3_tree):
        tree = linearize(fig3_tree, fig3_plan, ascending_orders(fig3_plan.lengths))
        assert " ".join(tree.forms) == \
            "toffee maa ne baajaar jaate samaye rote hue bacche ko di"

    def test_identity_reproduces_input(self, fig3_plan, fig3_tree):
        assert linearize(fig3_tree, fig3_plan, (0, 1, 2, 3)) == fig3_tree

    def test_length_preserved(self, fig3_plan, fig3_tree):
        for order in itertools.permutations(range(4)):
            assert len(linearize(fig3_tree, fig3_plan, order)) == len(fig3_tree)

    def test_invalid_order_rejected(self, fig3_plan, fig3_tree):
        with pytest.raises(ValueError):
            linearize(fig3_tree, fig3_plan, (0, 1, 2, 2))


def test_descending_is_argmin_ascending_argmax():
    for plan in random_plans(seed=31, count=120):
        values = {order: main_verb_dl(plan, order)
                  for order in itertools.permutations(range(plan.k))}
        assert main_verb_dl(plan, descending_orders(plan.lengths)) == min(values.values())
        assert main_verb_dl(plan, ascending_orders(plan.lengths)) == max(values.values())
