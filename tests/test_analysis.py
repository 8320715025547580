import gc
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deplen import analysis
from deplen.analysis import (DecomposedCorpus, InsufficientDataError, SyntheticSpec,
                             _delta_dtype, build_pairwise_dataset, comparison_orders,
                             constituent_count_histogram,
                             decompose_corpus, generate_synthetic_corpus,
                             position_length_profile, regression_table,
                             run_classification_suite,
                             sentence_length_constituent_corr, strategy_curves)
from deplen.constituency import ARC_GAP, decompose
from deplen.features import extract_features
from deplen.seeding import derive_rng
from deplen.stats import _distinct_cells
from deplen.treebank import FORMATS, DependencyTree, iter_heads, iter_trees, to_conllu
from deplen.variants import generate_variants, variant_count

import oracles
from test_treebank import MALFORMED_LINES, PUNCT_OR_DEP, _lines
from conftest import (corpus_of, eligible_trees, heads_tree, parse_text, random_plans,
                      random_tree, traced)


def synthetic_corpus(n, p_least_effort, seed, **kw):
    spec = SyntheticSpec(n_sentences=n, p_least_effort=p_least_effort, **kw)
    trees = generate_synthetic_corpus(spec, seed=seed)
    return corpus_of(trees)


def synthetic_conllu(n, seed) -> str:
    """`n` sentences of the default synthetic shape, as CoNLL-U text."""
    trees = generate_synthetic_corpus(SyntheticSpec(n_sentences=n), seed=seed)
    return "\n".join(to_conllu(tree) for tree in trees)


def live_trees() -> int:
    gc.collect()
    return sum(isinstance(o, DependencyTree) for o in gc.get_objects())


class TestDecomposeCorpus:
    def test_skips_nonprojective_with_count(self):
        good = heads_tree([4, 4, 4, 0])
        crossing = heads_tree([3, 4, 0, 3])
        corpus = corpus_of([good, crossing])
        assert corpus.ids == ["s1"] and corpus.plans == [decompose(good.heads)]
        assert corpus.skipped == {"non-projective": 1}

    def test_counts_ineligible(self):
        verb_initial = heads_tree([0, 1])
        corpus = corpus_of([verb_initial])
        assert corpus.ids == [] and corpus.plans == []
        assert corpus.skipped == {"no preverbal constituents": 1}

    def test_keeps_no_tree(self):
        """The corpus holds integers: every tree parsed for it is gone once
        its plan is taken."""
        text = synthetic_conllu(800, seed=1)
        before = live_trees()
        corpus = corpus_of(iter_trees([text], []))
        assert len(corpus.ids) == len(corpus.plans) == 800
        assert live_trees() == before

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(format=st.sampled_from(sorted(FORMATS)), exclude_punct=st.booleans(),
           data=st.data())
    def test_heads_columns_match_trees(self, format, exclude_punct, data):
        """Mixed corpora of eligible and random trees, with punctuation
        deprels, some with a head moved anywhere in -1..n+1 or a malformed
        line, in either format and split into any pieces: decomposing the
        heads columns of `iter_heads` gives the ids, plans, skip counts and
        diagnostics that `eligible_plans` gives over `iter_trees`."""
        trees = st.one_of(eligible_trees(max_length=4), st.builds(
            lambda seed, n: random_tree(np.random.default_rng(seed), n),
            st.integers(0, 2**32 - 1), st.integers(1, 10)))
        blocks = []
        for tree in data.draw(st.lists(trees, min_size=1, max_size=6)):
            heads, n = list(tree.heads), len(tree)
            rels = data.draw(st.lists(PUNCT_OR_DEP, min_size=n, max_size=n))
            if data.draw(st.integers(0, 3)) == 0:
                heads[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-1, n + 1))
            lines = _lines(format, zip(range(1, n + 1), tree.forms, heads, rels))
            if data.draw(st.integers(0, 3)) == 0:
                lines.insert(data.draw(st.integers(0, n)),
                             data.draw(st.sampled_from(MALFORMED_LINES)))
            blocks.append("\n".join(lines))
        text = "\n\n".join(blocks) + "\n"
        cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=8)))
        pieces = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
        diagnostics, want_diagnostics, skipped = [], [], {}
        corpus = decompose_corpus(iter_heads(pieces, diagnostics, format, exclude_punct))
        want = list(analysis.eligible_plans(
            iter_trees([text], want_diagnostics, format, exclude_punct), skipped))
        assert corpus.ids == [sentence_id for sentence_id, _, _ in want]
        assert corpus.plans == [plan for _, _, plan in want]
        assert corpus.skipped == skipped
        assert diagnostics == want_diagnostics

    def test_eligible_plans_yield_each_tree_with_its_plan(self):
        trees = [heads_tree([4, 4, 4, 0]), heads_tree([0, 1]), heads_tree([3, 3, 0, 3])]
        skipped = {}
        assert list(analysis.eligible_plans(trees, skipped)) == \
            [("s1", trees[0], decompose(trees[0].heads)), ("s3", trees[2], decompose(trees[2].heads))]
        assert skipped == {"no preverbal constituents": 1}

    def test_retains_less_than_the_trees(self):
        """A plan holds a few integers per constituent, not a copy of its
        words: over 800 eligible trees, k 2-6 with short constituents, the
        corpus retains at most the trees' own size beyond them (about half
        of it; an object per constituent with its own forms tuple retained
        1.4 times)."""
        text = synthetic_conllu(800, seed=1)
        # trees that share no strings with the text
        (trees, _), size, _ = traced(parse_text, text)
        corpus, retained, _ = traced(corpus_of, trees)
        assert len(corpus.ids) == len(corpus.plans) == 800
        assert retained <= size


class TestHistogram:
    def test_single_k(self):
        corpus = synthetic_corpus(10, 1.0, seed=0, k_weights=((3, 1.0),))
        ref, var = constituent_count_histogram(corpus)
        assert ref == {3: 100.0}
        assert var == {3: 100.0}

    def test_empty(self):
        ref, var = constituent_count_histogram(corpus_of([]))
        assert ref == {} and var == {}

    def test_variant_mass_uses_cap(self):
        corpus = synthetic_corpus(10, 1.0, seed=1,
                                  k_weights=((2, 0.5), (5, 0.5)))
        ref, var = constituent_count_histogram(corpus, cap=100)
        k2 = sum(1 for plan in corpus.plans if plan.k == 2)
        k5 = len(corpus.plans) - k2
        total = k2 * 1 + k5 * 99
        assert math.isclose(var[2], 100.0 * k2 / total)
        assert math.isclose(var[5], 100.0 * k5 * 99 / total)


class TestPositionLengthProfile:
    def test_single_sentence(self):
        tree = heads_tree([9, 1, 1, 1, 9, 5, 5, 9, 0])
        corpus = corpus_of([tree])
        assert np.allclose(position_length_profile(corpus, 3), [4, 3, 1])

    def test_least_effort_min_at_last(self):
        corpus = synthetic_corpus(400, 1.0, seed=7)
        for k in range(2, 7):
            profile = position_length_profile(corpus, k)
            assert np.argmin(profile) == k - 1

    def test_missing_k_raises(self):
        with pytest.raises(InsufficientDataError):
            position_length_profile(corpus_of([]), 3)


class TestStrategyCurves:
    def test_dominance(self):
        corpus = synthetic_corpus(150, 0.5, seed=3)
        curves = strategy_curves(corpus, seed=0, random_draws=5)
        for k in curves["descending"]:
            lo, hi = curves["descending"][k], curves["ascending"][k]
            for strategy in ("reference", "random", "least_effort"):
                assert lo <= curves[strategy][k] + 1e-12
                assert curves[strategy][k] <= hi + 1e-12

    def test_reference_tracks_random_when_p_zero(self):
        corpus = synthetic_corpus(600, 0.0, seed=5)
        curves = strategy_curves(corpus, seed=1, random_draws=10)
        for k, ref in curves["reference"].items():
            rand = curves["random"][k]
            spread = curves["ascending"][k] - curves["descending"][k]
            if spread > 0:
                assert abs(ref - rand) < 0.25 * spread

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(trees=st.lists(eligible_trees(), min_size=0, max_size=12),
           seed=st.integers(0, 2**16), random_draws=st.sampled_from([1, 8, 9, 17]),
           k_range=st.sampled_from([(2, 6), (2, 2), (3, 5), (4, 6), (6, 7)]),
           convention=st.sampled_from(list(ARC_GAP)))
    def test_matches_per_order_oracle(self, trees, seed, random_draws, k_range, convention):
        """Bit for bit the per-sentence, per-order values, means and sums,
        each order's total counted arc by arc on its rebuilt tree. From 8
        draws on, numpy's pairwise summation unrolls by 8."""
        got = strategy_curves(corpus_of(trees), seed, random_draws, k_range, convention)
        expected = oracles.strategy_curves(trees, seed, random_draws, k_range, convention)
        assert list(got) == list(expected)
        assert {s: {k: v.hex() for k, v in per_k.items()} for s, per_k in got.items()} == \
            {s: {k: v.hex() for k, v in per_k.items()} for s, per_k in expected.items()}
        assert all(type(v) is float for per_k in got.values() for v in per_k.values())

    def test_matches_oracle_on_synthetic_corpus(self):
        trees = generate_synthetic_corpus(SyntheticSpec(n_sentences=300, p_least_effort=0.5),
                                          seed=4)
        assert repr(strategy_curves(corpus_of(trees), seed=2, random_draws=10)) == \
            repr(oracles.strategy_curves(trees, seed=2, random_draws=10))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_draws_estimate_the_exact_means(self, seed):
        """Each k's random and least-effort values, means of 10 seeded draws
        per sentence, lie within 5 standard errors of the exact means over
        all k! orders, the errors from each sentence's enumerated variance."""
        corpus = synthetic_corpus(60, 1.0, seed=seed)
        curves = strategy_curves(corpus, seed=seed, random_draws=10)
        for k in range(2, 7):
            exact = [oracles.exact_strategy_means(plan) for plan in corpus.plans if plan.k == k]
            for strategy in ("random", "least_effort"):
                mean, var = np.array([sentence[strategy] for sentence in exact]).mean(axis=0)
                error = np.sqrt(var / 10 / len(exact))
                assert abs(curves[strategy][k] - mean) <= 5 * error + 1e-12

    def test_deterministic(self):
        corpus = synthetic_corpus(50, 1.0, seed=2)
        a = strategy_curves(corpus, seed=9, random_draws=3)
        b = strategy_curves(corpus, seed=9, random_draws=3)
        assert a == b


class TestComparisonOrders:
    """A sentence's orders at the k! boundary of the variant rule: every
    order when k! <= cap, else cap - 1 sampled ones; `variant_count`, which
    the histogram and the pairwise build read, counts what the rule gives."""

    @pytest.mark.parametrize("k, cap", [(k, math.factorial(k) + d) for k in range(2, 6)
                                        for d in (-1, 0, 1) if math.factorial(k) + d >= 2])
    def test_k_factorial_boundary(self, k, cap):
        reference, *orders = comparison_orders("s1", k, cap, 7)
        assert reference == tuple(range(k))
        assert tuple(orders) == generate_variants(k, cap, derive_rng(7, "s1", "variants"))
        assert variant_count(k, cap) == len(orders)
        if math.factorial(k) <= cap:   # enumerated: every other order, in permutations order
            assert orders == list(itertools.permutations(range(k)))[1:]
        else:                          # sampled: cap - 1 distinct orders, none the reference
            assert len(orders) == len(set(orders)) == cap - 1
            assert reference not in orders
            assert all(sorted(order) == list(range(k)) for order in orders)


class TestPairwiseDataset:
    def test_counts_and_balance(self):
        corpus = synthetic_corpus(60, 1.0, seed=11)
        dataset = build_pairwise_dataset(corpus, cap=100, seed=0)
        expected = sum(min(math.factorial(plan.k) - 1, 99) for plan in corpus.plans)
        assert len(dataset) == expected
        assert abs(dataset.labels.mean() - 0.5) <= 1 / len(dataset)

    def test_column_layout(self):
        corpus = synthetic_corpus(10, 1.0, seed=13)
        dataset = build_pairwise_dataset(corpus, cap=24, seed=0)
        sentence_id, plan = corpus.ids[0], corpus.plans[0]
        k = plan.k
        variant = generate_variants(k, 24, derive_rng(0, sentence_id, "variants"))[0]
        delta = np.subtract(extract_features(plan, tuple(range(k))),
                            extract_features(plan, variant))
        # dl_pos1..dl_posk, then len_pos1..len_posk, the last verb-adjacent
        assert dataset.dl[0, -k:].tolist() == delta[:k].tolist()
        assert dataset.length[0, -k:].tolist() == delta[k:].tolist()
        width = dataset.dl.shape[1]
        for k in range(2, width + 3):   # past the widest k, no rows but k columns
            rows = dataset.ks == k
            for family, cols in (("deplen", dataset.dl), ("length", dataset.length)):
                X, y = dataset.positional_matrix(k, family)
                assert X.shape == (rows.sum(), k)
                assert np.array_equal(X[:, -1], cols[rows, -1])
                assert X.dtype == cols.dtype    # not copied to float
                assert np.array_equal(y, dataset.labels[rows]) and y.dtype == dataset.labels.dtype
            assert not dataset.dl[rows, :width - k].any()
            assert not dataset.length[rows, :width - k].any()
        with pytest.raises(ValueError, match="family"):
            dataset.positional_matrix(2, "bogus")


class TestPairwiseBuild:
    """The dataset built in place, against the per-sentence block oracle."""

    @staticmethod
    def assert_matches_oracle(trees, ids, cap, seed):
        """The dataset of the trees, sentence ids[i] for trees[i], against
        the oracle's, whose `dl` row sums it checks on the rebuilt trees."""
        ids = ids[:len(trees)]
        corpus = DecomposedCorpus(ids, [decompose(tree.heads) for tree in trees])
        got = build_pairwise_dataset(corpus, cap, seed)
        want = oracles.build_pairwise_dataset(corpus, trees, cap, seed)
        bound = max((plan.k * plan.verb_index for plan in corpus.plans), default=0)
        for name in ("dl", "length"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and np.array_equal(a, b)
            assert a.dtype == _delta_dtype(bound) and a.dtype.kind == "i"
        assert got.ks.dtype.kind == "u" and np.array_equal(got.ks, want.ks)
        assert got.sentence.dtype == np.int32 and np.array_equal(got.sentence, want.sentence)
        assert got.sentence_ids.tolist() == want.sentence_ids.tolist()
        return got

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(trees=st.lists(eligible_trees(k_max=7), min_size=0, max_size=6),
           ids=st.lists(st.sampled_from(["a", "b", "s10", "long-sentence-id"]),
                        min_size=6, max_size=6),
           cap=st.sampled_from([2, 24, 100, 150]), seed=st.integers(0, 2**16))
    def test_matches_block_oracle(self, trees, ids, cap, seed):
        self.assert_matches_oracle(trees, ids, cap, seed)

    def test_matches_block_oracle_on_synthetic_corpus(self):
        trees = generate_synthetic_corpus(SyntheticSpec(n_sentences=200, p_least_effort=0.5),
                                          seed=5)
        dataset = self.assert_matches_oracle(trees, [f"s{i}" for i in range(1, 201)], 100, 3)
        assert dataset.dl.dtype == np.int16

    @pytest.mark.parametrize("bound, dtype", [
        (0, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16),
        (32768, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)])
    def test_delta_dtype_holds_the_bound(self, bound, dtype):
        assert _delta_dtype(bound) == dtype

    def test_cap_below_two_rejected_before_sizing(self):
        # an empty corpus draws no variants: the build's own check raises
        with pytest.raises(ValueError, match="variant cap must be >= 2, got 1"):
            build_pairwise_dataset(DecomposedCorpus([], []), cap=1)

    def test_long_sentence_widens_the_type(self):
        # a flat L-word constituent headed at its left edge, then one word:
        # swapping them moves the short one's head L words from the verb
        L = 40000
        tree = heads_tree([L + 2] + [1] * (L - 1) + [L + 2, 0])
        plan = decompose(tree.heads)
        assert plan.k * plan.verb_index > 32767
        dataset = self.assert_matches_oracle([tree], ["s1"], 100, 0)
        assert dataset.dl.dtype == np.int32
        # int16 would wrap 1 - L to 25537, silently; the total-DL delta too
        assert dataset.dl.sum(axis=1, dtype=dataset.dl.dtype).tolist() == [1 - L]
        assert dataset.dl.tolist() == [[0, 1 - L]]
        assert dataset.length.tolist() == [[L - 1, 1 - L]]

    def test_peak_memory_is_the_arrays_and_one_sentence(self):
        plans = random_plans(seed=5, count=300)
        corpus = DecomposedCorpus([f"p{i}" for i in range(len(plans))], plans)
        cap, width = 100, max(p.k for p in plans)
        build_pairwise_dataset(corpus, cap)   # the plans' cached properties
        dataset, retained, peak = traced(build_pairwise_dataset, corpus, cap)
        assert retained >= dataset.dl.nbytes + dataset.length.nbytes
        # one sentence: its variants, feature tuples, int64 rows and their
        # differences, each a few times cap x (1 + 2 width) words; the
        # oracle's per-sentence blocks take 13 times this bound here
        assert peak - retained <= 10 * cap * (1 + 2 * width) * 8


class TestClassificationSuite:
    def test_least_effort_corpus_ordering(self):
        corpus = synthetic_corpus(250, 1.0, seed=21)
        dataset = build_pairwise_dataset(corpus, cap=100, seed=1)
        rows = run_classification_suite(dataset, folds=10, seed=2)
        acc = {r["predictors"]: r["accuracy"] for r in rows if r["table"] == "table3"}
        assert acc["last preverbal constituent's deplen"] > \
            acc["total dependency length"]
        tables = {r["table"] for r in rows}
        assert tables == {"table3", "table4"}
        first = [r for r in rows if r["table"] == "table3"][0]
        assert first["mcnemar_p"] is None
        later = [r for r in rows if r["table"] == "table3"][1:]
        assert all(r["mcnemar_p"] is not None for r in later)

    def test_last_position_reaches_high_accuracy(self):
        # locally-optimizing generator with a low-tie length distribution:
        # the verb-adjacent predictor nears its ceiling, total DL stays lower
        corpus = synthetic_corpus(
            800, 1.0, seed=42, length_dist=("uniform", 1, 30),
            max_constituent_length=30, k_weights=((6, 1.0),))
        dataset = build_pairwise_dataset(corpus, cap=100, seed=1)
        rows = run_classification_suite(dataset, folds=10, seed=2)
        acc = {(r["table"], r["predictors"]): r["accuracy"] for r in rows}
        best_last = max(
            acc[("table3", "last preverbal constituent's deplen")],
            acc[("table4", "last preverbal constituent length")])
        assert best_last >= 0.9
        assert acc[("table3", "total dependency length")] < best_last

    def test_single_pair_aborts(self):
        corpus = synthetic_corpus(1, 1.0, seed=22, k_weights=((2, 1.0),))
        dataset = build_pairwise_dataset(corpus)
        with pytest.raises(InsufficientDataError, match="insufficient data"):
            run_classification_suite(dataset)


class TestRegressionTable:
    def test_insufficient_data_marked(self):
        corpus = synthetic_corpus(5, 1.0, seed=23, k_weights=((3, 1.0),))
        dataset = build_pairwise_dataset(corpus)
        table = regression_table(dataset, 3, "deplen", min_pairs=500)
        assert table["status"] == "insufficient data"

    def test_last_position_dominates(self):
        corpus = synthetic_corpus(300, 1.0, seed=24, k_weights=((4, 1.0),))
        dataset = build_pairwise_dataset(corpus, cap=24, seed=3)
        table = regression_table(dataset, 4, "deplen", folds=5, seed=0)
        assert table["status"] == "ok"
        rows = {r["predictor"]: r for r in table["fit"]["rows"]}
        last = rows.get("const4_deplen")
        assert last is not None
        assert last["estimate"] < 0
        others = [abs(r["estimate"]) for name, r in rows.items()
                  if name not in ("intercept", "const4_deplen")]
        assert all(abs(last["estimate"]) > v for v in others)

    def test_peak_memory_in_fold_buffers(self):
        """On a table shaped like the long-k6 benchmark's (k = 6, lengths 1-30,
        nearly one cell per pair), the peak, in RFECV's stacked fits, stays
        under 4.5 buffers of (cells x (folds + 1)) floats: the fold counts keep
        their narrow type, and the integer columns are not copied to float.
        With uint64 training counts it was 4.9, with float columns too 5.3."""
        corpus = synthetic_corpus(60, 1.0, seed=1, k_weights=((6, 1.0),),
                                  length_dist=("uniform", 1, 30), max_constituent_length=30)
        dataset, folds = build_pairwise_dataset(corpus, cap=100), 10
        cells = len(_distinct_cells(*dataset.positional_matrix(6, "deplen"))[0])
        table, _, peak = traced(regression_table, dataset, 6, "deplen", folds)
        assert table["status"] == "ok" and cells >= 5_800
        assert peak <= 4.5 * cells * (folds + 1) * 8


# SHA-256 of the CoNLL-U text of 200 synthetic sentences, per spec and seed
SYNTH_DIGESTS = [
    ({}, 0, "00d94f3d79608f7b8484d7b12e0276b20f71eba95d03fe360b83252dac464d19"),
    ({}, 1, "e52ff16ff9f60cf29c934eb4b4632f68602543250525c1087bdfef9de28d93d7"),
    ({"p_least_effort": 0.5}, 0,
     "000cff5db9d48e8c84dc5e3763caab97949e060e849d7af43406ccf566815fed"),
    ({"p_least_effort": 0.5}, 1,
     "df044f6ab9f3da5808c48334672427c32a8403ec713f8c5a2bdd7138a48e9f34"),
    ({"noise_temperature": 0.7}, 0,
     "289f270854e98c307bbda70f29045ae1844aa30e5799a4eba76ddc18b5a056d2"),
    ({"noise_temperature": 0.7}, 1,
     "4b3b353ab468bff6f30d7876ceb59f014eec7c34aae2e3c6a6cc66b05e132d74"),
    ({"length_dist": ("uniform", 1, 6)}, 0,
     "5501a72067678106691cf067a14e17c8eaad3a4aa1011bb22fb6f6d21ff06e54"),
    ({"length_dist": ("uniform", 1, 6)}, 1,
     "28935992aaee53e448a0ca7af61b370875e7d8ae11b3b37a6542974e5575015d"),
    ({"k_weights": ((7, 0.5), (8, 0.5))}, 0,
     "9fcf527d6094799c51d48ddf1c6a1bfb24abe71a3a9575b2f9b0a4882652364d"),
    ({"k_weights": ((7, 0.5), (8, 0.5))}, 1,
     "b27828560e563cd1bdc5185f266f5ce0c276efbd94fcadfecd29bf3ddda94ee6"),
]


class TestSyntheticGenerator:
    @pytest.mark.parametrize("kw, seed, digest", SYNTH_DIGESTS)
    def test_pinned_output(self, kw, seed, digest):
        """The generator's output, byte for byte: a change to its draws or to
        how it lays out a sentence changes every product made from it."""
        trees = generate_synthetic_corpus(SyntheticSpec(n_sentences=200, **kw), seed=seed)
        text = "".join(map(to_conllu, trees))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_k2_all_eligible(self):
        corpus = synthetic_corpus(50, 1.0, seed=25, k_weights=((2, 1.0),))
        assert len(corpus.ids) == len(corpus.plans) == 50
        assert all(plan.k == 2 for plan in corpus.plans)

    def test_deterministic(self):
        spec = SyntheticSpec(n_sentences=20)
        a = generate_synthetic_corpus(spec, seed=9)
        b = generate_synthetic_corpus(spec, seed=9)
        assert a == b

    def test_trees_are_projective_and_verb_final_suffix(self):
        from deplen.treebank import is_projective
        trees = generate_synthetic_corpus(SyntheticSpec(n_sentences=100, p_least_effort=0.3),
                                          seed=26)
        for tree in trees:
            assert is_projective(tree.heads)
            assert decompose(tree.heads).verb_index == len(tree)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(p_least_effort=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(k_weights=((2, 0.5),))
        with pytest.raises(ValueError, match="noise_temperature"):
            SyntheticSpec(noise_temperature=float("nan"))
        for n in (-3, 0):
            with pytest.raises(ValueError, match="n_sentences"):
                SyntheticSpec(n_sentences=n)

    @pytest.mark.parametrize("field, kw", [
        ("k_weights", {"k_weights": ((1, 0.5), (3, 0.5))}),
        ("k_weights", {"k_weights": ((0, 0.0), (2, 1.0))}),
        ("max_constituent_length", {"max_constituent_length": 0}),
        ("length_dist", {"length_dist": ("uniform", 0, 4)}),
        ("length_dist", {"length_dist": ("uniform", 3, 2)}),
        ("length_dist", {"length_dist": ("geometric", 0.0)}),
        ("length_dist", {"length_dist": ("geometric", 1.5)}),
        ("length_dist", {"length_dist": ("geometric", float("nan"))}),
        ("length_dist", {"length_dist": ("poisson", 2.0)}),
        ("k_weights", {"k_weights": ((2, 1.5), (3, -0.5))}),
        ("k_weights", {"k_weights": ((2.5, 1.0),)}),
        ("max_constituent_length", {"max_constituent_length": 2.5}),
        ("length_dist", {"length_dist": ("uniform", 1.5, 4)}),
        ("length_dist", {"length_dist": ("uniform", 1, 4.5)}),
        ("length_dist", {"length_dist": ("uniform", 2)}),
        ("length_dist", {"length_dist": ("geometric", 0.5, 0.5)}),
        ("n_sentences", {"n_sentences": 2.5}),
    ])
    def test_spec_the_generator_cannot_honour(self, field, kw):
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**kw)

    def test_edge_specs_generate(self):
        """The bounds that construction accepts, the one-word and geometric
        p = 1 constituents included, generate eligible sentences."""
        for kw in ({"length_dist": ("geometric", 1.0)}, {"max_constituent_length": 1},
                   {"length_dist": ("uniform", 1, 1)}):
            corpus = corpus_of(generate_synthetic_corpus(
                SyntheticSpec(n_sentences=20, **kw), seed=4))
            assert len(corpus.ids) == len(corpus.plans) == 20
            assert all(set(plan.lengths) == {1} for plan in corpus.plans)

    def test_tiny_noise_temperature_moves_a_shortest_constituent(self):
        # exp(-length / 1e-300) underflows to 0 for every length, and
        # length / 5e-324, subnormal, overflows to inf without a warning
        for temperature in (1e-300, 5e-324):
            spec = SyntheticSpec(n_sentences=20, noise_temperature=temperature)
            for tree in generate_synthetic_corpus(spec, seed=3):
                lengths = decompose(tree.heads).lengths
                assert lengths[-1] == min(lengths)

    def test_correlation_helper(self):
        corpus = synthetic_corpus(200, 1.0, seed=27)
        r = sentence_length_constituent_corr(corpus)
        assert 0.0 < r <= 1.0      # more constituents mean longer sentences
