import math

import numpy as np

from deplen.analysis import DecomposedCorpus, build_pairwise_dataset, zscore
from deplen.features import extract_features
from deplen.seeding import derive_rng
from deplen.variants import ascending_orders, descending_orders, generate_variants

from conftest import corpus_of, heads_tree, random_plans
from oracles import order_dl


class TestExtractFeatures:
    def test_fig3b(self, fig3_plan):
        row = extract_features(fig3_plan, descending_orders(fig3_plan.lengths))
        assert row[:4] == (7, 4, 2, 0)
        assert row[4:] == (4, 3, 2, 1)
        assert sum(row[:4]) == 13

    def test_fig3a(self, fig3_plan):
        row = extract_features(fig3_plan, ascending_orders(fig3_plan.lengths))
        assert row[:4] == (9, 8, 5, 1)

    def test_array_layout(self, fig3_plan):
        k = fig3_plan.k
        order = tuple(range(k))
        row = extract_features(fig3_plan, order)
        # the row is the columns after features_k{k}.csv's total_dl, no fixed_dl
        assert len(row) == 2 * k
        dls, _ = order_dl(fig3_plan, order)
        assert row == (*dls, *fig3_plan.lengths)


def pair_deltas(sentence_id, plan, cap, seed=0):
    """reference - variant rows from extract_features, in sampling order."""
    orders = generate_variants(plan, cap, derive_rng(seed, sentence_id, "variants"))
    ref = np.array(extract_features(plan, tuple(range(plan.k))))
    return [ref - extract_features(plan, order) for order in orders]


def dataset_rows(dataset):
    """Each row in extract_features' order, read back off the padded arrays."""
    width = dataset.dl.shape[1]
    return [np.concatenate([d[width - k:], l[width - k:]])
            for d, l, k in zip(dataset.dl, dataset.length, dataset.ks)]


class TestJoachimsTransform:
    """The balanced pairwise transformation of build_pairwise_dataset."""

    def test_count_preserved(self, fig3_tree):
        corpus = corpus_of([fig3_tree] * 7)
        for cap, per_sentence in ((2, 1), (24, 23)):
            dataset = build_pairwise_dataset(corpus, cap=cap)
            assert len(dataset) == 7 * per_sentence
            assert dataset.dl.shape == dataset.length.shape == (len(dataset), 4)
            assert len(dataset.sentence) == len(dataset.sentence_ids) == len(dataset)

    def test_alternating_labels(self, fig3_tree):
        dataset = build_pairwise_dataset(corpus_of([fig3_tree] * 6), cap=2)
        assert dataset.labels.tolist() == [1, 0, 1, 0, 1, 0]
        # 23 variants per sentence: orientation follows the global row ordinal
        dataset = build_pairwise_dataset(corpus_of([fig3_tree] * 2), cap=24)
        assert dataset.labels.tolist() == [1, 0] * 23

    def test_label_balance(self, fig3_tree):
        for n in (5, 6, 101):
            dataset = build_pairwise_dataset(corpus_of([fig3_tree] * n), cap=2)
            assert abs(dataset.labels.mean() - 0.5) <= 1 / n

    def test_antisymmetry(self, fig3_plan):
        # one sentence id twice: the same variant drawn, oriented both ways
        corpus = DecomposedCorpus(["a"] * 2, [fig3_plan] * 2)
        dataset = build_pairwise_dataset(corpus, cap=2)
        first, second = dataset_rows(dataset)
        assert np.array_equal(first, -second)
        assert np.array_equal(first, pair_deltas("a", fig3_plan, cap=2)[0])

    def test_identical_vectors_zero_delta(self):
        # two one-word constituents: the swapped order has the same features
        tree = heads_tree([3, 3, 0])
        dataset = build_pairwise_dataset(corpus_of([tree, tree]))
        assert len(dataset) == 2 and dataset.labels.tolist() == [1, 0]
        for arr in (dataset.dl, dataset.length):
            assert arr.dtype.kind == "i" and not arr.any()
        # integer deltas: the flipped odd row prints as 0, never -0, its total too
        total = dataset.dl.sum(axis=1, dtype=dataset.dl.dtype)
        row = np.column_stack([total, dataset.dl, dataset.length])[1]
        assert [f"{v:g}" for v in row.astype(float)] == ["0"] * 5

    def test_corpus_scale_balance(self):
        plans = random_plans(seed=4, count=40)
        corpus = DecomposedCorpus([f"p{i}" for i in range(len(plans))], plans)
        dataset = build_pairwise_dataset(corpus, cap=100)
        n_pairs = sum(min(math.factorial(p.k) - 1, 99) for p in plans)
        assert len(dataset) == n_pairs
        assert abs(dataset.labels.mean() - 0.5) <= 1 / n_pairs
        expected = [d for sentence_id, plan in zip(corpus.ids, corpus.plans, strict=True)
                    for d in pair_deltas(sentence_id, plan, cap=100)]
        for ordinal, (row, delta) in enumerate(zip(dataset_rows(dataset), expected)):
            assert np.array_equal(row, delta if ordinal % 2 == 0 else -delta)


class TestZscore:
    def test_simple_column(self):
        # mean 2, sample (n-1) sd 1
        Z, kept = zscore(np.array([[1.0], [2.0], [3.0]]))
        assert kept.tolist() == [0]
        assert np.allclose(Z[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_dropped(self):
        X = np.column_stack([np.arange(5.0), np.full(5, 3.0), [0.0, 0.0, 0.0, 0.0, 2.0]])
        Z, kept = zscore(X)
        assert kept.tolist() == [0, 2]
        assert np.allclose(Z[:, 0], (np.arange(5.0) - 2.0) / np.sqrt(2.5))
        assert np.allclose(Z[:, 1], (X[:, 2] - 0.4) / np.sqrt(0.8))
