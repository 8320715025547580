"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 9 needs a licensed treebank export; point DEPLEN_HUTB at a
CoNLL-U file to enable it, otherwise it is skipped.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
from scipy import stats as sps

from deplen.analysis import (DecomposedCorpus, SyntheticSpec,
                             build_pairwise_dataset, decompose_corpus,
                             generate_synthetic_corpus, position_length_profile,
                             regression_table, run_classification_suite)
from deplen.features import extract_features
from deplen.seeding import derive_rng
from deplen.stats import crossval_accuracy, fit_logistic, mcnemar
from deplen.variants import (ascending_orders, descending_orders, generate_variants,
                             least_effort_moves)

import oracles
from oracles import order_dl
from conftest import FIG3_RANDOM_ORDER, corpus_of, main_verb_dl, random_plans


def report(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_figure3_fixture(fig3_plan):
    start = time.monotonic()
    expected = [
        (ascending_orders(fig3_plan.lengths), 23, [9, 8, 5, 1]),
        (descending_orders(fig3_plan.lengths), 13, [7, 4, 2, 0]),
        (FIG3_RANDOM_ORDER, 20, [9, 6, 4, 1]),
        (least_effort_moves(fig3_plan.lengths, FIG3_RANDOM_ORDER), 17, [9, 6, 2, 0]),
    ]
    for order, dl, arcs in expected:
        assert main_verb_dl(fig3_plan, order) == dl
        assert list(order_dl(fig3_plan, order)[0]) == arcs
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"worked example reproduces DL 23/13/20/17 and all arc "
              f"sequences exactly ({elapsed:.3f}s)")


def test_criterion_2_optimality_oracle():
    start = time.monotonic()
    plans = random_plans(seed=1001, count=500, k_max=6)
    exceptions = 0
    for plan in plans:
        values = [main_verb_dl(plan, order)
                  for order in itertools.permutations(range(plan.k))]
        if main_verb_dl(plan, descending_orders(plan.lengths)) != min(values):
            exceptions += 1
        if main_verb_dl(plan, ascending_orders(plan.lengths)) != max(values):
            exceptions += 1
    elapsed = time.monotonic() - start
    assert exceptions == 0
    assert elapsed < 30.0
    report(2, f"descending=argmin and ascending=argmax over all k! orders on "
              f"500 plans, 0 exceptions ({elapsed:.1f}s)")


def test_criterion_3_least_effort_dominance():
    start = time.monotonic()
    plans = random_plans(seed=1002, count=1000, k_max=6)
    checked = 0
    for plan in plans:
        for draw in range(10):
            before = np.random.default_rng(10 * checked + draw).permutation(plan.k)
            after = least_effort_moves(plan.lengths, before)
            assert main_verb_dl(plan, after) <= main_verb_dl(plan, before)
            if plan.k == 2:
                desc = descending_orders(plan.lengths)
                if plan.lengths[0] != plan.lengths[1]:
                    assert after.tolist() == desc.tolist()
                else:
                    # tied lengths: both orders are optimal and equal in DL
                    assert main_verb_dl(plan, after) == main_verb_dl(plan, desc)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 10_000
    assert elapsed < 10.0
    report(3, f"main-verb DL never increased over 10,000 (plan, start) pairs; "
              f"k=2 equals descending ({elapsed:.1f}s)")


def test_criterion_4_closed_form_equivalence():
    rng = np.random.default_rng(1003)
    for plan in random_plans(seed=1004, count=1000, k_max=6):
        order = tuple(int(i) for i in rng.permutation(plan.k))
        assert main_verb_dl(plan, order) == oracles.main_verb_dl_closed_form(plan, order)
    report(4, "closed form equals arc-by-arc main-verb DL on 1,000 random "
              "plans, exactly")


def test_criterion_5_pairwise_transform():
    trees = generate_synthetic_corpus(SyntheticSpec(n_sentences=120, p_least_effort=0.5),
                                      seed=1005)
    corpus = corpus_of(trees)
    dataset = build_pairwise_dataset(corpus, cap=100, seed=6)
    n_pairs = sum(
        min(math.factorial(plan.k) - 1, 99) for plan in corpus.plans)
    assert len(dataset) == n_pairs
    assert abs(dataset.labels.mean() - 0.5) <= 1 / n_pairs

    # the first sentence twice under one id: one variant, oriented both ways
    sentence_id, plan = corpus.ids[0], corpus.plans[0]
    twice = DecomposedCorpus([sentence_id] * 2, [plan] * 2)
    pair = build_pairwise_dataset(twice, cap=2, seed=6)
    k = plan.k
    (variant,) = generate_variants(k, 2, derive_rng(6, sentence_id, "variants"))
    delta = np.subtract(extract_features(plan, tuple(range(k))),
                        extract_features(plan, variant))
    assert np.array_equal(pair.dl[0, -k:], delta[:k])
    assert np.array_equal(pair.length[0, -k:], delta[k:])
    for arr in (pair.dl, pair.length):
        assert np.array_equal(arr[0], -arr[1])
    # each dl row sums to the total-DL delta of the two rebuilt trees
    ref, var = (oracles.total_dependency_length(oracles.linearize(trees[0], plan, order))
                for order in (tuple(range(k)), variant))
    assert pair.dl.sum(axis=1).tolist() == [ref - var, var - ref]
    report(5, f"N in = N out ({n_pairs}), labels balanced within 1/N, "
              f"orientation swap negates delta exactly")


def test_criterion_6_glm_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(1006)
    beta = np.array([0.5, -1.0, 2.0])
    X = rng.normal(size=(50_000, 3))
    p = 1.0 / (1.0 + np.exp(-(X @ beta)))
    y = (rng.random(50_000) < p).astype(int)
    fit = fit_logistic(X, y)
    assert fit.converged
    assert np.all(np.abs(fit.coefficients[1:] - beta) < 0.05)

    design = np.column_stack([np.ones(len(y)), X])

    def ll(b):
        eta = design @ b
        return float(y @ eta - np.sum(np.log1p(np.exp(eta))))

    h = 1e-4
    dim = len(fit.coefficients)
    H = np.empty((dim, dim))
    for i in range(dim):
        for j in range(dim):
            ei, ej = np.eye(dim)[i] * h, np.eye(dim)[j] * h
            b = fit.coefficients
            H[i, j] = (ll(b + ei + ej) - ll(b + ei - ej)
                       - ll(b - ei + ej) + ll(b - ei - ej)) / (4 * h * h)
    se_fd = np.sqrt(np.diag(np.linalg.inv(-H)))
    assert np.allclose(fit.std_errors, se_fd, rtol=1e-5)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(6, f"coefficients recovered within ±0.05; std errors match "
              f"finite-difference Hessian within 1e-5 relative ({elapsed:.1f}s)")


def test_criterion_7_mcnemar_oracle():
    # exact branch: every discordant total up to 24
    for n01 in range(0, 25):
        for n10 in range(0, 25 - n01):
            n = n01 + n10
            if n == 0 or n >= 25:
                continue
            truth = np.zeros(n + 3, dtype=int)
            a, b = truth.copy(), truth.copy()
            a[:n10] = 1
            b[n10:n] = 1
            res = mcnemar(a, b, truth)
            oracle = min(1.0, 2 * float(sps.binom.cdf(min(n01, n10), n, 0.5)))
            assert math.isclose(res.p_two_tailed, oracle, abs_tol=1e-12)
    # chi-square branch vs independent CDF evaluation
    rng = np.random.default_rng(1007)
    for _ in range(200):
        n01 = int(rng.integers(5, 300))
        n10 = int(rng.integers(5, 300))
        if n01 + n10 < 25:
            continue
        truth = np.zeros(n01 + n10, dtype=int)
        a, b = truth.copy(), truth.copy()
        a[:n10] = 1
        b[n10:] = 1
        res = mcnemar(a, b, truth)
        expected = float(sps.chi2.sf((abs(n01 - n10) - 1) ** 2 / (n01 + n10), 1))
        assert math.isclose(res.p_two_tailed, expected, rel_tol=1e-9)
    report(7, "exact branch matches binomial tails to 1e-12 for all "
              "n01+n10 <= 24; chi-square branch matches CDF to 1e-9")


def test_criterion_8_end_to_end_synthetic():
    start = time.monotonic()
    spec = SyntheticSpec(n_sentences=2000, p_least_effort=1.0)
    corpus = corpus_of(generate_synthetic_corpus(spec, seed=1008))
    assert len(corpus.plans) == len(corpus.ids) == 2000

    for k in range(2, 7):
        profile = position_length_profile(corpus, k)
        assert int(np.argmin(profile)) == k - 1

    dataset = build_pairwise_dataset(corpus, cap=100, seed=8)
    rows = run_classification_suite(dataset, folds=10, seed=9)
    acc = {r["predictors"]: r["accuracy"] for r in rows if r["table"] == "table3"}
    total_acc = acc["total dependency length"]
    last_acc = acc["last preverbal constituent's deplen"]
    assert last_acc > total_acc

    y = dataset.labels
    pred_total = crossval_accuracy(dataset.dl.sum(axis=1)[:, None].astype(float), y,
                                   folds=10, seed=9).predictions
    pred_last = crossval_accuracy(dataset.dl[:, -1:].astype(float), y,
                                  folds=10, seed=9).predictions
    res = mcnemar(pred_total, pred_last, y)
    assert res.p_two_tailed < 0.001

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(8, f"last-dl accuracy {100 * last_acc:.2f}% > total-dl "
              f"{100 * total_acc:.2f}%, McNemar p={res.p_two_tailed:.2e} < 0.001; "
              f"profile minimum verb-adjacent for k=2..6 ({elapsed:.0f}s)")


@pytest.mark.skipif("DEPLEN_HUTB" not in os.environ,
                    reason="set DEPLEN_HUTB to a licensed treebank export")
def test_criterion_9_hutb_replication():
    from deplen.treebank import iter_heads

    with open(os.environ["DEPLEN_HUTB"], encoding="utf-8") as f:
        corpus = decompose_corpus(iter_heads(f, []))
    n_ref = len(corpus.plans)
    assert abs(n_ref - 7586) <= 0.01 * 7586

    dataset = build_pairwise_dataset(corpus, cap=100, seed=0)
    assert abs(len(dataset) - 184_818) <= 0.01 * 184_818

    rows = run_classification_suite(dataset, folds=10, seed=0)
    acc = {(r["table"], r["predictors"]): 100 * r["accuracy"] for r in rows}
    targets = {
        ("table3", "total dependency length"): 62.69,
        ("table3", "2nd-last preverbal constituent's deplen"): 68.48,
        ("table3", "last preverbal constituent's deplen"): 72.70,
        ("table3", "last + 2nd last preverbal constituent's deplen"): 77.17,
        ("table4", "2nd-last preverbal constituent length"): 54.35,
        ("table4", "last preverbal constituent length"): 69.62,
        ("table4", "last + 2nd last preverbal constituent length"): 70.28,
    }
    for key, expected in targets.items():
        assert abs(acc[key] - expected) <= 2.0

    table = regression_table(dataset, 5, "deplen", folds=10, seed=0)
    fit_rows = {r["predictor"]: r for r in table["fit"]["rows"]}
    assert fit_rows["const5_deplen"]["estimate"] < 0
    slopes = {n: abs(r["estimate"]) for n, r in fit_rows.items()
              if n != "intercept"}
    assert max(slopes, key=slopes.get) == "const5_deplen"
    report(9, "treebank counts, accuracies, and coefficient pattern reproduced")
