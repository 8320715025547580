"""Slow, direct implementations that the fast paths of `deplen` must match.

Each one is the code that a batched or single-pass version replaced, kept
only as the reference that tests compare against.
"""

import itertools

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit
from scipy.stats import binomtest, chi2

from deplen import features, variants
from deplen.analysis import STRATEGIES, PairwiseDataset
from deplen.constituency import Ineligible, SentencePlan
from deplen.seeding import derive_rng
from deplen.stats import _sigmoid
from deplen.treebank import DependencyTree, _root_walk


def arc_distance(a: int, b: int, convention: str = "intervening") -> int:
    """One arc's length: the words between a and b, or |a - b|."""
    d = abs(a - b)
    if convention == "intervening":
        return d - 1
    if convention == "positional":
        return d
    raise ValueError(f"unknown distance convention: {convention!r}")


def total_dependency_length(tree, convention="intervening") -> int:
    """Sum of head-dependent distances over all arcs of the tree."""
    return sum(arc_distance(h, d, convention)
               for d, h in enumerate(tree.heads, start=1) if h)


def subtree_spans(tree):
    """Every token's yield, the [min, max] positions of its transitive-
    dependent closure: `spans[i]` is token i's (lo, hi), `spans[0]` unused.
    None when some yield has a gap, i.e. the tree is not projective.

    One bottom-up pass, dependents before their heads.
    """
    n = len(tree)
    heads = (0, *tree.heads)
    lo, hi, size = list(range(n + 1)), list(range(n + 1)), [1] * (n + 1)
    for node in reversed(_root_walk(tree.heads)):
        if hi[node] - lo[node] + 1 != size[node]:
            return None
        h = heads[node]
        if h != 0:
            lo[h] = min(lo[h], lo[node])
            hi[h] = max(hi[h], hi[node])
            size[h] += size[node]
    return list(zip(lo, hi))


def order_dl(plan, order) -> tuple:
    """(per-position head-to-verb distances, total DL) under `order`, in one
    pass over the constituents: only these k arcs move under permutation,
    every other arc adds the same length, the plan's `fixed_dl`."""
    dls, start = [], 1
    for ci in order:   # every preverbal head precedes the verb
        dls.append(plan.verb_index - start - plan.head_offsets[ci] - 1)
        start += plan.lengths[ci]
    return tuple(dls), sum(dls) + plan.fixed_dl


def main_verb_dl_closed_form(plan, order) -> int:
    """The summed head-to-verb distances in intervening words, in closed
    form: sum_i length(C_order[i]) * i + sum_j (words of C_j after its head)."""
    total = sum(i * plan.lengths[ci] for i, ci in enumerate(order))
    total += sum(length - 1 - offset
                 for length, offset in zip(plan.lengths, plan.head_offsets))
    return total


def order_ascending(plan) -> tuple:
    """Shortest first; ties keep original left-to-right order."""
    return tuple(sorted(range(plan.k), key=lambda i: (plan.lengths[i], i)))


def order_descending(plan) -> tuple:
    """Longest first; ties keep original left-to-right order."""
    return tuple(sorted(range(plan.k), key=lambda i: (-plan.lengths[i], i)))


def order_random(plan, seed=None) -> tuple:
    return tuple(int(i) for i in np.random.default_rng(seed).permutation(plan.k))


def least_effort_move(plan, order) -> tuple:
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


def exact_strategy_means(plan) -> dict:
    """The exact mean normalized DL of a uniformly random order of the
    plan's constituents, and of that order's least-effort move, over all k!
    orders, each scored by `order_dl`: {"random": (mean, variance),
    "least_effort": (mean, variance)}, the variance being one draw's."""
    values = np.array([(order_dl(plan, order)[1],
                        order_dl(plan, least_effort_move(plan, order))[1])
                       for order in itertools.permutations(range(plan.k))]) / plan.words
    return {"random": (values[:, 0].mean(), values[:, 0].var()),
            "least_effort": (values[:, 1].mean(), values[:, 1].var())}


def linearize(tree, plan, order) -> DependencyTree:
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


def strategy_curves(trees, seed=0, random_draws=10, k_range=(2, 6),
                    convention="intervening") -> dict:
    """`analysis.strategy_curves` of the trees' decomposed corpus, one
    sentence and one order at a time, each order's total arc by arc on the
    rebuilt tree; the plans come from `decompose` below."""
    sums = {s: {} for s in STRATEGIES}
    counts = {}
    for i, tree in enumerate(trees, start=1):
        plan = decompose(tree)
        if isinstance(plan, Ineligible) or not k_range[0] <= plan.k <= k_range[1]:
            continue
        k, n = plan.k, len(tree)
        def norm_dl(order):
            return total_dependency_length(linearize(tree, plan, order),
                                           convention) / n
        values = {
            "reference": norm_dl(tuple(range(k))),
            "ascending": norm_dl(order_ascending(plan)),
            "descending": norm_dl(order_descending(plan)),
        }
        rand_vals, le_vals = [], []
        for d in range(random_draws):
            rng = derive_rng(seed, f"s{i}", "random", d)
            start = order_random(plan, rng)
            rand_vals.append(norm_dl(start))
            le_vals.append(norm_dl(least_effort_move(plan, start)))
        values["random"] = float(np.mean(rand_vals))
        values["least_effort"] = float(np.mean(le_vals))
        counts[k] = counts.get(k, 0) + 1
        for s, v in values.items():
            sums[s][k] = sums[s].get(k, 0.0) + v
    return {s: {k: sums[s][k] / counts[k] for k in sorted(sums[s])}
            for s in STRATEGIES}


def decompose(tree):
    """`constituency.decompose` from every token's yield, computed first;
    `fixed_dl` is the arc-by-arc total less the k head-to-verb arcs."""
    spans = subtree_spans(tree)
    if spans is None:
        return Ineligible("non-projective")
    verb = tree.heads.index(0) + 1
    heads = [i for i in range(1, verb) if tree.heads[i - 1] == verb]
    if not heads:
        return Ineligible("no preverbal constituents")
    if len(heads) < 2:
        return Ineligible("fewer than 2 constituents")
    lengths = tuple(spans[i][1] - spans[i][0] + 1 for i in heads)
    offsets = tuple(i - spans[i][0] for i in heads)
    fixed_dl = total_dependency_length(tree) - sum(arc_distance(i, verb) for i in heads)
    return SentencePlan(verb, lengths, offsets, fixed_dl, len(tree))


def build_pairwise_dataset(corpus, trees, cap=variants.DEFAULT_CAP, seed=0):
    """`analysis.build_pairwise_dataset` from one int64 block per sentence,
    concatenated, where trees[i] is the tree that corpus plan i decomposes.
    Each pair's `dl` row sums to its total-DL delta, the difference of its
    two orders' trees rebuilt and summed arc by arc: checked here."""
    width = max((plan.k for plan in corpus.plans), default=2)
    blocks, totals = [np.zeros((0, 2 * width), dtype=np.int64)], []
    for sentence_id, plan, tree in zip(corpus.ids, corpus.plans, trees, strict=True):
        k = plan.k
        orders = (tuple(range(k)), *variants.generate_variants(
            k, cap, derive_rng(seed, sentence_id, "variants")))
        rows = np.array([features.extract_features(plan, order) for order in orders])
        block = np.zeros((len(rows) - 1, 2 * width), dtype=np.int64)
        block[:, np.r_[width - k:width, 2 * width - k:2 * width]] = rows[0] - rows[1:]
        blocks.append(block)
        total, *others = [total_dependency_length(linearize(tree, plan, order))
                          for order in orders]
        totals.extend(total - other for other in others)
    deltas = np.concatenate(blocks)
    deltas[1::2] *= -1        # odd rows: variant minus reference
    totals = np.array(totals, dtype=np.int64)
    totals[1::2] *= -1
    assert np.array_equal(deltas[:, :width].sum(axis=1), totals)
    counts = [len(b) for b in blocks[1:]]
    return PairwiseDataset(
        deltas[:, :width], deltas[:, width:],
        np.repeat(np.array([plan.k for plan in corpus.plans], dtype=int), counts),
        np.repeat(np.arange(len(corpus.plans)), counts),
        np.array(corpus.ids, dtype=str))


def distinct_cells(X, y):
    """`stats._distinct_cells` without `np.lexsort`: a stable sort of the row
    indices on (X[r, -1], ..., X[r, 0], y[r]), NaN after every number, and a
    new cell wherever a value changes (NaN equals nothing, itself included)."""
    rows = [tuple(X[r, ::-1].tolist()) + (int(y[r]),) for r in range(len(y))]
    order = sorted(range(len(rows)), key=lambda r: [(v != v, 0.0 if v != v else v)
                                                    for v in rows[r]])
    rep, cell = [], np.empty(len(order), dtype=np.intp)
    for i, r in enumerate(order):
        if not i or any(a != b for a, b in zip(rows[r], rows[order[i - 1]])):
            rep.append(r)
        cell[r] = len(rep) - 1
    return np.array(rep, dtype=np.intp), cell


def mcnemar(pred_a, pred_b, truth) -> float:
    """McNemar's two-tailed p on the pairs that one classifier gets right and
    the other wrong, n01 + n10 of them: scipy's exact binomial test of
    min(n01, n10) when fewer than 25 (1 when none), else the chi-square
    survival of the continuity-corrected (|n01 - n10| - 1)^2 / (n01 + n10)."""
    a_ok = np.asarray(pred_a) == np.asarray(truth)
    b_ok = np.asarray(pred_b) == np.asarray(truth)
    n01, n10 = int(np.sum(a_ok & ~b_ok)), int(np.sum(~a_ok & b_ok))
    n = n01 + n10
    if n == 0:
        return 1.0
    if n < 25:
        return binomtest(min(n01, n10), n, 0.5).pvalue
    return float(chi2.sf((abs(n01 - n10) - 1) ** 2 / n, df=1))


def predict_proba(fit, X):
    """The probability of label 1 that `fit` gives each row of X."""
    return _sigmoid(np.column_stack([np.ones(len(X)), X]) @ fit.coefficients)


def penalized_nll(X, y, beta, ridge=0.0):
    """The negative log-likelihood of the logit model of y on [1, X] at
    beta, intercept first, plus ridge / 2 * ||beta||^2, the intercept
    included: summed in extended precision, where float64's rounding would
    hide the last digits of a minimum."""
    design = np.column_stack([np.ones(len(y)), np.asarray(X, dtype=float)])
    beta = np.asarray(beta, dtype=np.longdouble)
    eta = design.astype(np.longdouble) @ beta
    return (np.sum(np.logaddexp(0.0, eta) - np.asarray(y, dtype=float) * eta)
            + ridge / 2 * np.sum(beta * beta))


def fit_logistic(X, y, ridge=0.0):
    """The logit fit of y on [1, X] that minimizes `penalized_nll`, the
    maximum-likelihood fit at ridge 0, by the textbook route: scipy's
    trust-exact minimum, from its analytic gradient and Hessian. Returns the
    coefficients, intercept first, and their standard errors, the square
    roots of the diagonal of the inverse Hessian at that minimum."""
    design = np.column_stack([np.ones(len(y)), np.asarray(X, dtype=float)])
    y = np.asarray(y, dtype=float)

    def grad(beta):
        return design.T @ (expit(design @ beta) - y) + ridge * beta

    def hess(beta):
        mu = expit(design @ beta)
        return (design * (mu * (1.0 - mu))[:, None]).T @ design + ridge * np.eye(len(beta))

    # under a small ridge the least curvature is about the ridge: a gradient
    # of 1e-9 can leave a coefficient 1e-3 from the minimum
    beta = minimize(lambda beta: penalized_nll(X, y, beta, ridge), np.zeros(design.shape[1]),
                    jac=grad, hess=hess, method="trust-exact", options={"gtol": 1e-12}).x
    # a stop for want of a measurable reduction is the minimum, to rounding
    if np.abs(grad(beta)).max() > 1e-6:
        raise ArithmeticError("oracle fit stopped short of a minimum")
    return beta, np.sqrt(np.diag(np.linalg.inv(hess(beta))))
