"""Slow, direct implementations that the fast paths of `deplen` must match.

Each one is the code that a batched or single-pass version replaced, kept
only as the reference that tests compare against.
"""

import numpy as np

from deplen import constituency, variants
from deplen.analysis import STRATEGIES
from deplen.constituency import Constituent, Ineligible, SentencePlan
from deplen.seeding import derive_rng
from deplen.treebank import NonProjectiveError, subtree_spans


def strategy_curves(corpus, seed=0, random_draws=10, k_range=(2, 6),
                    convention="intervening") -> dict:
    """`analysis.strategy_curves` one sentence and one order at a time."""
    sums = {s: {} for s in STRATEGIES}
    counts = {}
    for e in corpus.entries:
        plan = e.plan
        k = plan.k
        if not (k_range[0] <= k <= k_range[1]):
            continue
        n = len(plan.tree)
        def norm_dl(order):
            return constituency.order_dl(plan, order, convention)[1] / n
        values = {
            "reference": norm_dl(variants.order_identity(plan)),
            "ascending": norm_dl(variants.order_ascending(plan)),
            "descending": norm_dl(variants.order_descending(plan)),
        }
        rand_vals, le_vals = [], []
        for d in range(random_draws):
            rng = derive_rng(seed, e.sentence_id, "random", d)
            start = variants.order_random(plan, rng)
            rand_vals.append(norm_dl(start))
            le_vals.append(norm_dl(variants.least_effort_move(plan, start)))
        values["random"] = float(np.mean(rand_vals))
        values["least_effort"] = float(np.mean(le_vals))
        counts[k] = counts.get(k, 0) + 1
        for s, v in values.items():
            sums[s][k] = sums[s].get(k, 0.0) + v
    return {s: {k: sums[s][k] / counts[k] for k in sorted(sums[s])}
            for s in STRATEGIES}


def decompose(tree):
    """`constituency.decompose` from every token's yield, computed first."""
    spans = subtree_spans(tree)
    if spans is None:
        raise NonProjectiveError("decompose requires a projective tree")
    verb = tree.root_index
    constituents = []
    for i in range(1, verb):
        if tree.heads[i - 1] == verb:
            lo, hi = spans[i]
            constituents.append(Constituent(i, (lo, hi), tree.forms[lo - 1:hi]))
    if not constituents:
        return Ineligible("no preverbal constituents")
    if len(constituents) < 2:
        return Ineligible("fewer than 2 constituents")
    return SentencePlan(tree, tuple(constituents), verb)
