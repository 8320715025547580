"""End-to-end experiments: corpus profiles, ordering-strategy curves, the
pairwise classification suite, per-constituent regressions, and a synthetic
corpus generator for desk-scale validation.
"""

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional

import numpy as np

from . import constituency, features, stats, variants
from .constituency import Ineligible, decompose
from .seeding import derive_rng
from .treebank import DependencyTree

__all__ = [
    "DecomposedCorpus",
    "PairwiseDataset",
    "SyntheticSpec",
    "InsufficientDataError",
    "eligible_plans",
    "decompose_corpus",
    "constituent_count_histogram",
    "position_length_profile",
    "strategy_curves",
    "comparison_orders",
    "build_pairwise_dataset",
    "run_classification_suite",
    "regression_table",
    "zscore",
    "generate_synthetic_corpus",
]

STRATEGIES = ("reference", "ascending", "descending", "random", "least_effort")

TABLE3_ROWS = [
    ("total dependency length", ["total_dl"]),
    ("2nd-last preverbal constituent's deplen", ["dl_2ndlast"]),
    ("last preverbal constituent's deplen", ["dl_last"]),
    ("last + 2nd last preverbal constituent's deplen", ["dl_last", "dl_2ndlast"]),
]
TABLE4_ROWS = [
    ("2nd-last preverbal constituent length", ["len_2ndlast"]),
    ("last preverbal constituent length", ["len_last"]),
    ("last + 2nd last preverbal constituent length", ["len_last", "len_2ndlast"]),
]


class InsufficientDataError(ValueError):
    """The corpus cannot support a table: too few pairs for it or for its
    folds, or a row whose predictors are collinear in every pair."""


@dataclass
class DecomposedCorpus:
    """Each eligible sentence's id and plan, two lists in corpus order."""
    ids: list
    plans: list
    skipped: dict = field(default_factory=dict)   # reason -> count


def _eligible(pairs, skipped: dict):
    """Yield (sentence_id, item, plan) for every (item, heads) pair whose
    heads `decompose` finds eligible, and count the rest by its reason in
    `skipped`. The i-th pair (from 1) has sentence id `s{i}`, eligible or
    not."""
    for i, (item, heads) in enumerate(pairs, start=1):
        plan = decompose(heads)
        if isinstance(plan, Ineligible):
            skipped[plan.reason] = skipped.get(plan.reason, 0) + 1
        else:
            yield f"s{i}", item, plan


def eligible_plans(trees, skipped: dict):
    """Yield (sentence_id, tree, plan) for every eligible tree, and count
    the rest by `decompose`'s reason in `skipped`. The i-th tree (from 1) has
    sentence id `s{i}`. `trees` may be any iterable, a generator of trees as
    they are parsed included; it is consumed once."""
    return _eligible(((tree, tree.heads) for tree in trees), skipped)


def decompose_corpus(columns) -> DecomposedCorpus:
    """Each eligible sentence's id and plan, as `eligible_plans` gives them
    for the trees of these heads columns (`treebank.iter_heads`, or each
    tree's `heads`), and the skip counts; no column is kept past its
    decomposition."""
    corpus = DecomposedCorpus([], [])
    for sentence_id, _, plan in _eligible(((None, heads) for heads in columns), corpus.skipped):
        corpus.ids.append(sentence_id)
        corpus.plans.append(plan)
    return corpus


# ---------------------------------------------------------------------------
# corpus profiles

def constituent_count_histogram(corpus: DecomposedCorpus, cap: int = variants.DEFAULT_CAP):
    """Percentage of reference and variant sentences per constituent count,
    each reference weighing its `variants.variant_count(k, cap)` variants."""
    ks = [plan.k for plan in corpus.plans]
    ref_counts = {k: ks.count(k) for k in set(ks)}
    var_counts = {k: n * variants.variant_count(k, cap) for k, n in ref_counts.items()}
    def normalize(counts):
        total = sum(counts.values())
        return {k: 100.0 * v / total for k, v in sorted(counts.items())} if total else {}
    return normalize(ref_counts), normalize(var_counts)


def position_length_profile(corpus: DecomposedCorpus, k: int) -> np.ndarray:
    """Mean constituent length per preverbal position, over reference
    sentences with exactly k constituents. Position k is verb-adjacent."""
    rows = [plan.lengths for plan in corpus.plans if plan.k == k]
    if not rows:
        raise InsufficientDataError(f"no reference sentences with k={k}")
    return np.array(rows, dtype=float).mean(axis=0)


def sentence_length_constituent_corr(corpus: DecomposedCorpus) -> Optional[float]:
    """Pearson correlation between sentence length and preverbal constituent
    count over reference sentences; None where undefined (e.g. a single k)."""
    try:
        return stats.pearson([p.words for p in corpus.plans], [p.k for p in corpus.plans])
    except ValueError:
        return None


def strategy_curves(corpus: DecomposedCorpus, seed: int = 0,
                    random_draws: int = 10, k_range=(2, 6),
                    convention: str = "intervening") -> dict:
    """Mean total dependency length in `convention`, normalized by sentence
    word count, per strategy and per constituent count.

    Random and least-effort values average `random_draws` seeded draws per
    sentence. Each k's sentences are scored at once, in corpus order: the
    reference, ascending and descending orders, the draws, and the draws'
    least-effort moves, as one (sentences x orders x k) array.
    """
    by_k = {}
    for sentence_id, plan in zip(corpus.ids, corpus.plans):
        if k_range[0] <= plan.k <= k_range[1]:
            by_k.setdefault(plan.k, []).append((sentence_id, plan))
    curves = {s: {} for s in STRATEGIES}
    for k in sorted(by_k):
        ids, plans = zip(*by_k[k])
        table = constituency.PlanTable.of(plans)
        draws = np.array([[derive_rng(seed, sentence_id, "random", d).permutation(k)
                           for d in range(random_draws)] for sentence_id in ids])
        orders = np.concatenate([
            np.broadcast_to(np.arange(k), (len(ids), 1, k)),
            variants.ascending_orders(table.lengths)[:, None],
            variants.descending_orders(table.lengths)[:, None],
            draws, variants.least_effort_moves(table.lengths[:, None], draws)], axis=1)
        values = table.score(orders, convention)[1] / table.words[:, None]
        per_sentence = np.column_stack([   # the draws' means, as np.mean of each list
            values[:, :3], values[:, 3:].reshape(-1, 2, random_draws).mean(axis=2)])
        # summed one sentence after the other, in corpus order
        means = np.cumsum(per_sentence, axis=0)[-1] / len(ids)
        for s, mean in zip(STRATEGIES, means.tolist()):
            curves[s][k] = mean
    return curves


# ---------------------------------------------------------------------------
# pairwise dataset and classification

def comparison_orders(sentence_id, k: int, cap: int, seed: int) -> tuple:
    """A sentence's orders, the pairs' one source: the reference, then its
    `generate_variants` drawn from the sentence's own "variants" stream."""
    return (tuple(range(k)), *variants.generate_variants(
        k, cap, derive_rng(seed, sentence_id, "variants")))


@dataclass
class PairwiseDataset:
    """Balanced pairwise differences, one row per (reference, variant) pair
    in corpus order. Integer deltas, in the narrowest signed type that holds
    them: the per-position `dl` and `length` (n, width), right-aligned so
    that the last column is the verb-adjacent position, and zero to the left
    of each row's k. A pair's total-DL delta is its `dl` row's sum: only the
    k head-to-verb arcs move. Each pair's k is `ks` (n,), unsigned, and its
    sentence is `sentence` (n,), an int32 index into the per-sentence
    `ids`."""
    dl: np.ndarray
    length: np.ndarray
    ks: np.ndarray
    sentence: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ks)

    @property
    def sentence_ids(self) -> np.ndarray:
        """Each pair's sentence id."""
        return self.ids[self.sentence]

    @property
    def labels(self) -> np.ndarray:
        """1 on the even rows (reference minus variant), 0 on the odd."""
        return (np.arange(len(self)) % 2 == 0).astype(int)

    def positional_matrix(self, k: int, family: str):
        """(X, y) for the exactly-k subset, X k columns wide; family 'deplen' or 'length'."""
        if family not in ("deplen", "length"):
            raise ValueError(f"unknown feature family: {family!r}")
        cols = self.dl if family == "deplen" else self.length
        rows = self.ks == k
        X = cols[rows, cols.shape[1] - k:] if k <= cols.shape[1] else np.zeros((0, k), cols.dtype)
        return X, self.labels[rows]


def _delta_dtype(bound: int):
    """The narrowest signed integer type that holds -bound..bound."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= bound)


def build_pairwise_dataset(corpus: DecomposedCorpus, cap: int = variants.DEFAULT_CAP,
                           seed: int = 0) -> PairwiseDataset:
    """Variant generation, feature extraction and the pairwise transformation
    for the whole corpus, one sentence at a time. Deterministic in
    (corpus, cap, seed). Both orders of a pair have the same arcs, so the
    deltas in positional differences, 1 more per arc, would be the same.

    The arrays are allocated once, from each sentence's `variant_count`
    pairs, and each sentence's deltas are written into its rows. Only the k
    head-to-verb arcs move under reordering, each by less than the verb's
    position, so no delta, nor a `dl` row's sum, the total-DL delta, exceeds
    k * verb_index: that bound sets the type.
    """
    ks = [plan.k for plan in corpus.plans]
    width = max(ks, default=2)
    variants.variant_count(width, cap)   # rejects a cap below 2, with no sentence too
    counts = [variants.variant_count(k, cap) for k in ks]
    dtype = _delta_dtype(max((plan.k * plan.verb_index for plan in corpus.plans), default=0))
    dl = np.zeros((sum(counts), width), dtype=dtype)
    length = np.zeros_like(dl)
    stop = 0
    for sentence_id, plan, count in zip(corpus.ids, corpus.plans, counts):
        k = plan.k
        rows = np.array([features.extract_features(plan, order)
                         for order in comparison_orders(sentence_id, k, cap, seed)])
        delta = rows[0] - rows[1:]
        start, stop = stop, stop + count
        dl[start:stop, width - k:] = delta[:, :k]
        length[start:stop, width - k:] = delta[:, k:]
    for column in (dl, length):
        np.negative(column[1::2], out=column[1::2])   # odd rows: variant minus reference
    return PairwiseDataset(
        dl, length,
        np.repeat(np.array(ks, dtype=np.min_scalar_type(width)), counts),
        np.repeat(np.arange(len(ks), dtype=np.int32), counts),
        np.array(corpus.ids, dtype=str))


def run_classification_suite(dataset: PairwiseDataset, folds: int = 10,
                             seed: int = 0, zscore_mode: str = "fold") -> list:
    """CV accuracy for the dependency-length and constituent-length model
    families, each row McNemar-tested against the previous row of its table.

    Returns a list of row dicts: table, predictors, accuracy,
    flagged_folds (folds fitted under the separation ridge),
    unconverged_folds (folds whose fit stopped at MAX_ITER), min_margin (the
    smallest |p - 0.5| of a test prediction), and mcnemar_p against the
    previous row (None for first rows).
    """
    if len(dataset) < 2:
        raise InsufficientDataError("insufficient data: need at least 2 pairs")
    if len(dataset) < folds:
        raise InsufficientDataError(
            f"insufficient data: {len(dataset)} pairs for {folds} folds")
    y = dataset.labels
    column = {"total_dl": dataset.dl.sum(axis=1, dtype=dataset.dl.dtype),
              "dl_2ndlast": dataset.dl[:, -2], "dl_last": dataset.dl[:, -1],
              "len_2ndlast": dataset.length[:, -2], "len_last": dataset.length[:, -1]}
    rows = []
    for table, specs in (("table3", TABLE3_ROWS), ("table4", TABLE4_ROWS)):
        prev_pred = None
        for name, predictors in specs:
            X = np.column_stack([column[p] for p in predictors])
            try:
                report = stats.crossval_accuracy(X, y, folds=folds, seed=seed,
                                                 zscore_mode=zscore_mode)
            except stats.RankDeficientError:
                # k = 2 alone: swapping two constituents makes len_last == -len_2ndlast
                raise InsufficientDataError(
                    f"{table} row {name!r}: its predictors {', '.join(predictors)} "
                    "are collinear in this corpus") from None
            row = {
                "table": table,
                "predictors": name,
                "accuracy": report.mean_accuracy,
                "flagged_folds": report.flagged_folds,
                "unconverged_folds": report.unconverged_folds,
                "min_margin": report.min_margin,
                "mcnemar_p": None,
            }
            if prev_pred is not None:
                row["mcnemar_p"] = stats.mcnemar(prev_pred, report.predictions, y).p_two_tailed
            prev_pred = report.predictions
            rows.append(row)
    return rows


def _drop_collinear(X: np.ndarray, names: list):
    """Drop leftmost exactly-dependent columns until X has full column rank
    (intercept included), a constant last column too. Verb-adjacent
    positions otherwise survive by construction."""
    design = lambda M: np.column_stack([np.ones(M.shape[0]), M])
    dropped = []
    while (rank := np.linalg.matrix_rank(design(X))) < X.shape[1] + 1:
        for j in range(X.shape[1]):
            rest = np.delete(X, j, axis=1)
            if np.linalg.matrix_rank(design(rest)) == rank:
                X = rest
                dropped.append(names.pop(j))
                break
    return X, names, dropped


def zscore(X: np.ndarray):
    """Column-standardize a design matrix by its means and sample (n-1)
    standard deviations, zero-variance columns dropped.

    Returns (Z, kept): the standardized columns and their indices in X.
    """
    X = np.asarray(X, dtype=float)
    sd = X.std(axis=0, ddof=1)
    kept = np.flatnonzero(sd > 0)
    Z = X[:, kept]      # a copy: standardized in place
    Z -= X.mean(axis=0)[kept]
    Z /= sd[kept]
    return Z, kept


def regression_table(dataset: PairwiseDataset, k: int, family: str,
                     folds: int = 10, seed: int = 0,
                     min_pairs: int = 500) -> dict:
    """RFECV-selected logistic regression over the positional predictors of
    the exactly-k subset (the per-constituent coefficient tables). Where
    RFECV ran, `rfecv_min_margin` is the smallest |p - 0.5| of its CV test
    predictions, a fit-health record rather than part of the table."""
    X, y = dataset.positional_matrix(k, family)
    if len(y) < min_pairs:
        return {"k": k, "family": family, "status": "insufficient data",
                "n": int(len(y))}
    if len(y) < folds:
        raise InsufficientDataError(
            f"insufficient data: {len(y)} pairs with k={k} for {folds} folds")
    names = [f"const{i}_{family}" for i in range(1, k + 1)]
    X, names, dropped = _drop_collinear(X, names)
    if len(names) >= 2:
        selection = stats.rfecv(X, y, folds=folds, seed=seed, feature_names=names)
        selected, margin = selection.selected, selection.min_margin
        curve = {str(s): a for s, a in sorted(selection.curve.items())}
    else:
        selected, curve, margin = list(names), {}, None
    keep = [j for j, nm in enumerate(names) if nm in selected]
    # not held here: fit_logistic frees the z-scored copy once its design holds it
    fit = stats.fit_logistic(zscore(X[:, keep])[0], y, feature_names=selected)
    return {"k": k, "family": family, "status": "ok", "n": int(len(y)),
            "selected": selected, "dropped_collinear": dropped,
            "cv_curve": curve, "fit": fit.to_dict(), "rfecv_min_margin": margin}


# ---------------------------------------------------------------------------
# synthetic corpus

@dataclass(frozen=True)
class SyntheticSpec:
    """The shape of a synthetic corpus. A field outside its domain (a count,
    k or length bound that is not an integer, a k below 2, a negative k
    weight, weights not summing to 1, a `max_constituent_length` below 1, a
    `length_dist` it cannot sample, a `p_least_effort` outside [0, 1] or a
    negative `noise_temperature`) is a ValueError at construction that
    names the field."""
    n_sentences: int = 1000
    k_weights: tuple = ((2, 0.2), (3, 0.25), (4, 0.25), (5, 0.2), (6, 0.1))
    # ("geometric", p) with mean 1/p, or ("uniform", lo, hi) inclusive
    length_dist: tuple = ("geometric", 0.4)
    max_constituent_length: int = 12
    p_least_effort: float = 1.0
    noise_temperature: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_least_effort <= 1.0:
            raise ValueError("p_least_effort must be in [0, 1]")
        if not self.noise_temperature >= 0.0:    # NaN fails too
            raise ValueError("noise_temperature must be >= 0")
        if not (isinstance(self.n_sentences, Integral) and self.n_sentences >= 1):
            raise ValueError("n_sentences must be an integer >= 1")
        if not all(isinstance(k, Integral) and k >= 2 for k, _ in self.k_weights):
            raise ValueError("k_weights: every k must be an integer >= 2")
        if not all(w >= 0 for _, w in self.k_weights):
            raise ValueError("k_weights: every weight must be >= 0")
        if not math.isclose(sum(w for _, w in self.k_weights), 1.0, abs_tol=1e-9):
            raise ValueError("k_weights must sum to 1")
        if not (isinstance(self.max_constituent_length, Integral)
                and self.max_constituent_length >= 1):
            raise ValueError("max_constituent_length must be an integer >= 1")
        kind, *bounds = self.length_dist
        if kind not in ("geometric", "uniform"):
            raise ValueError(f"length_dist: unknown length distribution: {kind!r}")
        if not ((len(bounds) == 1 and 0.0 < bounds[0] <= 1.0) if kind == "geometric"
                else (len(bounds) == 2 and all(isinstance(b, Integral) for b in bounds)
                      and 1 <= bounds[0] <= bounds[1])):
            raise ValueError("length_dist: needs 0 < p <= 1 (geometric) or integers "
                             f"1 <= lo <= hi (uniform), got {self.length_dist}")   # NaN fails too

    def sample_lengths(self, rng, k: int) -> np.ndarray:
        kind, *bounds = self.length_dist
        if kind == "geometric":
            lengths = rng.geometric(bounds[0], size=k)
        else:
            lengths = rng.integers(bounds[0], bounds[1] + 1, size=k)
        return np.minimum(lengths, self.max_constituent_length)


def _constituent_heads(rng, length: int) -> list:
    """The head of each word of a projective constituent of `length` words,
    as an offset into it, None for the constituent's head: that is uniform in
    the span, and every other word attaches to its inward neighbor or
    straight to the head."""
    head = int(rng.integers(length))
    return [None if off == head else
            ((off + 1 if off < head else off - 1) if rng.random() < 0.5 else head)
            for off in range(length)]


def _pick_reference_order(lengths: np.ndarray, spec: SyntheticSpec, rng) -> np.ndarray:
    start = rng.permutation(len(lengths))
    if rng.random() >= spec.p_least_effort:
        return start
    if spec.noise_temperature == 0.0:
        return variants.least_effort_moves(lengths, start)
    # soft least-effort: move a length-weighted sampled constituent instead
    in_order = lengths[start].astype(float)
    # shifted by the shortest, whose weight stays 1 at any temperature
    with np.errstate(over="ignore"):   # a subnormal one: the rest weigh 0
        w = np.exp(-(in_order - in_order.min()) / spec.noise_temperature)
    pick = int(rng.choice(len(start), p=w / w.sum()))
    return np.append(np.delete(start, pick), start[pick])


def generate_synthetic_corpus(spec: SyntheticSpec, seed: int = 0) -> list:
    """Random projective verb-final sentences whose reference order follows
    the configured selection rule. Returns DependencyTrees. Each sentence's
    constituents are drawn, heads included, and then laid out in the drawn
    reference order; word i of the original order is named w{i}."""
    ks, kw = zip(*spec.k_weights)
    trees = []
    for i in range(spec.n_sentences):
        rng = derive_rng(seed, "synth", i)
        k = int(rng.choice(ks, p=kw))
        lengths = spec.sample_lengths(rng, k)
        heads = [_constituent_heads(rng, int(length)) for length in lengths]
        order = _pick_reference_order(lengths, spec, rng)
        starts = (np.cumsum(lengths) - lengths + 1).tolist()
        verb = int(lengths.sum()) + 1
        tree_heads, forms, deprels = [], [], []
        for ci in order.tolist():
            at = len(tree_heads) + 1   # where the constituent starts now
            for off, head in enumerate(heads[ci]):
                # constituent heads are the only words attached to the verb
                tree_heads.append(verb if head is None else at + head)
                forms.append(f"w{starts[ci] + off}")
                deprels.append("arg" if head is None else "mod")
        trees.append(DependencyTree(tree_heads + [0], forms + [f"w{verb}"],
                                    deprels + ["root"]))
    return trees
