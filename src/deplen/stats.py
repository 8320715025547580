"""Logistic regression with Wald inference, cross-validation, McNemar's
test, recursive feature elimination, and Pearson correlation.

The logistic fit is iteratively reweighted least squares, matching the
classic GLM reference implementations: convergence when the largest
coefficient change drops below 1e-8, standard errors from the inverse
observed information. A fit that does not converge unpenalized, because
it climbs past a coefficient bound or runs out of iterations, is separated
and fitted again from zero under a small ridge: the one separation rule of
the one IRLS loop, `_fit_folds`, which also holds at 0 a coefficient whose
column is constant or dependent in its fit's rows.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "RegressionFit",
    "CvReport",
    "McNemarResult",
    "RfecvResult",
    "RankDeficientError",
    "dependent_columns",
    "fit_logistic",
    "crossval_accuracy",
    "mcnemar",
    "rfecv",
    "pearson",
]

MAX_ITER = 100
TOL = 1e-8
SEPARATION_COEF_BOUND = 30.0   # on standardized predictors
SEPARATION_RIDGE = 1e-6
MCNEMAR_EXACT_THRESHOLD = 25
GRAM_CHUNK = 512    # cells per block of the stacked Hessian products


class RankDeficientError(ValueError):
    pass


@dataclass
class RegressionFit:
    coefficients: np.ndarray    # intercept first
    std_errors: np.ndarray
    z_values: np.ndarray
    converged: bool
    iterations: int
    log_likelihood: float
    feature_names: list         # one per column of X, intercept excluded
    ridge: float = 0.0
    separation: bool = False

    def to_dict(self) -> dict:
        rows = []
        for name, b, se, z in zip(["intercept", *self.feature_names],
                                  self.coefficients, self.std_errors, self.z_values):
            p = math.erfc(abs(z) / math.sqrt(2.0))
            rows.append({"predictor": name, "estimate": float(b),
                         "std_error": float(se), "z_value": float(z),
                         "significant": "***" if p < 0.001 else ""})
        return {"rows": rows, "converged": self.converged,
                "iterations": self.iterations,
                "log_likelihood": self.log_likelihood,
                "ridge": self.ridge, "separation": self.separation}


def _sigmoid(eta):
    """1 / (1 + exp(-eta)), computed in eta's buffer."""
    with np.errstate(over="ignore"):
        np.exp(np.negative(eta, out=eta), out=eta)
    eta += 1.0
    return np.divide(1.0, eta, out=eta)


def dependent_columns(design: np.ndarray) -> list:
    """The one rule for dependent columns: while the columns left are rank
    deficient, remove the leftmost, never column 0 (the intercept), whose
    removal keeps their rank. The indices removed, ascending."""
    keep, rank = list(range(design.shape[1])), np.linalg.matrix_rank(design)
    while len(keep) > rank:
        keep.remove(next(j for j in keep[1:]
                         if np.linalg.matrix_rank(design[:, [i for i in keep if i != j]]) == rank))
    return sorted(set(range(design.shape[1])) - set(keep))


def _grams(design: np.ndarray, counts: np.ndarray, triu, mu) -> np.ndarray:
    """(F, q, q): the design's Gram matrix under the IRLS weights
    max(mu(1 - mu), 1e-12) * counts of each fit, mu[:, f] being fit f's
    probabilities. triu is np.triu_indices(q).

    More than one fit walks the cells in GRAM_CHUNK blocks, each one product
    of its weights with its upper-triangle column pair products, so no
    (cells x q^2) table is held. One fit keeps the direct product
    (design * w).T @ design, so that the reported fits, some of them
    ill-conditioned, keep their bits."""
    def weights(rows):
        return np.maximum(mu[rows] * (1.0 - mu[rows]), 1e-12) * counts[rows]
    if counts.shape[1] == 1:
        return ((design * weights(slice(None))).T @ design)[None]
    i, j = triu
    packed = np.zeros((counts.shape[1], len(i)))
    for start in range(0, len(design), GRAM_CHUNK):
        rows = slice(start, start + GRAM_CHUNK)
        block = design[rows]
        packed += weights(rows).T @ (block[:, i] * block[:, j])
    gram = np.empty((counts.shape[1], design.shape[1], design.shape[1]))
    gram[:, i, j] = gram[:, j, i] = packed
    return gram


def _hessians(design: np.ndarray, counts: np.ndarray, maps: np.ndarray, triu,
              mu) -> np.ndarray:
    """`_grams` in the coordinates of maps[f]; a coefficient its map drops
    gets a unit diagonal."""
    hess = maps.transpose(0, 2, 1) @ _grams(design, counts, triu, mu) @ maps
    diag = np.arange(hess.shape[1])
    hess[:, diag, diag] += ~maps.any(axis=1)
    return hess


def _fit_folds(design, y, weights, maps):
    """F logit fits of one design by one stacked IRLS loop, which a fit
    leaves once its step is below TOL or after MAX_ITER steps. Fit f weights
    the rows by weights[:, f] and solves for the coefficients that maps[f]
    takes to the design's. One rule covers separation: an unpenalized fit
    that does not converge, because its largest |coefficient| passes
    SEPARATION_COEF_BOUND or it reaches MAX_ITER, is separated and starts
    again from zero under SEPARATION_RIDGE, with a MAX_ITER budget and
    iteration count of its own; so the loop runs at most 2 x MAX_ITER trips.
    A fit whose weighted rows hold one label, which has no finite maximum
    either, takes the same climb. Returns (beta, iterations, converged,
    separation, held) per fit.

    A coefficient whose map column is 0, a constant column's, stays at 0
    (see `_hessians`); so, from the first step, do held[f], the
    `dependent_columns` of fit f's rows (weights[:, f] > 0) under maps[f]."""
    F, q = weights.shape[1], design.shape[1]
    triu = np.triu_indices(q)
    beta, iterations, start = np.zeros((F, q)), np.zeros(F, dtype=int), np.zeros(F, dtype=int)
    converged, separation, live = np.zeros(F, dtype=bool), np.zeros(F, dtype=bool), np.arange(F)
    for trip in range(1, 2 * MAX_ITER + 1):
        b, pen, fold_maps = beta[live], separation[live] * SEPARATION_RIDGE, maps[live]
        wts = weights if len(live) == F else weights[:, live]
        mu = _sigmoid(design @ (fold_maps @ b[..., None])[..., 0].T)
        hess = _hessians(design, wts, fold_maps, triu, mu)
        if trip == 1:
            # at mu = 0.5 this is the Gram matrix / 4: one far from singular
            # means a full-rank fit; hold the rest's dependent columns
            held = [[] for _ in range(F)]
            for f in np.flatnonzero(np.linalg.cond(hess) > 1e8):
                kept = np.flatnonzero(maps[f].any(axis=0))
                rows = (design[weights[:, f] > 0] @ maps[f])[:, kept]
                held[f] = kept[dependent_columns(rows)].tolist()
            if any(held):
                maps = fold_maps = maps * [[~np.isin(np.arange(q), h)] for h in held]
                hess = _hessians(design, wts, fold_maps, triu, mu)
        np.subtract(y[:, None], mu, out=mu)    # the one (cells x fits) buffer
        mu *= wts
        grad = (design.T @ mu).T
        del mu    # before the next iteration allocates its own
        grad = (fold_maps.transpose(0, 2, 1) @ grad[..., None])[..., 0] - pen[:, None] * b
        hess += pen[:, None, None] * np.eye(q)
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        beta[live] = b = b + step
        it = trip - start[live]
        conv = np.abs(step).max(axis=1) < TOL
        stalled = ~conv & (it == MAX_ITER)
        failed = ~conv & (pen == 0.0) & (stalled | (np.abs(b).max(axis=1) > SEPARATION_COEF_BOUND))
        restart = live[failed]
        beta[restart], separation[restart], start[restart] = 0.0, True, trip
        done = conv | (stalled & ~failed)
        converged[live[conv]] = True
        iterations[live[done]] = it[done]
        if not (live := live[~done]).size:
            break
    return beta, iterations, converged, separation, held


def _columns(X) -> np.ndarray:
    """X as a matrix, a vector as one column: integer or bool values of at
    most 32 bits as they are, since float64 holds them exactly; any other
    dtype as float."""
    X = np.asarray(X)
    X = X if X.dtype.kind in "biu" and X.dtype.itemsize <= 4 else X.astype(float, copy=False)
    return X[:, None] if X.ndim == 1 else X


def _inputs(X, y, names, y_dtype):
    """X as `_columns` gives it, y as a y_dtype vector of X's length, and
    one name per column of X, x0, x1, ... by default; a y of another
    length, or names not one per column, is a one-line ValueError."""
    X = _columns(X)
    y = np.asarray(y, dtype=y_dtype)
    if len(y) != X.shape[0]:
        raise ValueError("X and y length mismatch")
    if names is None:
        return X, y, [f"x{j}" for j in range(X.shape[1])]
    if len(names) != X.shape[1]:
        raise ValueError(f"{len(names)} feature names for {X.shape[1]} columns")
    return X, y, list(names)


def fit_logistic(X: np.ndarray, y: np.ndarray,
                 feature_names: Optional[Sequence] = None) -> RegressionFit:
    """Maximum-likelihood logit fit via IRLS. X excludes the intercept
    column, which is added internally; a separated fit (see `_fit_folds`)
    reports its ridge, which its Wald information carries. A rank-deficient
    X raises RankDeficientError, naming the columns a CV fit would hold."""
    X, y, names = _inputs(X, y, feature_names, float)
    design = np.column_stack([np.ones(len(y)), X])
    del X    # the design holds the columns now: a temporary X is freed
    weights, maps = np.ones((len(y), 1)), np.eye(design.shape[1])[None]
    beta, iterations, converged, separation, held = (
        v[0] for v in _fit_folds(design, y, weights, maps))
    if held:
        raise RankDeficientError("design matrix is rank deficient; dependent columns: "
                                 f"{[names[j - 1] for j in held]}")
    ridge = SEPARATION_RIDGE if separation else 0.0
    mu = _sigmoid(design @ beta)
    info = _grams(design, weights, None, mu[:, None])[0] + ridge * np.eye(design.shape[1])
    cov = np.linalg.inv(info)
    se = np.sqrt(np.diag(cov))
    ll = float(np.sum(y * np.log(np.clip(mu, 1e-300, None))
                      + (1 - y) * np.log(np.clip(1 - mu, 1e-300, None))))
    return RegressionFit(beta, se, beta / se, bool(converged), int(iterations), ll, names,
                         ridge=float(ridge), separation=bool(separation))


@dataclass
class CvReport:
    fold_accuracies: np.ndarray
    mean_accuracy: float
    predictions: np.ndarray     # per-example predicted labels, input order
    flagged_folds: list = field(default_factory=list)
    min_margin: float = math.inf    # smallest |p - 0.5| over the test predictions
    unconverged_folds: list = field(default_factory=list)   # stopped at MAX_ITER
    held_columns: dict = field(default_factory=dict)    # fold -> names held at 0 as dependent


def _distinct_cells(X: np.ndarray, y: np.ndarray):
    """Group the rows of (X, y) into distinct cells: the first row of each
    cell in `np.lexsort` order (X[:, -1] first, y last), and each row's cell
    number."""
    keys = (y, *X.T)
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for col in keys:
        sorted_col = col[order]
        new[1:] |= sorted_col[1:] != sorted_col[:-1]
    cell = np.empty(len(order), dtype=np.intp)
    cell[order] = np.cumsum(new) - 1
    return order[new], cell


def _folds(cell: np.ndarray, n_cells: int, folds: int, seed):
    """The seeded shuffled k-fold split: each row's fold, and the (cells x
    folds) table of test counts."""
    fold = np.empty(len(cell), dtype=np.intp)
    perm = np.random.default_rng(seed).permutation(len(cell))
    for f, rows in enumerate(np.array_split(perm, folds)):
        fold[rows] = f
    test = np.bincount(cell * folds + fold, minlength=n_cells * folds)
    # no count exceeds the rows: the narrowest type that holds them saves memory
    return fold, test.astype(np.min_scalar_type(len(cell))).reshape(n_cells, folds)


def _cv_cells(X, y, folds: int, seed, names=None):
    """The checks, cells and folds of a seeded k-fold CV of labels y on X:
    (X, y, names, rep, cell, fold, test), names as `_inputs` gives them.
    Besides `_inputs`' checks, a `folds` below 2, or fewer rows than
    folds, is a one-line ValueError."""
    X, y, names = _inputs(X, y, names, int)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(y) < folds:
        raise ValueError("need at least one example per fold")
    rep, cell = _distinct_cells(X, y)
    fold, test = _folds(cell, len(rep), folds, seed)
    return X, y, names, rep, cell, fold, test


def _standardizing_maps(X: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """For each f, the map from the coefficients of a fit on the rows that
    counts[:, f] repeats the cells X by, z-scored (sample sd), to those of
    [1, X]: (F, q, q), intercept first, a zero-variance column held at 0."""
    n = counts.sum(axis=0)
    mean = np.stack([cf @ X for cf in counts.T]) / n[:, None]
    var = np.stack([cf @ np.square(d, out=d) for cf, d in zip(counts.T, (X - m for m in mean))])
    sd = np.sqrt(var / np.maximum(n - 1, 1)[:, None])   # a one-row fold's variance is 0
    scale = np.divide(1.0, sd, out=np.zeros_like(sd), where=sd > 0)
    maps = np.repeat(np.eye(X.shape[1] + 1)[None], len(n), axis=0)
    maps[:, 0, 1:], maps[:, 1:, 1:] = -mean * scale, maps[:, 1:, 1:] * scale[:, None]
    return maps


def _crossval_cells(design: np.ndarray, y: np.ndarray, test: np.ndarray, names,
                    all_cells: bool = False):
    """CV on cells: cell c (design row design[c], label y[c]) is test[c, f]
    rows of fold f's test set; names are the predictors. Each fold fits its
    training rows z-scored (see `_standardizing_maps`) by their own
    statistics. With `all_cells`, the stack also fits every row as a fold
    with no test rows. The report lists the folds that `_fit_folds` fitted
    under its separation ridge, or stopped at MAX_ITER, and held columns in.
    Returns a CvReport without predictions, the (cells x folds) test
    probabilities, and the all-cells fit's coefficients (None without it)."""
    F = test.shape[1]
    held_out = np.pad(test, ((0, 0), (0, 1))) if all_cells else test
    total = test.sum(axis=1, keepdims=True, dtype=test.dtype)   # no row sum exceeds n
    train = total - held_out
    maps = _standardizing_maps(design[:, 1:], train)
    beta, _, converged, separation, held = _fit_folds(design, y, train, maps)
    del train
    prob = _sigmoid(design @ (maps[:F] @ beta[:F, :, None])[..., 0].T)
    accuracies = np.sum(test, axis=0, where=(prob > 0.5) == y[:, None]) / test.sum(axis=0)
    return (CvReport(accuracies, float(accuracies.mean()), None,
                     np.flatnonzero(separation[:F]).tolist(),
                     float(np.abs(prob[test > 0] - 0.5).min()),
                     np.flatnonzero(~converged[:F]).tolist(),
                     {f: [names[j - 1] for j in h] for f, h in enumerate(held[:F]) if h}),
            prob, beta[F] if all_cells else None)


def crossval_accuracy(X: np.ndarray, y: np.ndarray, folds: int = 10, seed=0,
                      feature_names: Optional[Sequence] = None) -> CvReport:
    """Seeded shuffled k-fold CV of the logistic model. Each training fold,
    and its test fold, is standardized by that training fold's statistics;
    each fold is fitted on its counts of the distinct (row, label) cells."""
    X, y, names, rep, cell, fold, test = _cv_cells(X, y, folds, seed, feature_names)
    report, prob, _ = _crossval_cells(np.column_stack([np.ones(len(rep)), X[rep]]), y[rep],
                                      test, names)
    report.predictions = (prob[cell, fold] > 0.5).astype(int)
    return report


@dataclass(frozen=True)
class McNemarResult:
    statistic: float
    p_two_tailed: float
    n01: int
    n10: int


def mcnemar(pred_a, pred_b, truth) -> McNemarResult:
    """Paired test on discordant predictions.

    n01: a correct, b wrong; n10: a wrong, b correct. Exact two-tailed
    binomial p when n01 + n10 < 25, else chi-square with continuity
    correction (|n01 - n10| - 1)^2 / (n01 + n10).
    """
    pred_a = np.asarray(pred_a, dtype=int)
    pred_b = np.asarray(pred_b, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if not (len(pred_a) == len(pred_b) == len(truth)):
        raise ValueError("prediction and truth vectors must have equal length")
    a_ok = pred_a == truth
    b_ok = pred_b == truth
    n01 = int(np.sum(a_ok & ~b_ok))
    n10 = int(np.sum(~a_ok & b_ok))
    n = n01 + n10
    if n < MCNEMAR_EXACT_THRESHOLD:
        m = min(n01, n10)
        tail = sum(math.comb(n, i) for i in range(m + 1)) / 2.0 ** n
        p = min(1.0, 2.0 * tail)
        return McNemarResult(float(m), p, n01, n10)
    stat = (abs(n01 - n10) - 1.0) ** 2 / n
    # chi-square survival with 1 df
    p = math.erfc(math.sqrt(stat / 2.0))
    return McNemarResult(stat, p, n01, n10)


@dataclass
class RfecvResult:
    selected: list                       # feature names, original order
    curve: dict                          # size -> mean CV accuracy
    sets_by_size: dict                   # size -> feature names evaluated
    min_margin: float = math.inf         # smallest CvReport.min_margin of the curve
    held_columns: dict = field(default_factory=dict)    # size -> its CvReport.held_columns


def _rfecv_step(X: np.ndarray, y: np.ndarray, test: np.ndarray, names):
    """One RFECV size on cells X, y (columns `names`) with test counts
    `test`, regrouped: the CV report, and the column of smallest
    |standardized coefficient|."""
    sub, merged = _distinct_cells(X, y)
    counts = np.zeros((len(sub), test.shape[1]), dtype=test.dtype)
    np.add.at(counts, merged, test)
    design = np.column_stack([np.ones(len(sub)), X[sub]])
    del X, merged    # the design holds the cells now; free them before the fits
    report, _, beta = _crossval_cells(design, y[sub], counts, names,
                                      all_cells=design.shape[1] > 2)
    if beta is None:
        return report, 0
    # a constant or dependent column is held at 0: it goes first
    return report, int(np.argmin(np.abs(beta[1:])))


def rfecv(X: np.ndarray, y: np.ndarray, folds: int = 10, seed=0,
          feature_names: Optional[Sequence] = None) -> RfecvResult:
    """Recursive feature elimination with cross-validation, step size 1.

    At each size the feature with smallest |standardized coefficient| in a
    full-data fit is dropped; the smallest set within 1e-9 of the best mean
    CV accuracy is selected. The rows are grouped into distinct (row, label)
    cells once, with every column; each size regroups those cells, and fits
    its CV folds and its elimination fit in one stack on the cell counts.
    """
    X = _columns(X)
    if X.shape[1] < 2:
        raise ValueError("rfecv needs at least 2 candidate features")
    X, y, names, rep, _, _, test = _cv_cells(X, y, folds, seed, feature_names)
    active = list(range(X.shape[1]))
    curve, sets_by_size, margin, held = {}, {}, math.inf, {}
    while active:
        sets_by_size[len(active)] = [names[j] for j in active]
        report, weakest = _rfecv_step(X[np.ix_(rep, active)], y[rep], test,
                                      sets_by_size[len(active)])
        curve[len(active)] = report.mean_accuracy
        margin = min(margin, report.min_margin)
        if report.held_columns:
            held[len(active)] = report.held_columns
        active.pop(weakest)
    best = max(curve.values())
    chosen_size = min(s for s, acc in curve.items() if acc >= best - 1e-9)
    return RfecvResult(sets_by_size[chosen_size], curve, sets_by_size, margin, held)


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need equal-length vectors with at least 2 entries")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise ValueError("pearson undefined for zero-variance input")
    return float(xc @ yc) / denom
