"""Logistic regression with Wald inference, cross-validation, McNemar's
test, recursive feature elimination, and Pearson correlation.

The logistic fit is iteratively reweighted least squares, matching the
classic GLM reference implementations: convergence when the largest
coefficient change drops below 1e-8, standard errors from the inverse
observed information.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .features import zscore, zscore_stats

__all__ = [
    "RegressionFit",
    "CvReport",
    "McNemarResult",
    "RfecvResult",
    "RankDeficientError",
    "fit_logistic",
    "predict_proba",
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
    ridge: float = 0.0
    separation: bool = False
    feature_names: Optional[list] = None

    def to_dict(self) -> dict:
        names = self.feature_names or [f"x{i}" for i in range(len(self.coefficients) - 1)]
        rows = []
        for name, b, se, z in zip(["intercept"] + list(names),
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
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-eta))


def _check_rank(X: np.ndarray, names) -> None:
    rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        # name the columns loading on the null space
        _, _, vt = np.linalg.svd(X, full_matrices=False)
        null = np.abs(vt[-1])
        guilty = [names[j] if j < len(names) else f"col{j}"
                  for j in np.flatnonzero(null > 0.1)]
        raise RankDeficientError(
            f"design matrix is rank deficient; collinear columns: {guilty}")


def fit_logistic(X: np.ndarray, y: np.ndarray, ridge: float = 0.0,
                 feature_names: Optional[list] = None,
                 weights: Optional[np.ndarray] = None) -> RegressionFit:
    """Maximum-likelihood logit fit via IRLS. X excludes the intercept
    column, which is added internally; ridge > 0 is reserved for the
    documented fallback on detected separation.

    `weights` are row frequencies (default all ones): a grouped binomial
    fit on the distinct (x, y) rows, each weighted by its count, is the
    same estimator as the fit on every row."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float)
    if len(y) != X.shape[0]:
        raise ValueError("X and y length mismatch")
    if weights is None:
        weights = np.ones(len(y))
    weights = np.asarray(weights, dtype=float)
    if weights.shape != y.shape:
        raise ValueError("weights and y length mismatch")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and non-negative")
    design = np.column_stack([np.ones(len(y)), X])
    _check_rank(design if weights.all() else design[weights > 0],
                ["intercept"] + list(feature_names or []))
    p_cols = design.shape[1]

    def irls(penalty):
        beta = np.zeros(p_cols)
        ridge_eye = penalty * np.eye(p_cols)
        for it in range(1, MAX_ITER + 1):
            mu = _sigmoid(design @ beta)
            w = np.clip(mu * (1.0 - mu), 1e-12, None)
            w *= weights
            grad = design.T @ (weights * (y - mu)) - penalty * beta
            hess = (design.T * w) @ design + ridge_eye
            step = np.linalg.solve(hess, grad)
            beta = beta + step
            if np.max(np.abs(step)) < TOL:
                return beta, it, True
            if np.max(np.abs(beta)) > SEPARATION_COEF_BOUND and penalty == 0.0:
                return beta, it, False
        return beta, MAX_ITER, False

    separation = False
    beta, iterations, converged = irls(ridge)
    if not converged and ridge == 0.0 and np.max(np.abs(beta)) > SEPARATION_COEF_BOUND:
        separation = True
        ridge = SEPARATION_RIDGE
        beta, iterations, converged = irls(ridge)

    mu = _sigmoid(design @ beta)
    w = np.clip(mu * (1.0 - mu), 1e-12, None)
    w *= weights
    info = (design.T * w) @ design + ridge * np.eye(p_cols)
    cov = np.linalg.inv(info)
    se = np.sqrt(np.diag(cov))
    ll = float(np.sum(weights * (y * np.log(np.clip(mu, 1e-300, None))
                                 + (1 - y) * np.log(np.clip(1 - mu, 1e-300, None)))))
    return RegressionFit(beta, se, beta / se, converged, iterations, ll,
                         ridge=ridge, separation=separation,
                         feature_names=list(feature_names) if feature_names else None)


def predict_proba(fit: RegressionFit, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    design = np.column_stack([np.ones(X.shape[0]), X])
    return _sigmoid(design @ fit.coefficients)


@dataclass
class CvReport:
    fold_accuracies: np.ndarray
    mean_accuracy: float
    predictions: np.ndarray     # per-example predicted labels, input order
    flagged_folds: list = field(default_factory=list)


def _distinct_cells(X: np.ndarray, y: np.ndarray):
    """Group the rows of X: one representative row index per distinct row,
    and each row's (row, label) cell number 2 * group + y."""
    order = np.lexsort(X.T)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for col in X.T:
        sorted_col = col[order]
        new[1:] |= sorted_col[1:] != sorted_col[:-1]
    key = np.empty(len(order), dtype=np.intp)
    key[order] = np.cumsum(new) - 1
    key *= 2
    key += y
    return order[new], key


def _cells(rep: np.ndarray, key: np.ndarray):
    """The occupied (row, label) cells among the given cell numbers: a
    representative row index, the label and the count of each, the data of
    a grouped binomial fit."""
    counts = np.bincount(key)
    cells = np.flatnonzero(counts)
    return rep[cells // 2], cells % 2, counts[cells]


def crossval_accuracy(X: np.ndarray, y: np.ndarray, folds: int = 10,
                      seed=0, zscore_mode: str = "fold") -> CvReport:
    """Seeded shuffled k-fold CV of the logistic model.

    zscore_mode "fold" standardizes each training fold and applies the
    stored statistics to its test fold; "global" standardizes once on the
    full data before splitting. Each fold is fitted on its distinct
    (row, label) cells weighted by their counts.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=int)
    n = len(y)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < folds:
        raise ValueError("need at least one example per fold")
    if zscore_mode not in ("fold", "global"):
        raise ValueError(f"unknown zscore mode: {zscore_mode!r}")

    if zscore_mode == "global":
        X, _, _ = zscore(X)
    rep, key = _distinct_cells(X, y)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignments = np.array_split(perm, folds)

    accuracies = np.empty(folds)
    predictions = np.empty(n, dtype=int)
    flagged = []
    for f, test_idx in enumerate(assignments):
        in_train = np.ones(n, dtype=bool)
        in_train[test_idx] = False
        train_idx = perm[in_train[perm]]
        # the statistics come from the fold's rows in permutation order, and
        # before the cells are copied, which keeps the peak memory down
        if zscore_mode == "fold":
            stats, _ = zscore_stats(X[train_idx])
        rows, ytr, wtr = _cells(rep, key[train_idx])
        Xtr, Xte = X[rows], X[test_idx]
        if zscore_mode == "fold":
            Xtr, _, _ = zscore(Xtr, stats)
            Xte, _, _ = zscore(Xte, stats)
        if ytr.min() == ytr.max():
            fit = fit_logistic(Xtr, ytr, ridge=SEPARATION_RIDGE, weights=wtr)
            flagged.append(f)
        else:
            fit = fit_logistic(Xtr, ytr, weights=wtr)
            if fit.separation:
                flagged.append(f)
        pred = (predict_proba(fit, Xte) > 0.5).astype(int)
        predictions[test_idx] = pred
        accuracies[f] = float(np.mean(pred == y[test_idx]))
    return CvReport(accuracies, float(accuracies.mean()), predictions, flagged)


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
    if n == 0:
        return McNemarResult(0.0, 1.0, 0, 0)
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


def rfecv(X: np.ndarray, y: np.ndarray, folds: int = 10, seed=0,
          feature_names: Optional[Sequence] = None) -> RfecvResult:
    """Recursive feature elimination with cross-validation, step size 1.

    At each size the feature with smallest |standardized coefficient| in a
    full-data fit is dropped; the smallest set within 1e-9 of the best mean
    CV accuracy is selected. Like the CV folds, the elimination fit runs on
    the distinct (row, label) cells weighted by their counts.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1 or X.shape[1] < 2:
        raise ValueError("rfecv needs at least 2 candidate features")
    y = np.asarray(y, dtype=int)
    p = X.shape[1]
    names = list(feature_names) if feature_names is not None else [f"x{j}" for j in range(p)]
    active = list(range(p))
    curve, sets_by_size = {}, {}
    while True:
        size = len(active)
        report = crossval_accuracy(X[:, active], y, folds=folds, seed=seed)
        curve[size] = report.mean_accuracy
        sets_by_size[size] = [names[j] for j in active]
        if size == 1:
            break
        stats, _ = zscore_stats(X[:, active])
        rows, yc, wc = _cells(*_distinct_cells(X[:, active], y))
        Zc, _, _ = zscore(X[np.ix_(rows, active)], stats)
        fit = fit_logistic(Zc, yc, weights=wc)
        weakest = int(np.argmin(np.abs(fit.coefficients[1:])))
        active.pop(weakest)
    best = max(curve.values())
    chosen_size = min(s for s, acc in curve.items() if acc >= best - 1e-9)
    return RfecvResult(sets_by_size[chosen_size], curve, sets_by_size)


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
