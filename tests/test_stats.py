import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats as sps
from scipy.special import expit

from deplen.analysis import (SyntheticSpec, build_pairwise_dataset, generate_synthetic_corpus,
                             zscore)
from deplen import stats
from deplen.stats import (GRAM_CHUNK, MAX_ITER, SEPARATION_RIDGE, TOL, RankDeficientError,
                          _columns, _distinct_cells, _fit_folds, _grams, crossval_accuracy,
                          fit_logistic, mcnemar, pearson, rfecv)

import oracles
from conftest import corpus_of, traced


def simulate_logistic(rng, n, beta, intercept=0.0):
    X = rng.normal(size=(n, len(beta)))
    p = 1.0 / (1.0 + np.exp(-(intercept + X @ np.asarray(beta))))
    y = (rng.random(n) < p).astype(int)
    return X, y


@st.composite
def integer_designs(draw):
    """Small integer designs with many repeated rows, and random labels."""
    n = draw(st.integers(8, 120))
    p = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return X, y


class TestFitLogistic:
    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(12)
        X, y = simulate_logistic(rng, 50_000, [0.5, -1.0, 2.0])
        fit = fit_logistic(X, y)
        assert fit.converged
        assert np.all(np.abs(fit.coefficients[1:] - [0.5, -1.0, 2.0]) < 0.05)

    def test_null_model_z_values(self):
        rng = np.random.default_rng(5)
        big_z = 0
        for _ in range(100):
            X = rng.normal(size=(2000, 2))
            y = (rng.random(2000) < 0.5).astype(int)
            fit = fit_logistic(X, y)
            if np.any(np.abs(fit.z_values[1:]) >= 3):
                big_z += 1
        assert big_z <= 5

    def test_intercept_only_balanced(self):
        y = np.array([0, 1] * 500)
        X = np.random.default_rng(0).normal(size=(1000, 1))
        fit = fit_logistic(X, y)
        assert abs(fit.coefficients[0]) < 0.15

    def test_z_is_coef_over_se(self):
        rng = np.random.default_rng(3)
        X, y = simulate_logistic(rng, 2000, [1.0])
        fit = fit_logistic(X, y)
        assert np.allclose(fit.z_values, fit.coefficients / fit.std_errors)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(30, 200), width=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_textbook_fit(self, n, width, seed):
        """Where a finite maximum exists, the IRLS fit is scipy's minimum of
        the negative log-likelihood, and its Wald standard errors are the
        inverse Hessian's there: both to 1e-6 relative, with a 1e-2 floor
        under a coefficient near 0."""
        rng = np.random.default_rng(seed)
        X = rng.integers(-3, 4, size=(n, width))
        beta = rng.normal(scale=0.7, size=width + 1)
        y = (rng.random(n) < expit(beta[0] + X @ beta[1:])).astype(int)
        try:
            fit = fit_logistic(X, y)
        except RankDeficientError:
            assume(False)
        assume(not fit.separation)
        coefficients, std_errors = oracles.fit_logistic(X, y)
        assert fit.converged
        assert np.all(np.abs(fit.coefficients - coefficients)
                      <= 1e-6 * np.maximum(np.abs(coefficients), 1e-2))
        assert np.all(np.abs(fit.std_errors - std_errors) <= 1e-6 * std_errors)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(design=integer_designs(), normal=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
           offset=st.integers(-2, 2))
    def test_separated_fit_is_the_textbook_ridge_fit(self, design, normal, offset):
        """Labels by the side of a line through the design separate it: a
        fit that reports separation and converged minimizes the penalized
        negative log-likelihood under its ridge, as scipy finds it, to 1e-12
        relative in the objective and 1e-6 in the coefficients."""
        X, _ = design
        y = (X @ np.array(normal[:X.shape[1]]) > offset).astype(int)
        try:
            fit = fit_logistic(X, y)
        except RankDeficientError:
            assume(False)
        assume(fit.separation and fit.converged)
        coefficients, _ = oracles.fit_logistic(X, y, fit.ridge)
        minimum = oracles.penalized_nll(X, y, coefficients, fit.ridge)
        assert abs(oracles.penalized_nll(X, y, fit.coefficients, fit.ridge) - minimum) \
            <= 1e-12 * abs(minimum)
        assert np.all(np.abs(fit.coefficients - coefficients)
                      <= 1e-6 * np.maximum(np.abs(coefficients), 1.0))

    def test_separation_fallback(self):
        X = np.concatenate([-np.ones(20), np.ones(20)])[:, None]
        y = np.concatenate([np.zeros(20), np.ones(20)]).astype(int)
        fit = fit_logistic(X, y)
        assert fit.separation
        assert fit.ridge > 0

    @pytest.mark.parametrize("x, labels", [
        (np.repeat([-1.0, 1.0], 20), np.ones(40)),
        (np.repeat([-1.0, 1.0], 20), np.repeat([0.0, 1.0], 20)),
        # IRLS weights reach their 1e-12 floor before any |coefficient| reaches the
        # bound: the climb stalls near |beta| = 16 and MAX_ITER ends it
        (np.array([-1.0, 3.0]), np.array([0.0, 1.0])),
        (np.array([-2.0, 2.0]), np.array([0.0, 1.0]))],
        ids=["one-label", "separated", "stalled-at-1-3", "stalled-at-2-2"])
    def test_separated_fit_counts_its_iterations_under_the_ridge(self, monkeypatch, x, labels):
        """Rows of one label, or rows that a threshold separates, have no
        finite maximum: the fit climbs unpenalized until its largest
        |coefficient| passes the bound or MAX_ITER ends it, trips that its
        iterations leave out. From there it is Newton's method from zero under
        the ridge: the same coefficients, iterations and standard errors."""
        trips, hessians = [], stats._hessians
        monkeypatch.setattr(stats, "_hessians", lambda *a: trips.append(1) or hessians(*a))
        fit = fit_logistic(x, labels)
        assert fit.separation and fit.converged and fit.ridge == SEPARATION_RIDGE
        assert len(trips) > fit.iterations
        Z = np.column_stack([np.ones(len(x)), x])
        beta, iterations, converged = ridge_newton(Z, labels, np.ones(len(x)))
        assert (fit.iterations, fit.converged) == (iterations, converged)
        mu = expit(Z @ beta)
        info = (Z.T * np.maximum(mu * (1.0 - mu), 1e-12)) @ Z + SEPARATION_RIDGE * np.eye(2)
        assert np.allclose(fit.coefficients, beta, rtol=1e-9, atol=1e-9)
        assert np.allclose(fit.std_errors, np.sqrt(np.diag(np.linalg.inv(info))), rtol=1e-9)

    def test_a_temporary_matrix_is_not_held_beside_the_design(self):
        """X is dropped once the design holds its columns: given a matrix
        that nothing else refers to, the fit peaks no higher than on a matrix
        held elsewhere. Holding X to the end added all of X.nbytes."""
        rng = np.random.default_rng(3)
        X, y = simulate_logistic(rng, 20_000, np.linspace(-1.0, 1.0, 6))
        _, _, held = traced(fit_logistic, X, y)
        _, _, temporary = traced(lambda: fit_logistic(X * 1.0, y))
        assert temporary - held <= X.nbytes / 2

    def test_rank_deficiency_named(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        y = (rng.random(200) < 0.5).astype(int)
        # the columns that a CV fit would hold at 0: the leftmost dependent ones
        cases = [(np.column_stack([x, 2 * x]), ["a", "a_doubled"], ["a"]),
                 (np.column_stack([x, 2 * x]), None, ["x0"]),
                 (np.column_stack([x, np.full(200, 3.0)]), ["x", "flat"], ["flat"]),
                 (np.column_stack([x, x + 1.0, rng.normal(size=200)]), None, ["x0"])]
        for X, names, guilty in cases:
            with pytest.raises(RankDeficientError) as err:
                fit_logistic(X, y, feature_names=names)
            assert str(err.value) == f"design matrix is rank deficient; dependent columns: {guilty}"

    def test_full_rank_fit_skips_the_svd(self, monkeypatch):
        """A well-conditioned design passes the Gram prefilter, so the rank
        is never computed from the rows."""
        calls, rank = [], np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank",
                            lambda *a, **k: calls.append(1) or rank(*a, **k))
        X, y = simulate_logistic(np.random.default_rng(2), 500, [1.0, -0.5, 0.25])
        assert fit_logistic(X, y).converged
        assert calls == []

    def test_one_gram_matrix_per_iteration_and_one_for_the_errors(self, monkeypatch):
        """The rank check reads IRLS's first Hessian and the Wald information
        is one more `_grams` call: none is built twice."""
        calls, grams = [], stats._grams
        monkeypatch.setattr(stats, "_grams", lambda *a: calls.append(1) or grams(*a))
        X, y = simulate_logistic(np.random.default_rng(2), 500, [1.0, -0.5, 0.25])
        fit = fit_logistic(X, y)
        assert fit.converged and not fit.separation
        assert len(calls) == fit.iterations + 1

    def test_unnamed_columns_are_x0_x1(self):
        X, y = simulate_logistic(np.random.default_rng(4), 300, [1.0, -1.0])
        fit = fit_logistic(X, y)
        assert fit.feature_names == ["x0", "x1"]
        assert [row["predictor"] for row in fit.to_dict()["rows"]] == ["intercept", "x0", "x1"]

    def test_std_errors_match_fd_hessian(self):
        # inverse observed information vs centered finite differences
        rng = np.random.default_rng(77)
        for trial in range(20):
            X, y = simulate_logistic(rng, 800, rng.normal(size=2))
            fit = fit_logistic(X, y)
            design = np.column_stack([np.ones(len(y)), X])

            def ll(beta):
                eta = design @ beta
                return float(y @ eta - np.sum(np.log1p(np.exp(eta))))

            h = 1e-4
            p = len(fit.coefficients)
            H = np.empty((p, p))
            for i in range(p):
                for j in range(p):
                    ei = np.eye(p)[i] * h
                    ej = np.eye(p)[j] * h
                    b = fit.coefficients
                    H[i, j] = (ll(b + ei + ej) - ll(b + ei - ej)
                               - ll(b - ei + ej) + ll(b - ei - ej)) / (4 * h * h)
            se_fd = np.sqrt(np.diag(np.linalg.inv(-H)))
            assert np.allclose(fit.std_errors, se_fd, rtol=1e-5)

    def test_base_rate_identity(self):
        rng = np.random.default_rng(8)
        X, y = simulate_logistic(rng, 5000, [0.7], intercept=-0.4)
        fit = fit_logistic(X, y)
        assert abs(oracles.predict_proba(fit, X).mean() - y.mean()) < 1e-8

    def test_prediction_scale_invariance(self):
        rng = np.random.default_rng(10)
        X, y = simulate_logistic(rng, 3000, [0.5, -0.8])
        Z, _ = zscore(X)
        base = oracles.predict_proba(fit_logistic(Z, y), Z) > 0.5
        Z2 = Z.copy()
        Z2[:, 1] *= 7.5
        rescaled = oracles.predict_proba(fit_logistic(Z2, y), Z2) > 0.5
        assert np.array_equal(base, rescaled)


def grouped(X, y):
    """The distinct (x, y) rows and their counts."""
    cells, counts = np.unique(np.column_stack([X, y]), axis=0, return_counts=True)
    return cells[:, :-1], cells[:, -1].astype(int), counts


class TestWeightedFit:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(design=integer_designs())
    def test_grouped_fit_equals_all_rows_fit(self, design):
        # one fit on the distinct cells weighted by their counts is the fit on every row
        X, y = design
        Xg, yg, counts = grouped(X, y)
        cells = np.column_stack([np.ones(len(yg)), Xg])
        names = ["intercept", *(f"x{j}" for j in range(X.shape[1]))]
        beta, iterations, converged, separation, held = (
            v[0] for v in _fit_folds(cells, yg, counts[:, None].astype(float),
                                     np.eye(cells.shape[1])[None]))
        if held:   # the columns that the fit on every row names
            with pytest.raises(RankDeficientError, match=re.escape(str([names[j] for j in held]))):
                fit_logistic(X, y)
            return
        full = fit_logistic(X, y)
        assert (bool(converged), bool(separation)) == (full.converged, full.separation)
        assert iterations == full.iterations
        mu = 1.0 / (1.0 + np.exp(-(cells @ beta)))
        info = (cells.T * (counts * np.clip(mu * (1.0 - mu), 1e-12, None))) @ cells \
            + separation * SEPARATION_RIDGE * np.eye(cells.shape[1])
        std_errors = np.sqrt(np.diag(np.linalg.inv(info)))
        log_likelihood = np.sum(counts * (yg * np.log(np.clip(mu, 1e-300, None))
                                          + (1 - yg) * np.log(np.clip(1 - mu, 1e-300, None))))
        for got, want in [(beta, full.coefficients), (std_errors, full.std_errors),
                          (log_likelihood, full.log_likelihood)]:
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


@st.composite
def stacked_fits(draw):
    """The distinct (x, y) cells of a small integer design, and 1-4 fits of
    them: integer counts of each cell per fit."""
    X, y = draw(integer_designs())
    cells = np.unique(np.column_stack([X, y]), axis=0)
    folds = draw(st.integers(1, 4))
    counts = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=len(cells),
                                             max_size=len(cells)),
                                    min_size=folds, max_size=folds))).T
    assume(counts.any(axis=0).all())
    return cells[:, :-1], cells[:, -1].astype(int), counts


def quasi_separated(*counts):
    """Cells x = -1, 2, 2 with labels 0, 0, 1, one fit per count triple:
    x = 2 holds both labels, so no unpenalized fit converges or passes the
    coefficient bound, and each is refitted under the ridge after MAX_ITER."""
    return np.array([[-1.0], [2.0], [2.0]]), np.array([0, 0, 1]), np.array(counts).T


@st.composite
def separating_fits(draw):
    """`stacked_fits`, in half the draws relabelled by the side of a line
    through the design, so that most of their fits separate."""
    X, y, counts = draw(stacked_fits())
    if draw(st.booleans()):
        normal = draw(st.lists(st.integers(-2, 2), min_size=X.shape[1], max_size=X.shape[1]))
        y = (X @ np.array(normal) > draw(st.integers(-2, 2))).astype(int)
    return X, y, counts


# cells x = -1, 0, 1, 2, 2 with labels 0, 0, 1, 0, 1 and six fits of them: one
# quasi-separated, live and unpenalized for MAX_ITER trips, then restarted;
# three that pass the coefficient bound and restart at trips 14, 14 and 15
# beside it; one whose rows hold one label, which restarts at trip 35; and one
# that converges unpenalized
STAGGERED_SEPARATION = (np.array([[-1.0], [0.0], [1.0], [2.0], [2.0]]), np.array([0, 0, 1, 0, 1]),
                        np.array([(1, 0, 0, 1, 1), (0, 1, 1, 0, 0), (0, 3, 1, 0, 0),
                                  (1, 1, 2, 0, 0), (1, 1, 0, 0, 0), (1, 2, 3, 1, 1)]).T)


class TestStackedFits:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=stacked_fits())
    @example(case=quasi_separated((1, 1, 1)))
    @example(case=quasi_separated((1, 1, 1), (1, 2, 2), (2, 1, 1)))
    @example(case=quasi_separated((2, 3, 0)))    # one label
    @example(case=STAGGERED_SEPARATION)
    def test_stacked_fits_equal_one_fold_fits(self, case):
        """Each stacked fit on cell counts is the fit on the rows they
        repeat. A fit that holds columns at 0 is the fit on its other
        columns, and names the columns whose RankDeficientError the fit on
        all of them raises."""
        X, y, counts = case
        design = np.column_stack([np.ones(len(y)), X])
        folds, q = counts.shape[1], design.shape[1]
        beta, iterations, converged, separation, held = _fit_folds(
            design, y, counts, np.broadcast_to(np.eye(q), (folds, q, q)))
        for f, c in enumerate(counts.T):
            rows, labels = np.repeat(X, c, axis=0), np.repeat(y, c)
            assert held[f] == oracles.dependent_columns(np.repeat(design, c, axis=0))
            kept = [j for j in range(q) if j not in held[f]]
            if held[f]:
                with pytest.raises(RankDeficientError,
                                   match=re.escape(str([f"x{j - 1}" for j in held[f]]))):
                    fit_logistic(rows, labels)
                assert not beta[f, held[f]].any()
            fit = fit_logistic(rows[:, [j - 1 for j in kept[1:]]], labels)
            assert (iterations[f], converged[f], separation[f]) == (
                fit.iterations, fit.converged, fit.separation)
            assert converged[f] or separation[f]    # no unpenalized fit ends unconverged
            assert np.allclose(beta[f, kept], fit.coefficients, rtol=1e-9, atol=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=separating_fits(), standardized=st.booleans())
    @example(case=quasi_separated((2, 3, 0)), standardized=False)
    @example(case=STAGGERED_SEPARATION, standardized=True)
    def test_separated_fits_are_ridge_fits_from_zero(self, case, standardized):
        """Each separated fit, in its map's coordinates (identity, or the CV
        folds' z-scoring), is what plain Newton steps from zero on the
        SEPARATION_RIDGE-penalized log-likelihood give: the same iterations
        and convergence. One that converged is a stationary point: its
        penalized score X'(w(y - mu)) - ridge * beta vanishes to rounding."""
        X, y, counts = case
        design = np.column_stack([np.ones(len(y)), X])
        folds, q = counts.shape[1], design.shape[1]
        maps = (stats._standardizing_maps(X, counts) if standardized
                else np.broadcast_to(np.eye(q), (folds, q, q)))
        beta, iterations, converged, separation, held = _fit_folds(design, y, counts, maps)
        for f in np.flatnonzero(separation):
            Z, w = design @ maps[f], counts[:, f]
            Z[:, held[f]] = 0.0    # held at 0, as a zero map column is
            want = ridge_newton(Z, y, w)
            assert (iterations[f], converged[f]) == want[1:]
            # the two summation orders part by up to ~1e-6 on ill-conditioned fits
            assert np.allclose(beta[f], want[0], rtol=1e-5, atol=1e-9)
            if converged[f]:
                score = Z.T @ (w * (y - expit(Z @ beta[f]))) - SEPARATION_RIDGE * beta[f]
                scale = max(1.0, np.abs(Z.T @ (w * y)).max(), w.sum())
                assert np.abs(score).max() <= 1e-9 * scale


def ridge_newton(Z, y, w):
    """Newton's method from zero on the SEPARATION_RIDGE-penalized
    log-likelihood of rows Z, labels y and row weights w, with IRLS's weight
    floor: (coefficients, steps, whether the last step was below TOL)."""
    b = np.zeros(Z.shape[1])
    for it in range(1, MAX_ITER + 1):
        mu = expit(Z @ b)
        info = (Z.T * (w * np.maximum(mu * (1.0 - mu), 1e-12))) @ Z
        step = np.linalg.solve(info + SEPARATION_RIDGE * np.eye(len(b)),
                               Z.T @ (w * (y - mu)) - SEPARATION_RIDGE * b)
        b = b + step
        if np.abs(step).max() < TOL:
            return b, it, True
    return b, MAX_ITER, False


@st.composite
def gram_cases(draw):
    """A design of 1 to 3 chunks of cells around GRAM_CHUNK, intercept
    first; the weights of F >= 2 fits, integer counts or floats; and fit
    probabilities that make them IRLS weights."""
    n = draw(st.sampled_from([1, GRAM_CHUNK - 1, GRAM_CHUNK, GRAM_CHUNK + 1,
                              3 * GRAM_CHUNK + 7]))
    q, folds = draw(st.integers(1, 8)), draw(st.integers(2, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
    if draw(st.booleans()):
        counts = rng.integers(0, 4, size=(n, folds)).astype(draw(st.sampled_from([np.uint8,
                                                                                 np.uint64])))
    else:
        counts = rng.exponential(size=(n, folds))
    return design, counts, rng.random((n, folds))


def irls_weights(counts, mu):
    return np.maximum(mu * (1.0 - mu), 1e-12) * counts


class TestGramKernel:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=gram_cases())
    def test_chunked_pair_products_equal_per_fit_products(self, case):
        design, counts, mu = case
        w = irls_weights(counts, mu).astype(float)
        want = np.stack([(design * w[:, f, None]).T @ design for f in range(w.shape[1])])
        got = _grams(design, counts, np.triu_indices(design.shape[1]), mu)
        # rtol 1e-12 of each sum's magnitude: the summation order differs
        scale = np.stack([(np.abs(design) * np.abs(w[:, f, None])).T @ np.abs(design)
                          for f in range(w.shape[1])])
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(case=gram_cases())
    def test_one_fit_keeps_the_direct_product(self, case):
        # the reported fits' bits come from this product
        design, counts, mu = case
        counts, mu = counts[:, :1], mu[:, :1]
        want = ((design * irls_weights(counts, mu)).T @ design)[None]
        got = _grams(design, counts, np.triu_indices(design.shape[1]), mu)
        assert np.array_equal(got, want)

    def test_fit_memory_stays_near_one_buffer(self):
        # no (cells x q^2) table: the stacked fit holds about one (cells x fits) buffer
        cells, folds = 20_000, 10
        rng = np.random.default_rng(4)
        X = rng.normal(size=(cells, 6))
        design = np.column_stack([np.ones(cells), X])
        y = (rng.random(cells) < 1.0 / (1.0 + np.exp(-X @ np.linspace(-1, 1, 6)))).astype(float)
        counts = rng.integers(0, 3, size=(cells, folds)).astype(float)
        maps = np.broadcast_to(np.eye(7), (folds, 7, 7))
        _, _, peak = traced(_fit_folds, design, y, counts, maps)
        assert peak <= 2 * cells * folds * 8


# column values near the ends of int64, as floats: 2**63 - 1024 is the
# largest float below 2**63
HUGE_VALUES = [-2.0 ** 63, -2.0 ** 62, -1.0, 0.0, 2.0 ** 31, 2.0 ** 62, 2.0 ** 63 - 1024]


@st.composite
def cell_designs(draw):
    """(X, y) with repeated rows: small integers, huge integers near the ends
    of int64 (as floats), fractional values, z-scored integers, or a mix of
    these with infinities."""
    n, p = draw(st.integers(1, 40)), draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["small", "huge", "fractional", "zscored", "mixed"]))
    pools = {"small": st.integers(-3, 3).map(float),
             "huge": st.sampled_from(HUGE_VALUES),
             "fractional": st.sampled_from([-1.5, -0.25, 0.0, 1 / 3, 2.0]),
             "mixed": st.sampled_from([-np.inf, -2.0, 0.0, 7.0, np.inf, 2.0 ** 62])}
    pool = pools.get(kind, pools["small"])
    X = np.array(draw(st.lists(st.lists(pool, min_size=p, max_size=p),
                               min_size=n, max_size=n))).reshape(n, p)
    if kind == "zscored":
        sd = X.std(axis=0)
        X = (X - X.mean(axis=0)) / np.where(sd > 0, sd, 1.0)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return X, y


class TestDistinctCells:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(design=cell_designs())
    def test_matches_sorted_oracle(self, design):
        X, y = design
        rep, cell = _distinct_cells(X, y)
        want_rep, want_cell = oracles.distinct_cells(X, y)
        assert np.array_equal(rep, want_rep) and np.array_equal(cell, want_cell)

    @pytest.mark.parametrize("column, y", [
        ([0.0, 5.0, -3.0], [0, 1, 0]),
        (np.array([0, 2 ** 62 - 1, 5]), [0, 1, 0]),    # spans 2**62 x 2 labels = 2**63
        (np.array([0, 2 ** 62, 5]), [0, 1, 0]),
        ([2.0 ** 63 - 1024, 2.0 ** 62, 2.0 ** 63 - 2048], [1, 1, 1]),
        ([-2.0 ** 63, -2.0 ** 63 + 4096, -2.0 ** 63 + 1024], [1, 1, 1]),
        ([-2.0 ** 63, 2.0 ** 63 - 1024, 0.0], [1, 1, 1]),
        ([0.5, 1.0, 2.0], [0, 1, 0]),
        ([0.0, np.inf, 1.0], [0, 1, 0]),
        ([0.0, np.nan, 1.0, np.nan], [0, 1, 0, 1])],
        ids=["small", "span-2**62", "span-2**63", "near-2**63", "near-minus-2**63",
             "full-int64", "fractions", "inf", "nan"])
    def test_edge_columns(self, column, y):
        X, y = np.asarray(column)[:, None], np.array(y)
        rep, cell = _distinct_cells(X, y)
        want_rep, want_cell = oracles.distinct_cells(X, y)
        assert np.array_equal(rep, want_rep) and np.array_equal(cell, want_cell)
        # NaN equals nothing: each NaN row is a cell of its own, after the numbers
        nan = np.isnan(X[:, 0])
        assert len(set(cell[nan])) == nan.sum()
        assert (cell[nan][:, None] > cell[~nan][None, :]).all()


def assert_matches_all_rows(X, y, folds, seed, zscore_mode="fold"):
    """crossval_accuracy agrees with `oracles.crossval_all_rows` standardized
    by zscore_mode: the same predictions, fold accuracies, flagged folds and
    held columns. Returns the flagged folds and the held columns."""
    accuracies, predictions, flagged, held = oracles.crossval_all_rows(X, y, folds, seed,
                                                                       zscore_mode)
    report = crossval_accuracy(X, y, folds=folds, seed=seed)
    assert np.array_equal(report.predictions, predictions)
    assert np.array_equal(report.fold_accuracies, accuracies)
    assert report.flagged_folds == flagged
    assert report.held_columns == held
    return flagged, held


def fold_test_rows(n, folds, seed, f):
    """The rows of fold f's test set under crossval_accuracy's split."""
    return np.array_split(np.random.default_rng(seed).permutation(n), folds)[f]


class TestCrossvalOracle:
    @pytest.fixture(scope="class")
    def dataset(self):
        spec = SyntheticSpec(n_sentences=120)
        corpus = corpus_of(generate_synthetic_corpus(spec, seed=8))
        return build_pairwise_dataset(corpus, cap=24, seed=3)

    @pytest.mark.parametrize("zscore_mode", ["fold", "global"])
    def test_grouped_folds_match_all_rows_folds(self, dataset, zscore_mode):
        y = dataset.labels
        dl, length = dataset.dl.astype(float), dataset.length.astype(float)
        designs = [dl.sum(axis=1)[:, None], dl[:, -1:], dl[:, [-1, -2]],
                   length[:, [-1, -2]]]
        for k in (2, 3):
            for family in ("deplen", "length"):
                Xk, yk = dataset.positional_matrix(k, family)
                designs.append((Xk[:, -1:], yk))
        flagged_any = False
        for design in designs:
            X, labels = design if isinstance(design, tuple) else (design, y)
            flagged_any |= bool(assert_matches_all_rows(X, labels, 5, 7, zscore_mode)[0])
        assert flagged_any    # the separation path is exercised

    @staticmethod
    def noisy_labels(rng, X):
        y = (X[:, 0] + rng.normal(scale=2.0, size=len(X)) > 0).astype(int)
        assert 0 < y.sum() < len(y)
        return y

    def test_column_constant_in_one_training_fold(self):
        """Fold 2's training rows have column 1 at 0, or at twice column 0:
        each fold holds a column degenerate in its own training rows at 0,
        under either standardization. A constant one its map holds; a
        dependent one, the leftmost, is named."""
        for kind, want in (("constant", {}), ("dependent", {2: ["x0"]})):
            rng = np.random.default_rng(31)
            X = rng.integers(-3, 4, size=(80, 2)).astype(float)
            X[:, 1] = 0.0 if kind == "constant" else 2 * X[:, 0]
            test_rows = fold_test_rows(80, 5, 4, 2)
            X[test_rows, 1] = rng.integers(1, 4, size=len(test_rows))
            y = self.noisy_labels(rng, X)
            for zscore_mode in ("fold", "global"):
                assert assert_matches_all_rows(X, y, 5, 4, zscore_mode)[1] == want, kind

    @pytest.mark.parametrize("zscore_mode", ["fold", "global"])
    def test_all_zero_column(self, zscore_mode):
        # zero variance in every fold and overall: held at 0 by each map
        rng = np.random.default_rng(36)
        X = rng.integers(-3, 4, size=(90, 3)).astype(float)
        X[:, 1] = 0.0
        assert assert_matches_all_rows(X, self.noisy_labels(rng, X), 5, 2,
                                       zscore_mode)[1] == {}

    @pytest.mark.parametrize("zscore_mode", ["fold", "global"])
    def test_training_fold_with_one_label(self, zscore_mode):
        rng = np.random.default_rng(32)
        X = rng.integers(-3, 4, size=(60, 2)).astype(float)
        y = np.zeros(60, dtype=int)
        y[fold_test_rows(60, 6, 5, 3)[:4]] = 1
        assert 3 in assert_matches_all_rows(X, y, 6, 5, zscore_mode)[0]

    @pytest.mark.parametrize("n, folds", [(103, 5), (103, 10), (37, 7)])
    @pytest.mark.parametrize("zscore_mode", ["fold", "global"])
    def test_n_not_divisible_by_folds(self, n, folds, zscore_mode):
        rng = np.random.default_rng(n + folds)
        X = rng.integers(-4, 5, size=(n, 2)).astype(float)
        assert assert_matches_all_rows(X, self.noisy_labels(rng, X), folds, 9,
                                       zscore_mode)[1] == {}

    @pytest.mark.parametrize("zscore_mode", ["fold", "global"])
    def test_rank_deficient_training_fold(self, zscore_mode):
        # column 1 is twice column 0 on every row outside fold 1's test set
        rng = np.random.default_rng(33)
        X = rng.integers(-3, 4, size=(70, 2)).astype(float)
        X[:, 1] = 2 * X[:, 0]
        test_rows = fold_test_rows(70, 5, 6, 1)
        X[test_rows, 1] = rng.integers(-3, 4, size=len(test_rows))
        y = self.noisy_labels(rng, X)
        # fold 1 holds x0, the leftmost column whose removal keeps the rank
        assert assert_matches_all_rows(X, y, 5, 6, zscore_mode)[1] == {1: ["x0"]}


class TestCrossval:
    def test_separable_data(self):
        X = np.concatenate([np.linspace(-2, -1, 100),
                            np.linspace(1, 2, 100)])[:, None]
        y = (X[:, 0] > 0).astype(int)
        report = crossval_accuracy(X, y, folds=10, seed=0)
        assert report.mean_accuracy == 1.0

    def test_stalled_separated_fold_is_flagged(self):
        """Every training fold is separated. Fold 1's z-scored climb stalls
        under the bound at the IRLS weight floor, until MAX_ITER, and is
        flagged like the folds that pass the bound."""
        x = np.repeat([-1.0, 3.0], [4, 3])
        report = crossval_accuracy(x, (x > 0).astype(int), folds=3, seed=0)
        assert report.flagged_folds == [0, 1, 2]
        assert report.unconverged_folds == []    # each ridge refit converges
        assert report.mean_accuracy == 1.0

    def test_ridge_fold_out_of_iterations_is_unconverged(self, monkeypatch):
        """A fold whose ridge refit also reaches MAX_ITER is listed as
        unconverged, besides being flagged."""
        monkeypatch.setattr(stats, "MAX_ITER", 2)
        x = np.repeat([-1.0, 3.0], [4, 3])
        report = crossval_accuracy(x, (x > 0).astype(int), folds=3, seed=0)
        assert report.flagged_folds == [0, 1, 2]
        assert report.unconverged_folds == [0, 1, 2]

    def test_null_accuracy_half(self):
        rng = np.random.default_rng(44)
        X = rng.normal(size=(10_000, 2))
        y = (rng.random(10_000) < 0.5).astype(int)
        report = crossval_accuracy(X, y, folds=10, seed=1)
        assert abs(report.mean_accuracy - 0.5) < 0.02

    def test_fold_partition(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(103, 1))
        y = (rng.random(103) < 0.5).astype(int)
        report = crossval_accuracy(X, y, folds=10, seed=2)
        assert len(report.predictions) == 103
        assert len(report.fold_accuracies) == 10
        assert math.isclose(report.mean_accuracy,
                            float(report.fold_accuracies.mean()))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(400, 2))
        y = (rng.random(400) < 0.5).astype(int)
        r1 = crossval_accuracy(X, y, folds=5, seed=3)
        r2 = crossval_accuracy(X, y, folds=5, seed=3)
        assert np.array_equal(r1.predictions, r2.predictions)

    def test_bad_args(self):
        X, y = np.zeros((5, 1)), np.zeros(5, dtype=int)
        with pytest.raises(ValueError):
            crossval_accuracy(X, y, folds=1)
        with pytest.raises(ValueError):
            crossval_accuracy(X, y, folds=10)

    @pytest.mark.parametrize("cv", [crossval_accuracy, rfecv])
    @pytest.mark.parametrize("folds, short, message", [
        (0, 0, "folds must be >= 2"), (1, 0, "folds must be >= 2"),
        (5, 1, "X and y length mismatch")])
    def test_bad_folds_and_labels_fail_in_one_line(self, cv, folds, short, message):
        """folds below 2 and a y one row short end in a one-line ValueError,
        with no warning, before any fit."""
        rng = np.random.default_rng(200)
        X = rng.integers(-3, 4, size=(200, 3))
        y = rng.integers(0, 2, size=200 - short)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                cv(X, y, folds=folds)
        assert str(err.value) == message

    @pytest.mark.parametrize("fit", [fit_logistic, rfecv])
    @pytest.mark.parametrize("names", [["a", "b"], ["a", "b", "c", "d"]],
                             ids=["too-few", "too-many"])
    def test_wrong_name_count_fails_in_one_line(self, fit, names):
        """Names one short or one over X's columns are a one-line
        ValueError: no IndexError, and no table that drops a row."""
        rng = np.random.default_rng(200)
        X, y = rng.integers(-3, 4, size=(200, 3)), rng.integers(0, 2, size=200)
        with pytest.raises(ValueError) as err:
            fit(X, y, feature_names=names)
        assert type(err.value) is ValueError
        assert str(err.value) == f"{len(names)} feature names for 3 columns"


class TestMcNemar:
    def test_identical_classifiers(self):
        truth = np.array([0, 1, 1, 0])
        pred = np.array([0, 1, 0, 0])
        res = mcnemar(pred, pred, truth)
        assert res.p_two_tailed == 1.0 and res.statistic == 0.0

    def test_exact_branch_frozen(self):
        truth = np.zeros(10, dtype=int)
        a = np.zeros(10, dtype=int)       # always correct
        b = np.ones(10, dtype=int)        # always wrong
        res = mcnemar(a, b, truth)
        assert (res.n01, res.n10) == (10, 0)
        assert math.isclose(res.p_two_tailed, 2 * 0.5 ** 10)  # 0.001953125

    def test_exact_matches_binomial_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n01 = int(rng.integers(0, 13))
            n10 = int(rng.integers(0, 25 - n01)) if n01 < 24 else 0
            if n01 + n10 == 0 or n01 + n10 >= 25:
                continue
            truth = np.zeros(n01 + n10 + 5, dtype=int)
            a = truth.copy()
            b = truth.copy()
            a[:n10] = 1                      # a wrong, b correct
            b[n10:n10 + n01] = 1             # b wrong, a correct
            res = mcnemar(a, b, truth)
            m, n = min(n01, n10), n01 + n10
            oracle = min(1.0, 2 * float(sps.binom.cdf(m, n, 0.5)))
            assert math.isclose(res.p_two_tailed, oracle, abs_tol=1e-12)

    def test_chi_square_branch(self):
        truth = np.zeros(200, dtype=int)
        a = truth.copy()
        b = truth.copy()
        a[:60] = 1                  # a wrong, b correct: n10 = 60
        b[60:160] = 1               # b wrong, a correct: n01 = 100
        res = mcnemar(a, b, truth)
        assert (res.n01, res.n10) == (100, 60)
        assert math.isclose(res.statistic, 39 ** 2 / 160)          # 9.50625
        assert math.isclose(res.p_two_tailed,
                            float(sps.chi2.sf(res.statistic, df=1)), rel_tol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mcnemar([0, 1], [0], [0, 1])

    def test_matches_the_textbook_test(self):
        """Both branches, and the threshold between them, give the p of
        scipy's binomial test or chi-square survival: every n01, n10 < 60."""
        for n01 in range(60):
            for n10 in range(60):
                truth = np.zeros(n01 + n10 + 3, dtype=int)
                a, b = truth.copy(), truth.copy()
                a[:n10] = 1                      # a wrong, b correct
                b[n10:n10 + n01] = 1             # b wrong, a correct
                res = mcnemar(a, b, truth)
                assert (res.n01, res.n10) == (n01, n10)
                assert math.isclose(res.p_two_tailed, oracles.mcnemar(a, b, truth),
                                    rel_tol=1e-12)


class TestRfecv:
    def test_informative_feature_retained(self):
        kept = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            n = 400
            signal = rng.normal(size=n)
            p = 1.0 / (1.0 + np.exp(-2.0 * signal))
            y = (rng.random(n) < p).astype(int)
            X = np.column_stack([signal] + [rng.normal(size=n) for _ in range(4)])
            result = rfecv(X, y, folds=5, seed=trial,
                           feature_names=["signal", "n1", "n2", "n3", "n4"])
            if "signal" in result.selected:
                kept += 1
        assert kept >= 95

    def test_all_noise_flat_curve(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(4000, 4))
        y = (rng.random(4000) < 0.5).astype(int)
        result = rfecv(X, y, folds=5, seed=0)
        for acc in result.curve.values():
            assert abs(acc - 0.5) < 0.02

    def test_constant_column_goes_first(self):
        rng = np.random.default_rng(3)
        signal = rng.normal(size=400)
        y = (2 * signal + rng.normal(size=400) > 0).astype(int)
        X = np.column_stack([rng.normal(size=400), np.ones(400), signal, rng.normal(size=400)])
        result = rfecv(X, y, folds=5, seed=0, feature_names=["n1", "const", "signal", "n2"])
        assert result.sets_by_size[3] == ["n1", "signal", "n2"]
        assert result.sets_by_size[1] == ["signal"]

    @staticmethod
    def sets_all_rows(X, y):
        """RFECV's elimination order fitted on every row: at each size, drop
        the column of smallest |coefficient| on the z-scored active columns,
        a zero-variance or dependent column (coefficient 0) first."""
        active, sets = list(range(X.shape[1])), {}
        while active:
            sets[len(active)] = list(active)
            coefficients = np.zeros(len(active))
            if len(active) > 1:
                Z, kept = zscore(X[:, active])
                dependent = [j - 1 for j in oracles.dependent_columns(
                    np.column_stack([np.ones(len(Z)), Z]))]
                kept = np.delete(kept, dependent)
                coefficients[kept] = fit_logistic(np.delete(Z, dependent, axis=1),
                                                  y).coefficients[1:]
            active.pop(int(np.argmin(np.abs(coefficients))))
        return sets

    @classmethod
    def assert_matches_all_rows(cls, X, y, folds, seed, names):
        """rfecv agrees with the fits on every row: its elimination order with
        `sets_all_rows`, and at each size its curve and held columns with
        `oracles.crossval_all_rows` on the columns of that size, named by
        `names`. Returns the result."""
        result = rfecv(X, y, folds=folds, seed=seed, feature_names=names)
        assert result.sets_by_size == {size: [names[j] for j in active]
                                       for size, active in cls.sets_all_rows(X, y).items()}
        held = {}
        for size, chosen in result.sets_by_size.items():
            columns = [names.index(name) for name in chosen]
            accuracies, *_, fold_held = oracles.crossval_all_rows(X[:, columns], y, folds, seed,
                                                                  "fold")
            assert math.isclose(result.curve[size], accuracies.mean(), rel_tol=1e-12)
            if fold_held:
                held[size] = {f: [chosen[int(x[1:])] for x in cols]
                              for f, cols in fold_held.items()}
        assert result.held_columns == held
        return result

    @pytest.mark.parametrize("seed, constant", [(40, False), (41, False), (42, True)])
    def test_elimination_matches_all_rows_fits(self, seed, constant):
        rng = np.random.default_rng(seed)
        X = rng.integers(-3, 4, size=(300, 5)).astype(float)
        y = (X @ rng.normal(size=5) + rng.normal(scale=2.0, size=300) > 0).astype(int)
        if constant:
            X[:, 3] = 2.0
        names = [f"x{j}" for j in range(5)]
        sets = {size: [names[j] for j in active]
                for size, active in self.sets_all_rows(X, y).items()}
        assert rfecv(X, y, folds=5, seed=seed).sets_by_size == sets
        if constant:
            assert "x3" not in sets[4]

    def test_two_fold_rank_deficiency_held(self):
        # columns 0 and 1 are equal, and constant inside each training half:
        # every fold's map holds both, and the all-cells fit holds column 0
        rng = np.random.default_rng(34)
        X = rng.integers(-3, 4, size=(60, 3)).astype(float)
        X[:, :2] = 0.0
        X[fold_test_rows(60, 2, 8, 0), :2] = 1.0
        y = (X[:, 2] + rng.normal(scale=2.0, size=60) > 0).astype(int)
        result = self.assert_matches_all_rows(X, y, 2, 8, ["x0", "x1", "x2"])
        assert result.sets_by_size[2] == ["x1", "x2"]
        assert result.held_columns == {}

    def test_rank_deficiency_names_the_features(self):
        # "flat" is constant, so every map holds it; "a" and "b" are collinear
        # on every row, so each fold holds "a", which the names must give
        rng = np.random.default_rng(35)
        a = rng.integers(-3, 4, size=60).astype(float)
        y = (a + rng.normal(scale=2.0, size=60) > 0).astype(int)
        X = np.column_stack([np.full(60, 2.0), a, 2 * a])
        result = self.assert_matches_all_rows(X, y, 5, 1, ["flat", "a", "b"])
        assert result.held_columns == {3: {f: ["a"] for f in range(5)},
                                       2: {f: ["a"] for f in range(5)}}
        assert result.sets_by_size[1] == ["b"]
        assert crossval_accuracy(X, y, folds=5, seed=1).held_columns == \
            {f: ["x1"] for f in range(5)}

    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            rfecv(np.zeros((10, 1)), np.zeros(10, dtype=int))

    def test_fewer_rows_than_folds_rejected(self):
        # an empty fold would give a NaN accuracy to the curve
        X = np.arange(16.0).reshape(8, 2)
        y = np.arange(8) % 2
        with pytest.raises(ValueError, match="need at least one example per fold"):
            rfecv(X, y, folds=9)
        with pytest.raises(ValueError, match="need at least one example per fold"):
            crossval_accuracy(X, y, folds=9)


def exact_bits(value):
    """value with each float and array as its bits, dataclasses as dicts."""
    if dataclasses.is_dataclass(value):
        return {f.name: exact_bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return {key: exact_bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact_bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def outcome(fn, X):
    """fn(X) as `exact_bits`, or the type and message of what it raises."""
    try:
        return exact_bits(fn(X))
    # RankDeficientError and LinAlgError are ValueErrors; the test settings
    # raise a numpy warning, such as a one-row training fold's 0 / 0 sd
    except (ValueError, RuntimeWarning) as e:
        return type(e), str(e)


@st.composite
def narrow_designs(draw):
    """(X, y, folds, seed): an int8, int16 or int32 design with repeated
    rows, of small values and the ends of its type, and random labels."""
    dtype = np.dtype(draw(st.sampled_from([np.int8, np.int16, np.int32])))
    info = np.iinfo(dtype)
    folds = draw(st.integers(2, 4))
    n, p = draw(st.integers(folds, 40)), draw(st.integers(2, 3))
    values = st.one_of(st.integers(-3, 3), st.sampled_from([info.min, info.min + 1, info.max]))
    X = np.array(draw(st.lists(st.lists(values, min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=dtype)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return X, y, folds, draw(st.integers(0, 2 ** 32 - 1))


class TestNarrowIntegerInput:
    """Integer columns of at most 32 bits go into the fits as they are:
    float64 holds each value exactly, so every result keeps its bits."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=narrow_designs())
    def test_same_bits_as_float_input(self, case):
        X, y, folds, seed = case
        fits = [lambda X: crossval_accuracy(X, y, folds, seed), lambda X: rfecv(X, y, folds, seed),
                lambda X: fit_logistic(X, y)]
        for fit in fits:
            assert outcome(fit, X) == outcome(fit, X.astype(float))

    @pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.int16, np.int32, np.uint32])
    def test_narrow_columns_are_kept(self, dtype):
        X = np.zeros((4, 2), dtype=dtype)
        assert _columns(X) is X

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.float32])
    def test_other_columns_are_cast_to_float(self, dtype):
        assert _columns(np.zeros((4, 2), dtype=dtype)).dtype == np.float64
        assert _columns(np.zeros(4, dtype=dtype)).shape == (4, 1)


class TestPearson:
    def test_perfect_correlation(self):
        x = np.arange(10.0)
        assert math.isclose(pearson(x, x), 1.0)
        assert math.isclose(pearson(x, -x), -1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(15)
        assert abs(pearson(rng.normal(size=10_000), rng.normal(size=10_000))) < 0.05

    def test_matches_numpy(self):
        rng = np.random.default_rng(16)
        x, y = rng.normal(size=100), rng.normal(size=100)
        assert math.isclose(pearson(x, y), float(np.corrcoef(x, y)[0, 1]),
                            rel_tol=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
