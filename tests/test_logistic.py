import numpy as np
import pytest

from policyforest.dataset import EncodedMatrix
from policyforest.logistic import (LogisticConfig, LogisticError,
                                   LogisticModel, _penalized_ll,
                                   coefficient_ranking, fit,
                                   log_likelihood_gradient, logistic_from_json,
                                   logistic_to_json, penalized_log_likelihood,
                                   predict_proba, sigmoid)


def matrix_from(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    return EncodedMatrix(X, y, [f"f{i}" for i in range(X.shape[1])],
                         np.arange(len(y)))


def reference_fit(matrix, config=LogisticConfig()):
    """Damped Newton ascent that stops only when the gradient norm falls
    below tolerance or at max_iters, recomputing each iteration's
    likelihood from theta."""
    X, y = matrix.X, matrix.y.astype(float)
    stds = X.std(axis=0)
    keep = stds > 0
    means, stds = X[:, keep].mean(axis=0), stds[keep]
    A = np.hstack([np.ones((len(y), 1)), (X[:, keep] - means) / stds])
    pen = np.concatenate(([0.0], np.full(A.shape[1] - 1, config.l2)))
    theta = np.zeros(A.shape[1])
    history, converged = [], False
    for _ in range(config.max_iters):
        p = sigmoid(A @ theta)
        ll = _penalized_ll(y, p, theta[1:], config.l2)
        history.append(ll)
        grad = A.T @ (y - p) - pen * theta
        if np.linalg.norm(grad) < config.tolerance:
            converged = True
            break
        w = np.maximum(p * (1 - p), 1e-10)
        H = (A * w[:, None]).T @ A + np.diag(pen + 1e-12)
        step = np.linalg.solve(H, grad)
        scale = 1.0
        for _ in range(60):
            cand = theta + scale * step
            if _penalized_ll(y, sigmoid(A @ cand), cand[1:], config.l2) >= ll:
                break
            scale *= 0.5
        theta = theta + scale * step
    names = [name for name, k in zip(matrix.column_names, keep) if k]
    return LogisticModel(beta=theta[1:], intercept=float(theta[0]),
                         means=means, stds=stds, column_names=names,
                         dropped_columns=[], ll_history=history,
                         converged=converged)


def collinear_design(seed=108, n=200, k=5):
    """A full one-hot block (its columns sum to the intercept column), one
    uniform and one ordinal column; for seed 108 the gradient norm stalls
    above the default tolerance while the likelihood stops rising."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, k + 2))
    X[np.arange(n), rng.integers(k, size=n)] = 1.0
    X[:, k] = rng.uniform(size=n)
    X[:, k + 1] = rng.integers(-2, 3, size=n)
    y = (2 * X[:, k] - 1 + 0.5 * X[:, k + 1] + rng.normal(0, 0.8, n)
         > 0).astype(int)
    return X, y


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-50, 50, size=1000)
        assert np.allclose(sigmoid(s) + sigmoid(-s), 1.0, atol=1e-12)

    @pytest.mark.parametrize("s", [700.0, -700.0])
    def test_extreme_values_finite(self, s):
        v = sigmoid(s)
        assert np.isfinite(v)
        assert 0.0 <= v <= 1.0


class TestFit:
    def test_separable_sign(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=200)
        y = (x > 0).astype(int)
        model = fit(matrix_from(x[:, None], y), LogisticConfig(l2=0.01))
        assert model.beta[0] > 0
        p = predict_proba(model, x[:, None])
        assert np.mean((p >= 0.5) == y) == 1.0

    def test_parameter_recovery(self):
        rng = np.random.default_rng(3)
        n = 10000
        x = rng.normal(size=n)
        p = sigmoid(2.0 * x - 1.0)
        y = (rng.uniform(size=n) < p).astype(int)
        model = fit(matrix_from(x[:, None], y), LogisticConfig(l2=1e-6))
        # model is standardized: recover raw-scale coefficients
        raw_beta = model.beta[0] / model.stds[0]
        raw_intercept = model.intercept - model.beta[0] * model.means[0] \
            / model.stds[0]
        assert raw_beta == pytest.approx(2.0, abs=0.1)
        assert raw_intercept == pytest.approx(-1.0, abs=0.1)

    def test_gradient_small_at_optimum(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 3))
        y = (X @ np.array([1.0, -1.0, 0.5]) + rng.normal(0, 1, 300)
             > 0).astype(int)
        cfg = LogisticConfig(tolerance=1e-8)
        model = fit(matrix_from(X, y), cfg)
        assert model.converged
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        g = log_likelihood_gradient(Z, y, model.beta, model.intercept, cfg.l2)
        assert np.linalg.norm(g) < cfg.tolerance

    def test_log_likelihood_nondecreasing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(150, 4))
        y = (X[:, 0] + rng.normal(0, 2, 150) > 0).astype(int)
        model = fit(matrix_from(X, y))
        diffs = np.diff(model.ll_history)
        assert np.all(diffs >= -1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 2))
        y = (X[:, 0] > 0).astype(int)
        m = matrix_from(X, y)
        m1, m2 = fit(m), fit(m)
        assert np.array_equal(m1.beta, m2.beta)
        assert m1.intercept == m2.intercept

    def test_rescaling_feature_is_inert(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(120, 3))
        y = (X[:, 1] + rng.normal(0, 1, 120) > 0).astype(int)
        base = fit(matrix_from(X, y))
        Xs = X.copy()
        Xs[:, 1] *= 37.0
        scaled = fit(matrix_from(Xs, y))
        p1 = predict_proba(base, X)
        p2 = predict_proba(scaled, Xs)
        assert np.allclose(p1, p2, atol=1e-8)
        r1 = [name for name, _ in coefficient_ranking(base)]
        r2 = [name for name, _ in coefficient_ranking(scaled)]
        assert r1 == r2

    def test_constant_column_dropped(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        X[:, 2] = 4.0
        y = (X[:, 0] > 0).astype(int)
        model = fit(matrix_from(X, y))
        assert model.dropped_columns == ["f2"]
        assert model.column_names == ["f0", "f1"]
        # prediction works on the full-width input given its column names
        p = predict_proba(model, X, ["f0", "f1", "f2"])
        assert p.shape == (60,)

    def test_single_class_error(self):
        with pytest.raises(LogisticError):
            fit(matrix_from(np.zeros((4, 1)), np.ones(4, dtype=int)))

    def test_perfect_separation_without_ridge(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        y = np.array([0, 0, 1, 1])
        with pytest.raises(LogisticError, match="l2 > 0"):
            fit(matrix_from(x[:, None], y),
                LogisticConfig(l2=0.0, max_iters=200))


class TestStallStop:
    def test_collinear_design_stops_when_likelihood_stops_rising(self):
        X, y = collinear_design()
        m = matrix_from(X, y)
        cfg = LogisticConfig()
        ref = reference_fit(m, cfg)
        assert len(ref.ll_history) == cfg.max_iters and not ref.converged
        model = fit(m, cfg)
        assert len(model.ll_history) < 50
        assert np.all(np.diff(model.ll_history) >= 0)
        # The gradient never met the tolerance, so the fit is unconverged.
        assert not model.converged
        assert np.max(np.abs(predict_proba(model, X)
                             - predict_proba(ref, X))) <= 1e-8

    @pytest.mark.parametrize("seed,l2", [(4, 1e-6), (5, 1e-6), (2, 0.01)])
    def test_well_conditioned_fit_unchanged(self, seed, l2):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 3))
        y = (X @ np.array([1.0, -1.0, 0.5]) + rng.normal(0, 1, 300)
             > 0).astype(int)
        cfg = LogisticConfig(l2=l2)
        ref = reference_fit(matrix_from(X, y), cfg)
        model = fit(matrix_from(X, y), cfg)
        assert ref.converged and model.converged
        assert model.ll_history == ref.ll_history
        assert np.array_equal(model.beta, ref.beta)
        assert model.intercept == ref.intercept


class TestValidation:
    @pytest.mark.parametrize("kwargs,message", [
        ({"max_iters": 0}, "max_iters"),
        ({"max_iters": -3}, "max_iters"),
        ({"tolerance": 0.0}, "tolerance"),
        ({"tolerance": -1e-8}, "tolerance"),
        ({"tolerance": float("nan")}, "tolerance"),
        ({"tolerance": float("inf")}, "tolerance"),
        ({"l2": float("nan")}, "l2 must be finite"),
        ({"l2": float("inf")}, "l2 must be finite"),
        ({"l2": -1.0}, "l2 must be >= 0"),
    ])
    def test_bad_config_rejected(self, kwargs, message):
        with pytest.raises(LogisticError, match=message):
            LogisticConfig(**kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_names_first_row_and_column(self, bad):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(int)
        model = fit(matrix_from(X, y))
        X[9, 0] = bad
        X[5, 2] = bad
        with pytest.raises(LogisticError, match="row 5, column 2"):
            fit(matrix_from(X, y))
        with pytest.raises(LogisticError, match="row 5, column 2"):
            predict_proba(model, X)
        with pytest.raises(LogisticError, match="row 0, column 0"):
            predict_proba(model, X[9])
        # Columns are named in the caller's input, before selection.
        wide = np.hstack([np.zeros((40, 1)), X])
        with pytest.raises(LogisticError, match="row 5, column 3"):
            predict_proba(model, wide, ["c", "f0", "f1", "f2"])


class TestGradientCheck:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n, d = int(rng.integers(5, 30)), int(rng.integers(1, 5))
            Z = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            beta = rng.normal(size=d)
            intercept = float(rng.normal())
            l2 = float(rng.uniform(0, 0.1))
            g = log_likelihood_gradient(Z, y, beta, intercept, l2)
            h = 1e-6
            # intercept component
            fd0 = (penalized_log_likelihood(Z, y, beta, intercept + h, l2)
                   - penalized_log_likelihood(Z, y, beta, intercept - h, l2)
                   ) / (2 * h)
            assert fd0 == pytest.approx(g[0], rel=1e-5, abs=1e-7)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (penalized_log_likelihood(Z, y, beta + e, intercept, l2)
                      - penalized_log_likelihood(Z, y, beta - e, intercept,
                                                 l2)) / (2 * h)
                assert fd == pytest.approx(g[j + 1], rel=1e-5, abs=1e-7)


class TestPredictAndRanking:
    def _manual_model(self, beta, intercept=0.0):
        beta = np.asarray(beta, dtype=float)
        d = len(beta)
        return LogisticModel(beta=beta, intercept=intercept,
                             means=np.zeros(d), stds=np.ones(d),
                             column_names=[f"f{i}" for i in range(d)],
                             dropped_columns=[], ll_history=[],
                             converged=True)

    def test_zero_model_gives_half(self):
        model = self._manual_model([0.0, 0.0])
        assert predict_proba(model, np.array([3.0, -1.0])) == 0.5

    def test_large_intercept_saturates(self):
        model = self._manual_model([0.0], intercept=50.0)
        assert predict_proba(model, np.array([0.0])) > 0.999999

    def test_hand_computed_example(self):
        model = self._manual_model([1.0, -2.0], intercept=0.5)
        row = np.array([2.0, 1.0])
        expected = sigmoid(0.5 + 1.0 * 2.0 - 2.0 * 1.0)
        assert predict_proba(model, row) == pytest.approx(expected, abs=1e-15)

    def test_arity_mismatch(self):
        model = self._manual_model([1.0, 2.0])
        with pytest.raises(LogisticError, match="arity"):
            predict_proba(model, np.zeros(3))

    def test_ranking_by_magnitude(self):
        model = self._manual_model([0.1, -3.0, 0.0])
        assert [n for n, _ in coefficient_ranking(model)] == \
            ["f1", "f0", "f2"]

    def test_ranking_all_zero_keeps_index_order(self):
        model = self._manual_model([0.0, 0.0, 0.0])
        assert [n for n, _ in coefficient_ranking(model)] == \
            ["f0", "f1", "f2"]

    def test_planted_feature_ranked_first(self):
        rng = np.random.default_rng(10)
        n = 400
        X = rng.normal(size=(n, 6))
        y = rng.integers(0, 2, size=n)
        X[:, 3] = y + rng.normal(0, 0.3, n)
        model = fit(matrix_from(X, y))
        assert coefficient_ranking(model)[0][0] == "f3"


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 2))
        y = (X[:, 0] > 0).astype(int)
        model = fit(matrix_from(X, y))
        clone = logistic_from_json(logistic_to_json(model))
        assert np.allclose(predict_proba(model, X), predict_proba(clone, X),
                           atol=0)

    def test_bad_schema(self):
        with pytest.raises(LogisticError):
            logistic_from_json('{"schema_version": 99}')
