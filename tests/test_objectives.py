import math

import numpy as np
import pytest

from oodbench.numeric_core import ParameterError, RngStream
from oodbench.objectives import ObjectiveConfig, _env_terms
from oodbench.sem_generators import (EnvDataset, EnvParams, GeneratorSpec,
                                     generate_env)
from oracle import (LinearModel, _sigmoid, batched_objective, irmv1_penalty,
                    objective_and_gradient, predict, risk, variance_penalty)


def make_env(X, Y, task):
    return EnvDataset(env_id=0, X=np.asarray(X, float),
                      Y=np.asarray(Y, float), task=task)


def random_envs(rng, n_envs=3, n=40, d=4, task="classification"):
    envs = []
    for e in range(n_envs):
        r = rng.fork(f"env{e}")
        X = r.fork("x").gaussian_array((n, d))
        if task == "classification":
            Y = r.fork("y").bernoulli_array((n,), 0.5).astype(float)
        else:
            Y = r.fork("y").gaussian_array((n,))
        envs.append(make_env(X, Y, task))
    return envs


class TestPredict:
    def test_constant_model(self):
        m = LinearModel(w=np.zeros(3), b=3.0)
        assert np.allclose(predict(m, np.ones((5, 3))), 3.0)

    def test_coordinate_selector(self):
        m = LinearModel(w=np.array([1.0, 0.0]), b=0.0)
        assert predict(m, np.array([[5.0, 9.0]]))[0] == 5.0

    def test_matches_hand_dot_products(self):
        w = np.array([0.5, -2.0])
        X = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 4.0]])
        expected = [0.5 - 4.0, 1.5 + 2.0, -8.0]
        assert np.allclose(predict(LinearModel(w=w, b=0.0), X), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            predict(LinearModel(w=np.zeros(2)), np.ones((3, 5)))


class TestRisk:
    def test_perfect_square_fit(self):
        env = make_env([[1.0], [2.0]], [2.0, 4.0], "regression")
        assert risk(LinearModel(w=np.array([2.0])), env, "square") == 0.0

    def test_uniform_logit_is_ln2(self):
        env = make_env([[1.0], [2.0]], [0.0, 1.0], "classification")
        assert abs(risk(LinearModel(w=np.zeros(1)), env, "logistic") - math.log(2)) < 1e-15

    def test_two_point_square_loss(self):
        env = make_env([[2.0], [0.0]], [1.0, 0.0], "regression")
        assert risk(LinearModel(w=np.array([1.0])), env, "square") == 0.5

    def test_loss_task_compat(self):
        env = make_env([[1.0]], [1.0], "regression")
        with pytest.raises(ParameterError):
            risk(LinearModel(w=np.zeros(1)), env, "logistic")


class TestIrmv1Penalty:
    def test_zero_at_perfect_fit(self):
        env = make_env([[1.0], [2.0]], [2.0, 4.0], "regression")
        assert irmv1_penalty(LinearModel(w=np.array([2.0])), env, "square") == 0.0

    def test_single_point_hand_value(self):
        env = make_env([[2.0]], [1.0], "regression")
        # yhat = 2, y = 1: (2 * (2-1) * 2)^2 = 16
        assert irmv1_penalty(LinearModel(w=np.array([1.0])), env, "square") == 16.0

    @pytest.mark.parametrize("loss,task", [("square", "regression"),
                                           ("logistic", "classification"),
                                           ("exponential", "classification")])
    def test_matches_finite_difference_slope(self, loss, task):
        rng = RngStream(11)
        env = random_envs(rng, n_envs=1, task=task)[0]
        model = LinearModel(w=rng.fork("w").gaussian_array((4,)), b=0.3)
        yhat = predict(model, env.X)
        h = 1e-5

        def risk_scaled(s):
            scaled = make_env(env.X, env.Y, task)
            m = LinearModel(w=model.w * s, b=model.b * s)
            return risk(m, scaled, loss)

        slope = (risk_scaled(1 + h) - risk_scaled(1 - h)) / (2 * h)
        pen = irmv1_penalty(model, env, loss)
        assert abs(pen - slope ** 2) <= 1e-6 * max(1.0, abs(pen))


class TestVariancePenalty:
    def test_constant_predictor(self):
        env = make_env([[1.0], [2.0]], [0.0, 0.0], "regression")
        assert variance_penalty(LinearModel(w=np.zeros(1), b=5.0), [env]) == 0.0

    def test_population_convention(self):
        env = make_env([[0.0], [2.0]], [0.0, 0.0], "regression")
        assert variance_penalty(LinearModel(w=np.array([1.0])), [env]) == 1.0

    def test_quadratic_homogeneity(self):
        rng = RngStream(5)
        envs = random_envs(rng, task="regression")
        w = rng.fork("w").gaussian_array((4,))
        v1 = variance_penalty(LinearModel(w=w), envs)
        v3 = variance_penalty(LinearModel(w=3.0 * w), envs)
        assert abs(v3 - 9.0 * v1) < 1e-9 * max(1.0, v1)

    def test_pooled_across_envs(self):
        e1 = make_env([[1.0]], [0.0], "regression")
        e2 = make_env([[-1.0]], [0.0], "regression")
        # pooled predictions {1, -1}: population variance 1
        assert variance_penalty(LinearModel(w=np.array([1.0])), [e1, e2]) == 1.0


class TestBottleneckTerm:
    """The gamma term is n_envs * gamma * Var_pooled: the per-environment
    sum of variances plus the spread of the environments' means."""

    @pytest.mark.parametrize("task", ["regression", "classification"],
                             ids=["MomentStack", "EnvStack"])
    @pytest.mark.parametrize("shift", [0.0, 3.0], ids=["equal", "shifted"])
    def test_is_the_sum_of_variances_plus_the_spread_of_means(self, task, shift):
        rng = RngStream(31)
        # each environment's X centred, then moved by shift * e
        envs = [make_env(env.X - env.X.mean(axis=0) + shift * e, env.Y, task)
                for e, env in enumerate(random_envs(rng, task=task))]
        model = LinearModel(w=rng.fork("w").gaussian_array((4,)), b=0.3)
        gamma = 0.4
        term = (batched_objective(model, envs, ObjectiveConfig(gamma=gamma))[0]
                - batched_objective(model, envs, ObjectiveConfig())[0])
        preds = [predict(model, env.X) for env in envs]
        mu = np.concatenate(preds).mean()
        sum_var = gamma * sum(p.var() for p in preds)
        spread = gamma * sum((p.mean() - mu) ** 2 for p in preds)
        if shift == 0.0:
            assert abs(term - sum_var) <= 1e-12 * sum_var
        else:
            assert spread > 0.1 * sum_var
            assert abs(term - sum_var - spread) <= 1e-12 * term


def scored(loss):
    """The objective that scores ``loss``: the package's for the loss of a
    task, the oracle's per-model one for the exponential loss, which the
    package does not train."""
    if loss == "exponential":
        return lambda model, envs, cfg: objective_and_gradient(model, envs, cfg, loss)
    return batched_objective


def numerical_gradient(objective, model, envs, cfg, h=1e-6):
    theta = np.concatenate([model.w, [model.b]])
    grad = np.empty_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        vp, _ = objective(LinearModel(w=tp[:-1], b=tp[-1]), envs, cfg)
        vm, _ = objective(LinearModel(w=tm[:-1], b=tm[-1]), envs, cfg)
        grad[i] = (vp - vm) / (2 * h)
    return grad


class TestObjectiveConfig:
    # a batch mixing penalty patterns: test_batched_engine.py
    @pytest.mark.parametrize("lam,gamma", [(-1.0, 0.0), (0.0, [0.5, -0.5])])
    def test_rejects_negative_weights(self, lam, gamma):
        with pytest.raises(ParameterError):
            ObjectiveConfig(np.array(lam), np.array(gamma))


class TestObjectiveAndGradient:
    def test_erm_reduction(self):
        rng = RngStream(2)
        envs = random_envs(rng, task="regression")
        model = LinearModel(w=rng.fork("w").gaussian_array((4,)), b=0.1)
        cfg = ObjectiveConfig(lam=0.0, gamma=0.0)
        value, _ = batched_objective(model, envs, cfg)
        assert abs(value - sum(risk(model, e, "square") for e in envs)) < 1e-12

    @pytest.mark.parametrize("loss,task", [("square", "regression"),
                                           ("logistic", "classification"),
                                           ("exponential", "classification")])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 10.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 10.0])
    def test_gradient_matches_finite_differences(self, loss, task, lam, gamma):
        rng = RngStream(hash((loss, lam, gamma)) % 2 ** 31)
        envs = random_envs(rng, task=task)
        model = LinearModel(w=0.5 * rng.fork("w").gaussian_array((4,)), b=0.2)
        cfg = ObjectiveConfig(lam=lam, gamma=gamma)
        objective = scored(loss)
        _, grad = objective(model, envs, cfg)
        num = numerical_gradient(objective, model, envs, cfg)
        scale = max(1.0, np.max(np.abs(num)))
        assert np.max(np.abs(grad - num)) <= 1e-5 * scale

    def test_sample_permutation_invariance(self):
        rng = RngStream(3)
        env = random_envs(rng, n_envs=1, task="regression")[0]
        model = LinearModel(w=rng.fork("w").gaussian_array((4,)), b=0.0)
        cfg = ObjectiveConfig()
        v1, _ = batched_objective(model, [env], cfg)
        perm = rng.fork("perm").permutation(env.X.shape[0])
        shuffled = make_env(env.X[perm], env.Y[perm], "regression")
        v2, _ = batched_objective(model, [shuffled], cfg)
        assert abs(v1 - v2) < 1e-12

    def test_penalties_nonnegative(self):
        rng = RngStream(8)
        envs = random_envs(rng, task="classification")
        for i in range(20):
            model = LinearModel(w=rng.fork(f"w{i}").gaussian_array((4,)), b=0.0)
            assert irmv1_penalty(model, envs[0], "logistic") >= 0.0
            assert variance_penalty(model, envs) >= 0.0

    def test_twod_exponential_closed_form(self):
        # signed 2D data: value should match the p-weighted exponential
        # closed form plus gamma * w^T Sigma w, within Monte Carlo error
        p, gamma, n = 0.9, 0.4, 200_000
        env = generate_env(GeneratorSpec(example="twod", n_per_env=n),
                           EnvParams(env_id=0, p=p), None, RngStream(17))
        signed = make_env(2.0 * env.X - 1.0, env.Y, "classification")
        w_inv, w_spu = 0.3, 0.1
        model = LinearModel(w=np.array([w_inv, w_spu]), b=0.0)
        cfg = ObjectiveConfig(lam=0.0, gamma=gamma)
        value, _ = objective_and_gradient(model, [signed], cfg, "exponential")
        sigma = np.array([[1.0, 2 * p - 1], [2 * p - 1, 1.0]])
        closed = (p * math.exp(-(w_inv + w_spu))
                  + (1 - p) * math.exp(-(w_inv - w_spu))
                  + gamma * model.w @ sigma @ model.w)
        assert abs(value - closed) < 0.01

    def test_bottleneck_ordering_on_signed_2d(self):
        # identity selector has strictly larger prediction variance than
        # either single-feature selector at equal training error
        p = 0.8
        env = generate_env(GeneratorSpec(example="twod", n_per_env=100_000),
                           EnvParams(env_id=0, p=p), None, RngStream(23))
        signed = make_env(2.0 * env.X - 1.0, 2.0 * env.Y - 1.0, "classification")
        inv_only = LinearModel(w=np.array([1.0, 0.0]))
        spu_only = LinearModel(w=np.array([0.0, 1.0]))
        identity = LinearModel(w=np.array([1.0, 1.0]))
        v_inv = variance_penalty(inv_only, [signed])
        v_spu = variance_penalty(spu_only, [signed])
        v_id = variance_penalty(identity, [signed])
        assert abs(v_inv - 1.0) < 0.01
        assert abs(v_spu - 1.0) < 0.01
        assert abs(v_id - (2.0 + 2.0 * (2 * p - 1))) < 0.05
        assert v_id > v_inv
        assert v_id > v_spu


class TestLogisticKernel:
    """The logistic branch of the engine, one row per model: its risk term
    against the oracle's ``np.logaddexp(0, z) - y z`` and its sigmoid
    against the oracle's.  The softplus is within 4 ulp of the oracle's
    (measured: 2).  With y = 1 and z > 0 the term cancels to softplus(z) - z,
    so its error is bounded in ulp of the larger of softplus(z) and |y z|,
    not of the term."""

    EDGES = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 37.0, -37.0,
             709.0, -709.0, 710.0, -710.0, 1e308, -1e308,
             np.inf, -np.inf, np.nan]

    @staticmethod
    def _kernel(z, y):
        """The risk term and the intercept gradient, sigmoid(z) - y, of
        every prediction z with label y, each scored as a model with one
        environment of one row."""
        m = z.size
        with np.errstate(all="ignore"):
            risk_qe, grad_qe, _, _ = _env_terms(
                np.ones((m, 1, 1, 1)), z.reshape(m, 1, 1).copy(),
                np.full((m, 1, 1), y), False)
        return risk_qe[:, 0], grad_qe[:, 0, -1]

    def _check(self, z):
        for y in (0.0, 1.0):
            term, sig = self._kernel(z, y)
            with np.errstate(all="ignore"):
                softplus = np.logaddexp(0.0, z)
                want = softplus - y * z
                scale = np.maximum(softplus, np.abs(y * z))
            assert np.array_equal(np.isnan(term), np.isnan(want))
            assert np.array_equal(np.isinf(term), np.isinf(want))
            assert np.array_equal(term[np.isinf(term)], want[np.isinf(want)])
            finite = np.isfinite(want)
            assert np.all(np.abs(term[finite] - want[finite])
                          <= 4 * np.spacing(scale[finite]))
            if y == 0.0:
                ref = _sigmoid(z)
                assert np.array_equal(sig, ref, equal_nan=True)
                num = ~np.isnan(ref)
                assert np.array_equal(np.signbit(sig[num]), np.signbit(ref[num]))

    def test_edge_values(self):
        self._check(np.array(self.EDGES))

    def test_random_values(self):
        r = RngStream(31)
        n = 200_000
        sign = np.where(r.fork("sign").bernoulli_array((n,), 0.5), 1.0, -1.0)
        z = np.concatenate([
            40.0 * r.fork("near").gaussian_array((n,)),
            sign * 10.0 ** r.fork("exp").uniform(-300.0, 308.0, shape=(n,))])
        self._check(z)
