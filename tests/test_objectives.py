import dataclasses
import itertools
import math

import numpy as np
import pytest

from oodbench import objectives
from oodbench.numeric_core import ParameterError, RngStream
from oodbench.objectives import (CERTIFIED_MAX, ObjectiveConfig, _certified,
                                 _env_terms, env_stack, keep_queries, moment_stack,
                                 objective_and_gradient as stack_objective)
from oodbench.sem_generators import EnvDataset, GeneratorSpec, generate_env
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
    @pytest.mark.parametrize("lam,gamma", [(-1.0, 0.0), (0.0, [0.5, -0.5]),
                                           (np.inf, 0.0), (0.0, [0.5, np.inf]),
                                           (np.nan, 0.0)])
    def test_rejects_negative_weights(self, lam, gamma):
        lam, gamma = np.array(lam), np.array(gamma)
        name = "gamma" if np.ndim(gamma) else "lam"
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            ObjectiveConfig(lam, gamma)
        # the stacks take the weights as arrays, one per query, and check
        # them again
        envs = random_envs(RngStream(1), task="classification")
        seeds = [(envs, [np.arange(env.n) for env in envs])]
        lam, gamma = np.broadcast_to(lam, (2,)), np.broadcast_to(gamma, (2,))
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            env_stack(seeds, lam, gamma)
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            moment_stack(seeds, [2], lam, gamma)

    def test_logistic_labels_must_be_0_or_1(self):
        envs = random_envs(RngStream(1), task="classification")
        envs[1].Y[3] = 2.0
        seeds = [(envs, [np.arange(env.n) for env in envs])]
        with pytest.raises(ParameterError, match="labels must be 0 or 1"):
            env_stack(seeds, np.zeros(1), np.zeros(1))

    def test_a_logistic_stack_is_of_one_data_seed(self):
        envs = random_envs(RngStream(1), task="classification")
        seed = (envs, [np.arange(env.n) for env in envs])
        for seeds in ([], [seed, seed]):
            with pytest.raises(ParameterError, match="one data seed"):
                env_stack(seeds, np.zeros(1), np.zeros(1))


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
                           0, p, None, RngStream(17))
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
                           0, p, None, RngStream(23))
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
            risk, r, _ = _env_terms(z.reshape(1, m, 1).copy(), np.empty((1, m, 1)),
                                    None, np.full((1, 1, 1), y), None, None, True)
        return risk[0], r[0, :, 0]

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


BIG = np.finfo(float).max
WEIGHTS = [0.0, np.finfo(float).tiny, 1e4, BIG]


def _stack(X, Y, lam, gamma, q):
    """The EnvStack of ``q`` queries that all train on every row of the
    environments (X[e], Y[e]), at weights lam and gamma."""
    envs = [make_env(x, y, "classification") for x, y in zip(X, Y)]
    rows = [np.arange(len(y)) for y in Y]
    return env_stack([(envs, rows)], np.full(q, lam), np.full(q, gamma))


def _b_at_threshold(lam, gamma, n_envs, n, top):
    """The B at which the bound of ``objectives._certified`` meets its
    threshold ``top``, on n_envs environments of n rows: inf or nan where
    no finite B does."""
    limit = top / (n_envs * n)
    with np.errstate(all="ignore"):
        c = lam + ((n_envs * gamma + 1.0) * 4.0 if gamma else 0.0)
        if c == 0:
            return (limit - 1.0) / 2.0
        return (np.sqrt(1.0 + c * (limit - 1.0)) - 1.0) / c


def _check_certificate(theta, stack):
    """Every certified model's exact value is finite; ``value=False``
    reports exactly the exact values' finiteness, with the same gradient
    bits.  Returns (certified, exact values)."""
    with np.errstate(all="ignore"):
        certified = _certified(theta, stack)
        values, grad = stack_objective(theta, stack)
        finite, fast_grad = stack_objective(theta, stack, value=False)
    assert np.isfinite(values[certified]).all()
    assert np.array_equal(finite, np.isfinite(values))
    assert np.array_equal(fast_grad, grad, equal_nan=True)
    return certified, values


class TestFiniteCertificate:
    """``objective_and_gradient(..., value=False)`` computes the logistic
    value for no model of a batch whose every model's bound on it is
    certified far below overflow (see ``objectives._certified``), and for
    every model otherwise: a certified model's exact value must be finite,
    and the finiteness it reports must be the exact value's."""

    def test_random_grid(self):
        r = RngStream(41)
        q, n_envs, n, d = 600, 3, 20, 4
        seen = np.zeros(3, int)  # certified, computed and finite, not finite
        for k, (lam, gamma) in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                                          (1.0, 1.0)]):
            for trial in range(4):
                t = r.fork(f"{k}/{trial}")
                X = (t.fork("x").gaussian_array((n_envs, n, d))
                     * 10.0 ** t.fork("xs").uniform(-5.0, 300.0))
                Y = t.fork("y").bernoulli_array((n_envs, n), 0.5).astype(float)
                lam_t, gamma_t = (w * 10.0 ** t.fork(name).uniform(-3.0, 308.0)
                                  for w, name in ((lam, "lam"), (gamma, "gamma")))
                sign = np.where(t.fork("sign").bernoulli_array((q, d + 1), 0.5),
                                1.0, -1.0)
                theta = sign * 10.0 ** t.fork("theta").uniform(
                    -300.0, 308.0, shape=(q, d + 1))
                theta[t.fork("zero").bernoulli_array((q, d + 1), 0.3)] = 0.0
                stack = _stack(X, Y, lam_t, gamma_t, q)
                certified, values = _check_certificate(theta, stack)
                seen += [certified.sum(), (~certified & np.isfinite(values)).sum(),
                         (~np.isfinite(values)).sum()]
        assert np.all(seen > 0), seen

    @pytest.mark.parametrize("x_top", [1.0, 1e300])
    @pytest.mark.parametrize("gamma", WEIGHTS)
    @pytest.mark.parametrize("lam", WEIGHTS)
    def test_edge_grid(self, lam, gamma, x_top):
        r = RngStream(43)
        n_envs, n, d = 2, 3, 2
        X = r.fork("x").gaussian_array((n_envs, n, d))
        X[0, 0, 0] = x_top
        Y = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        b = _b_at_threshold(lam, gamma, n_envs, n, CERTIFIED_MAX)
        # B either side of it, from the intercept or from a weight
        near = [b * f for f in (1 - 2.0 ** -30, 1 + 2.0 ** -30)]
        near += [v / _stack(X, Y, lam, gamma, 1).xmax for v in near]
        entries = [0.0, 1e-300, 1e308, np.inf, np.nan, *near]
        entries += [-v for v in entries[1:]]
        theta = np.array(list(itertools.product(entries, repeat=d + 1)))
        certified, values = _check_certificate(theta, _stack(X, Y, lam, gamma, len(theta)))
        if np.isfinite(b):
            # the threshold falls between the near entries
            lone = np.count_nonzero(theta, axis=1) == 1
            assert certified[lone].any() and not certified[lone].all()

    @pytest.mark.parametrize("top", [CERTIFIED_MAX, BIG / 4], ids=["2**1000", "max/4"])
    @pytest.mark.parametrize("gamma", WEIGHTS)
    @pytest.mark.parametrize("lam", WEIGHTS)
    def test_sound_where_the_bound_is_nearly_reached(self, lam, gamma, top,
                                                     monkeypatch):
        # Rows on which every term nearly meets its bound: each prediction
        # is ±B and wrong, so a row's risk is B and g_e is B; the centred
        # predictions are ±B.  Models at and around the B where the bound
        # meets the threshold, which is sound even at a quarter of the
        # largest float: the margin below overflow is slack.
        monkeypatch.setattr(objectives, "CERTIFIED_MAX", top)
        n = 64
        x = np.repeat([[-1.0], [1.0]], n // 2, axis=0)
        y = np.repeat([1.0, 0.0], n // 2)
        b = _b_at_threshold(lam, gamma, 2, n, top)
        scales = np.concatenate([2.0 ** np.arange(-8, 9), 1 + 2.0 ** -np.arange(20, 40, 4),
                                 1 - 2.0 ** -np.arange(20, 40, 4)])
        theta = np.zeros((scales.size, 2))
        theta[:, 0] = b * scales
        stack = _stack([x, x], [y, y], lam, gamma, scales.size)
        certified, _ = _check_certificate(theta, stack)
        if np.isfinite(b):
            assert certified.any() and not certified.all()

    def test_square_loss_reports_the_finiteness_of_its_value(self):
        r = RngStream(47)
        envs = random_envs(r, task="regression")
        seeds = [(envs, [np.arange(env.n) for env in envs])]
        stack = moment_stack(seeds, [50], np.full(50, 2.0), np.full(50, 0.5))
        theta = 10.0 ** r.fork("theta").uniform(-10.0, 200.0, shape=(50, 5))
        with np.errstate(all="ignore"):
            values, grad = stack_objective(theta, stack)
            finite, same_grad = stack_objective(theta, stack, value=False)
        assert np.array_equal(finite, np.isfinite(values))
        assert finite.any() and not finite.all()
        assert np.array_equal(same_grad, grad, equal_nan=True)

    @pytest.mark.parametrize("lam,gamma", [(0.0, 0.0), (3.0, 0.0), (0.0, 0.5),
                                           (3.0, 0.5)])
    def test_a_certified_step_evaluates_no_softplus(self, lam, gamma, monkeypatch):
        # the regression this certificate exists for: a training step whose
        # models are all certified computes no risk term
        r = RngStream(53)
        envs = random_envs(r)
        seeds = [(envs, [np.arange(env.n) for env in envs])]
        stack = env_stack(seeds, np.full(4, lam), np.full(4, gamma))
        theta = 0.5 * r.fork("theta").gaussian_array((4, 5))

        def no_log1p(*args, **kwargs):
            raise AssertionError("log1p evaluated")

        monkeypatch.setattr(np, "log1p", no_log1p)
        finite, _ = stack_objective(theta, stack, value=False)
        assert finite.all()
        with pytest.raises(AssertionError, match="log1p evaluated"):
            stack_objective(theta, stack)

    @pytest.mark.parametrize("case", ["certified", "one-uncertified", "value"])
    def test_the_value_is_computed_for_the_whole_batch_or_none(self, case,
                                                               monkeypatch):
        # one model the certificate leaves out makes every model's value
        # computed; the finiteness and gradients are value=True's
        r = RngStream(61)
        envs = random_envs(r)
        seeds = [(envs, [np.arange(env.n) for env in envs])]
        stack = env_stack(seeds, np.full(4, 3.0), np.full(4, 0.5))
        theta = 0.5 * r.fork("theta").gaussian_array((4, 5))
        if case == "one-uncertified":
            theta[2, 0] = 1e200
        scored = []
        env_terms = objectives._env_terms
        monkeypatch.setattr(objectives, "_env_terms",
                            lambda *a: scored.append(a[6]) or env_terms(*a))
        with np.errstate(all="ignore"):
            got, grad = stack_objective(theta, stack, value=case == "value")
            values, want_grad = stack_objective(theta, stack)
        assert scored[0] is (case != "certified") and scored[1] is True
        assert np.array_equal(got, values if case == "value" else np.isfinite(values))
        assert np.array_equal(grad, want_grad, equal_nan=True)


class TestKeepQueries:
    """``keep_queries(stack, keep)`` is the stack built for the kept
    queries alone, field by field and bit for bit, but for an EnvStack's
    work buffers, which it shares, and its scatter, which it keeps once
    built."""

    # query q's weights: four methods in turn, so an IRM row every other query
    LAM = np.array([0.0, 2.0, 0.0, 3.0] * 2)
    GAMMA = np.array([0.0, 0.0, 0.5, 0.25] * 2)
    KEEPS = {"all": list(range(8)), "all-but-first": list(range(1, 8)),
             "prefix": [0, 1, 2], "one": [5], "last": [7],
             "scattered": [1, 4, 6], "no-irm": [0, 2, 4, 6]}

    @staticmethod
    def _seeds(task):
        """Two data seeds, each with its own explicit rows of every
        environment."""
        r = RngStream(59)
        seeds = []
        for s in (0, 1):
            envs = random_envs(r.fork(f"seed{s}"), task=task)
            seeds.append((envs, [r.fork(f"rows{s}/{e}").permutation(env.n)[:30]
                                 for e, env in enumerate(envs)]))
        return seeds

    @staticmethod
    def _assert_same(got, want):
        assert type(got) is type(want)
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "work" or (f.name == "C" and b is None):
                continue
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name

    def _check_env_stack(self, lam, gamma, keep):
        """Eight queries of one data seed at weights ``lam`` and ``gamma``."""
        seeds = self._seeds("classification")[:1]
        stack = env_stack(seeds, lam, gamma)
        got = keep_queries(stack, np.array(keep))
        self._assert_same(got, env_stack(seeds, lam[keep], gamma[keep]))
        assert got.work is stack.work

    @pytest.mark.parametrize("keep", sorted(KEEPS))
    def test_env_stack(self, keep):
        # the methods in turn: each penalty's models are indices
        self._check_env_stack(self.LAM, self.GAMMA, self.KEEPS[keep])

    @pytest.mark.parametrize("keep", sorted(KEEPS))
    def test_env_stack_in_penalty_order(self, keep):
        # ERM, IB-ERM, IB-IRM, IRM, as training orders them: each penalty's
        # models are a slice
        order = [0, 4, 2, 6, 3, 7, 1, 5]
        self._check_env_stack(self.LAM[order], self.GAMMA[order], self.KEEPS[keep])

    @pytest.mark.parametrize("keep", sorted(KEEPS))
    def test_mixed_method_moment_stack(self, keep):
        # four queries on each of two data seeds
        seeds = self._seeds("regression")
        keep = self.KEEPS[keep]
        stack = moment_stack(seeds, [4, 4], self.LAM, self.GAMMA)
        got = keep_queries(stack, np.array(keep))
        want = moment_stack(seeds, np.bincount(np.array(keep) // 4, minlength=2),
                            self.LAM[keep], self.GAMMA[keep])
        self._assert_same(got, want)
        assert (got.M is None) == (keep == self.KEEPS["no-irm"])
