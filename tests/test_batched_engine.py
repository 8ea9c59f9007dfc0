"""The batched training engine against the per-model oracle, within the
tolerance contract of ``oodbench.trainer``: bit for bit for the exponential
loss; for the logistic loss bit for bit in everything but the objective
value, which takes the softplus from the sigmoid's exp(-|yhat|) instead of
``np.logaddexp``; and within a bound for the square loss, which the engine
scores from moments instead of rows.  The objective is compared at each of
the oracle's iterates, the trainings by their results."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import oracle
from oodbench.numeric_core import ParameterError, RngStream
from oodbench.objectives import LinearModel, ObjectiveConfig
from oodbench.sem_generators import EnvDataset
from oodbench.trainer import TrainConfig, train_gd

TASK = {"square": "regression", "logistic": "classification",
        "exponential": "classification"}

# (lam, gamma, lr) per query, for GD and for Adam, in one batch per penalty
# pattern (ERM, IRM, IB-ERM, IB-IRM), as a sweep trains the queries of one
# method.  In each batch the second query's step size is the larger, meant
# to diverge; on every loss some batch has one query that finishes and one
# that diverges and leaves it.
QUERIES = {
    "gd": [[(0.0, 0.0, 0.05), (0.0, 0.0, 1e300)],
           [(3.0, 0.0, 0.02), (50.0, 0.0, 3.0)],
           [(0.0, 0.5, 0.05), (0.0, 0.9, 1e3)],
           [(2.0, 0.7, 0.01), (1e4, 0.5, 40.0)]],
    "adam": [[(0.0, 0.0, 0.05), (0.0, 0.0, 1e300)],
             [(3.0, 0.0, 0.02), (50.0, 0.0, 1e200)],
             [(0.0, 0.5, 0.05), (0.0, 0.9, 1e300)],
             [(2.0, 0.7, 0.01), (1e4, 0.5, 1e150)]],
}


def _envs(loss, n_envs=3, n=40, d=4, seed=0):
    rng = RngStream(seed)
    w = rng.fork("w").gaussian_array((d,))
    envs = []
    for e in range(n_envs):
        r = rng.fork(f"env{e}")
        X = r.fork("x").gaussian_array((n, d), std=1.0 + e)
        y = X @ w + 0.5 * r.fork("eps").gaussian_array((n,))
        if TASK[loss] == "classification":
            y = (y >= 0).astype(float)
        envs.append(EnvDataset(env_id=e, X=X, Y=y, task=TASK[loss]))
    return envs


def _batch(queries, loss):
    lam, gamma, lr = (np.array(col) for col in zip(*queries))
    return ObjectiveConfig(loss, lam, gamma), lr


def _streams(seed, batches):
    """One stream per query, numbered through the batches in order."""
    q = itertools.count()
    return [[RngStream(seed).fork(f"query{next(q)}") for _ in batch]
            for batch in batches]


def _oracle(envs, loss, query, tc, rng):
    """(theta, val_risk, diverged_step) of one query."""
    lam, gamma, lr = query
    cfg = ObjectiveConfig(loss, lam, gamma)
    tc = TrainConfig(lr=lr, steps=tc.steps, optimizer=tc.optimizer)
    try:
        with np.errstate(all="ignore"):
            theta, _, val_risk = oracle.train_gd(envs, cfg, tc, rng)
    except oracle.OracleDivergence as exc:
        return exc.last_state, np.inf, exc.step
    return theta, val_risk, None


# The square-loss contract, per call: value and gradient (max-norm) within
# these multiples of their terms' magnitudes (see _magnitudes) of the
# per-row oracle.  Measured on this grid, over the 174 (GD) and 248 (Adam)
# calls of the oracle's trainings: at most 2.3e-16 (value) and 3.5e-16
# (gradient).
CALL_RTOL = 1e-14
# Per training, 60 steps: theta and val_risk within this relative distance
# (max-norm) of the oracle's.  Measured: 7.9e-14 (GD) and 6.5e-16 (Adam).
TRAIN_RTOL = 1e-12
# Logistic loss, per call: the objective value within this relative
# distance of the oracle's; the gradient is bit for bit.  Measured on this
# grid, over the 426 (GD) and 368 (Adam) calls: 31 values differ, by at
# most 3.6e-16.
LOGISTIC_RTOL = 1e-15
# Per call, the bound on (value, gradient) distance of each loss.
CALL_BOUNDS = {"square": (CALL_RTOL, CALL_RTOL), "logistic": (LOGISTIC_RTOL, 0.0),
               "exponential": (0.0, 0.0)}


def _magnitudes(model, envs, cfg):
    """Majorants of the terms of the square-loss value and gradient: each
    term evaluated on absolute values, so that none can cancel.  Returns
    (value scale, gradient scale vector)."""
    t = np.abs(np.append(model.w, model.b))
    value, grad = 0.0, np.zeros_like(t)
    for env in envs:
        A = np.abs(np.column_stack([env.X, np.ones(env.n)]))
        h = A @ t
        y = np.abs(env.Y)
        r = h + y
        value += np.mean(r * r)
        grad += 2.0 * (A.T @ r) / env.n
        if cfg.lam > 0:
            g = 2.0 * np.mean(r * h)
            value += cfg.lam * g * g
            grad += cfg.lam * 2.0 * g * 2.0 * (A.T @ (2.0 * h + y)) / env.n
    if cfg.gamma > 0:
        X = np.vstack([env.X for env in envs])
        Xc = np.abs(X - X.mean(axis=0))
        h = Xc @ t[:-1]
        value += len(envs) * cfg.gamma * np.mean(h * h)
        grad[:-1] += len(envs) * cfg.gamma * 2.0 * (Xc.T @ h) / X.shape[0]
    return value, grad


def _checked_calls(monkeypatch):
    """Make every per-model oracle call also score the model with the
    package's objective; returns the list that collects, per call, the
    value's and the gradient's (max-norm) distance over their magnitudes:
    those of their terms for the square loss (see _magnitudes), their own
    otherwise."""
    errors = []
    reference = oracle.objective_and_gradient

    def checked(model, envs, cfg):
        value, grad = reference(model, envs, cfg)
        got_value, got_grad = oracle.batched_objective(model, envs, cfg)
        if cfg.loss == "square":
            v_scale, g_scale = _magnitudes(model, envs, cfg)
        else:
            v_scale, g_scale = abs(value), np.abs(grad)
        if np.isfinite([value, v_scale, *grad, *g_scale]).all():
            errors.append((abs(got_value - value) / v_scale,
                           np.max(np.abs(got_grad - grad)) / np.max(g_scale)))
        return value, grad

    monkeypatch.setattr(oracle, "objective_and_gradient", checked)
    return errors


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _assert_within_contract(result, expected):
    theta, val_risk, step = expected
    assert result.diverged_step == step
    assert _rel(result.theta, theta) <= TRAIN_RTOL
    if step is None:
        assert abs(result.val_risk - val_risk) <= TRAIN_RTOL * val_risk
    else:
        assert result.val_risk == val_risk


def _assert_same(result, expected):
    theta, val_risk, step = expected
    assert result.diverged_step == step
    assert np.array_equal(result.theta, theta)
    assert result.val_risk == val_risk


@pytest.mark.parametrize("optimizer", ["gd", "adam"])
@pytest.mark.parametrize("loss", ["square", "logistic", "exponential"])
def test_matches_per_model_oracle(loss, optimizer, monkeypatch):
    envs = _envs(loss)
    batches = QUERIES[optimizer]
    streams = _streams(1, batches)
    tc = TrainConfig(steps=60, optimizer=optimizer)
    results = []
    for queries, rngs in zip(batches, streams):
        cfg, lr = _batch(queries, loss)
        results.append(train_gd(envs, cfg, replace(tc, lr=lr), rngs))
    errors = _checked_calls(monkeypatch)
    finished = []
    for queries, rngs, batch in zip(batches, streams, results):
        expected = [_oracle(envs, loss, qu, tc, r) for qu, r in zip(queries, rngs)]
        finished.append([e[2] is None for e in expected])
        for result, exp in zip(batch, expected):
            if loss == "square":
                _assert_within_contract(result, exp)
            else:
                _assert_same(result, exp)
    assert [True, False] in finished
    # every call the oracle's trainings made, up to each divergence
    assert len(errors) > 2 * tc.steps
    value_bound, grad_bound = CALL_BOUNDS[loss]
    assert max(v for v, _ in errors) <= value_bound
    assert max(g for _, g in errors) <= grad_bound


@pytest.mark.parametrize("loss", ["square", "logistic"])
def test_query_bits_do_not_depend_on_its_batch(loss):
    envs = _envs(loss, seed=4)
    finished = []
    for queries, rngs in zip(QUERIES["gd"], _streams(5, QUERIES["gd"])):
        cfg, lr = _batch(queries, loss)
        batch = train_gd(envs, cfg, TrainConfig(lr=lr, steps=80), rngs)
        finished.append([r.diverged_step is None for r in batch])
        cfg_r, lr_r = _batch(queries[::-1], loss)
        reordered = train_gd(envs, cfg_r, TrainConfig(lr=lr_r, steps=80),
                             rngs[::-1])[::-1]
        for query, rng, *others in zip(queries, rngs, batch, reordered):
            cfg_1, lr_1 = _batch([query], loss)
            alone, = train_gd(envs, cfg_1, TrainConfig(lr=lr_1, steps=80), [rng])
            for other in others:
                assert other.diverged_step == alone.diverged_step
                assert np.array_equal(other.theta, alone.theta)
                assert other.val_risk == alone.val_risk
    assert [True, False] in finished


@pytest.mark.parametrize("lam,gamma", [([0.0, 3.0], 0.0), (0.0, [0.5, 0.0]),
                                       ([2.0, 0.0], [0.7, 0.5])])
def test_a_batch_mixing_penalty_patterns_is_rejected(lam, gamma):
    lam, gamma = np.array(lam), np.array(gamma)
    with pytest.raises(ParameterError, match="all zero or all positive"):
        ObjectiveConfig("logistic", lam, gamma)
    # a config changed after it was checked is checked again by train_gd
    cfg = ObjectiveConfig("logistic", 1.0, 1.0)
    cfg.lam, cfg.gamma = lam, gamma
    rngs = [RngStream(0).fork(f"query{q}") for q in range(2)]
    with pytest.raises(ParameterError, match="all zero or all positive"):
        train_gd(_envs("logistic"), cfg, TrainConfig(lr=0.05, steps=5), rngs)


def test_gradient_overflow_stops_only_that_query():
    # One outlier row (x = 1e200 in a column that is 0 elsewhere, y = 1e150)
    # is in the training rows of query B only.  At step 0 B's objective is
    # finite (~1e300 / n) but its gradient overflows, so its first update
    # leaves the weights infinite.  A and C hold the row out.
    n = 50
    r = RngStream(8)
    x1 = r.fork("x").gaussian_array((n,))
    X = np.column_stack([np.zeros(n), x1])
    y = 2.0 * x1 + 0.1 * r.fork("eps").gaussian_array((n,))
    X[0, 0], y[0] = 1e200, 1e150
    env = EnvDataset(env_id=0, X=X, Y=y, task="regression")

    def holds_out_row0(k):
        perm = RngStream(k).fork("split").fork("env0").permutation(n)
        return 0 in perm[:10]

    held = [k for k in range(60) if holds_out_row0(k)][:2]
    trained = next(k for k in range(60) if not holds_out_row0(k))
    a, b, c = (RngStream(k) for k in (held[0], trained, held[1]))
    cfg = ObjectiveConfig("square", 0.0, 0.0)
    tc = TrainConfig(lr=0.05, steps=30)
    train_b, _ = oracle._split_env(env, b.fork("split").fork("env0"))
    with np.errstate(over="ignore"):
        value, grad = oracle.objective_and_gradient(
            LinearModel(w=np.zeros(2), b=0.0), [train_b], cfg)
    assert np.isfinite(value) and not np.isfinite(grad).all()
    ra, rb, rc = train_gd([env], cfg, tc, [a, b, c])
    assert rb.diverged_step == 1
    assert not np.all(np.isfinite(rb.theta))
    assert rb.val_risk == np.inf
    for with_b, without_b in zip((ra, rc), train_gd([env], cfg, tc, [a, c])):
        assert with_b.diverged_step is None
        assert np.isfinite(with_b.val_risk)
        assert np.array_equal(with_b.theta, without_b.theta)
        assert with_b.val_risk == without_b.val_risk
