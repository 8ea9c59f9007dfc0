"""The batched training engine against the per-model oracle, on the loss
of each task, within the tolerance contract of ``oodbench.trainer``: for
the logistic loss (classification) bit for bit in everything but the
objective value, which takes the softplus from the sigmoid's exp(-|yhat|)
instead of ``np.logaddexp``; and within a bound for the square loss
(regression), which the engine scores from moments instead of rows.  The
objective is compared at each of the oracle's iterates, the trainings by
their results."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import oracle
from oodbench.numeric_core import ParameterError, RngStream
from oodbench.objectives import ObjectiveConfig, env_stack, objective_and_gradient
from oodbench.sem_generators import EnvDataset, GeneratorSpec, generate_training_envs
from oodbench.trainer import (METHODS, TrainConfig, _sample_hparams, _splits,
                              _stack_queries, train_gd)

TASK = {"square": "regression", "logistic": "classification"}

# (lam, gamma, lr) per query, for GD and for Adam, in one batch per penalty
# pattern (ERM, IRM, IB-ERM, IB-IRM), as a logistic sweep trains the
# queries of one method.  In each batch the second query's step size is the
# larger, meant to diverge; on every loss some batch has one query that
# finishes and one that diverges and leaves it.
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


def _batch(queries):
    lam, gamma, lr = (np.array(col) for col in zip(*queries))
    return ObjectiveConfig(lam, gamma), lr


def _streams(seed, batches):
    """One stream per query, numbered through the batches in order."""
    q = itertools.count()
    return [[RngStream(seed).fork(f"query{next(q)}") for _ in batch]
            for batch in batches]


def _oracle(envs, query, tc, rng):
    """(theta, val_risk, diverged_step) of one query."""
    lam, gamma, lr = query
    cfg = ObjectiveConfig(lam, gamma)
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
# calls of the oracle's trainings: at most 3.4e-16 (value) and 3.5e-16
# (gradient); at the benchmark's shape (see
# test_folded_objective_at_the_benchmark_shape), at most 4.3e-16 and 7.5e-16.
CALL_RTOL = 1e-14
# Per training, 60 steps: theta and val_risk within this relative distance
# (max-norm) of the oracle's.  Measured: 6.6e-14 (GD) and 1.3e-15 (Adam).
TRAIN_RTOL = 1e-12
# Logistic loss, per call: the objective value within this relative
# distance of the oracle's; the gradient is bit for bit.  Measured on this
# grid, over the 426 (GD) and 368 (Adam) calls: 31 values differ, by at
# most 3.6e-16.
LOGISTIC_RTOL = 1e-15
# Per call, the bound on (value, gradient) distance of each loss.
CALL_BOUNDS = {"square": (CALL_RTOL, CALL_RTOL), "logistic": (LOGISTIC_RTOL, 0.0)}


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

    def checked(model, envs, cfg, loss=None):
        value, grad = reference(model, envs, cfg, loss)
        got_value, got_grad = oracle.batched_objective(model, envs, cfg)
        if envs[0].task == "regression":
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
@pytest.mark.parametrize("loss", ["square", "logistic"])
def test_matches_per_model_oracle(loss, optimizer, monkeypatch):
    envs = _envs(loss)
    batches = QUERIES[optimizer]
    streams = _streams(1, batches)
    tc = TrainConfig(steps=60, optimizer=optimizer)
    results = []
    for queries, rngs in zip(batches, streams):
        cfg, lr = _batch(queries)
        results.append(train_gd([envs] * len(rngs), cfg, replace(tc, lr=lr), rngs))
    errors = _checked_calls(monkeypatch)
    finished = []
    for queries, rngs, batch in zip(batches, streams, results):
        expected = [_oracle(envs, qu, tc, r) for qu, r in zip(queries, rngs)]
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


def _train_each(entries, tc=TrainConfig(steps=80)):
    """Train ``entries``, one (environments, (lam, gamma, lr), stream) per
    query, as one batch (of 80 GD steps unless ``tc`` says otherwise)."""
    cfg, lr = _batch([query for _, query, _ in entries])
    return train_gd([envs for envs, _, _ in entries], cfg, replace(tc, lr=lr),
                    [rng for _, _, rng in entries])


@pytest.mark.parametrize("loss", ["square", "logistic"])
def test_query_bits_do_not_depend_on_its_batch(loss):
    # Each batch interleaves the queries of two data seeds, each seed's
    # queries on that seed's one list of environments, as a sweep batches
    # the data seeds of a method.
    seed_envs = (_envs(loss, seed=4), _envs(loss, seed=6))
    finished = []
    for queries, *seed_streams in zip(QUERIES["gd"], _streams(5, QUERIES["gd"]),
                                      _streams(7, QUERIES["gd"])):
        entries = [(envs, query, streams[q]) for q, query in enumerate(queries)
                   for envs, streams in zip(seed_envs, seed_streams)]
        batch = _train_each(entries)
        finished.append([r.diverged_step is None for r in batch[::2]])
        reordered = _train_each(entries[::-1])[::-1]
        for entry, *others in zip(entries, batch, reordered):
            alone, = _train_each([entry])
            for other in others:
                assert other.diverged_step == alone.diverged_step
                assert np.array_equal(other.theta, alone.theta)
                assert other.val_risk == alone.val_risk
    assert [True, False] in finished


@pytest.mark.parametrize("other", [dict(n=50), dict(d=3), dict(n_envs=2)],
                         ids=["rows", "columns", "environments"])
def test_a_batch_mixing_environment_shapes_is_rejected(other):
    entries = [(_envs("square"), (0.0, 0.0, 0.05), RngStream(0)),
               (_envs("square", **other), (0.0, 0.0, 0.05), RngStream(1))]
    with pytest.raises(ParameterError, match="must share one task"):
        _train_each(entries)


@pytest.mark.parametrize("lam,gamma", [([0.0, 3.0], 0.0), (0.0, [0.5, 0.0]),
                                       ([2.0, 0.0], [0.7, 0.5])])
def test_a_batch_mixing_penalty_patterns_is_rejected(lam, gamma):
    # The logistic stack computes each penalty for the whole batch, so it
    # takes the queries of one method only; the square stack takes any
    # weights >= 0 (test_a_square_batch_mixing_methods_keeps_each_querys_bits).
    lam, gamma = np.array(lam), np.array(gamma)
    envs = _envs("logistic")
    rows = [[np.arange(env.n) for env in envs]] * 2
    with pytest.raises(ParameterError, match="all zero or all positive"):
        env_stack([envs] * 2, rows, lam, gamma)
    rngs = [RngStream(0).fork(f"query{q}") for q in range(2)]
    with pytest.raises(ParameterError, match="all zero or all positive"):
        train_gd([envs] * 2, ObjectiveConfig(lam, gamma),
                 TrainConfig(lr=0.05, steps=5), rngs)


@pytest.mark.parametrize("optimizer", ["gd", "adam"])
def test_a_square_batch_mixing_methods_keeps_each_querys_bits(optimizer):
    # Every query of the four one-method batches, on two data seeds,
    # trained as one batch as a square-loss sweep trains them: each query
    # ends with the theta, diverged_step and val_risk bits of its
    # one-method batch.
    seed_envs = (_envs("square", seed=4), _envs("square", seed=6))
    tc = TrainConfig(steps=60, optimizer=optimizer)
    entries, alone = [], []
    for queries, rngs in zip(QUERIES[optimizer], _streams(2, QUERIES[optimizer])):
        method = [(envs, query, rng) for envs in seed_envs
                  for query, rng in zip(queries, rngs)]
        entries += method
        alone += _train_each(method, tc)
    mixed = _train_each(entries, tc)
    for one, both in zip(alone, mixed):
        assert both.diverged_step == one.diverged_step
        assert both.theta.tobytes() == one.theta.tobytes()
        assert both.val_risk == one.val_risk
    assert {r.diverged_step is None for r in mixed} == {True, False}


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
    cfg = ObjectiveConfig(0.0, 0.0)
    tc = TrainConfig(lr=0.05, steps=30)
    train_b, _ = oracle._split_env(env, b.fork("split").fork("env0"))
    with np.errstate(over="ignore"):
        value, grad = oracle.objective_and_gradient(
            oracle.LinearModel(w=np.zeros(2), b=0.0), [train_b], cfg)
    assert np.isfinite(value) and not np.isfinite(grad).all()
    ra, rb, rc = train_gd([[env]] * 3, cfg, tc, [a, b, c])
    assert rb.diverged_step == 1
    assert not np.all(np.isfinite(rb.theta))
    assert rb.val_risk == np.inf
    for with_b, without_b in zip((ra, rc), train_gd([[env]] * 2, cfg, tc, [a, c])):
        assert with_b.diverged_step is None
        assert np.isfinite(with_b.val_risk)
        assert np.array_equal(with_b.theta, without_b.theta)
        assert with_b.val_risk == without_b.val_risk


def _ex1_queries(method, n_seeds=8, n_queries=12):
    """The queries of one method of the benchmark's ex1 sweep: per data
    seed, its environments and one stream per query; and the sampled (lam,
    gamma)."""
    spec = GeneratorSpec(example="ex1")
    root = RngStream(0)
    query_envs, rngs, weights = [], [], []
    for seed in range(n_seeds):
        _, _, envs = generate_training_envs(spec, root.fork(f"seed{seed}").fork("data"))
        seed_rng = root.fork(f"method/{method}").fork(f"seed{seed}")
        for q in range(n_queries):
            q_rng = seed_rng.fork(f"query{q}")
            _, lam, gamma = _sample_hparams(method, q_rng.fork("hparams"))
            query_envs.append(envs)
            rngs.append(q_rng.fork("train"))
            weights.append((lam, gamma))
    return query_envs, rngs, weights


def _train_split(envs, rng):
    """A query's training rows of each environment, drawn by the oracle."""
    split_rng = rng.fork("split")
    return [oracle._split_env(env, split_rng.fork(f"env{env.env_id}"))[0]
            for env in envs]


@pytest.mark.parametrize("method", METHODS)
def test_folded_objective_at_the_benchmark_shape(method):
    # ex1 at 12 queries x 8 seeds: Q = 96, E = 3, d = 10, n = 800, each
    # query at its sampled weights and a nonzero theta, against the per-row
    # oracle within the per-call contract
    query_envs, rngs, weights = _ex1_queries(method)
    lam, gamma = (np.array(col) for col in zip(*weights))
    stack = _stack_queries(query_envs, rngs, lam, gamma)
    assert stack.K.shape == (96, 12, 12) and stack.n == 800
    assert (stack.M is None) == (method in ("ERM", "IBERM"))
    theta = 0.3 * RngStream(9).fork(method).gaussian_array((96, 11))
    values, grads = objective_and_gradient(theta, stack)
    worst = [0.0, 0.0]
    for q, (envs, rng) in enumerate(zip(query_envs, rngs)):
        model = oracle.LinearModel(w=theta[q, :-1], b=theta[q, -1])
        cfg = ObjectiveConfig(*weights[q])
        train = _train_split(envs, rng)
        value, grad = oracle.objective_and_gradient(model, train, cfg)
        v_scale, g_scale = _magnitudes(model, train, cfg)
        worst[0] = max(worst[0], abs(values[q] - value) / v_scale)
        worst[1] = max(worst[1], np.max(np.abs(grads[q] - grad)) / np.max(g_scale))
    assert worst[0] <= CALL_RTOL and worst[1] <= CALL_RTOL, worst


def test_moments_are_built_per_seed_bit_for_bit():
    # Two data seeds of three queries each.  In the second, one row that
    # query 0 holds out gets the largest magnitude of column 0 by far, so
    # the seed's scale of that column is not the one query 0's own rows
    # give.  Every query's unscaled moments must be those of its own
    # training rows scaled by their own maxima, bit for bit: Σ_e M_e from an
    # ERM stack's K, Σ_e M_e + gamma C from an IB-ERM stack's at a
    # power-of-two gamma, and M_e but its last row from an IRM stack's M at
    # lam = 1.
    query_envs, rngs, _ = _ex1_queries("ERM", n_seeds=2, n_queries=3)
    envs = query_envs[3]
    held_row = next(_splits(envs, rngs[3]))[2][0]  # held out of env 0
    envs = list(envs)
    X = envs[0].X.copy()
    X[held_row, 0] = 1e3 * np.abs(X[:, 0]).max()
    envs[0] = replace(envs[0], X=X)
    query_envs[3:] = [envs] * 3
    zero, one, half = np.zeros(6), np.ones(6), np.full(6, 0.5)
    erm, iberm, irm = (_stack_queries(query_envs, rngs, lam, gamma)
                       for lam, gamma in ((zero, zero), (zero, half), (one, zero)))
    assert erm.M is None and iberm.M is None and irm.M is not None
    moved = 0
    for q, (envs, rng) in enumerate(zip(query_envs, rngs)):
        train = _train_split(envs, rng)
        M0, C0, scale0 = oracle.square_moments([(env.X, env.Y) for env in train])
        K0 = M0[0].sum(axis=0)
        K0_ib = K0.copy()
        K0_ib[:-2, :-2] += 0.5 * C0[0]
        s0 = np.append(scale0[0], 1.0)
        for stack in (erm, iberm, irm):
            assert stack.n == 800
            assert np.array_equal(stack.scale[q], irm.scale[q])
        s = np.append(irm.scale[q], 1.0)
        assert np.array_equal(erm.K[q] * s[:, None] * s, K0 * s0[:, None] * s0)
        assert np.array_equal(iberm.K[q] * s[:, None] * s, K0_ib * s0[:, None] * s0)
        assert np.array_equal(irm.M[q] * s[:-1, None] * s,
                              M0[0, :, :-1] * s0[:-1, None] * s0)
        moved += int(np.any(s != s0))
    assert moved >= 1
