"""The batched training engine against the per-model oracle, on the loss
of each task, within the tolerance contract of ``oodbench.trainer``: the
logistic loss (classification) sums its rows by matrix products and the
square loss (regression) scores moments, so each is within a bound of the
per-model path, not bit for bit.  The objective is compared at each of the
oracle's iterates, the trainings by their results.  A query's own bits do
not depend on its batch: that is checked bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

import oracle
from oodbench.numeric_core import ParameterError, RngStream
from oodbench.objectives import (ObjectiveConfig, env_stack, moment_stack,
                                 objective_and_gradient)
from oodbench.sem_generators import EnvDataset, GeneratorSpec, generate_training_envs
from oodbench.trainer import METHODS, TrainConfig, _sample_hparams, _split, train_gd

TASK = {"square": "regression", "logistic": "classification"}

# (lam, gamma, lr) per query, for GD and for Adam: two queries of each
# penalty pattern (ERM, IRM, IB-ERM, IB-IRM), trained as one batch, as a
# sweep trains every method's queries of a data seed.  The second query of
# each pattern has the larger step size, meant to diverge.
QUERIES = {
    "gd": [(0.0, 0.0, 0.05), (0.0, 0.0, 1e300),
           (3.0, 0.0, 0.02), (50.0, 0.0, 3.0),
           (0.0, 0.5, 0.05), (0.0, 0.9, 1e3),
           (2.0, 0.7, 0.01), (1e4, 0.5, 40.0)],
    "adam": [(0.0, 0.0, 0.05), (0.0, 0.0, 1e300),
             (3.0, 0.0, 0.02), (50.0, 0.0, 1e200),
             (0.0, 0.5, 0.05), (0.0, 0.9, 1e300),
             (2.0, 0.7, 0.01), (1e4, 0.5, 1e150)],
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


def _oracle(envs, query, tc, split_rng):
    """(theta, val_risk, diverged_step) of one query."""
    lam, gamma, lr = query
    cfg = ObjectiveConfig(lam, gamma)
    tc = TrainConfig(lr=lr, steps=tc.steps, optimizer=tc.optimizer)
    try:
        with np.errstate(all="ignore"):
            theta, _, val_risk = oracle.train_gd(envs, cfg, tc, split_rng)
    except oracle.OracleDivergence as exc:
        return exc.last_state, np.inf, exc.step
    return theta, val_risk, None


# The square-loss contract, per call: value and gradient (max-norm) within
# these multiples of their terms' magnitudes (see _magnitudes) of the
# per-row oracle.  Measured on this grid, over the 174 (GD) and 248 (Adam)
# calls of the oracle's trainings: at most 5.1e-16 (value) and 3.0e-16
# (gradient); at the benchmark's shape (see
# test_folded_objective_at_the_benchmark_shape), at most 2.4e-16 and 8.3e-16.
CALL_RTOL = 1e-14
# Per training, 60 steps: theta and val_risk within this relative distance
# (max-norm) of the oracle's.  Measured: theta 9.5e-15 (GD) and 1.5e-15
# (Adam), val_risk 1.9e-14 and 2.5e-15, on the square loss; theta 4.6e-15
# and 1.5e-15, val_risk equal, on the logistic loss.
TRAIN_RTOL = 1e-12
# The logistic loss, per call: the value within this distance relative to
# itself, the gradient relative to the same kind of majorants as the square
# loss's.  Measured on this grid, over the 427 (GD) and 368 (Adam) calls, at
# most 7.3e-16 (value) and 3.1e-16 (gradient).
LOGISTIC_RTOL = 1e-15
CALL_BOUNDS = {"square": (CALL_RTOL, CALL_RTOL), "logistic": (LOGISTIC_RTOL, LOGISTIC_RTOL)}


def _magnitudes(model, envs, cfg, loss):
    """Majorants of the terms of the value and gradient: each term
    evaluated on absolute values, so that none can cancel.  Returns (value
    scale, gradient scale vector); the value scale is nan on the logistic
    loss."""
    t = np.abs(np.append(model.w, model.b))
    value, grad = 0.0, np.zeros_like(t)
    for env in envs:
        A = np.abs(np.column_stack([env.X, np.ones(env.n)]))
        h = A @ t
        y = np.abs(env.Y)
        if loss == "square":
            r = h + y
            value += np.mean(r * r)
            grad += 2.0 * (A.T @ r) / env.n
            dg = 2.0 * (2.0 * h + y)
            g = 2.0 * np.mean(r * h)
        else:
            # |s - y| <= 1, and the IRM term's derivative is at most |yhat| + 2
            value = np.nan  # a logistic value is measured against itself
            grad += A.sum(axis=0) / env.n
            dg = h + 2.0
            g = np.mean(h)
        if cfg.lam > 0:
            value += cfg.lam * g * g
            grad += cfg.lam * 2.0 * g * (A.T @ dg) / env.n
    if cfg.gamma > 0:
        X = np.vstack([env.X for env in envs])
        Xc = np.abs(X - X.mean(axis=0))
        h = Xc @ t[:-1]
        value += len(envs) * cfg.gamma * np.mean(h * h)
        grad[:-1] += len(envs) * cfg.gamma * 2.0 * (Xc.T @ h) / X.shape[0]
    return value, grad


def _checked_calls(monkeypatch, loss):
    """Make every per-model oracle call also score the model with the
    package's objective; returns the list that collects, per call, the
    value's and the gradient's (max-norm) distance over the magnitudes of
    their terms (see _magnitudes), the logistic value's over its own."""
    errors = []
    reference = oracle.objective_and_gradient

    def checked(model, envs, cfg, loss_=None):
        value, grad = reference(model, envs, cfg, loss_)
        got_value, got_grad = oracle.batched_objective(model, envs, cfg)
        v_scale, g_scale = _magnitudes(model, envs, cfg, loss)
        if loss == "logistic":
            v_scale = abs(value)
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


def _assert_same(result, other):
    assert result.diverged_step == other.diverged_step
    assert result.theta.tobytes() == other.theta.tobytes()
    assert result.val_risk == other.val_risk


@pytest.mark.parametrize("optimizer", ["gd", "adam"])
@pytest.mark.parametrize("loss", ["square", "logistic"])
def test_matches_per_model_oracle(loss, optimizer, monkeypatch):
    envs = _envs(loss)
    queries, split_rng = QUERIES[optimizer], RngStream(1).fork("split")
    tc = TrainConfig(steps=60, optimizer=optimizer)
    cfg, lr = _batch(queries)
    results = train_gd([(envs, split_rng)], cfg, replace(tc, lr=lr), [len(queries)])
    errors = _checked_calls(monkeypatch, loss)
    expected = [_oracle(envs, query, tc, split_rng) for query in queries]
    for result, exp in zip(results, expected):
        _assert_within_contract(result, exp)
    assert {e[2] is None for e in expected} == {True, False}
    # every call the oracle's trainings made, up to each divergence
    assert len(errors) > 2 * tc.steps
    value_bound, grad_bound = CALL_BOUNDS[loss]
    assert max(v for v, _ in errors) <= value_bound
    assert max(g for _, g in errors) <= grad_bound


def _train(seeds, queries, tc=TrainConfig(steps=80)):
    """Train ``queries[i]``, (lam, gamma, lr) triples, on the data seed
    ``seeds[i]``, (environments, split stream), as one batch (of 80 GD
    steps unless ``tc`` says otherwise)."""
    cfg, lr = _batch([q for qs in queries for q in qs])
    return train_gd(seeds, cfg, replace(tc, lr=lr), [len(qs) for qs in queries])


@pytest.mark.parametrize("loss", ["square", "logistic"])
def test_query_bits_do_not_depend_on_its_batch(loss):
    # A query trained alone, in its seed's batch of every method, and in
    # that batch reversed: the same bits.  A square batch holds two data
    # seeds, a logistic one one.
    seeds = [(_envs(loss, seed=4), RngStream(5).fork("split")),
             (_envs(loss, seed=6), RngStream(7).fork("split"))][:2 if loss == "square" else 1]
    queries = [QUERIES["gd"]] * len(seeds)
    batch = _train(seeds, queries)
    reversed_ = _train(seeds[::-1], [qs[::-1] for qs in queries])[::-1]
    alone = [_train([seed], [[query]])[0] for seed, qs in zip(seeds, queries)
             for query in qs]
    for one, in_batch, in_reversed in zip(alone, batch, reversed_):
        _assert_same(in_batch, one)
        _assert_same(in_reversed, one)
    assert {r.diverged_step is None for r in batch} == {True, False}


@pytest.mark.parametrize("seed", [0, 7919])
def test_a_lone_model_is_scored_as_in_any_batch(seed):
    # numpy takes a one-row product by gemv; the logistic objective scores a
    # lone model as a pair, so each model's value and gradient are the same
    # bits alone, in a batch of any size from 2 to 40, and at any place in
    # it, with the methods in turn or in penalty order.
    r = RngStream(seed)
    spec = GeneratorSpec(example="ex2", n_per_env=120)
    _, _, envs = generate_training_envs(spec, r.fork("data"))
    seeds = [(envs, [_split(env.n, r.fork(f"split{e}"))[0] for e, env in enumerate(envs)])]
    theta = 0.7 * r.fork("theta").gaussian_array((40, envs[0].X.shape[1] + 1))
    pattern = np.arange(40) % 4  # ERM, IRM, IB-ERM, IB-IRM in turn
    lam = np.where(pattern % 2 == 1, 1.0 + pattern, 0.0)
    gamma = np.where(pattern >= 2, 0.1 * pattern, 0.0)
    alone = [objective_and_gradient(theta[q:q + 1], env_stack(seeds, lam[q:q + 1],
                                                              gamma[q:q + 1]))
             for q in range(40)]
    for size in (2, 3, 4, 5, 8, 16, 17, 33, 40):
        for models in (np.arange(size), np.argsort(pattern[:size], kind="stable")):
            values, grads = objective_and_gradient(
                theta[models], env_stack(seeds, lam[models], gamma[models]))
            for q, value, grad in zip(models, values, grads):
                assert value == alone[q][0][0]
                assert grad.tobytes() == alone[q][1][0].tobytes()


@pytest.mark.parametrize("loss", ["square", "logistic"])
def test_a_batch_shrunk_to_one_query_trains_as_a_wider_one(loss):
    # Every query but one diverges within a few steps: the survivor trains
    # on alone, as a pair on the logistic loss, with the bits it has beside
    # a partner that never diverges and trained alone from the start.
    envs, split_rng = _envs(loss), RngStream(3).fork("split")
    survivor = (0.0, 0.5, 0.05)
    doomed = [(50.0, 0.0, 1e200), (0.0, 0.9, 1e300), (3.0, 0.5, 1e300)]
    shrunk = _train([(envs, split_rng)], [[*doomed, survivor]])
    assert all(r.diverged_step is not None and r.diverged_step < 5 for r in shrunk[:-1])
    wide = _train([(envs, split_rng)], [[(0.0, 0.0, 0.05), survivor]])
    alone = _train([(envs, split_rng)], [[survivor]])
    assert shrunk[-1].diverged_step is None
    _assert_same(shrunk[-1], wide[1])
    _assert_same(shrunk[-1], alone[0])


@pytest.mark.parametrize("other", [dict(n=50), dict(d=3), dict(n_envs=2)],
                         ids=["rows", "columns", "environments"])
def test_a_batch_mixing_environment_shapes_is_rejected(other):
    seeds = [(_envs("square"), RngStream(0)), (_envs("square", **other), RngStream(1))]
    with pytest.raises(ParameterError, match="must share one task"):
        _train(seeds, [[(0.0, 0.0, 0.05)]] * 2)


def test_a_logistic_batch_is_of_one_data_seed():
    # The logistic stack holds one data seed's rows, whose queries are the
    # columns of its products; the square stack takes several seeds
    # (test_query_bits_do_not_depend_on_its_batch).
    seeds = [(_envs("logistic", seed=s), RngStream(s)) for s in (0, 1)]
    with pytest.raises(ParameterError, match="one data seed"):
        _train(seeds, [[(0.0, 0.0, 0.05)]] * 2)


@pytest.mark.parametrize("optimizer", ["gd", "adam"])
@pytest.mark.parametrize("loss", ["square", "logistic"])
def test_a_batch_mixing_methods_keeps_each_querys_bits(loss, optimizer):
    # Every method's queries of one data seed trained as one batch, as a
    # sweep trains them: each query ends with the theta, diverged_step and
    # val_risk bits of a batch of its method alone.
    seed = (_envs(loss, seed=4), RngStream(2).fork("split"))
    tc = TrainConfig(steps=60, optimizer=optimizer)
    queries = QUERIES[optimizer]
    mixed = _train([seed], [queries], tc)
    alone = [r for k in range(0, len(queries), 2)
             for r in _train([seed], [queries[k:k + 2]], tc)]
    for one, both in zip(alone, mixed):
        _assert_same(both, one)
    assert {r.diverged_step is None for r in mixed} == {True, False}


@pytest.mark.parametrize("source", ["penalty", "risk"])
def test_a_value_overflow_with_finite_predictions_stops_as_the_oracle_does(source):
    # The value leaves the finite range while theta and every prediction are
    # still finite: from lam g² under a huge lam, or from the risk's row sum
    # under a huge step on labels that no model fits.  The step is
    # certified by no bound, so training computes the value and stops where
    # the per-model path does, in a state within the contract of its.
    if source == "penalty":
        envs, query = _envs("logistic"), (1e300, 0.0, 0.05)
    else:
        r = RngStream(12)
        X = r.fork("x").gaussian_array((50, 2))
        Y = r.fork("y").bernoulli_array((50,), 0.5).astype(float)
        envs, query = [EnvDataset(env_id=0, X=X, Y=Y, task="classification")], (0.0, 0.0, 3e307)
    split_rng = RngStream(3).fork("q")
    tc = TrainConfig(steps=20)
    result, = _train([(envs, split_rng)], [[query]], tc)
    theta, val_risk, step = _oracle(envs, query, tc, split_rng)
    assert step is not None
    _assert_within_contract(result, (theta, val_risk, step))
    assert result.val_risk == np.inf
    assert np.isfinite(theta).all()
    assert all(np.isfinite(env.X @ theta[:-1] + theta[-1]).all() for env in envs)


@pytest.mark.parametrize("outlier", [1e200, 1e308])
def test_gradient_overflow_stops_only_that_query(outlier):
    # One outlier row (x = 1e200 or 1e308 in a column that is 0 elsewhere,
    # y = 1e150) is in the training rows of data seed B's split only, of
    # one environment shared by three data seeds.  At step 0 B's objective
    # is finite (~1e300 / n) but its gradient overflows, so its first
    # update leaves the weights infinite.  A and C hold the row out.  At
    # 1e308 the column's scale is capped at 2**1023: the least power of
    # two above it, inf, would end B at step 0.
    n = 50
    r = RngStream(8)
    x1 = r.fork("x").gaussian_array((n,))
    X = np.column_stack([np.zeros(n), x1])
    y = 2.0 * x1 + 0.1 * r.fork("eps").gaussian_array((n,))
    X[0, 0], y[0] = outlier, 1e150
    env = EnvDataset(env_id=0, X=X, Y=y, task="regression")

    def holds_out_row0(k):
        return 0 in _split(n, RngStream(k).fork("env0"))[1]

    held = [k for k in range(60) if holds_out_row0(k)][:2]
    trained = next(k for k in range(60) if not holds_out_row0(k))
    a, b, c = (([env], RngStream(k)) for k in (held[0], trained, held[1]))
    query = [(0.0, 0.0, 0.05)]
    tc = TrainConfig(steps=30)
    train_b, _ = oracle._split_env(env, RngStream(trained).fork("env0"))
    with np.errstate(over="ignore"):
        value, grad = oracle.objective_and_gradient(
            oracle.LinearModel(w=np.zeros(2), b=0.0), [train_b], ObjectiveConfig())
    assert np.isfinite(value) and not np.isfinite(grad).all()
    ra, rb, rc = _train([a, b, c], [query] * 3, tc)
    assert rb.diverged_step == 1
    assert not np.all(np.isfinite(rb.theta))
    assert rb.val_risk == np.inf
    for with_b, without_b in zip((ra, rc), _train([a, c], [query] * 2, tc)):
        assert with_b.diverged_step is None
        assert np.isfinite(with_b.val_risk)
        _assert_same(with_b, without_b)


def _ex1_seeds(method, n_seeds=8, n_queries=12):
    """The data seeds of the benchmark's ex1 sweep, each its environments
    and split stream, and the sampled (lam, gamma) of one method's queries,
    seed by seed."""
    spec = GeneratorSpec(example="ex1")
    root = RngStream(0)
    seeds, weights = [], []
    for seed in range(n_seeds):
        seed_rng = root.fork(f"seed{seed}")
        _, _, envs = generate_training_envs(spec, seed_rng.fork("data"))
        seeds.append((envs, seed_rng.fork("split")))
        query_rng = root.fork(f"method/{method}").fork(f"seed{seed}")
        for q in range(n_queries):
            _, lam, gamma = _sample_hparams(method, query_rng.fork(f"query{q}").fork("hparams"))
            weights.append((lam, gamma))
    return seeds, weights


def _train_split(envs, split_rng):
    """A data seed's training rows of each environment, drawn by the
    oracle."""
    return [oracle._split_env(env, split_rng.fork(f"env{env.env_id}"))[0]
            for env in envs]


def _rows(envs, split_rng):
    """A data seed's (environments, training row indices) as the stacks take
    them."""
    return envs, [_split(env.n, split_rng.fork(f"env{env.env_id}"))[0] for env in envs]


@pytest.mark.parametrize("method", METHODS)
def test_folded_objective_at_the_benchmark_shape(method):
    # ex1 at 12 queries x 8 seeds: Q = 96, E = 3, d = 10, n = 800, each
    # query at its sampled weights and a nonzero theta, against the per-row
    # oracle within the per-call contract
    seeds, weights = _ex1_seeds(method)
    lam, gamma = (np.array(col) for col in zip(*weights))
    stack = moment_stack([_rows(*seed) for seed in seeds], [12] * 8, lam, gamma)
    assert stack.K.shape == (96, 12, 12) and stack.n == 800
    assert (stack.M is None) == (method in ("ERM", "IBERM"))
    theta = 0.3 * RngStream(9).fork(method).gaussian_array((96, 11))
    values, grads = objective_and_gradient(theta, stack)
    worst = [0.0, 0.0]
    for q in range(96):
        model = oracle.LinearModel(w=theta[q, :-1], b=theta[q, -1])
        cfg = ObjectiveConfig(*weights[q])
        train = _train_split(*seeds[q // 12])
        value, grad = oracle.objective_and_gradient(model, train, cfg)
        v_scale, g_scale = _magnitudes(model, train, cfg, "square")
        worst[0] = max(worst[0], abs(values[q] - value) / v_scale)
        worst[1] = max(worst[1], np.max(np.abs(grads[q] - grad)) / np.max(g_scale))
    assert worst[0] <= CALL_RTOL and worst[1] <= CALL_RTOL, worst


def test_moments_are_built_per_seed_bit_for_bit():
    # Two data seeds of three queries each.  In the second, one row that
    # the seed holds out gets the largest magnitude of column 0 by far, so
    # the seed's scale of that column is not the one its training rows
    # give.  Every query's unscaled moments must be those of its seed's
    # training rows scaled by their own maxima, bit for bit: Σ_e M_e from an
    # ERM stack's K, Σ_e M_e + gamma C from an IB-ERM stack's at a
    # power-of-two gamma, and M_e but its last row from an IRM stack's M at
    # lam = 1.
    seeds, _ = _ex1_seeds("ERM", n_seeds=2, n_queries=3)
    envs, split_rng = seeds[1]
    held_row = _split(envs[0].n, split_rng.fork("env0"))[1][0]
    envs = list(envs)
    X = envs[0].X.copy()
    X[held_row, 0] = 1e3 * np.abs(X[:, 0]).max()
    envs[0] = replace(envs[0], X=X)
    seeds[1] = (envs, split_rng)
    zero, one, half = np.zeros(6), np.ones(6), np.full(6, 0.5)
    erm, iberm, irm = (moment_stack([_rows(*seed) for seed in seeds], [3, 3], lam, gamma)
                       for lam, gamma in ((zero, zero), (zero, half), (one, zero)))
    assert erm.M is None and iberm.M is None and irm.M is not None
    moved = 0
    for q in range(6):
        train = _train_split(*seeds[q // 3])
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
