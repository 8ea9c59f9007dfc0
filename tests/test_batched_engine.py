"""The batched training engine against the per-model oracle, bit for bit."""

import numpy as np
import pytest

import oracle
from oodbench.numeric_core import RngStream
from oodbench.objectives import ObjectiveConfig
from oodbench.sem_generators import EnvDataset
from oodbench.trainer import TrainConfig, train_gd

TASK = {"square": "regression", "logistic": "classification",
        "exponential": "classification"}

# (lam, gamma, lr) per query, for GD and for Adam.  Each batch mixes every
# penalty pattern with step sizes small enough to finish and large enough
# to diverge, at different steps.
QUERIES = {
    "gd": [(0.0, 0.0, 0.05), (3.0, 0.0, 0.02), (0.0, 0.5, 0.05),
           (2.0, 0.7, 0.01), (0.0, 0.0, 1e300), (50.0, 0.0, 3.0),
           (0.0, 0.9, 1e3), (1e4, 0.5, 40.0)],
    "adam": [(0.0, 0.0, 0.05), (3.0, 0.0, 0.02), (0.0, 0.5, 0.05),
             (2.0, 0.7, 0.01), (0.0, 0.0, 1e300), (50.0, 0.0, 1e200),
             (0.0, 0.9, 1e300), (1e4, 0.5, 1e150)],
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


def _oracle(envs, loss, query, tc, rng):
    """(theta, curve, val_risk, diverged_step) of one query."""
    lam, gamma, lr = query
    cfg = ObjectiveConfig(loss, lam, gamma)
    tc = TrainConfig(lr=lr, steps=tc.steps, optimizer=tc.optimizer)
    try:
        with np.errstate(all="ignore"):
            theta, curve, val_risk = oracle.train_gd(envs, cfg, tc, rng)
    except oracle.OracleDivergence as exc:
        return exc.last_state, None, np.inf, exc.step
    return theta, curve, val_risk, None


def _assert_same(result, expected):
    theta, curve, val_risk, step = expected
    assert result.diverged_step == step
    assert np.array_equal(result.theta, theta)
    if step is None:
        assert np.array_equal(result.objective_curve, curve)
    else:
        assert result.objective_curve.shape == (step,)
    assert result.val_risk == val_risk


@pytest.mark.parametrize("optimizer", ["gd", "adam"])
@pytest.mark.parametrize("loss", ["square", "logistic", "exponential"])
def test_matches_per_model_oracle(loss, optimizer):
    envs = _envs(loss)
    queries = QUERIES[optimizer]
    cfg, lr = _batch(queries, loss)
    tc = TrainConfig(lr=lr, steps=60, optimizer=optimizer)
    rngs = [RngStream(1).fork(f"query{q}") for q in range(len(queries))]
    results = train_gd(envs, cfg, tc, rngs)
    expected = [_oracle(envs, loss, qu, tc, r) for qu, r in zip(queries, rngs)]
    steps = [e[3] for e in expected]
    assert None in steps and any(s is not None for s in steps)
    for result, exp in zip(results, expected):
        _assert_same(result, exp)


@pytest.mark.parametrize("loss", ["square", "logistic"])
def test_query_bits_do_not_depend_on_its_batch(loss):
    envs = _envs(loss, seed=4)
    queries = QUERIES["gd"]
    rngs = [RngStream(5).fork(f"query{q}") for q in range(len(queries))]
    cfg, lr = _batch(queries, loss)
    tc = TrainConfig(lr=lr, steps=80)
    batch = train_gd(envs, cfg, tc, rngs)
    order = [5, 2, 7, 0, 3, 6, 1, 4]
    cfg_r, lr_r = _batch([queries[q] for q in order], loss)
    reordered = train_gd(envs, cfg_r, TrainConfig(lr=lr_r, steps=80),
                         [rngs[q] for q in order])
    for q, query in enumerate(queries):
        cfg_1, lr_1 = _batch([query], loss)
        alone, = train_gd(envs, cfg_1, TrainConfig(lr=lr_1, steps=80), [rngs[q]])
        for other in (batch[q], reordered[order.index(q)]):
            assert other.diverged_step == alone.diverged_step
            assert np.array_equal(other.theta, alone.theta)
            assert np.array_equal(other.objective_curve, alone.objective_curve)
            assert other.val_risk == alone.val_risk


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
    ra, rb, rc = train_gd([env], cfg, tc, [a, b, c])
    assert rb.diverged_step == 1
    assert np.isfinite(rb.objective_curve[0])
    assert not np.all(np.isfinite(rb.theta))
    assert rb.val_risk == np.inf
    for with_b, without_b in zip((ra, rc), train_gd([env], cfg, tc, [a, c])):
        assert with_b.diverged_step is None
        assert np.isfinite(with_b.val_risk)
        assert np.array_equal(with_b.theta, without_b.theta)
        assert with_b.val_risk == without_b.val_risk
