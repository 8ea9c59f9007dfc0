"""Full-batch training, the random-search model-selection protocol, and
out-of-distribution evaluation metrics.

A sweep trains the queries of one method in batches: :func:`train_gd`
builds each query's training statistics once and updates every query's
parameters at each step with one batched call of
:func:`~oodbench.objectives.objective_and_gradient`.  Each query names its
own environments, so one batch may hold several data seeds; the rule that
cuts a sweep's data seeds into batches is stated in :func:`random_search`.
The task chooses the loss: regression (ex1) is trained on the square loss,
every classification example on the logistic loss.

Tolerance contract.  The reference for training is the per-model path:
each query trained alone, its objective summed over its rows environment
by environment (``tests/oracle.py``).  The sweep is sensitive to the last
bit: on ex2 / IBIRM / data seed 0 / query 1, moving lr by 1 ulp moved the
trained weights by 1.8% and val_risk from 0.358 to 0.402.  So the contract
says which results equal the reference bit for bit and which are within a
stated bound of it, and the tests check each part.

* Logistic loss: theta, ``diverged_step``, ``val_risk`` and every sweep
  output are bit-identical to the per-model path.  The objective value,
  which training reads only to detect divergence, is not: its softplus,
  max(yhat, 0) + log1p(exp(-|yhat|)) reusing the sigmoid's exp, is within
  4 ulp of numpy's ``logaddexp`` with the same inf and nan pattern, so a
  row's risk term is within 4 ulp of the larger of its softplus and
  |y yhat| (measured: 2 ulp over 1.1e6 rows).  At the per-model path's
  iterates on the tested grid the value is within 1e-15 relative
  (measured: 3.6e-16).
* Square loss, per call: the objective is one quadratic form per query,
  built from the moments of its rows
  (:class:`~oodbench.objectives.MomentStack`).  Its value and gradient are
  within 1e-14 of the per-model path's, relative to the magnitudes of
  their terms (summed on absolute values, so that none cancels; near the
  optimum the gradient itself cancels).  Measured: at most 3.5e-16 on the
  tested grid, 7.1e-16 at the benchmark's shape (ex1, 96 queries).
* Square loss, per sweep: against the per-model path at seeds 0 and 7919,
  the same queries diverge and the same query is selected in every
  (method, seed) cell.  Under GD each finite val_risk and test metric, and
  each summary mean, is within 1e-7 relative (measured at most 1.4e-9
  and 8.1e-10 on the tested protocol; 1.9e-10 and 2.3e-11 on the
  benchmark's, 12 queries x 8 seeds x 2000 steps).  Adam's step
  m / sqrt(v) has about unit size whatever the gradient's, so a last-bit
  difference in a near-zero gradient entry becomes a step-sized one.  On
  the tested protocol (500 steps) Adam stays within 1e-3 per query and
  1e-5 in summary means (measured 1.7e-5 and 1.4e-7).  Over the
  benchmark's 2000 steps at lr up to 0.1 it is chaotic, as the per-model
  path is (one ulp of lr moved one query's val_risk from 2.42 to 0.094),
  and this clause does not hold there: the diverged sets agree, but the
  selection differs in 1 of 32 cells at each seed, summary means by up
  to 5.3e-3 and single queries' val_risk by up to 312%.
* Always: a query's result is bit-reproducible, and does not depend on
  which other queries of its method share its batch (of its data seed or
  of others), on when they diverge and leave it, or on how many worker
  processes run the seeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from itertools import repeat

import numpy as np

from .numeric_core import ParameterError
from .objectives import (EnvStack, LinearModel, ObjectiveConfig,
                         moment_stack, objective_and_gradient, predict)
from .sem_generators import (EnvDataset, default_test_envs,
                             generate_training_envs)

__all__ = [
    "TrainConfig",
    "TrainResult",
    "SweepRow",
    "train_gd",
    "evaluate",
    "random_search",
    "METHODS",
]

METHODS = ("ERM", "IRM", "IBERM", "IBIRM")

VAL_FRACTION = 0.2


@dataclass
class TrainConfig:
    lr: float | np.ndarray = 0.01  # one step size, or one per query
    steps: int = 2000
    optimizer: str = "gd"        # "gd" | "adam"

    def __post_init__(self):
        lr = np.asarray(self.lr, dtype=float)
        if not (np.all(np.isfinite(lr)) and np.all(lr > 0)):
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
        if self.steps < 1:
            raise ParameterError("steps must be >= 1")
        if self.optimizer not in ("gd", "adam"):
            raise ParameterError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainResult:
    theta: np.ndarray            # weights then intercept
    val_risk: float
    # Step at which the objective or the parameters left the finite range;
    # ``theta`` is then the state of that step and ``val_risk`` is inf.
    diverged_step: int | None = None

    @property
    def model(self):
        return LinearModel(w=self.theta[:-1], b=self.theta[-1])


def _split(n, rng):
    """Deterministic 80/20 split of ``n`` rows: (train rows, held-out rows)."""
    perm = rng.permutation(n)
    n_val = max(1, int(round(VAL_FRACTION * n)))
    return perm[n_val:], perm[:n_val]


def _splits(envs, rng):
    """Yield (env, train rows, held-out rows) for each of ``envs``: query
    ``rng``'s split of environment e is drawn from
    ``rng.fork("split").fork(f"env{e}")``, so drawing it again gives the
    same rows."""
    split_rng = rng.fork("split")
    for env in envs:
        yield (env, *_split(env.n, split_rng.fork(f"env{env.env_id}")))


def _square_moments(query_envs, rngs):
    """Each query's square-loss moments of its training rows, as
    :func:`~oodbench.objectives.moment_stack` takes them: (M, C, scale, n).
    Each query gathers its training rows from one block [X / scale, 1, -y]
    per environment of its data seed (the queries that share one
    environment list), dropped before the next seed's.  ``C`` is taken
    about the query's pooled mean in two passes, not as a difference of
    raw moments."""
    envs = query_envs[0]
    n_q, n_envs, d = len(rngs), len(envs), envs[0].X.shape[1]
    M = np.empty((n_q, n_envs, d + 2, d + 2))
    C = np.empty((n_q, d, d))
    scale = np.ones((n_q, d + 1))
    seeds = {}  # id of a seed's environment list -> (the list, its queries)
    for q, envs in enumerate(query_envs):
        seeds.setdefault(id(envs), (envs, []))[1].append(q)
    env_ix = np.arange(n_envs)[:, None]
    for envs, queries in seeds.values():
        top = np.max([np.abs(env.X).max(axis=0) for env in envs], axis=0)
        sx = np.ldexp(1.0, np.frexp(top)[1])
        scale[queries, :-1] = sx
        block = np.stack([np.column_stack([env.X / sx, np.ones(env.n), -env.Y])
                          for env in envs])
        for q in queries:
            rows = block[env_ix, [train for _, train, _ in _splits(envs, rngs[q])]]
            M[q] = np.matmul(rows.swapaxes(1, 2), rows)
            x = rows[..., :-2]
            x = x - x.sum(axis=1).sum(axis=0) / (x.shape[0] * x.shape[1])
            # times a copy: BLAS rounds a buffer's product with itself otherwise
            C[q] = np.matmul(x.swapaxes(1, 2), x.copy()).sum(axis=0)
    return M, C, scale, rows.shape[1]


def _stack_queries(query_envs, rngs, cfg):
    """Each query's training data at its penalty weights ``cfg``: for
    regression a :class:`MomentStack` (the square loss), which never holds
    more than one data seed's rows, and for classification an
    :class:`EnvStack` (the logistic loss)."""
    if query_envs[0][0].task == "regression":
        return moment_stack(*_square_moments(query_envs, rngs), cfg)
    for q, (envs, rng) in enumerate(zip(query_envs, rngs)):
        for e, (env, train, _) in enumerate(_splits(envs, rng)):
            if q == e == 0:
                X = np.empty((len(rngs), len(envs), train.size, env.X.shape[1]))
                Y = np.empty(X.shape[:3])
            X[q, e], Y[q, e] = env.X[train], env.Y[train]
    return EnvStack(X, Y, cfg.lam, cfg.gamma)


def _keep_rows(a, keep):
    """Move rows ``keep`` (increasing) of ``a`` to its front, in place, and
    return that front: no second copy of a training stack is made."""
    for dst, src in enumerate(keep):
        if dst != src:
            a[dst] = a[src]
    return a[:len(keep)]


def _keep_queries(stack, keep):
    """``stack`` with only the queries ``keep`` (increasing), compacted in
    place."""
    return replace(stack, **{f.name: _keep_rows(getattr(stack, f.name), keep)
                             for f in fields(stack)
                             if isinstance(getattr(stack, f.name), np.ndarray)})


def train_gd(query_envs, cfg, tc, rngs):
    """Deterministic full-batch training of one linear model per stream in
    ``rngs``, all of them as one batch.

    Query q trains on ``query_envs[q]``, its list of environments; the
    queries of one data seed share one list, and a batch may hold the
    queries of several data seeds.  Every query's environments must share
    one task, one number of rows and columns, and one number of
    environments.  Query q holds out 20% of each environment (split drawn
    from ``rngs[q]``) and trains on the rest, on its task's loss, with
    penalty weights ``cfg.lam`` and ``cfg.gamma`` and step size ``tc.lr``,
    each one value per query or one for all; the queries are of one method,
    so each penalty weight is all zero or all positive.  The average
    held-out risk is reported as ``val_risk``, measured with the task risk
    (classification error or mean squared error) rather than the training
    surrogate, matching how trained models are evaluated.  A query whose
    objective value or parameters leave the finite range is stopped at that
    step and reported as diverged; the others carry on.  Returns one
    :class:`TrainResult` per query.
    """
    if not rngs:
        raise ParameterError("need at least one query")
    if len(query_envs) != len(rngs):
        raise ParameterError(f"{len(query_envs)} environment lists for "
                             f"{len(rngs)} queries")
    if not all(query_envs):
        raise ParameterError("need at least one environment")
    shapes = {(env.task, env.X.shape, len(envs))
              for envs in query_envs for env in envs}
    if len(shapes) != 1:
        raise ParameterError("training environments must share one task, one "
                             "number of rows and columns, and one number of "
                             "environments")
    n_q = len(rngs)
    lr, lam, gamma = (np.broadcast_to(np.asarray(x, dtype=float), (n_q,)).copy()
                      for x in (tc.lr, cfg.lam, cfg.gamma))
    lr = lr[:, None]
    stack = _stack_queries(query_envs, rngs, ObjectiveConfig(lam, gamma))
    theta = np.zeros((n_q, query_envs[0][0].X.shape[1] + 1))
    ids = np.arange(n_q)  # the query each row of the batch belongs to
    final = np.empty_like(theta)
    diverged_step = [None] * n_q
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    # A diverging query overflows; its non-finite value is what reports it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(tc.steps + 1):
            value, grad = objective_and_gradient(theta, stack)
            finite = np.isfinite(value) & np.isfinite(theta).all(axis=1)
            if not finite.all():
                for row in np.flatnonzero(~finite):
                    diverged_step[ids[row]] = step
                    final[ids[row]] = theta[row]
                keep = np.flatnonzero(finite)
                ids, theta, m, v, lr, grad = (
                    a[keep] for a in (ids, theta, m, v, lr, grad))
                if keep.size == 0:
                    break
                stack = _keep_queries(stack, keep)
            if step == tc.steps:
                break
            if tc.optimizer == "gd":
                theta = theta - lr * grad
            else:
                m = beta1 * m + (1 - beta1) * grad
                v = beta2 * v + (1 - beta2) * grad * grad
                mhat = m / (1 - beta1 ** (step + 1))
                vhat = v / (1 - beta2 ** (step + 1))
                theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    final[ids] = theta

    results = []
    for q in range(n_q):
        if diverged_step[q] is not None:
            results.append(TrainResult(final[q], float("inf"), diverged_step[q]))
            continue
        # the held-out rows are drawn again from the split's stream, so that
        # no query's indices are kept through training
        model = LinearModel(w=final[q, :-1], b=final[q, -1])
        val_risk = float(np.mean([
            evaluate(model, EnvDataset(env.env_id, env.X[val], env.Y[val], env.task))
            for env, _, val in _splits(query_envs[q], rngs[q])]))
        results.append(TrainResult(final[q], val_risk))
    return results


def evaluate(model, env):
    """The task metric of ``env``: mse for regression, class_error
    (decision threshold at 0) for classification."""
    yhat = predict(model, env.X)
    if env.task == "regression":
        return float(np.mean((yhat - env.Y) ** 2))
    return float(np.mean((yhat >= 0).astype(float) != env.Y))


@dataclass
class SweepRow:
    example: str
    n_envs: int
    method: str
    data_seed: int
    hparam_id: int
    lam: float
    gamma: float
    lr: float
    val_risk: float
    test_metric: float
    test_metric_max: float


def _sample_hparams(method, rng):
    lr = 10.0 ** rng.fork("lr").uniform(-3.0, -1.0)
    lam = 10.0 ** rng.fork("lam").uniform(-1.0, 4.0) if "IRM" in method else 0.0
    gamma = 1.0 - 10.0 ** rng.fork("gamma").uniform(-2.0, 0.0) if method.startswith("IB") else 0.0
    return lr, lam, gamma


def _run_batch(spec, method, seeds, n_queries, rng, tc_base):
    """The sweep rows of the data seeds ``seeds``, in seed then query order:
    every query of the batch is trained by one :func:`train_gd` call.  The
    test environments are drawn after training, seed by seed, from their
    own stream: the batch's training stack and the test environments never
    occupy memory together."""
    data = []  # per seed: (seed, its stream, fixed weights, params, envs)
    for seed in seeds:
        seed_rng = rng.fork(f"seed{seed}")
        fw, params, envs = generate_training_envs(spec, seed_rng.fork("data"))
        # Training reads only each environment's rows: the latents are
        # dropped so that they do not stay resident through training.
        envs = [replace(env, Z_inv=None, Z_spu=None) for env in envs]
        data.append((seed, seed_rng, fw, params, envs))
    q_rngs = [stream.fork(f"query{q}")
              for _, stream, *_ in data for q in range(n_queries)]
    hparams = [_sample_hparams(method, r.fork("hparams")) for r in q_rngs]
    lrs, lams, gammas = (np.array(col) for col in zip(*hparams))
    results = train_gd([envs for *_, envs in data for _ in range(n_queries)],
                       ObjectiveConfig(lams, gammas), replace(tc_base, lr=lrs),
                       [r.fork("train") for r in q_rngs])
    rows = []
    for i, (seed, seed_rng, fw, params, _) in enumerate(data):
        test_envs = default_test_envs(spec, params, fw, seed_rng.fork("data"))
        own = slice(i * n_queries, (i + 1) * n_queries)
        for q, ((lr, lam, gamma), result) in enumerate(zip(hparams[own], results[own])):
            if result.diverged_step is None:
                metrics = [evaluate(result.model, te) for te in test_envs]
                scores = (result.val_risk, float(np.mean(metrics)), float(np.max(metrics)))
            else:
                scores = (float("inf"),) * 3
            rows.append(SweepRow(spec.name, spec.n_envs, method, seed, q,
                                 lam, gamma, lr, *scores))
    return rows


def _worker_count():
    """Processes for the seeds of a sweep: ``IBIRM_THREADS``, 1 when unset."""
    raw = os.environ.get("IBIRM_THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ParameterError(f"IBIRM_THREADS must be an integer >= 1, got {raw!r}")
    return n


def random_search(spec, method, protocol, rng, tc_base):
    """Random hyperparameter search: per data seed, regenerate the
    benchmark, run ``n_queries`` trainings with sampled hyperparameters,
    and record validation risk plus the shifted-test metric per query.

    Batching rule.  The ``n`` data seeds are cut into ``k`` contiguous
    batches, batch i holding seeds ``i*n//k`` to ``(i+1)*n//k - 1``, and
    each batch is trained by one :func:`train_gd` call.  On regression
    ``k = min(workers, n)``: a square-loss batch holds moments, not rows,
    so its cost per query falls with its size, and each worker process
    gets one batch.  On classification ``k = n``: a row stack costs the
    same per query at any size and grows with it, so every data seed is
    its own batch.  The batches run serially, or over ``IBIRM_THREADS``
    worker processes (at most one per batch); the rows are the same either
    way, because every query owns an independently forked stream and its
    result does not depend on its batch.
    """
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}")
    n_queries, n_seeds = protocol
    if n_queries < 1 or n_seeds < 1:
        raise ParameterError("protocol counts must be >= 1")
    n_workers = _worker_count()
    seeds = range(n_seeds)
    k = min(n_workers, n_seeds) if spec.task == "regression" else n_seeds
    batches = [seeds[i * n_seeds // k:(i + 1) * n_seeds // k] for i in range(k)]
    n_workers = min(n_workers, k)
    args = (repeat(spec), repeat(method), batches, repeat(n_queries),
            repeat(rng), repeat(tc_base))
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_batch = list(pool.map(_run_batch, *args))
    else:
        per_batch = list(map(_run_batch, *args))
    return [row for rows in per_batch for row in rows]
