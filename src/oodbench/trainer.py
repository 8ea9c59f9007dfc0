"""Full-batch training, the random-search model-selection protocol, and
out-of-distribution evaluation metrics.

A sweep is seed-major.  Data seed s's environments are drawn once, from
``rng.fork(f"seed{s}").fork("data")``, a stream that names no method, and
every method of the sweep trains on that draw and is scored on that seed's
test environments: the methods are compared on paired data, as DomainBed
(Gulrajani & Lopez-Paz 2020) gives every algorithm of a trial the same
data.  Each query keeps its own stream, ``method/<m>/seed<s>/query<q>``,
from which its hyperparameters and its split are drawn.

:func:`train_gd` draws each query's split, has :mod:`oodbench.objectives`
build every query's training stack once from it, and updates every
query's parameters (a row: weights then intercept) at each step with one
batched call of :func:`~oodbench.objectives.objective_and_gradient`.  Each
query names its own environments and penalty weights, so one batch may
hold several data seeds and, on the square loss, several methods; the
rule that cuts a sweep into batches is stated in :func:`random_search`.
The task chooses the loss: regression (ex1) is trained on the square loss,
every classification example on the logistic loss.

Tolerance contract.  The reference for training is the per-model path:
each query trained alone, its objective summed over its rows environment
by environment (``tests/oracle.py``).  The sweep is sensitive to the last
bit: on ex2 / IBIRM / data seed 0 / query 1, moving lr by 1 ulp moved the
trained weights by 1.8% and val_risk from 0.358 to 0.402.  So the contract
says which results equal the reference bit for bit and which are within a
stated bound of it, and the tests check each part.

* Logistic loss, on the rows (:func:`~oodbench.objectives.env_stack`):
  theta, ``diverged_step``, ``val_risk`` and every sweep output are
  bit-identical to the per-model path.  The objective value, which
  training reads only to detect divergence, is not: its softplus,
  max(yhat, 0) + log1p(exp(-|yhat|)) reusing the sigmoid's exp, is within
  4 ulp of numpy's ``logaddexp`` with the same inf and nan pattern, so a
  row's risk term is within 4 ulp of the larger of its softplus and
  |y yhat| (measured: 2 ulp over 1.1e6 rows).  At the per-model path's
  iterates on the tested grid the value is within 1e-15 relative
  (measured: 3.6e-16).  Training reads only whether the value is finite,
  and a step computes it for every query of the batch, or for none where
  a bound from theta alone proves every query's value finite
  (:func:`~oodbench.objectives._certified`).  So the divergence test, and
  every output above, is that of computing the value at every step.
* Square loss, per call: the objective is one quadratic form per query,
  built from the moments of its rows by
  :func:`~oodbench.objectives.moment_stack` (the scatter only for queries
  with gamma > 0, the per-environment moments only for those with
  lam > 0).  Its value and gradient are within 1e-14 of the per-model
  path's, relative to the magnitudes of their terms (summed on absolute
  values, so that none cancels; near the optimum the gradient itself
  cancels).  Measured: at most 3.5e-16 on the tested grid, 7.5e-16 at the
  benchmark's shape (ex1, 96 queries of one method).
* Square loss, per sweep: against the per-model path at seeds 0 and 7919,
  the same queries diverge and the same query is selected in every
  (method, seed) cell.  Under GD on the tested protocol each finite
  val_risk and test metric, and each summary mean, is within 1e-7
  relative (measured at most 9.5e-13 and 3.8e-15).  On the benchmark's
  protocol, 12 queries x 8 seeds x 2000 steps, the diverged sets and the
  selection still agree, but one IB-IRM query at seed 0 (lr 2.3e-3) ends
  7.8e-6 from the per-model path, and summary means 1.3e-6 (4.8e-13 and
  3.2e-15 at seed 7919).  Adam's step m / sqrt(v) has about unit size
  whatever the gradient's, so a last-bit difference in a near-zero
  gradient entry becomes a step-sized one.  On the tested protocol (500
  steps) Adam stays within 1e-3 per query and 1e-5 in summary means
  (measured 5.4e-14 and 8.3e-15).  Over the benchmark's 2000 steps at lr
  up to 0.1 it is chaotic, as the per-model path is (one ulp of lr moved
  one query's val_risk from 2.42 to 0.094), and this clause does not hold
  there: the diverged sets agree, but the selection differs in 2 of 32
  cells at seed 7919 (none at seed 0), summary means by up to 1.6e-2 and
  single queries' val_risk by up to 270%.
* Always: a query's result is bit-reproducible, and does not depend on
  which other queries share its batch (of its data seed or of others, and
  on the square loss of its method or of others), on when they diverge
  and leave it, or on how many worker processes run the seeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import islice, repeat

import numpy as np

from .numeric_core import ParameterError
from .objectives import (ObjectiveConfig, env_stack, keep_queries,
                         moment_stack, objective_and_gradient)
from .sem_generators import default_test_envs, generate_training_envs

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


def _stack_queries(query_envs, rngs, lam, gamma):
    """Each query's training stack, built by :mod:`oodbench.objectives` for
    its task's loss.  Each query's split is drawn as the build reaches it,
    so no query's indices outlive its build."""
    rows = ([train for _, train, _ in _splits(envs, rng)]
            for envs, rng in zip(query_envs, rngs))
    build = moment_stack if query_envs[0][0].task == "regression" else env_stack
    return build(query_envs, rows, lam, gamma)


def _per_query(name, x, n_q):
    """The field ``name``, one value or one per query, as one per query."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 1 or x.size not in (1, n_q):
        raise ParameterError(f"{name} must be one value or one per query "
                             f"({n_q}), got {x.size}")
    return np.broadcast_to(x, (n_q,)).copy()


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
    each one value per query or one for all.  On the square loss the
    queries may be of several methods; on the logistic loss they are of
    one, so each penalty weight is all zero or all positive.  The average
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
    lr, lam, gamma = (_per_query(name, x, n_q) for name, x in
                      (("lr", tc.lr), ("lam", cfg.lam), ("gamma", cfg.gamma)))
    lr = lr[:, None]
    stack = _stack_queries(query_envs, rngs, lam, gamma)
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
            finite, grad = objective_and_gradient(theta, stack, value=False)
            finite &= np.isfinite(theta).all(axis=1)
            if not finite.all():
                for row in np.flatnonzero(~finite):
                    diverged_step[ids[row]] = step
                    final[ids[row]] = theta[row]
                keep = np.flatnonzero(finite)
                ids, theta, m, v, lr, grad = (
                    a[keep] for a in (ids, theta, m, v, lr, grad))
                if keep.size == 0:
                    break
                stack = keep_queries(stack, keep)
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
        val_risk = float(np.mean([
            evaluate(final[q], env.X[val], env.Y[val], env.task)
            for env, _, val in _splits(query_envs[q], rngs[q])]))
        results.append(TrainResult(final[q], val_risk))
    return results


def evaluate(theta, X, Y, task):
    """The task metric of the linear model ``theta`` (weights then
    intercept) on rows ``X``, ``Y``: mse for regression, class_error
    (decision threshold at 0) for classification."""
    yhat = X @ theta[:-1] + theta[-1]
    if task == "regression":
        return float(np.mean((yhat - Y) ** 2))
    return float(np.mean((yhat >= 0).astype(float) != Y))


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
    diverged_step: int | None  # None for a query that finished


def _sample_hparams(method, rng):
    lr = 10.0 ** rng.fork("lr").uniform(-3.0, -1.0)
    lam = 10.0 ** rng.fork("lam").uniform(-1.0, 4.0) if "IRM" in method else 0.0
    gamma = 1.0 - 10.0 ** rng.fork("gamma").uniform(-2.0, 0.0) if method.startswith("IB") else 0.0
    return lr, lam, gamma


def _run_batch(spec, methods, seeds, n_queries, rng, tc_base):
    """The sweep rows of the data seeds ``seeds`` for every one of
    ``methods``, in seed, method, query order.  Each seed's training
    environments are drawn once and shared by every method's queries; on
    regression one :func:`train_gd` call trains every query of the batch,
    on classification one call per seed and method.  The training
    environments are dropped once every query is trained, and the test
    environments are drawn after that, one seed at a time, from the seed's
    data stream: the batch's training stack and the test environments never
    occupy memory together.  A square-loss batch, whose stack holds moments
    and not rows, still holds the rows of all its seeds through training."""
    method_rngs = [rng.fork(f"method/{method}") for method in methods]
    data, query_envs, keys, q_rngs = [], [], [], []
    for seed in seeds:
        data_rng = rng.fork(f"seed{seed}").fork("data")
        fw, params, envs = generate_training_envs(spec, data_rng)
        # Training reads only each environment's rows: the latents are
        # dropped so that they do not stay resident through training.
        envs = [replace(env, Z_inv=None, Z_spu=None) for env in envs]
        data.append((seed, data_rng, fw, params))
        for method, method_rng in zip(methods, method_rngs):
            seed_rng = method_rng.fork(f"seed{seed}")
            for q in range(n_queries):
                keys.append((method, q))
                q_rngs.append(seed_rng.fork(f"query{q}"))
                query_envs.append(envs)
    del envs
    hparams = [_sample_hparams(method, r.fork("hparams"))
               for (method, _), r in zip(keys, q_rngs)]
    lrs, lams, gammas = (np.array(col) for col in zip(*hparams))
    train_rngs = [r.fork("train") for r in q_rngs]
    size = len(keys) if spec.task == "regression" else n_queries
    results = []
    for batch in (slice(i, i + size) for i in range(0, len(keys), size)):
        results += train_gd(query_envs[batch],
                            ObjectiveConfig(lams[batch], gammas[batch]),
                            replace(tc_base, lr=lrs[batch]), train_rngs[batch])
    del query_envs
    rows = []
    queries = zip(keys, hparams, results)
    for seed, data_rng, fw, params in data:
        test_envs = [(te.X, te.Y, te.task)
                     for te in default_test_envs(spec, params, fw, data_rng)]
        for (method, q), (lr, lam, gamma), result in islice(
                queries, len(methods) * n_queries):
            if result.diverged_step is None:
                metrics = [evaluate(result.theta, *te) for te in test_envs]
                scores = (result.val_risk, float(np.mean(metrics)), float(np.max(metrics)))
            else:
                scores = (float("inf"),) * 3
            rows.append(SweepRow(spec.name, spec.n_envs, method, seed, q,
                                 lam, gamma, lr, *scores, result.diverged_step))
    return rows


def _worker_count():
    """Processes for the seeds of a sweep: ``IBIRM_THREADS``, 1 when unset,
    and at most one per CPU that this process may run on: under fork a
    pool starts every worker at its first task.  Where the OS reports no
    CPU affinity (macOS, Windows), every CPU counts."""
    raw = os.environ.get("IBIRM_THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ParameterError(f"IBIRM_THREADS must be an integer >= 1, got {raw!r}")
    if hasattr(os, "sched_getaffinity"):
        return min(n, len(os.sched_getaffinity(0)))
    return min(n, os.cpu_count() or 1)


def random_search(spec, methods, protocol, rng, tc_base):
    """Random hyperparameter search of every one of ``methods`` on paired
    data: per data seed, draw the benchmark once, run ``n_queries``
    trainings of each method with sampled hyperparameters, and record
    validation risk plus the shifted-test metric per query.  Returns the
    rows in method, seed, query order.

    Data seed s draws its environments from ``rng.fork(f"seed{s}")``, a
    stream that names no method, so every method trains and tests on the
    same draw.  Query q of method m at seed s draws its hyperparameters and
    split from ``rng.fork(f"method/{m}").fork(f"seed{s}").fork(f"query{q}")``,
    so a method's rows do not depend on which other methods are swept.

    Batching rule.  The ``n`` data seeds are cut into ``k`` contiguous
    batches, batch i holding seeds ``i*n//k`` to ``(i+1)*n//k - 1``, and
    each batch draws its seeds' data once.  On regression ``k = min(workers,
    n)`` and one :func:`train_gd` call trains every query of every method
    of the batch: a square-loss batch holds moments, not rows, so its cost
    per query falls with its size, a query whose penalty weight is 0 has no
    term of that penalty, and each worker process gets one batch.  On
    classification ``k = n`` and each data seed is trained by one call per
    method: a row stack costs the same per query at any size and grows with
    it, and a method mixed into a batch would add its penalty's products to
    every query.  The batches run serially, or over ``IBIRM_THREADS`` worker
    processes (at most one per batch, and at most one per CPU that this
    process may run on); the rows are the same either way,
    because every query owns an independently forked stream and its result
    does not depend on its batch.
    """
    if not methods:
        raise ParameterError("the method list names no method")
    for method in methods:
        if method not in METHODS:
            raise ParameterError(f"unknown method {method!r}")
    if len(set(methods)) < len(methods):
        raise ParameterError(f"the method list repeats a method: {', '.join(methods)}")
    n_queries, n_seeds = protocol
    if n_queries < 1 or n_seeds < 1:
        raise ParameterError("protocol counts must be >= 1")
    n_workers = _worker_count()
    seeds = range(n_seeds)
    k = min(n_workers, n_seeds) if spec.task == "regression" else n_seeds
    batches = [seeds[i * n_seeds // k:(i + 1) * n_seeds // k] for i in range(k)]
    n_workers = min(n_workers, k)
    args = (repeat(spec), repeat(tuple(methods)), batches, repeat(n_queries),
            repeat(rng), repeat(tc_base))
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_batch = list(pool.map(_run_batch, *args))
    else:
        per_batch = list(map(_run_batch, *args))
    order = {method: i for i, method in enumerate(methods)}
    return sorted((row for rows in per_batch for row in rows),
                  key=lambda row: order[row.method])
