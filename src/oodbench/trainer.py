"""Full-batch training, the random-search model-selection protocol, and
out-of-distribution evaluation metrics.

A sweep is seed-major.  Data seed s's environments are drawn once, from
``rng.fork(f"seed{s}").fork("data")``, a stream that names no method, and
every method of the sweep trains on that draw and is scored on that seed's
test environments: the methods are compared on paired data, as DomainBed
(Gulrajani & Lopez-Paz 2020) gives every algorithm of a trial the same
data.  Each environment's 80/20 train/validation split is drawn once per
data seed too, from ``rng.fork(f"seed{s}").fork("split").fork(f"env{e}")``,
a stream that names no method and no query, so every query of the seed
trains and is validated on the same rows; this is this suite's choice,
made so that the queries that selection compares are scored on one set of
rows.  Each query keeps its own stream, ``method/<m>/seed<s>/query<q>``,
from which its hyperparameters are drawn.

:func:`train_gd` draws each data seed's split, has
:mod:`oodbench.objectives` build the training stack once from it, and
updates every query's parameters (a row: weights then intercept) at each
step with one batched call of
:func:`~oodbench.objectives.objective_and_gradient`.  One call trains
every method's queries of its data seeds: of several seeds on the square
loss, of one on the logistic loss; :func:`random_search` states the rule
that cuts a sweep into calls.  The task chooses the loss: regression (ex1)
is trained on the square loss, every classification example on the
logistic loss.

Tolerance contract.  The reference for training is the per-model path:
each query trained alone on its seed's split, its objective summed over
its rows environment by environment (``tests/oracle.py``).  The sweep is
sensitive to the last bit: on ex2 / IBIRM / data seed 0 / query 1 (2000
steps), moving lr by 1 ulp moves the per-model path's val_risk from 0.435
to 0.367, and 2 ulp to 0.292.  So the contract says which results are
within what bound of the reference, and the tests check each part.

* Logistic loss, per call: the predictions of every query of the seed are
  one product Θ X1ᵀ on the seed's rows X1 = [X, 1]
  (:func:`~oodbench.objectives.env_stack`), the gradient one product
  X1ᵀRᵀ with the IRM term folded into each row's derivative R, and the
  bottleneck φᵀCφ on the seed's scatter C.  Its value is within 1e-15 of
  the per-model path's, relative, and its gradient within 1e-15 relative
  to the magnitudes of its terms (summed on absolute values, so that none
  cancels).  Measured: at most 7.3e-16 and 3.1e-16 on the tested grid.
  Its softplus,
  max(yhat, 0) + log1p(exp(-|yhat|)) reusing the sigmoid's exp, is within
  4 ulp of numpy's ``logaddexp`` with the same inf and nan pattern, so a
  row's risk term is within 4 ulp of the larger of its softplus and
  |y yhat| (measured: 2 ulp over 1.1e6 rows).  Training reads only
  whether the value is finite, and a step computes it for every query of
  the batch, or for none where a bound from theta alone proves every
  query's value finite (:func:`~oodbench.objectives._certified`).  So the
  divergence test is that of computing the value at every step.
* Logistic loss, per sweep: against the per-model path at seeds 0 and
  7919, on the tested protocol (ex2, 200 rows per environment, 4 queries x
  2 seeds x 500 steps, GD and Adam), the same queries diverge, the same
  query is selected in every (method, seed) cell, and every finite
  val_risk and test metric is within one held-out row of the 120 (1/120).
  Measured: all equal.  A classification error moves by rows, not by
  ulps, so a last-bit difference leaves it alone or moves it by a row or
  more where training is chaotic.  On the benchmark's protocol (ex2, 4
  queries x 1 seed x 2000 steps, GD) the diverged sets and the selection
  agree at both seeds, and the row bound does not hold at seed 0: one
  finite val_risk is 0.033 (20 rows of 600) from the per-model path, test
  metrics 0.008 (all equal at seed 7919).  On ex3 and ex3s at 200 steps
  (200 rows per environment, 2 queries), the IB-IRM selection at seed 0
  differs: one ulp of lr moves that query's per-model val_risk from 0.417
  to 0.517, and the engine's is 0.517.
* Square loss, per call: the objective is one quadratic form per query,
  built from the moments of its seed's rows by
  :func:`~oodbench.objectives.moment_stack` (the scatter only for seeds
  with a query of gamma > 0, the per-environment rows only for queries of
  lam > 0).  Its value and gradient are within 1e-14 of the per-model
  path's, relative to the magnitudes of their terms (near the optimum the
  gradient itself cancels).  Measured: at most 5.1e-16 on the tested
  grid, 8.3e-16 at the benchmark's shape (ex1, 96 queries of one method).
* Square loss, per sweep: against the per-model path at seeds 0 and 7919,
  the same queries diverge and the same query is selected in every
  (method, seed) cell.  Under GD each finite val_risk and test metric,
  and each summary mean, is within 1e-7 relative: measured at most 2.1e-13
  and 3.6e-15 on the tested protocol, and 6.0e-13 and 6.4e-15 on the
  benchmark's, 12 queries x 8 seeds x 2000 steps.  Adam's step
  m / sqrt(v) has about unit size whatever the gradient's, so a last-bit
  difference in a near-zero gradient entry becomes a step-sized one.  On
  the tested protocol (500 steps) Adam stays within 1e-3 per query and
  1e-5 in summary means (measured 2.9e-8 and 2.4e-10).  Over the
  benchmark's 2000 steps at lr up to 0.1 it is chaotic, as the per-model
  path is (one ulp of lr moved one query's val_risk from 2.42 to 0.094),
  and this clause does not hold there: no query diverges on either path,
  but the selection differs in 6 of 32 cells at seed 0 and 7 at seed
  7919, summary means by up to 1.1e-2 and single queries' val_risk by up
  to 199%.
* Always: a query's result is bit-reproducible, and does not depend on
  which other queries share its batch (of its method or of others, and
  on the square loss of its data seed or of others), on its place in the
  batch, on when they diverge and leave it, or on how many worker
  processes run the seeds.  A batch left with one logistic query scores
  it as a pair, as numpy's one-row product rounds otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat

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


def _split_seeds(seeds, held):
    """Yield each data seed's (environments, training rows of each), as
    ``seeds`` yields its (environments, split stream), and append its
    held-out rows, an (X, Y) pair per environment, to ``held``.
    Environment e's split is drawn from ``split_rng.fork(f"env{e}")``, so
    every query of the seed trains and validates on the same rows.  Every
    seed's environments must share one task, one number of rows and
    columns, and one number of environments."""
    shape = None
    for envs, split_rng in seeds:
        if not envs:
            raise ParameterError("need at least one environment")
        rows, out = [], []
        for env in envs:
            shape = shape or (env.task, env.X.shape, len(envs))
            if (env.task, env.X.shape, len(envs)) != shape:
                raise ParameterError("training environments must share one task, "
                                     "one number of rows and columns, and one "
                                     "number of environments")
            train, val = _split(env.n, split_rng.fork(f"env{env.env_id}"))
            rows.append(train)
            out.append((env.X[val], env.Y[val]))
        held.append(out)
        yield envs, rows


def _per_query(name, x, n_q):
    """The field ``name``, one value or one per query, as one per query."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 1 or x.size not in (1, n_q):
        raise ParameterError(f"{name} must be one value or one per query "
                             f"({n_q}), got {x.size}")
    return np.broadcast_to(x, (n_q,)).copy()


def train_gd(seeds, cfg, tc, counts):
    """Deterministic full-batch training of ``sum(counts)`` linear models,
    all of them as one batch.

    ``seeds`` yields, for each data seed in turn, its training environments
    and the stream its split is drawn from; it is read once, and a seed's
    rows are dropped once its part of the training stack is built.
    ``counts[i]`` queries train on seed i, after those of the seeds before
    it.  Every query of a seed holds out the same 20% of each environment
    (:func:`_split_seeds`) and trains on the rest, on its task's loss, with
    penalty weights ``cfg.lam`` and ``cfg.gamma`` and step size ``tc.lr``,
    each one value per query or one for all; the queries may be of several
    methods.  On the square loss a batch may hold several data seeds, on
    the logistic loss one.  The average held-out risk is reported as
    ``val_risk``, measured with the task risk (classification error or mean
    squared error) rather than the training surrogate, matching how trained
    models are evaluated.  A query whose objective value or parameters
    leave the finite range is stopped at that step and reported as
    diverged; the others carry on.  Returns one :class:`TrainResult` per
    query.
    """
    counts = list(counts)
    if not counts or min(counts) < 1:
        raise ParameterError("need at least one query per data seed")
    n_q = sum(counts)
    lr, lam, gamma = (_per_query(name, x, n_q) for name, x in
                      (("lr", tc.lr), ("lam", cfg.lam), ("gamma", cfg.gamma)))
    seed_of = np.repeat(np.arange(len(counts)), counts)
    # The batch's rows, seed by seed, each seed's queries ordered ERM,
    # IB-ERM, IB-IRM, IRM, so that each penalty's queries are consecutive.
    ids = np.lexsort((2 * (lam > 0) + ((lam > 0) != (gamma > 0)), seed_of))
    held = []
    pairs = _split_seeds(seeds, held)
    first = next(pairs, None)
    if first is None:
        raise ParameterError("need at least one data seed")
    task, d = first[0][0].task, first[0][0].X.shape[1]
    pairs = chain([first], pairs)
    del first  # so that the build drops each seed's rows once it is built
    if task == "regression":
        stack = moment_stack(pairs, counts, lam[ids], gamma[ids])
    else:
        stack = env_stack(pairs, lam[ids], gamma[ids])
    if len(held) != len(counts):
        raise ParameterError(f"{len(held)} data seeds for {len(counts)} query counts")
    lr = lr[ids, None]
    theta = np.zeros((n_q, d + 1))
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
    for row, step, seed in zip(final, diverged_step, seed_of):
        val_risk = float("inf") if step is not None else float(
            np.mean([evaluate(row, X, Y, task) for X, Y in held[seed]]))
        results.append(TrainResult(row, val_risk, step))
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
    ``methods``, in seed, method, query order, all trained by one
    :func:`train_gd` call.  Each seed's training environments are drawn
    once, as the call reaches the seed, and shared by every method's
    queries; the call drops them once it has split them and built the
    seed's part of its stack, so the training stack holds no seed's rows
    but its own.  The test environments are drawn after training, one seed
    at a time, from the seed's data stream: the batch's training stack and
    the test environments never occupy memory together."""
    method_rngs = [rng.fork(f"method/{method}") for method in methods]
    keys = [(method, q) for method in methods for q in range(n_queries)]
    hparams = [_sample_hparams(method, method_rng.fork(f"seed{seed}")
                               .fork(f"query{q}").fork("hparams"))
               for seed in seeds for method, method_rng in zip(methods, method_rngs)
               for q in range(n_queries)]
    lrs, lams, gammas = (np.array(col) for col in zip(*hparams))
    data = []

    def training_data():
        for seed in seeds:
            seed_rng = rng.fork(f"seed{seed}")
            data_rng = seed_rng.fork("data")
            fw, params, envs = generate_training_envs(spec, data_rng)
            data.append((seed, data_rng, fw, params))
            # Training reads only each environment's rows: the latents are
            # dropped so that they do not stay resident through training.
            yield [replace(env, Z_inv=None, Z_spu=None) for env in envs], seed_rng.fork("split")

    results = train_gd(training_data(), ObjectiveConfig(lams, gammas),
                       replace(tc_base, lr=lrs), [len(keys)] * len(seeds))
    rows = []
    queries = zip(hparams, results)
    for seed, data_rng, fw, params in data:
        test_envs = [(te.X, te.Y, te.task)
                     for te in default_test_envs(spec, params, fw, data_rng)]
        for (method, q), ((lr, lam, gamma), result) in zip(keys, islice(queries, len(keys))):
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

    Data seed s draws its environments and its split from
    ``rng.fork(f"seed{s}")``, a stream that names no method, so every method
    trains, is validated and tests on the same rows.  Query q of method m
    at seed s draws its hyperparameters from
    ``rng.fork(f"method/{m}").fork(f"seed{s}").fork(f"query{q}")``, and its
    result does not depend on the other queries of its batch, so a method's
    rows do not depend on which other methods are swept.

    Batching rule.  The ``n`` data seeds are cut into ``k`` contiguous
    batches, batch i holding seeds ``i*n//k`` to ``(i+1)*n//k - 1``, and one
    :func:`train_gd` call trains every query of every method of a batch,
    drawing each of its seeds' data once.  ``k`` is as small as the loss
    allows: on regression ``k = min(workers, n)``, as a square-loss batch
    holds moments, not rows, so that its cost per query falls with its size
    and each worker process gets one batch; on classification ``k = n``, as
    a logistic batch holds one data seed's rows, whose queries are the
    columns of its products.  The batches run serially, or over
    ``IBIRM_THREADS`` worker processes (at most one per batch, and at most
    one per CPU that this process may run on); the rows are the same either
    way.
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
