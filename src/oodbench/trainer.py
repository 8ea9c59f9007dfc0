"""Full-batch training, the random-search model-selection protocol, and
out-of-distribution evaluation metrics.

A sweep trains the queries of one (method, data seed) together:
:func:`train_gd` builds each query's training statistics once and updates
every query's parameters at each step with one batched call of
:func:`~oodbench.objectives.objective_and_gradient`.

Tolerance contract.  The reference for training is the per-model path:
each query trained alone, its objective summed over its rows environment
by environment (``tests/oracle.py``).  The sweep is sensitive to the last
bit: on ex2 / IBIRM / data seed 0 / query 1, moving lr by 1 ulp moved the
trained weights by 1.8% and val_risk from 0.358 to 0.402.  So the contract
says which results equal the reference bit for bit and which are within a
stated bound of it, and the tests check each part.

* Exponential loss: every query's result is bit-identical to the
  per-model path.
* Logistic loss: theta, ``diverged_step``, ``val_risk`` and every sweep
  output are bit-identical to the per-model path.  The objective values
  are not: the softplus is max(yhat, 0) + log1p(exp(-|yhat|)), reusing
  the sigmoid's exp, where the per-model path calls numpy's ``logaddexp``.
  Each row's softplus is within 4 ulp of ``logaddexp``'s, with the
  same inf and nan pattern, so each row's risk term is within 4 ulp of
  the larger of its softplus and |y yhat| (measured: 2 ulp over 1.1e6
  rows).  On the tested grid each objective value is within 1e-15
  relative of the per-model path's (measured: 3.6e-16).  The softplus
  enters only the value, never the gradient.
* Square loss, per call: the objective is computed from per-environment
  moments (:class:`~oodbench.objectives.MomentStack`), not from rows.  Its
  value and gradient are within 1e-14 of the per-model path's, relative to
  the magnitudes of their terms (the same terms summed on absolute values,
  so that no term cancels; near the optimum the gradient itself cancels).
  Measured: at most 3.5e-16.
* Square loss, per sweep: against the per-model path at seeds 0 and 7919,
  the same queries diverge and the same query is selected in every
  (method, seed) cell.  Under GD each finite val_risk and test metric is
  within 1e-7 relative, and each summary mean too (measured at most
  1.6e-9 and 9.0e-10 on the tested protocol; 2.3e-10 and 2.8e-11 on the
  benchmark's, 12 queries x 8 seeds x 2000 steps).  Adam's step
  m / sqrt(v) has about unit size whatever the gradient's, so a last-bit
  difference in a near-zero gradient entry becomes a step-sized one.  On
  the tested protocol (500 steps) Adam stays within 1e-3 per query and
  1e-5 in summary means (measured 1.3e-5 and 8.1e-8).  Over the
  benchmark's 2000 steps at lr up to 0.1 its runs are chaotic: diverged
  sets and selections still agree at both seeds, and summary means within
  1.6e-3, but single queries' val_risk moved by up to 146%.  The per-model
  path is as chaotic: moving lr by one ulp moves its val_risk on one such
  query from 2.42 to 0.094.
* Always: a query's result is bit-reproducible, and does not depend on
  which other queries of its method share its batch, on when they diverge
  and leave it, or on how many worker processes run the seeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .numeric_core import ParameterError
from .objectives import (EnvStack, LinearModel, ObjectiveConfig,
                         moment_stack, objective_and_gradient, predict)
from .sem_generators import EnvDataset, default_test_envs, generate_training_envs

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
    objective_curve: np.ndarray  # one value per step run
    val_risk: float
    # Step at which the objective or the parameters left the finite range;
    # ``theta`` is then the state of that step, ``val_risk`` is inf and the
    # curve stops before it.
    diverged_step: int | None = None

    @property
    def model(self):
        return LinearModel(w=self.theta[:-1], b=self.theta[-1])


def _split(n, rng):
    """Deterministic 80/20 split of ``n`` rows: (train rows, held-out rows)."""
    perm = rng.permutation(n)
    n_val = max(1, int(round(VAL_FRACTION * n)))
    return perm[n_val:], perm[:n_val]


def _stack_queries(envs, rngs, loss):
    """Each query's training rows, and each query's held-out rows of every
    environment.  Query q's split of environment e is drawn from
    ``rngs[q].fork("split").fork(f"env{e}")``.  The training rows come as
    a :class:`MomentStack` for the square loss, which never holds the rows
    of more than one query, and as an :class:`EnvStack` otherwise."""
    if len({env.task for env in envs}) != 1 or len({env.n for env in envs}) != 1:
        raise ParameterError("training environments must share one task "
                             "and one number of rows")
    splits = []
    for rng in rngs:
        split_rng = rng.fork("split")
        splits.append([_split(env.n, split_rng.fork(f"env{env.env_id}"))
                       for env in envs])
    held_out = [[val.copy() for _, val in query] for query in splits]
    if loss == "square":
        return moment_stack(([(env.X[train], env.Y[train])
                              for env, (train, _) in zip(envs, query)]
                             for query in splits), envs[0].task), held_out
    n_train = splits[0][0][0].size
    X = np.empty((len(rngs), len(envs), n_train, envs[0].X.shape[1]))
    Y = np.empty(X.shape[:3])
    for q, query in enumerate(splits):
        for e, (env, (train, _)) in enumerate(zip(envs, query)):
            X[q, e] = env.X[train]
            Y[q, e] = env.Y[train]
    return EnvStack(X, Y, envs[0].task), held_out


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


def train_gd(envs, cfg, tc, rngs):
    """Deterministic full-batch training of one linear model per stream in
    ``rngs``, all of them as one batch.

    Query q holds out 20% of each environment (split drawn from
    ``rngs[q]``) and trains on the rest with penalty weights ``cfg.lam``
    and ``cfg.gamma`` and step size ``tc.lr``, each one value per query or
    one for all; the queries are of one method, so each penalty weight is
    all zero or all positive.  The average held-out risk is reported as
    ``val_risk``, measured with the task risk (classification error or mean
    squared error) rather than the training surrogate, matching how
    trained models are evaluated.  A query whose objective value or parameters leave the
    finite range is stopped at that step and reported as diverged; the
    others carry on.  The environments must share one task and one number
    of rows.  Returns one :class:`TrainResult` per query.
    """
    if not envs:
        raise ParameterError("need at least one environment")
    if not rngs:
        raise ParameterError("need at least one query")
    n_q = len(rngs)
    lr, lam, gamma = (np.broadcast_to(np.asarray(x, dtype=float), (n_q,))
                      for x in (tc.lr, cfg.lam, cfg.gamma))
    lr = lr[:, None]
    stack, held_out = _stack_queries(envs, rngs, cfg.loss)
    theta = np.zeros((n_q, envs[0].X.shape[1] + 1))
    ids = np.arange(n_q)  # the query each row of the batch belongs to
    final = np.empty_like(theta)
    diverged_step = [None] * n_q
    curves = np.empty((n_q, tc.steps + 1))
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    batch_cfg = ObjectiveConfig(cfg.loss, lam, gamma)
    # A diverging query overflows; its non-finite value is what reports it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(tc.steps + 1):
            value, grad = objective_and_gradient(theta, stack, batch_cfg)
            finite = np.isfinite(value) & np.isfinite(theta).all(axis=1)
            if not finite.all():
                for row in np.flatnonzero(~finite):
                    diverged_step[ids[row]] = step
                    final[ids[row]] = theta[row]
                keep = np.flatnonzero(finite)
                ids, theta, m, v, lr, lam, gamma, value, grad = (
                    a[keep] for a in (ids, theta, m, v, lr, lam, gamma, value, grad))
                if keep.size == 0:
                    break
                batch_cfg = ObjectiveConfig(cfg.loss, lam, gamma)
                stack = _keep_queries(stack, keep)
            curves[ids, step] = value
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
            results.append(TrainResult(final[q], curves[q, :diverged_step[q]],
                                       float("inf"), diverged_step[q]))
            continue
        model = LinearModel(w=final[q, :-1], b=final[q, -1])
        val_risk = float(np.mean([
            evaluate(model, EnvDataset(env.env_id, env.X[val], env.Y[val], env.task))
            for env, val in zip(envs, held_out[q])]))
        results.append(TrainResult(final[q], curves[q], val_risk))
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


def _run_seed(spec, method, seed, n_queries, rng, tc_base):
    seed_rng = rng.fork(f"seed{seed}")
    fw, params, envs = generate_training_envs(spec, seed_rng.fork("data"))
    loss = "square" if envs[0].task == "regression" else "logistic"
    # Training reads only each environment's rows: the latents are dropped
    # so that they do not stay resident through training.
    envs = [replace(env, Z_inv=None, Z_spu=None) for env in envs]
    q_rngs = [seed_rng.fork(f"query{q}") for q in range(n_queries)]
    hparams = [_sample_hparams(method, r.fork("hparams")) for r in q_rngs]
    lrs, lams, gammas = (np.array(col) for col in zip(*hparams))
    results = train_gd(envs, ObjectiveConfig(loss, lams, gammas),
                       replace(tc_base, lr=lrs), [r.fork("train") for r in q_rngs])
    # Drawn from their own stream, so after training: the batch's training
    # stack and the test environments never occupy memory together.
    test_envs = default_test_envs(spec, params, fw, seed_rng.fork("data"))
    rows = []
    for q, ((lr, lam, gamma), result) in enumerate(zip(hparams, results)):
        if result.diverged_step is None:
            metrics = [evaluate(result.model, te) for te in test_envs]
            scores = (result.val_risk, float(np.mean(metrics)), float(np.max(metrics)))
        else:
            scores = (float("inf"),) * 3
        rows.append(SweepRow(spec.example, spec.n_envs, method, seed, q,
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


def random_search(spec, method, protocol, rng, tc_base=None):
    """Random hyperparameter search: per data seed, regenerate the
    benchmark, run ``n_queries`` trainings with sampled hyperparameters,
    and record validation risk plus the shifted-test metric per query.

    Parallelism over seeds is capped by the IBIRM_THREADS environment
    variable (default: serial); results are identical either way because
    every cell owns an independently forked stream.
    """
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}")
    n_queries, n_seeds = protocol
    if n_queries < 1 or n_seeds < 1:
        raise ParameterError("protocol counts must be >= 1")
    if tc_base is None:
        tc_base = TrainConfig()
    n_workers = _worker_count()
    seeds = list(range(n_seeds))
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_seed = list(pool.map(
                _run_seed_star,
                [(spec, method, s, n_queries, rng, tc_base) for s in seeds]))
    else:
        per_seed = [_run_seed(spec, method, s, n_queries, rng, tc_base)
                    for s in seeds]
    return [row for rows in per_seed for row in rows]


def _run_seed_star(args):
    return _run_seed(*args)
