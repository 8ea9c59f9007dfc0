"""Full-batch training, the random-search model-selection protocol, and
out-of-distribution evaluation metrics.

A sweep trains the queries of one (method, data seed) together:
:func:`train_gd` stacks each query's own training rows and updates every
query's parameters at each step with one batched call of
:func:`~oodbench.objectives.objective_and_gradient`.  Three properties hold
for each query of a batch:

* Its result is bit-reproducible: the same inputs give the same bits.
* Its result does not depend on which other queries share its batch, or on
  when they diverge and leave it; it equals training the query alone.
* Its float operations, and their order, are fixed: they are the ones the
  per-model training performed.  The sweep is sensitive to the last bit:
  on ex2 / IBIRM / data seed 0 / query 1, moving lr by 1 ulp moved the
  trained weights by 1.8% and val_risk from 0.358 to 0.402.  So an engine
  that reorders float operations (a fused kernel, a different reduction
  order, an algebraic shortcut) changes the sweep's numbers, and needs its
  own tolerance decision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .numeric_core import ParameterError
from .objectives import (EnvStack, LinearModel, ObjectiveConfig,
                         objective_and_gradient, predict, risk)
from .sem_generators import EnvDataset, default_test_envs, generate_training_envs

__all__ = [
    "TrainConfig",
    "TrainResult",
    "SweepRow",
    "train_gd",
    "evaluate",
    "random_search",
    "spurious_ratio",
    "METHODS",
]

METHODS = ("ERM", "IRM", "IBERM", "IBIRM")

VAL_FRACTION = 0.2


@dataclass
class TrainConfig:
    lr: float | np.ndarray = 0.01  # one step size, or one per query
    steps: int = 2000
    init: str = "zeros"          # "zeros" | "gaussian"
    init_scale: float = 0.1
    optimizer: str = "gd"        # "gd" | "adam"

    def __post_init__(self):
        lr = np.asarray(self.lr, dtype=float)
        if not (np.all(np.isfinite(lr)) and np.all(lr > 0)):
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
        if self.steps < 1:
            raise ParameterError("steps must be >= 1")
        if self.init not in ("zeros", "gaussian"):
            raise ParameterError(f"unknown init {self.init!r}")
        if self.optimizer not in ("gd", "adam"):
            raise ParameterError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainResult:
    theta: np.ndarray            # weights then intercept
    objective_curve: np.ndarray  # one value per step run
    final_train_risk: float
    val_risk: float
    # Step at which the objective or the parameters left the finite range;
    # ``theta`` is then the state of that step, the risks are inf and the
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


def _stack_queries(envs, rngs):
    """Each query's training rows, as one :class:`EnvStack`, and each
    query's held-out rows of every environment.  Query q's split of
    environment e is drawn from ``rngs[q].fork("split").fork(f"env{e}")``."""
    if len({env.task for env in envs}) != 1 or len({env.n for env in envs}) != 1:
        raise ParameterError("training environments must share one task "
                             "and one number of rows")
    splits = []
    for rng in rngs:
        split_rng = rng.fork("split")
        splits.append([_split(env.n, split_rng.fork(f"env{env.env_id}"))
                       for env in envs])
    n_train = splits[0][0][0].size
    X = np.empty((len(rngs), len(envs), n_train, envs[0].X.shape[1]))
    Y = np.empty(X.shape[:3])
    for q, query in enumerate(splits):
        for e, (env, (train, _)) in enumerate(zip(envs, query)):
            X[q, e] = env.X[train]
            Y[q, e] = env.Y[train]
    held_out = [[val.copy() for _, val in query] for query in splits]
    return EnvStack(X, Y, envs[0].task), held_out


def _keep_rows(a, keep):
    """Move rows ``keep`` (increasing) of ``a`` to its front, in place, and
    return that front: no second copy of a training stack is made."""
    for dst, src in enumerate(keep):
        if dst != src:
            a[dst] = a[src]
    return a[:len(keep)]


def train_gd(envs, cfg, tc, rngs):
    """Deterministic full-batch training of one linear model per stream in
    ``rngs``, all of them as one batch.

    Query q holds out 20% of each environment (split drawn from
    ``rngs[q]``) and trains on the rest with penalty weights ``cfg.lam``
    and ``cfg.gamma`` and step size ``tc.lr``, each one value per query or
    one for all.  The average held-out risk is reported as ``val_risk``,
    measured with the task risk (classification error or mean squared
    error) rather than the training surrogate, matching how trained models
    are evaluated.  A query whose objective value or parameters leave the
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
    stack, held_out = _stack_queries(envs, rngs)
    d = stack.X.shape[-1]
    theta = np.zeros((n_q, d + 1))
    if tc.init == "gaussian":
        for q, rng in enumerate(rngs):
            theta[q, :-1] = rng.fork("init").gaussian_array((d,), std=tc.init_scale)

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
                stack = EnvStack(_keep_rows(stack.X, keep),
                                 _keep_rows(stack.Y, keep), stack.task)
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

    metric = "class_error" if stack.task == "classification" else "mse"
    row_of = {int(q): row for row, q in enumerate(ids)}
    results = []
    for q in range(n_q):
        if diverged_step[q] is not None:
            results.append(TrainResult(final[q], curves[q, :diverged_step[q]],
                                       float("inf"), float("inf"), diverged_step[q]))
            continue
        model = LinearModel(w=final[q, :-1], b=final[q, -1])
        row = row_of[q]
        train_risk = float(np.mean([
            risk(model, EnvDataset(env.env_id, stack.X[row, e], stack.Y[row, e],
                                   stack.task), cfg.loss)
            for e, env in enumerate(envs)]))
        val_risk = float(np.mean([
            evaluate(model, EnvDataset(env.env_id, env.X[val], env.Y[val], env.task), metric)
            for env, val in zip(envs, held_out[q])]))
        results.append(TrainResult(final[q], curves[q], train_risk, val_risk))
    return results


def evaluate(model, env, metric):
    """mse for regression, class_error (decision threshold at 0) for
    classification."""
    yhat = predict(model, env.X)
    if metric == "mse":
        if env.task != "regression":
            raise ParameterError("mse requires a regression environment")
        return float(np.mean((yhat - env.Y) ** 2))
    if metric == "class_error":
        if env.task != "classification":
            raise ParameterError("class_error requires a classification environment")
        return float(np.mean((yhat >= 0).astype(float) != env.Y))
    raise ParameterError(f"unknown metric {metric!r}")


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


def _loss_and_metric(example):
    if example == "ex1":
        return "square", "mse"
    return "logistic", "class_error"


def _sample_hparams(method, rng):
    lr = 10.0 ** rng.fork("lr").uniform(-3.0, -1.0)
    lam = 10.0 ** rng.fork("lam").uniform(-1.0, 4.0) if "IRM" in method else 0.0
    gamma = 1.0 - 10.0 ** rng.fork("gamma").uniform(-2.0, 0.0) if method.startswith("IB") else 0.0
    return lr, lam, gamma


def _run_seed(spec, method, seed, n_queries, rng, tc_base):
    loss, metric = _loss_and_metric(spec.example)
    seed_rng = rng.fork(f"seed{seed}")
    fw, params, envs = generate_training_envs(spec, seed_rng.fork("data"))
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
            metrics = [evaluate(result.model, te, metric) for te in test_envs]
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


def spurious_ratio(model, fw, m):
    """Share of the model's weight that lives in the spurious latent block.

    Maps observed-space weights to latent coordinates via S^T w (valid for
    orthogonal scramblers) and returns ||v_spu|| / ||v||.
    """
    v = fw.S.T @ model.w
    spu = float(np.linalg.norm(v[m:]))
    inv = float(np.linalg.norm(v[:m]))
    denom = np.sqrt(spu * spu + inv * inv)
    if denom == 0.0:
        return 0.0
    return spu / denom
