"""Reference implementations that the package's fast paths are tested
against.

Training: the path the package used before it trained the queries of one
data seed as a batch: one linear model at a time, its objective summed
over its rows environment by environment.  Its loss is an argument, by
default the task's (square for regression, logistic for classification),
which is the loss the package trains.  Every query of a data seed trains
and validates on the seed's one split, drawn from the seed's split stream
as the package draws it.  The batched engine in ``oodbench.trainer`` must
reproduce this path within the tolerance contract stated there: the
logistic loss sums its rows by matrix products and the square loss scores
moments, so neither is bit for bit.  The engine keeps no objective curve:
the tests compare its objective with this one's at this one's iterates.
The oracle also keeps the exponential loss, which the package does not
train, as the reference for the Theorem-5 flow: gradient descent on it
over the 2D population is Euler's method for that flow.  A model of this
path is a checked :class:`LinearModel`, scored by :func:`predict`; the
package holds a trained model as its parameter row.

Flows: a generic fixed-step RK4 integrator, the right-hand side of the
rotated Theorem-5 flow, and the scalar loop that stepped both rotated
coordinates through the whole horizon, holding every grid point.
``oodbench.dynamics`` must reproduce that loop bit for bit on the
penalized flow, at every grid point.

Entropy: the path the entropy suite took before it scored its trials as
arrays: one :class:`Pmf` at a time, drawn by :func:`_random_pmf` from its
own stream's generator.  ``oodbench.entropy_lab`` must reproduce every
trial's gap bit for bit.

These functions are kept as they were and serve as the oracles the tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import exp, isfinite
from operator import lt, sub

import numpy as np

from oodbench.entropy_lab import MERGE_TOL
from oodbench.numeric_core import DivergenceError, ParameterError, power_of_two_scale
from oodbench.objectives import env_stack, moment_stack
from oodbench.objectives import objective_and_gradient as batched_objective_and_gradient
from oodbench.sem_generators import EnvDataset
from oodbench.trainer import Protocol, TrainResult, evaluate


@dataclass(frozen=True)
class Weights:
    """One model's penalty weights: (0, 0) is ERM, (lam > 0, 0) IRM,
    (0, gamma > 0) IB-ERM, both positive IB-IRM."""

    lam: float = 0.0
    gamma: float = 0.0


@dataclass
class LinearModel:
    w: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if not (np.all(np.isfinite(self.w)) and np.isfinite(self.b)):
            raise ParameterError("model parameters must be finite")


def predict(model, X):
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.w.size:
        raise ParameterError(f"X has {X.shape[1]} columns, model expects {model.w.size}")
    return X @ model.w + model.b


class OracleDivergence(DivergenceError):
    """A divergence that carries the last finite state and the step that
    left the finite range."""

    def __init__(self, message, last_state, step):
        super().__init__(message)
        self.last_state = last_state
        self.step = step


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z):
    return np.logaddexp(0.0, z)


# The loss the package trains on each task.
TASK_LOSS = {"regression": "square", "classification": "logistic"}


def _check_loss_task(loss, task):
    """``loss``, or the task's loss when it is None, checked against the
    task: the square loss fits regression only."""
    if loss is None:
        return TASK_LOSS[task]
    if loss not in ("square", "logistic", "exponential"):
        raise ParameterError(f"unknown loss {loss!r}")
    if (loss == "square") != (task == "regression"):
        raise ParameterError(f"{loss} loss incompatible with {task}")
    return loss


def risk(model, env, loss=None):
    """Mean loss of the model on one environment."""
    loss = _check_loss_task(loss, env.task)
    yhat = predict(model, env.X)
    return _risk_from_pred(yhat, env.Y, loss)


def _risk_from_pred(yhat, y, loss):
    if loss == "square":
        return float(np.mean((yhat - y) ** 2))
    if loss == "logistic":
        # BCE on logits with labels in {0, 1}
        return float(np.mean(_softplus(yhat) - y * yhat))
    ys = 2.0 * y - 1.0  # exponential loss uses labels in {-1, +1}
    return float(np.mean(np.exp(-ys * yhat)))


def irmv1_penalty(model, env, loss=None):
    """Squared derivative of the environment risk with respect to a scalar
    multiplier of the predictions, evaluated at 1."""
    loss = _check_loss_task(loss, env.task)
    yhat = predict(model, env.X)
    return _grad_wrt_scale(yhat, env.Y, loss) ** 2


def _grad_wrt_scale(yhat, y, loss):
    if loss == "square":
        return float(2.0 * np.mean((yhat - y) * yhat))
    if loss == "logistic":
        return float(np.mean((_sigmoid(yhat) - y) * yhat))
    ys = 2.0 * y - 1.0
    return float(np.mean(-ys * yhat * np.exp(-ys * yhat)))


def variance_penalty(model, envs):
    """Population variance of predictions pooled across environments."""
    preds = [predict(model, env.X) for env in envs]
    allp = np.concatenate(preds)
    if allp.size == 0:
        raise ParameterError("variance_penalty requires at least one sample")
    return float(np.mean((allp - allp.mean()) ** 2))


def _risk_grad(yhat, y, X, loss):
    n = y.size
    if loss == "square":
        resid = 2.0 * (yhat - y) / n
    elif loss == "logistic":
        resid = (_sigmoid(yhat) - y) / n
    else:
        ys = 2.0 * y - 1.0
        resid = -ys * np.exp(-ys * yhat) / n
    return X.T @ resid, float(resid.sum())


def _scale_grad_grad(yhat, y, X, loss):
    """Gradient of g = dR(s*yhat)/ds|_{s=1} with respect to (w, b)."""
    n = y.size
    if loss == "square":
        dg = 2.0 * (2.0 * yhat - y) / n
    elif loss == "logistic":
        s = _sigmoid(yhat)
        dg = (s * (1.0 - s) * yhat + s - y) / n
    else:
        ys = 2.0 * y - 1.0
        dg = np.exp(-ys * yhat) * (yhat - ys) / n
    return X.T @ dg, float(dg.sum())


def objective_and_gradient(model, envs, cfg, loss=None):
    """Penalized objective value and its exact gradient in (w, b), at the
    :class:`Weights` ``cfg``, on ``loss`` (by default the task's).

    Returns ``(value, grad)`` with ``grad`` a vector of length d+1 whose
    last entry is the intercept derivative.
    """
    if not envs:
        raise ParameterError("need at least one environment")
    d = model.w.size
    value = 0.0
    grad_w = np.zeros(d)
    grad_b = 0.0
    preds = []
    for env in envs:
        env_loss = _check_loss_task(loss, env.task)
        yhat = predict(model, env.X)
        preds.append(yhat)
        value += _risk_from_pred(yhat, env.Y, env_loss)
        gw, gb = _risk_grad(yhat, env.Y, env.X, env_loss)
        grad_w += gw
        grad_b += gb
        if cfg.lam > 0:
            g = _grad_wrt_scale(yhat, env.Y, env_loss)
            value += cfg.lam * g * g
            dgw, dgb = _scale_grad_grad(yhat, env.Y, env.X, env_loss)
            grad_w += cfg.lam * 2.0 * g * dgw
            grad_b += cfg.lam * 2.0 * g * dgb
    if cfg.gamma > 0:
        allp = np.concatenate(preds)
        mu = allp.mean()
        var = float(np.mean((allp - mu) ** 2))
        n_envs = len(envs)
        value += n_envs * cfg.gamma * var
        centered = allp - mu
        allx = np.vstack([env.X for env in envs])
        grad_w += n_envs * cfg.gamma * (2.0 / allp.size) * (allx.T @ centered)
        # the intercept shifts every prediction equally: no variance gradient
    return value, np.concatenate([grad_w, [grad_b]])


def _split_env(env, rng):
    """Deterministic split of one environment, ``Protocol.VAL_FRACTION``
    of its rows held out."""
    perm = rng.permutation(env.n)
    n_val = max(1, int(round(Protocol.VAL_FRACTION * env.n)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    def take(idx):
        return EnvDataset(env_id=env.env_id, X=env.X[idx], Y=env.Y[idx],
                          task=env.task)

    return take(train_idx), take(val_idx)


def train_gd(envs, cfg, lr, protocol, split_rng, loss=None):
    """Full-batch training of one linear model from zero on ``loss`` (by
    default the task's), at the :class:`Weights` ``cfg`` and step size
    ``lr``, for ``protocol.steps`` steps of ``protocol.optimizer``, on the
    split of each environment drawn from ``split_rng.fork(f"env{e}")``: the
    data seed's split, which every query of the seed shares.  Returns
    ``(theta, curve, val_risk)``; raises :class:`OracleDivergence` with the
    step index if the objective leaves the finite range."""
    d = envs[0].X.shape[1]
    train_envs, val_envs = [], []
    for env in envs:
        tr, va = _split_env(env, split_rng.fork(f"env{env.env_id}"))
        train_envs.append(tr)
        val_envs.append(va)

    theta = np.zeros(d + 1)
    curve = np.empty(protocol.steps + 1)
    m = np.zeros(d + 1)
    v = np.zeros(d + 1)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(protocol.steps + 1):
        model = LinearModel(w=theta[:-1], b=theta[-1])
        value, grad = objective_and_gradient(model, train_envs, cfg, loss)
        if not np.isfinite(value):
            raise OracleDivergence(f"objective diverged at step {step}",
                                   last_state=theta.copy(), step=step)
        curve[step] = value
        if step == protocol.steps:
            break
        if protocol.optimizer == "gd":
            theta = theta - lr * grad
        else:
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad * grad
            mhat = m / (1 - beta1 ** (step + 1))
            vhat = v / (1 - beta2 ** (step + 1))
            theta = theta - lr * mhat / (np.sqrt(vhat) + eps)

    val_risk = float(np.mean([evaluate(theta, e.X, e.Y, e.task) for e in val_envs]))
    return theta, curve, val_risk


def train_queries(seeds, counts, lr, lam, gamma, protocol):
    """:func:`oodbench.trainer.train_gd` by the per-model path: each of the
    ``counts[i]`` queries of the data seed that ``seeds`` yields i-th, as
    (environments, split stream), trained alone by :func:`train_gd`,
    returned as the engine's ``TrainResult`` list."""
    queries = zip(lr.tolist(), lam.tolist(), gamma.tolist())
    results = []
    for (envs, split_rng), count in zip(seeds, counts):
        for one_lr, one_lam, one_gamma in islice(queries, count):
            try:
                with np.errstate(all="ignore"):
                    theta, _, val_risk = train_gd(envs, Weights(one_lam, one_gamma),
                                                  one_lr, protocol, split_rng)
            except OracleDivergence as exc:
                results.append(TrainResult(exc.last_state, np.inf, exc.step))
            else:
                results.append(TrainResult(theta, val_risk))
    return results


def square_moments(blocks):
    """The square-loss moments of one model's rows, ``blocks`` holding its
    (X, y) rows of each environment, environment by environment, each
    column scaled by its largest magnitude over these rows alone (the
    scale rule of ``MomentStack``).  Returns the (M, C, scale) of a batch
    of one: each environment's M_e = BᵀB, the pooled scatter C of the
    scaled X, and the column scales."""
    top = np.max([np.abs(x).max(axis=0) for x, _ in blocks], axis=0)
    sx = power_of_two_scale(top)
    bs = [np.column_stack([x / sx, np.ones(y.size), -y]) for x, y in blocks]
    M = np.stack([b.T @ b for b in bs])
    xs = [b[:, :-2] for b in bs]
    mean = sum(x.sum(axis=0) for x in xs) / sum(len(x) for x in xs)
    C = sum((x - mean).T @ (x - mean) for x in xs)
    return M[None], C[None], np.append(sx, 1.0)[None]


def stack_of(envs, cfg):
    """A batch of one model's training data, every row of ``envs``, at the
    :class:`Weights` ``cfg``, as the package scores it on its task's
    loss."""
    seeds = [(envs, [np.arange(env.n) for env in envs])]
    lam, gamma = np.full(1, float(cfg.lam)), np.full(1, float(cfg.gamma))
    if envs[0].task == "regression":
        return moment_stack(seeds, [1], lam, gamma)
    return env_stack(seeds, lam, gamma)


def batched_objective(model, envs, cfg):
    """The package's batched objective for a batch of one model; returns
    ``(value, grad)`` as the per-model :func:`objective_and_gradient` does."""
    theta = np.concatenate([model.w, [model.b]])[None]
    value, grad = batched_objective_and_gradient(theta, stack_of(envs, cfg))
    return value[0], grad[0]


@dataclass
class Trajectory:
    """Time-stamped states of a fixed-step integration."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))


def rk4_integrate(rhs, y0, t0, t1, dt):
    """Classical fixed-step RK4 from t0 to t1, recording every step.

    The final step is shortened to land exactly on t1.  Raises
    :class:`OracleDivergence` (carrying the last finite state) if the state
    leaves the finite range.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    if t1 <= t0:
        raise ParameterError(f"t1 must exceed t0, got ({t0}, {t1})")
    y = np.asarray(y0, dtype=float).copy()
    n_full, rem = divmod(t1 - t0, dt)
    n_steps = int(n_full) + (1 if rem > 1e-12 * dt else 0)
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, y.size))
    times[0] = t0
    states[0] = y
    t = t0
    for i in range(n_steps):
        h = min(dt, t1 - t)
        k1 = np.asarray(rhs(t, y))
        k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1))
        k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2))
        k4 = np.asarray(rhs(t + h, y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t0 + (i + 1) * dt if i + 1 < n_steps else t1
        if not np.all(np.isfinite(y)):
            raise OracleDivergence(
                f"non-finite state at t={t:g} (step {i + 1})",
                last_state=states[i].copy(),
                step=i + 1,
            )
        times[i + 1] = t
        states[i + 1] = y
    return Trajectory(times, states)


def flow_rhs(p, gamma):
    """Right-hand side of the rotated flow as a callable for the
    integrator (state is (x, y)); gamma = 0 is the plain flow."""
    def rhs(t, state):
        x, y = state
        return np.array([2.0 * p * (np.exp(-x) - 2.0 * gamma * x),
                         2.0 * (1.0 - p) * (np.exp(-y) - 2.0 * gamma * y)])
    return rhs


@dataclass
class DenseTrajectory:
    """A flow at every point of its grid."""

    times: np.ndarray
    w_inv: np.ndarray
    w_spu: np.ndarray

    def ratio(self, p):
        """|w_spu / w_inv| along the trajectory; the origin is assigned the
        one-sided limit 2p - 1 implied by the initial slopes."""
        out = np.full_like(self.w_inv, 2.0 * p - 1.0)
        np.divide(self.w_spu, self.w_inv, out=out, where=self.w_inv != 0)
        return np.abs(out, out=out)


def simulate_flow_full_loop(p, gamma, t_end, dt):
    """Scalar RK4 on both rotated coordinates through every step of the
    horizon, converted back to (w_inv, w_spu); gamma = 0 is the plain
    flow."""
    n_full, rem = divmod(t_end, dt)
    n_steps = int(n_full) + (1 if rem > 1e-12 * dt else 0)
    times = np.empty(n_steps + 1)
    xs = np.empty(n_steps + 1)
    ys = np.empty(n_steps + 1)
    times[0] = 0.0
    xs[0] = ys[0] = 0.0
    cx = 2.0 * p
    cy = 2.0 * (1.0 - p)
    g2 = 2.0 * gamma
    try:
        _run_steps(n_steps, dt, t_end, cx, cy, g2, times, xs, ys)
    except OverflowError as exc:
        raise DivergenceError(f"flow integration overflowed: {exc}") from exc
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DivergenceError("flow integration diverged")
    return DenseTrajectory(times=times,
                           w_inv=0.5 * (xs + ys), w_spu=0.5 * (xs - ys))


def _run_steps(n_steps, dt, t_end, cx, cy, g2, times, xs, ys):
    x = y = 0.0
    t = 0.0
    for i in range(n_steps):
        h = dt if dt <= t_end - t else t_end - t
        k1 = cx * (exp(-x) - g2 * x)
        k2 = cx * (exp(-(x + 0.5 * h * k1)) - g2 * (x + 0.5 * h * k1))
        k3 = cx * (exp(-(x + 0.5 * h * k2)) - g2 * (x + 0.5 * h * k2))
        k4 = cx * (exp(-(x + h * k3)) - g2 * (x + h * k3))
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k1 = cy * (exp(-y) - g2 * y)
        k2 = cy * (exp(-(y + 0.5 * h * k1)) - g2 * (y + 0.5 * h * k1))
        k3 = cy * (exp(-(y + 0.5 * h * k2)) - g2 * (y + 0.5 * h * k2))
        k4 = cy * (exp(-(y + h * k3)) - g2 * (y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = (i + 1) * dt if i + 1 < n_steps else t_end
        times[i + 1] = t
        xs[i + 1] = x
        ys[i + 1] = y


@dataclass(frozen=True)
class Pmf:
    """Finite discrete distribution with finite, strictly increasing support.

    The checks run on ``tolist()`` floats: a pmf has at most a few dozen
    atoms, where one numpy call costs more than a Python pass.  A nan or
    inf probability makes the sum nan or inf, which fails the sum test.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if support.ndim != 1 or probs.shape != support.shape:
            raise ParameterError("support and probs must be 1-d of equal length")
        s, p = support.tolist(), probs.tolist()
        if not (all(map(isfinite, s)) and all(map(lt, s, s[1:]))):
            raise ParameterError("support must be finite and strictly increasing")
        if not (abs(sum(p) - 1.0) <= 1e-12 and min(p) >= 0.0):
            raise ParameterError("probs must be finite, nonnegative and sum to 1 "
                                 "within 1e-12")


@dataclass(frozen=True)
class LabeledMixture:
    """Weighted collection of per-environment distributions."""

    components: tuple  # of (weight, Pmf)

    def __post_init__(self):
        # A nan or inf weight makes the sum nan or inf, which fails the test.
        weights = [float(w) for w, _ in self.components]
        if not (abs(sum(weights) - 1.0) <= 1e-12 and min(weights) >= 0.0):
            raise ParameterError("mixture weights must be finite, nonnegative "
                                 "and sum to 1")


def pmf_entropy(p):
    """Shannon entropy -sum p_i ln p_i with the 0 ln 0 = 0 convention."""
    probs = p.probs[p.probs > 0]
    return float(-(probs * np.log(probs)).sum())


def _merge(support, probs):
    """Sort the atoms and merge each group of them that lies within
    MERGE_TOL of the group's first atom."""
    order = np.argsort(support, kind="stable")
    support, probs = support[order], probs[order]
    if not (support[1:] - support[:-1] <= MERGE_TOL).any():
        return Pmf(support, probs / probs.sum())
    merged_s, merged_p = [support[0]], [probs[0]]
    for s, q in zip(support[1:], probs[1:]):
        if s - merged_s[-1] <= MERGE_TOL:
            merged_p[-1] += q
        else:
            merged_s.append(s)
            merged_p.append(q)
    probs = np.array(merged_p)
    return Pmf(np.array(merged_s), probs / probs.sum())


def pmf_convolve(p, q):
    """Exact distribution of the sum of independent variables with pmfs
    ``p`` and ``q``; support values within 1e-12 are merged."""
    sums = np.add.outer(p.support, q.support).ravel()
    probs = np.multiply.outer(p.probs, q.probs).ravel()
    return _merge(sums, probs)


def sum_entropy_gap(p, q):
    """H(X+Y) - max(H(X), H(Y)) for independent X, Y.

    Nonnegative always; strictly positive whenever both supports have at
    least two atoms.
    """
    return pmf_entropy(pmf_convolve(p, q)) - max(pmf_entropy(p), pmf_entropy(q))


def mixture_pmf(mix):
    """Marginal pmf of a labeled mixture."""
    support = np.concatenate([pmf.support for _, pmf in mix.components])
    probs = np.concatenate([w * pmf.probs for w, pmf in mix.components])
    return _merge(support, probs)


def conditional_entropy_gap(mix):
    """H(mixture) - sum_e w_e H(component_e): the amount by which
    conditioning on the environment label reduces entropy.  Nonnegative."""
    marginal = pmf_entropy(mixture_pmf(mix))
    conditional = sum(w * pmf_entropy(pmf) for w, pmf in mix.components)
    return marginal - conditional


# The categorical law of a random pmf's atom count less 2: uniform on 0..6.
_ATOM_COUNT_PROBS = [1.0 / 7] * 7


def _random_pmf(rng):
    """A pmf on 2 to 8 atoms drawn uniformly from [-5, 5]."""
    k = 2 + rng.categorical(_ATOM_COUNT_PROBS)
    while True:
        support = rng.uniform(-5.0, 5.0, shape=(k,))
        support.sort()
        s = support.tolist()
        if min(map(sub, s[1:], s)) >= 1e-6:
            break
    probs = rng.uniform(0.05, 1.0, shape=(k,))
    return Pmf(support, probs / probs.sum())
