"""Risks, the scalar-rescaling invariance penalty, the prediction-variance
bottleneck penalty, and the combined penalized objective with exact
analytic gradients for a batch of linear models.

The objective of one model over its training environments is

    sum_e [ R_e + lambda * P_e ] + n_envs * gamma * Var_pooled

where P_e is the squared derivative of R_e(s * yhat) at s = 1 and
Var_pooled is the population variance of predictions pooled over all
environments (the gamma term appears once per environment, matching the
per-environment placement in the penalized objective).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric_core import ParameterError

__all__ = [
    "LinearModel",
    "ObjectiveConfig",
    "EnvStack",
    "predict",
    "risk",
    "objective_and_gradient",
]

LOSSES = ("square", "logistic", "exponential")


@dataclass
class LinearModel:
    w: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if not (np.all(np.isfinite(self.w)) and np.isfinite(self.b)):
            raise ParameterError("model parameters must be finite")


@dataclass
class ObjectiveConfig:
    """loss kind plus penalty weights; (0, 0) is ERM, (lam>0, 0) is IRM,
    (0, gamma>0) is IB-ERM, both positive is IB-IRM.  For a batch of
    models ``lam`` and ``gamma`` are one weight per model, or one for all."""

    loss: str = "square"
    lam: float | np.ndarray = 0.0
    gamma: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ParameterError(f"unknown loss {self.loss!r}")
        if np.any(np.asarray(self.lam) < 0) or np.any(np.asarray(self.gamma) < 0):
            raise ParameterError("penalty weights must be >= 0")


@dataclass
class EnvStack:
    """The training rows of a batch of Q models, one block per model.

    ``X[q, e]`` (n, d) and ``Y[q, e]`` (n,) are model q's rows of
    environment e; every environment has the same number of rows n.
    """

    X: np.ndarray
    Y: np.ndarray
    task: str

    def __post_init__(self):
        if self.X.ndim != 4 or self.Y.shape != self.X.shape[:3]:
            raise ParameterError("EnvStack needs X of shape (Q, E, n, d) and Y (Q, E, n)")


def predict(model, X):
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.w.size:
        raise ParameterError(f"X has {X.shape[1]} columns, model expects {model.w.size}")
    return X @ model.w + model.b


def _check_loss_task(loss, task):
    if task == "regression" and loss != "square":
        raise ParameterError(f"{loss} loss incompatible with regression")
    if task == "classification" and loss == "square":
        raise ParameterError("square loss incompatible with classification")


def _sigmoid(z):
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)  # exp(-|z|)
    s = np.where(z >= 0, 1.0, e)
    e += 1.0
    s /= e
    return s


def _softplus(z):
    return np.logaddexp(0.0, z)


def risk(model, env, loss):
    """Mean loss of the model on one environment."""
    _check_loss_task(loss, env.task)
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


def _env_terms(X, yhat, y, loss, penalized):
    """Risk terms of every (model, environment) pair, from (Q, E, n)
    predictions and labels.

    Returns the risks (Q, E), their gradients in w (Q, E, d) and in b
    (Q, E), and, when ``penalized``, the scale derivative g (Q, E) with its
    gradients in w and b (else None).  A mean is a row sum divided by n,
    which is how ``np.mean`` computes it.  Row-sized buffers are reused in
    place to keep a large batch's peak memory low; an in-place operation
    gives the same bits as its out-of-place form.
    """
    n = y.shape[-1]
    g = pen_w = pen_b = None
    if loss == "square":
        r = yhat - y
        risk = _row_sum(r ** 2) / n
        if penalized:
            g = 2.0 * (_row_sum(r * yhat) / n)
        r *= 2.0
        r /= n                        # 2 (yhat - y) / n
        grad_w, grad_b = _matvec(X, r), _row_sum(r)
        if penalized:
            np.multiply(yhat, 2.0, out=r)
            r -= y
            r *= 2.0
            r /= n                    # 2 (2 yhat - y) / n
            pen_w, pen_b = _matvec(X, r), _row_sum(r)
    elif loss == "logistic":
        r = _softplus(yhat)
        r -= y * yhat
        risk = _row_sum(r) / n
        s = _sigmoid(yhat)
        np.subtract(s, y, out=r)
        if penalized:
            g = _row_sum(r * yhat) / n
        r /= n                        # (s - y) / n
        grad_w, grad_b = _matvec(X, r), _row_sum(r)
        if penalized:
            np.subtract(1.0, s, out=r)
            r *= s
            r *= yhat
            r += s
            r -= y
            r /= n                    # (s (1 - s) yhat + s - y) / n
            pen_w, pen_b = _matvec(X, r), _row_sum(r)
    else:
        ys = 2.0 * y - 1.0            # exponential loss uses labels in {-1, +1}
        e = -ys * yhat
        np.exp(e, out=e)
        risk = _row_sum(e) / n
        if penalized:
            g = _row_sum(-ys * yhat * e) / n
        r = -ys * e
        r /= n
        grad_w, grad_b = _matvec(X, r), _row_sum(r)
        if penalized:
            np.subtract(yhat, ys, out=r)
            r *= e
            r /= n                    # e (yhat - ys) / n
            pen_w, pen_b = _matvec(X, r), _row_sum(r)
    return risk, grad_w, grad_b, g, pen_w, pen_b


def _row_sum(a):
    """Sum over the contiguous last axis: pairwise, as for one model's row."""
    return np.add.reduce(a, axis=-1)


def _matvec(X, r):
    """``X[i].T @ r[i]`` for every leading index i.  BLAS reads the
    transposed view in the same order as one model's ``X.T``; a contiguous
    copy of it would change the sums' bits."""
    return np.matmul(X.swapaxes(-1, -2), r[..., None])[..., 0]


def _add_where(acc, term, on):
    """``acc + term`` for the models where ``on`` holds (all when ``on`` is
    None); the rest keep ``acc``."""
    if on is None:
        return acc + term
    return np.where(on.reshape((-1,) + (1,) * (acc.ndim - 1)), acc + term, acc)


def _mask(on):
    """None when every model of the batch is on, else the per-model mask."""
    return None if on.all() else on


def objective_and_gradient(theta, stack, cfg):
    """Penalized objective values and their exact gradients in (w, b) for a
    batch of Q linear models.

    ``theta`` is (Q, d+1), weights then intercept; model q is scored on its
    own rows of ``stack``, an :class:`EnvStack`, with penalty weights
    ``cfg.lam[q]`` and ``cfg.gamma[q]`` (or one weight for all).  Returns
    ``(values, grads)`` of shapes (Q,) and (Q, d+1).

    Each model's result is bit-identical to scoring that model alone, one
    environment after another: every per-model float operation, and the
    order in which the terms are summed, is the same whatever the batch
    holds.  A penalty whose weight is 0 is left out of the sum, not added
    as 0.
    """
    _check_loss_task(cfg.loss, stack.task)
    q, n_envs, n, d = stack.X.shape
    lam = np.asarray(cfg.lam, dtype=float)
    gamma = np.asarray(cfg.gamma, dtype=float)
    irm, ib = lam > 0, gamma > 0
    use_irm, use_ib = bool(irm.any()), bool(ib.any())
    irm, ib = _mask(irm), _mask(ib)
    yhat = np.matmul(stack.X, theta[:, None, :-1, None])[..., 0]
    yhat += theta[:, -1:, None]
    risk_qe, grad_w_qe, grad_b_qe, g, g_w, g_b = _env_terms(
        stack.X, yhat, stack.Y, cfg.loss, use_irm)
    if use_irm:
        lam_q = lam.reshape(-1, 1)
        pen = lam_q * g * g
        coef = lam_q * 2.0 * g
        pen_w = coef[..., None] * g_w
        pen_b = coef * g_b
    # Environment by environment, in the per-model order.
    value = np.zeros(q)
    grad_w = np.zeros((q, d))
    grad_b = np.zeros(q)
    for e in range(n_envs):
        value += risk_qe[:, e]
        grad_w += grad_w_qe[:, e]
        grad_b += grad_b_qe[:, e]
        if use_irm:
            value = _add_where(value, pen[:, e], irm)
            grad_w = _add_where(grad_w, pen_w[:, e], irm)
            grad_b = _add_where(grad_b, pen_b[:, e], irm)
    if use_ib:
        # predictions pooled over the environments
        allp = yhat.reshape(q, n_envs * n)
        centered = allp - (_row_sum(allp) / allp.shape[1])[:, None]
        var_w = _matvec(stack.X.reshape(q, n_envs * n, d), centered)
        centered **= 2
        var = _row_sum(centered) / allp.shape[1]
        value = _add_where(value, n_envs * gamma * var, ib)
        coef = np.reshape(n_envs * gamma * (2.0 / allp.shape[1]), (-1, 1))
        grad_w = _add_where(grad_w, coef * var_w, ib)
        # the intercept shifts every prediction equally: no variance gradient
    return value, np.concatenate([grad_w, grad_b[:, None]], axis=1)
