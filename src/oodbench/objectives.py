"""Risks, the scalar-rescaling invariance penalty, the prediction-variance
bottleneck penalty, and the combined penalized objective with exact
analytic gradients for a batch of linear models.

The objective of one model over its training environments is

    sum_e [ R_e + lambda * P_e ] + n_envs * gamma * Var_pooled

where P_e is the squared derivative of R_e(s * yhat) at s = 1 and
Var_pooled is the population variance of predictions pooled over all
environments.  Every environment has the same number of rows, so

    n_envs * Var_pooled = sum_e Var_e + sum_e (mu_e - mu)^2

with Var_e and mu_e the variance and mean of environment e's predictions
and mu their pooled mean: the gamma term is the per-environment sum of
variances plus the spread of the environments' prediction means, and it
equals that sum when the means agree.  The pooled form stays because
every pinned IB output uses it; scoring the per-environment sum alone
would change the sweep protocol.

The loss follows from the task, and the stack that holds a batch's
training rows names it.  Classification is trained on the logistic loss,
scored from the rows (:class:`EnvStack`) with the per-model path's float
operations in its order, but for the softplus, taken from the sigmoid's
exp(-|ŷ|) instead of numpy's ``logaddexp``.  Regression is trained on the
square loss, an exact polynomial in a few moments of the rows, so it is
scored from them (:class:`MomentStack`): one step costs O(E d²) instead
of O(E n d), with a different rounding.  What each path promises against
the per-model reference is the tolerance contract in
:mod:`oodbench.trainer`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric_core import ParameterError

__all__ = [
    "LinearModel",
    "ObjectiveConfig",
    "EnvStack",
    "MomentStack",
    "moment_stack",
    "predict",
    "objective_and_gradient",
]


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
    """Penalty weights: (0, 0) is ERM, (lam>0, 0) is IRM, (0, gamma>0) is
    IB-ERM, both positive is IB-IRM.  For a batch of models ``lam`` and
    ``gamma`` are one weight per model, or one for all; the batch is of one
    method, so each is all zero or all positive."""

    lam: float | np.ndarray = 0.0
    gamma: float | np.ndarray = 0.0

    def __post_init__(self):
        for name in ("lam", "gamma"):
            w = np.asarray(getattr(self, name))
            if not (np.all(w == 0) or np.all(w > 0)):
                raise ParameterError(f"{name} must be all zero or all positive")


@dataclass
class EnvStack:
    """The training rows of a batch of Q models, one block per model,
    scored on the logistic loss.

    ``X[q, e]`` (n, d) and ``Y[q, e]`` (n,) are model q's rows of
    environment e; every environment has the same number of rows n.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 4 or self.Y.shape != self.X.shape[:3]:
            raise ParameterError("EnvStack needs X of shape (Q, E, n, d) and Y (Q, E, n)")


@dataclass
class MomentStack:
    """The square-loss statistics of a batch of Q models' training rows.

    For model q's n rows of environment e, ``M[q, e]`` = BᵀB with
    B = [X / scale[q], 1, -y], so that n times the environment's mean
    squared residual at theta is ψᵀMψ with ψ = [theta * scale[q], 1].
    ``C[q]`` is the scatter matrix of X / scale[q] about its mean, over the
    rows of every environment, pooled.  Each scale is the least power of
    two at or above its column's largest magnitude (1 for the intercept),
    so the division is exact and the scaled columns are at most 1 in
    magnitude: a huge value in X gives an overflowing gradient, as it does
    on the rows, not a NaN objective from 0 * inf at theta = 0.
    """

    M: np.ndarray      # (Q, E, d+2, d+2)
    C: np.ndarray      # (Q, d, d)
    scale: np.ndarray  # (Q, d+1)
    n: int


def moment_stack(queries, n_queries):
    """The :class:`MomentStack` of a batch of ``n_queries`` models;
    ``queries`` yields, per model, its (X, y) rows of each environment, n
    rows each.  Only one model's rows are read at a time, and its moments
    are written into arrays sized for the batch.  ``C`` is taken about the
    pooled mean in two passes, not as a difference of raw moments."""
    for q, blocks in enumerate(queries):
        if q == 0:
            n_envs, d = len(blocks), blocks[0][0].shape[1]
            M = np.empty((n_queries, n_envs, d + 2, d + 2))
            C = np.empty((n_queries, d, d))
            scale = np.ones((n_queries, d + 1))
        top = np.max([np.abs(x).max(axis=0) for x, _ in blocks], axis=0)
        sx = np.ldexp(1.0, np.frexp(top)[1])
        bs = [np.column_stack([x / sx, np.ones(y.size), -y]) for x, y in blocks]
        for e, b in enumerate(bs):
            M[q, e] = b.T @ b
        xs = [b[:, :-2] for b in bs]
        mean = sum(x.sum(axis=0) for x in xs) / sum(len(x) for x in xs)
        C[q] = sum((x - mean).T @ (x - mean) for x in xs)
        scale[q, :-1] = sx
    n = blocks[0][1].size
    return MomentStack(M, C, scale, n)


def predict(model, X):
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.w.size:
        raise ParameterError(f"X has {X.shape[1]} columns, model expects {model.w.size}")
    return X @ model.w + model.b


def _env_terms(X, yhat, y, penalized):
    """Logistic-loss terms of every (model, environment) pair, from (Q, E, n)
    predictions and labels in {0, 1}.

    Returns the risks (Q, E), their gradients in (w, b) (Q, E, d+1), and,
    when ``penalized``, the scale derivative g (Q, E) with its gradients
    (else None).  A mean is a row sum divided by n, which is how ``np.mean``
    computes it.  Row-sized buffers are reused in place to keep a large
    batch's peak memory low; an in-place operation gives the same bits as
    its out-of-place form.

    All but the risk follow the per-model path's float operations in its
    order.  One e = exp(-|ŷ|) per row gives both the sigmoid,
    max(e, [ŷ ≥ 0]) / (1 + e), and the softplus, max(ŷ, 0) + log1p(e).
    As e is in [0, 1] or nan, the sigmoid's numerator is 1 where ŷ ≥ 0 and
    e elsewhere, as the per-model path takes it.  The softplus is the
    formula of numpy's ``logaddexp(0, ŷ)`` with a vectorised exp; it agrees
    with it to a few ulp (see :mod:`oodbench.trainer`).
    """
    n = y.shape[-1]
    g = pen = None
    e = np.abs(yhat)
    np.negative(e, out=e)
    np.exp(e, out=e)              # exp(-|yhat|), shared by both halves
    s = np.maximum(e, yhat >= 0)
    r = np.log1p(e)
    e += 1.0
    s /= e                        # sigmoid(yhat)
    np.maximum(yhat, 0.0, out=e)
    r += e                        # softplus(yhat) = max(yhat, 0) + log1p(e)
    np.multiply(y, yhat, out=e)
    r -= e
    risk = _row_sum(r) / n
    np.subtract(s, y, out=r)
    if penalized:
        g = _row_sum(np.multiply(r, yhat, out=e)) / n
    r /= n                        # (s - y) / n
    grad = _row_grad(X, r)
    if penalized:
        np.subtract(1.0, s, out=r)
        r *= s
        r *= yhat
        r += s
        r -= y
        r /= n                    # (s (1 - s) yhat + s - y) / n
        pen = _row_grad(X, r)
    return risk, grad, g, pen


def _moment_terms(psi, st, penalized):
    """The terms of :func:`_env_terms` for the square loss, from the
    moments of ``st`` at ψ = [theta * scale, 1] (see :class:`MomentStack`).

    With v = Mψ = [Sφ - u, c - uᵀφ] for S = AᵀA, u = Aᵀy, c = yᵀy and
    φ = theta * scale: sum((ŷ - y) ŷ) = φᵀ(Sφ - u), and the summed
    squared residual is that plus c - uᵀφ.  So R = (φᵀ(Sφ - u) + c - uᵀφ)
    / n with gradient scale * 2 (Sφ - u) / n, and g = 2 φᵀ(Sφ - u) / n
    with gradient scale * 2 (2 Sφ - u) / n.  g is not taken as a
    difference of R and c - uᵀφ, which would cancel while ŷ is small.
    """
    n = st.n
    v = np.matmul(st.M, psi[:, None, :, None])[..., 0]
    fit = _row_sum(v[..., :-1] * psi[:, None, :-1])
    risk = (fit + v[..., -1]) / n
    step = st.scale[:, None] * (2.0 / n)
    grad = v[..., :-1] * step
    if not penalized:
        return risk, grad, None, None
    # 2 Sφ - u = 2 (Sφ - u) + u, and u is minus M's last column
    return risk, grad, 2.0 * fit / n, 2.0 * grad - st.M[..., :-1, -1] * step


def _row_grad(X, r):
    """Gradients in (w, b) of row terms with derivative ``r`` in ŷ."""
    return np.concatenate([_matvec(X, r), _row_sum(r)[..., None]], axis=-1)


def _row_sum(a):
    """Sum over the contiguous last axis: pairwise, as for one model's row."""
    return np.add.reduce(a, axis=-1)


def _matvec(X, r):
    """``X[i].T @ r[i]`` for every leading index i.  BLAS reads the
    transposed view in the same order as one model's ``X.T``; a contiguous
    copy of it would change the sums' bits."""
    return np.matmul(X.swapaxes(-1, -2), r[..., None])[..., 0]


def objective_and_gradient(theta, stack, cfg):
    """Penalized objective values and their exact gradients in (w, b) for a
    batch of Q linear models.

    ``theta`` is (Q, d+1), weights then intercept; model q is scored on its
    own rows of ``stack``: on the square loss from a :class:`MomentStack`,
    on the logistic loss from an :class:`EnvStack`.  Penalty weights are
    ``cfg.lam[q]`` and ``cfg.gamma[q]`` (or one weight for all); each
    penalty is on for every model of the batch or for none.  Returns
    ``(values, grads)`` of shapes (Q,) and (Q, d+1).

    Each model's result is the same whatever the batch holds: its float
    operations, and the order in which the terms are summed, do not depend
    on the other models.  From an :class:`EnvStack` they are the per-model
    path's but for the softplus (see :func:`_env_terms`), so the gradient
    is bit-identical to scoring that model alone, one environment after
    another.  A penalty whose weight is 0 is left out of the sum, not added
    as 0.
    """
    moments = isinstance(stack, MomentStack)
    q, d = theta.shape[0], theta.shape[1] - 1
    lam = np.asarray(cfg.lam, dtype=float)
    gamma = np.asarray(cfg.gamma, dtype=float)
    use_irm, use_ib = bool(lam.any()), bool(gamma.any())
    if moments:
        n_envs, n = stack.M.shape[1], stack.n
        psi = np.ones((q, d + 2))
        np.multiply(theta, stack.scale, out=psi[:, :-1])
        risk_qe, grad_qe, g, g_grad = _moment_terms(psi, stack, use_irm)
    else:
        n_envs, n = stack.X.shape[1:3]
        yhat = np.matmul(stack.X, theta[:, None, :-1, None])[..., 0]
        yhat += theta[:, -1:, None]
        risk_qe, grad_qe, g, g_grad = _env_terms(stack.X, yhat, stack.Y, use_irm)
    if use_irm:
        lam_q = lam.reshape(-1, 1)
        pen = lam_q * g * g
        pen_grad = (lam_q * 2.0 * g)[..., None] * g_grad
    # Environment by environment, in the per-model order.
    value = np.zeros(q)
    grad = np.zeros((q, d + 1))
    for e in range(n_envs):
        value += risk_qe[:, e]
        grad += grad_qe[:, e]
        if use_irm:
            value += pen[:, e]
            grad += pen_grad[:, e]
    if use_ib:
        n_all = n_envs * n
        if moments:
            # wᵀCw with C the pooled scatter matrix: the variance times n_all
            phi_w = psi[:, :d]
            C_phi = np.matmul(stack.C, phi_w[..., None])[..., 0]
            var = _row_sum(C_phi * phi_w) / n_all
            var_w = stack.scale[:, :-1] * C_phi
        else:
            # predictions pooled over the environments
            allp = yhat.reshape(q, n_all)
            centered = allp - (_row_sum(allp) / n_all)[:, None]
            var_w = _matvec(stack.X.reshape(q, n_all, d), centered)
            centered **= 2
            var = _row_sum(centered) / n_all
        value += n_envs * gamma * var
        coef = np.reshape(n_envs * gamma * (2.0 / n_all), (-1, 1))
        # the intercept shifts every prediction equally: no variance gradient
        grad[:, :-1] += coef * var_w
    return value, grad
