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
training data, with its penalty weights, names it; both are built here
from each query's environments and training rows.  Classification is
trained on the logistic loss, scored from the rows (:func:`env_stack`)
with the per-model path's float operations in its order, but for the
softplus, taken from the sigmoid's exp(-|ŷ|) instead of numpy's
``logaddexp``.  Regression is trained on the square loss, an exact
polynomial in a few moments of the rows, so it is scored from them
(:func:`moment_stack`), with a different rounding: ERM and IB-ERM are one
quadratic form per model, O(d²) a step, and the IRM penalty adds O(E d²),
instead of O(E n d) on the rows.  The build computes the bottleneck's
scatter only for the queries with gamma > 0, the per-environment moments
only for those with lam > 0.  So a square-loss batch may mix methods: a
query whose weight is 0 has no term of that penalty, and its value and
gradient are bit for bit those of a batch of its method alone.  A
logistic batch is of one method: each weight is all zero or all
positive, as it computes each penalty for the whole batch.  What each
path promises against the per-model reference is the tolerance contract
in :mod:`oodbench.trainer`.

Training reads the value only to see whether it is finite.  On the
logistic loss the value costs a log1p and more per row, so a step computes
it for every model of the batch or for none: for none where
:func:`_certified` proves, from theta alone, that every model's value is
finite.  The gradient is computed the same way either way.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .numeric_core import ParameterError, power_of_two_scale

__all__ = [
    "ObjectiveConfig",
    "EnvStack",
    "MomentStack",
    "env_stack",
    "moment_stack",
    "keep_queries",
    "objective_and_gradient",
]


@dataclass
class ObjectiveConfig:
    """Penalty weights: (0, 0) is ERM, (lam>0, 0) is IRM, (0, gamma>0) is
    IB-ERM, both positive is IB-IRM.  For a batch of models ``lam`` and
    ``gamma`` are one finite weight >= 0 per model, or one for all.  The
    stack of the task's loss checks what else it needs (see
    :func:`env_stack`)."""

    lam: float | np.ndarray = 0.0
    gamma: float | np.ndarray = 0.0

    def __post_init__(self):
        _nonnegative(self.lam, self.gamma)


def _nonnegative(lam, gamma):
    """Check that every penalty weight is finite and >= 0 (so not nan)."""
    for name, w in (("lam", lam), ("gamma", gamma)):
        w = np.asarray(w)
        if not np.all((w >= 0) & (w < np.inf)):
            raise ParameterError(f"{name} must be finite and >= 0")


def _one_pattern(lam, gamma):
    """Check that each penalty weight is all zero or all positive: the
    batch is of one method."""
    for name, w in (("lam", lam), ("gamma", gamma)):
        w = np.asarray(w)
        if not (np.all(w == 0) or np.all(w > 0)):
            raise ParameterError(f"{name} must be all zero or all positive")


@dataclass
class EnvStack:
    """The training rows of a batch of Q models, one block per model,
    scored on the logistic loss, and the models' penalty weights; built by
    :func:`env_stack`.

    ``X[q, e]`` (n, d) and ``Y[q, e]`` (n,) are model q's rows of
    environment e, with labels in {0, 1}; every environment has the same
    number of rows n.  ``xmax[q]`` is the largest |X| among model q's rows,
    which bounds its predictions (see :func:`_certified`).  ``lam[q]`` and
    ``gamma[q]`` are model q's weights, finite, and each all zero or all
    positive (see :func:`env_stack`).
    """

    X: np.ndarray
    Y: np.ndarray
    xmax: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray


def env_stack(query_envs, query_rows, lam, gamma):
    """The :class:`EnvStack` of Q queries: query q's rows ``query_rows[q][e]``
    of each environment ``query_envs[q][e]``, at its penalty weights
    ``lam[q]`` and ``gamma[q]``.  ``query_rows`` may be an iterator; each
    query's indices are read once, in query order.  The queries are of one
    method: a penalty is computed for the whole batch or for none, so a
    batch that mixes methods is a ParameterError, as is a weight that is
    not finite or a label other than 0 or 1."""
    _nonnegative(lam, gamma)
    _one_pattern(lam, gamma)
    for q, (envs, rows) in enumerate(zip(query_envs, query_rows)):
        for e, (env, train) in enumerate(zip(envs, rows)):
            if q == e == 0:
                X = np.empty((len(query_envs), len(envs), train.size, env.X.shape[1]))
                Y = np.empty(X.shape[:3])
                xmax = np.empty(len(query_envs))
            X[q, e], Y[q, e] = env.X[train], env.Y[train]
        xmax[q] = np.abs(X[q]).max()  # nan if any entry is
    if not np.all((Y == 0) | (Y == 1)):
        raise ParameterError("logistic labels must be 0 or 1")
    return EnvStack(X, Y, xmax, lam, gamma)


@dataclass
class MomentStack:
    """The square-loss objective of a batch of Q models: one quadratic form
    per model, with its penalty weights folded in, built once from its
    training rows by :func:`moment_stack`.

    With B = [X / scale[q], 1, -y] on model q's n rows of environment e,
    n times the environment's mean squared residual is ψᵀM_eψ for
    M_e = BᵀB and ψ = [theta * scale[q], 1], and the bottleneck term
    n_envs * gamma * Var_pooled is gamma φᵀCφ / n for C the scatter of
    X / scale[q] about its pooled mean and φ = ψ[:d].  So the objective
    but the IRM penalty is ψᵀKψ / n, K = Σ_e M_e + gamma[q] C (C in the
    weight block, and only when gamma[q] > 0).  The IRM penalty
    lam g_e² = (√lam g_e)² reads ``M``, √lam times each M_e but its last
    row, built only for the models ``irm``, those with lam > 0; a model
    with lam = 0 has no row and no IRM term, so a batch may mix methods.

    A column's scale is the least power of two above every magnitude in
    the column, at most 2**1023 (1 for an all-zero column and the
    intercept; :func:`power_of_two_scale`), over the rows
    or a superset: every row of the model's environments.  It
    commutes with rounding, so M_e and C times the scales are the unscaled
    moments bit for bit unless an entry leaves the normal range; and a
    huge value in X gives an overflowing gradient, as on the rows, not a
    NaN objective from 0 * inf.
    """

    K: np.ndarray      # (Q, d+2, d+2)
    scale: np.ndarray  # (Q, d+1)
    step: np.ndarray   # (Q, d+1): scale * 2 / n, the gradient's factor
    n: int
    M: np.ndarray | None = None    # (Q_irm, E, d+1, d+2), None if Q_irm = 0
    irm: np.ndarray | None = None  # (Q_irm,): the models M's rows are of


def moment_stack(query_envs, query_rows, lam, gamma):
    """The :class:`MomentStack` of the queries that :func:`env_stack` takes,
    whose weights may differ in pattern from query to query: the queries of
    several methods make one batch.  A query gathers its rows from one
    block [X / scale, 1, -y] per environment, built once per run of
    consecutive queries on one environment list (a data seed's) and
    dropped at the next.  Only what each query's method reads is computed:
    C where gamma[q] > 0, about the query's pooled mean in two passes, not
    as a difference of raw moments; the scaled M_e where lam[q] > 0; and K,
    summed per query."""
    _nonnegative(lam, gamma)
    n_q, n_envs = len(query_envs), len(query_envs[0])
    d = query_envs[0][0].X.shape[1]
    K = np.empty((n_q, d + 2, d + 2))
    scale = np.ones((n_q, d + 1))
    irm = np.flatnonzero(np.asarray(lam) > 0)
    M = np.empty((irm.size, n_envs, d + 1, d + 2))
    M_rows = iter(M)
    env_ix = np.arange(n_envs)[:, None]
    block_envs = None
    for q, (envs, rows) in enumerate(zip(query_envs, query_rows)):
        if envs is not block_envs:
            block = None  # the last list's block is dropped before this one's
            top = np.max([np.abs(env.X).max(axis=0) for env in envs], axis=0)
            sx = power_of_two_scale(top)
            block = np.stack([np.column_stack([env.X / sx, np.ones(env.n), -env.Y])
                              for env in envs])
            block_envs = envs
        scale[q, :-1] = sx
        B = block[env_ix, rows]
        M_q = np.matmul(B.swapaxes(1, 2), B)
        K[q] = M_q.sum(axis=0)
        if gamma[q] > 0:
            x = B[..., :-2]
            x = x - x.sum(axis=1).sum(axis=0) / (x.shape[0] * x.shape[1])
            # times a copy: BLAS rounds a buffer's product with itself otherwise
            K[q, :d, :d] += gamma[q] * np.matmul(x.swapaxes(1, 2), x.copy()).sum(axis=0)
        if lam[q] > 0:
            np.multiply(np.sqrt(lam[q]), M_q[:, :-1], out=next(M_rows))
    n = B.shape[1]
    if not irm.size:
        M = irm = None
    return MomentStack(K, scale, scale * (2.0 / n), n, M, irm)


def keep_queries(stack, keep):
    """``stack`` with only the queries ``keep`` (increasing), each per-query
    array indexed by ``keep``.  A :class:`MomentStack`'s ``M`` keeps the
    rows of the kept queries, and is None once it has none."""
    kept = {f.name: getattr(stack, f.name)[keep]
            for f in fields(stack) if f.name not in ("M", "irm")
            and isinstance(getattr(stack, f.name), np.ndarray)}
    if getattr(stack, "M", None) is not None:
        rows = np.flatnonzero(np.isin(stack.irm, keep))
        kept["M"] = stack.M[rows] if rows.size else None
        kept["irm"] = np.searchsorted(keep, stack.irm[rows]) if rows.size else None
    return replace(stack, **kept)


def _env_terms(X, yhat, y, penalized, scored):
    """Logistic-loss terms of every (model, environment) pair, from (Q, E, n)
    predictions and labels in {0, 1}.

    Returns the risks (Q, E) when ``scored`` (else None, and no risk term
    is computed), the gradients in (w, b) (Q, E, d+1), and, when
    ``penalized``, the scale derivative g (Q, E) with its gradients (else
    None).  A mean is a row sum divided by n, which is how ``np.mean``
    computes it.  Row-sized buffers are reused in place to keep a large
    batch's peak memory low; an in-place operation gives the same bits as
    its out-of-place form.

    All but the risk follow the per-model path's float operations in its
    order.  One e = exp(-|ŷ|) per row gives both the sigmoid,
    max(e, [ŷ ≥ 0]) / (1 + e), and the softplus, max(ŷ, 0) + log1p(e).
    As e is in [0, 1] or nan, the sigmoid's numerator is 1 where ŷ ≥ 0 and
    e elsewhere, as the per-model path takes it.  The softplus is the
    formula of numpy's ``logaddexp(0, ŷ)`` with a vectorised exp; it agrees
    with it to a few ulp (see :mod:`oodbench.trainer`).  The gradients read
    no risk term, so skipping the risks leaves their bits alone.
    """
    n = y.shape[-1]
    risk = g = pen = None
    e = np.abs(yhat)
    np.negative(e, out=e)
    np.exp(e, out=e)              # exp(-|yhat|), shared by both halves
    s = np.maximum(e, yhat >= 0)
    if scored:
        r = np.log1p(e)
        r += np.maximum(yhat, 0.0)  # softplus(yhat) = max(yhat, 0) + log1p(e)
        r -= y * yhat
        risk = _row_sum(r) / n
    e += 1.0
    s /= e                        # sigmoid(yhat)
    r = np.subtract(s, y, out=e)
    if penalized:
        g = _row_sum(r * yhat) / n
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


def _square_objective(theta, st):
    """:func:`objective_and_gradient` on a :class:`MomentStack`: with
    v = Kψ the value is ψᵀv / n and the gradient v times 2 scale / n.  The
    IRM penalty adds lam g_e², where g_e = 2 φᵀ(S_eφ - u_e) / n from
    v_e = M_eψ = [S_eφ - u_e, ...] (S_e = AᵀA, u_e = Aᵀy, A = [X / scale, 1]
    and φ = ψ[:-1]), with gradient step (2 S_eφ - u_e) = step (2 v_e + u_e)
    in theta, u_e being minus M_e's last column; the stack's √lam is
    carried through.  g_e is not a difference
    of the risk and c - uᵀφ, which would cancel while ŷ is small."""
    psi = np.ones((theta.shape[0], theta.shape[1] + 1))
    np.multiply(theta, st.scale, out=psi[:, :-1])
    v = np.matmul(st.K, psi[..., None])[..., 0]
    value = _row_sum(v * psi) / st.n
    grad = v[:, :-1] * st.step
    if st.M is not None:
        q, n_envs, k = st.M.shape[:3]
        psi = psi[st.irm]
        # every environment's √lam M_eψ, but its last entry, in one product
        v = np.matmul(st.M.reshape(q, n_envs * k, -1), psi[..., None])
        v = v.reshape(q, n_envs, k)
        g = _row_sum(v * psi[:, None, :-1]) * (2.0 / st.n)  # √lam g_e
        value[st.irm] += _row_sum(g * g)
        v *= 2.0
        v -= st.M[..., -1]        # √lam (2 S_eφ - u_e)
        grad[st.irm] += 2.0 * st.step[st.irm] * np.matmul(g[:, None, :], v)[:, 0]
    return value, grad


# The threshold of _certified: 2**24 below overflow, so that neither the
# bound's own rounding nor the kernel's, each a relative 1 + O(N u), can
# close the gap.
CERTIFIED_MAX = 2.0 ** 1000


def _certified(theta, stack, use_irm, use_ib):
    """The models of an :class:`EnvStack` whose objective value is certainly
    finite, found from theta alone, in O(Q d).

    Every prediction of model q is at most B = ‖w‖₁ xmax[q] + |b| in
    magnitude.  With labels in {0, 1} a row's risk term is at most 2B + 1
    (log1p of a number in [0, 1] is below 1), and |g_e| at most B
    (|s - y| ≤ 1), so lam g_e² ≤ lam B² (and lam |g_e| ≤ max(lam,
    lam B²), as lam is finite); a centred prediction squared is at
    most 4B², so n_envs gamma Var ≤ 4 n_envs gamma B².  Every partial sum of
    the value is at most the N = n_envs n rows times the sum of those
    terms, 4B² counted once more for the centred squares' own sum.  So a
    model is certified where N (2B + 1 + c B²) ≤ :data:`CERTIFIED_MAX`, with
    c = lam if the IRM penalty is on, plus 4 (n_envs gamma + 1) if the
    bottleneck is.  A nan or inf B, or an n_envs gamma that overflows, makes
    the bound nan or inf, which is not certified."""
    n_envs, n = stack.X.shape[1:3]
    b = np.abs(theta[:, :-1]).sum(axis=1)
    b *= stack.xmax
    b += np.abs(theta[:, -1])
    c = stack.lam if use_irm else 0.0
    if use_ib:
        c = c + (n_envs * stack.gamma + 1.0) * 4.0
    bound = b * (c * b + 2.0) + 1.0
    return bound <= CERTIFIED_MAX / (n_envs * n)


def objective_and_gradient(theta, stack, value=True):
    """Penalized objective values and their exact gradients in (w, b) for a
    batch of Q linear models.

    ``theta`` is (Q, d+1), weights then intercept; model q is scored on its
    own data in ``stack`` at its own penalty weights, which the stack holds:
    on the square loss from a :class:`MomentStack`, on the logistic loss
    from an :class:`EnvStack`.  A penalty whose weight is 0 is left out of
    a model's sum, not added as 0: on the logistic loss each penalty is on
    for every model of the batch or for none, and on the square loss a
    batch may mix methods.  Returns ``(values, grads)`` of shapes (Q,) and
    (Q, d+1).

    With ``value=False`` it returns ``(finite, grads)``, ``finite`` being
    ``np.isfinite(values)``: all that training reads of the value.  The
    square loss computes the value, O(d²).  The logistic loss computes it
    for every model of the batch, or, where :func:`_certified` proves every
    model's value finite from theta alone, for none.  A certified model's
    value is finite, so ``finite`` is the same either way, and the gradient
    is the same as with ``value=True``.

    A model's float operations, and the order in which its terms are summed,
    do not depend on the other models of the batch.  From an
    :class:`EnvStack` they are the per-model path's but for the softplus
    (see :func:`_env_terms`), so the gradient is bit-identical to scoring
    that model alone, one environment after another.
    """
    if isinstance(stack, MomentStack):
        values, grad = _square_objective(theta, stack)
        return (values if value else np.isfinite(values)), grad
    q, d = theta.shape[0], theta.shape[1] - 1
    lam, gamma = stack.lam, stack.gamma
    use_irm, use_ib = bool(lam.any()), bool(gamma.any())
    n_envs, n = stack.X.shape[1:3]
    scored = value or not _certified(theta, stack, use_irm, use_ib).all()
    yhat = np.matmul(stack.X, theta[:, None, :-1, None])[..., 0]
    yhat += theta[:, -1:, None]
    risk_qe, grad_qe, g, g_grad = _env_terms(stack.X, yhat, stack.Y, use_irm, scored)
    if use_irm:
        pen_grad = (lam.reshape(-1, 1) * 2.0 * g)[..., None] * g_grad
    # Environment by environment, in the per-model order.
    grad = np.zeros((q, d + 1))
    for e in range(n_envs):
        grad += grad_qe[:, e]
        if use_irm:
            grad += pen_grad[:, e]
    if use_ib:
        n_all = n_envs * n
        # predictions pooled over the environments
        allp = yhat.reshape(q, n_all)
        centered = allp - (_row_sum(allp) / n_all)[:, None]
        var_w = _matvec(stack.X.reshape(q, n_all, d), centered)
        coef = np.reshape(n_envs * gamma * (2.0 / n_all), (-1, 1))
        # the intercept shifts every prediction equally: no variance gradient
        grad[:, :-1] += coef * var_w
    if not scored:
        return np.ones(q, dtype=bool), grad
    values = np.zeros(q)
    for e in range(n_envs):
        values += risk_qe[:, e]
        if use_irm:
            values += lam * g[:, e] * g[:, e]
    if use_ib:
        centered **= 2
        values += n_envs * gamma * (_row_sum(centered) / n_all)
    return (values if value else np.isfinite(values)), grad
