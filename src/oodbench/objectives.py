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
training data, with its penalty weights, names it.  Both stacks are built
here from data seeds, each seed's environments with the training rows
that every model of the seed shares.  Classification is trained on the
logistic loss, scored from the rows of one data seed (:func:`env_stack`),
held once as X1 = [X, 1]: with the models' parameter rows Θ, every
prediction of the batch is one product Θ X1ᵀ, and every gradient one
product R X1.  The softplus is taken from the sigmoid's exp(-|ŷ|) instead
of numpy's ``logaddexp``.  Regression is trained on the square loss, an
exact polynomial in a few moments of the rows, so it is scored from them
(:func:`moment_stack`): each environment's moments and the scatter once
per data seed, then one quadratic form per model, O(d²) a step, and the
IRM penalty adds O(E d²), instead of O(E n d) on the rows.  On either loss
a batch may mix methods: the IRM term is computed only for the models with
lam > 0 and the bottleneck only for those with gamma > 0, so a model whose
weight is 0 has no term of that penalty.  What each path promises against
the per-model reference is the tolerance contract in
:mod:`oodbench.trainer`.

Training reads the value only to see whether it is finite.  On the
logistic loss the value costs a log1p and more per row, so a step computes
it for every model of the batch or for none: for none where
:func:`_certified` proves, from theta alone, that every model's value is
finite.  The gradient is computed the same way either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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


def _span(on):
    """The models where ``on`` holds, None for none: a slice where they are
    consecutive, as in a batch ordered ERM, IB-ERM, IB-IRM, IRM, so that
    indexing a per-model array gives a view; else their indices."""
    at = np.flatnonzero(on)
    if not at.size:
        return None
    return slice(at[0], at[-1] + 1) if at[-1] - at[0] == at.size - 1 else at


@dataclass
class EnvStack:
    """The training rows of one data seed, scored on the logistic loss, and
    the penalty weights of the Q models that train on them; built by
    :func:`env_stack`.

    ``X1[e]`` (n, d+1) is environment e's training rows with a column of
    ones for the intercept, and ``Y[e]`` (n,) their labels in {0, 1}; every
    environment has the same number of rows n.  ``xmax`` is the largest |X|
    among the rows, which bounds every model's predictions (see
    :func:`_certified`).  ``lam[q]`` and ``gamma[q]`` are model q's
    weights, finite and >= 0; ``irm`` and ``ib`` select the models with
    lam > 0 and with gamma > 0 (:func:`_span`).

    A model's predictions less their pooled mean are (x - x̄)·w, so its
    bottleneck term n_envs * gamma * Var_pooled is gamma φᵀCφ / n, O(d²)
    and not O(E n d), with φ = w * scale and ``C`` (d, d) the scatter of
    X / scale about its pooled mean (:func:`_scatter`).  C is None where no
    model of the build has gamma > 0.  ``scale`` holds each column's power
    of two, as a :class:`MomentStack`'s does, so that huge rows give a huge
    term, not an overflowing C.

    ``work`` holds the row-sized buffers of a step, (E, max(Q, 2), n)
    twice and (E, max(Q_irm, 2), n) once, reused by every step of the
    training and shared with the stacks that :func:`keep_queries` makes
    from this one.  A fresh buffer a step would cost more than the step's
    arithmetic: the allocator maps and returns memory of this size anew at
    each step.
    """

    X1: np.ndarray
    Y: np.ndarray
    xmax: float
    scale: np.ndarray
    C: np.ndarray | None
    lam: np.ndarray
    gamma: np.ndarray
    work: tuple
    irm: slice | np.ndarray | None = field(init=False)
    ib: slice | np.ndarray | None = field(init=False)

    def __post_init__(self):
        self.irm, self.ib = _span(self.lam > 0), _span(self.gamma > 0)


def env_stack(seeds, lam, gamma):
    """The :class:`EnvStack` of one data seed: ``seeds`` yields its one
    (environments, training rows) pair, ``rows[e]`` the indices of
    environment e's rows to train on, and the Q models trained on them have
    penalty weights ``lam[q]`` and ``gamma[q]``.  A batch of several data
    seeds is a ParameterError, as is a weight that is not finite or a label
    other than 0 or 1."""
    _nonnegative(lam, gamma)
    seeds = list(seeds)
    if len(seeds) != 1:
        raise ParameterError(f"a logistic batch is of one data seed, got {len(seeds)}")
    (envs, rows), = seeds
    X1 = np.ones((len(envs), rows[0].size, envs[0].X.shape[1] + 1))
    for x1, env, train in zip(X1, envs, rows):
        x1[:, :-1] = env.X[train]
    Y = np.stack([env.Y[train] for env, train in zip(envs, rows)])
    if not np.all((Y == 0) | (Y == 1)):
        raise ParameterError("logistic labels must be 0 or 1")
    top = np.abs(X1[..., :-1]).max(axis=(0, 1))
    scale = power_of_two_scale(top)
    C = _scatter(X1[..., :-1] / scale) if np.any(gamma > 0) else None
    work = tuple(np.empty((len(X1), max(q, 2), X1.shape[1]))
                 for q in (len(lam), len(lam), np.count_nonzero(lam > 0)))
    return EnvStack(X1, Y, top.max(), scale, C, lam, gamma, work)  # xmax nan if any is


@dataclass
class MomentStack:
    """The square-loss objective of a batch of Q models: one quadratic form
    per model, with its penalty weights folded in, built once from its data
    seed's training rows by :func:`moment_stack`.

    With B = [X / scale[q], 1, -y] on the n training rows of environment e
    of model q's seed, n times the environment's mean squared residual is
    ψᵀM_eψ for M_e = BᵀB and ψ = [theta * scale[q], 1], and the bottleneck
    term n_envs * gamma * Var_pooled is gamma φᵀCφ / n for C the scatter of
    X / scale[q] about its pooled mean and φ = ψ[:d].  So the objective
    but the IRM penalty is ψᵀKψ / n, K = Σ_e M_e + gamma[q] C (C in the
    weight block, and only when gamma[q] > 0).  The IRM penalty
    lam g_e² = (√lam g_e)² reads ``M``, √lam times each M_e but its last
    row, built only for the models ``irm``, those with lam > 0; a model
    with lam = 0 has no row and no IRM term.

    A column's scale is the least power of two above every magnitude in
    the column over every row of the seed's environments, at most 2**1023
    (1 for an all-zero column and the intercept;
    :func:`power_of_two_scale`).  It commutes with rounding, so M_e and C
    times the scales are the unscaled moments bit for bit unless an entry
    leaves the normal range; and a huge value in X gives an overflowing
    gradient, as on the rows, not a NaN objective from 0 * inf.
    """

    K: np.ndarray      # (Q, d+2, d+2)
    scale: np.ndarray  # (Q, d+1)
    step: np.ndarray   # (Q, d+1): scale * 2 / n, the gradient's factor
    n: int
    M: np.ndarray | None = None    # (Q_irm, E, d+1, d+2), None if Q_irm = 0
    irm: np.ndarray | None = None  # (Q_irm,): the models M's rows are of


def moment_stack(seeds, counts, lam, gamma):
    """The :class:`MomentStack` of several data seeds' models: ``seeds``
    yields each seed's (environments, training rows) pair as
    :func:`env_stack` takes it, and the seed's ``counts[i]`` models follow
    those of the seeds before it, at weights ``lam[q]`` and ``gamma[q]``.
    Each seed's rows are read once, into one block [X / scale, 1, -y] per
    environment, and dropped at the next seed.  From the block, M_e is
    computed once per environment, and the scatter C once, about the pooled
    mean in two passes, not as a difference of raw moments, and only where
    a model of the seed has gamma > 0.  Model q's K is Σ_e M_e, plus
    gamma[q] C where gamma[q] > 0, and its IRM rows √lam[q] M_e where
    lam[q] > 0."""
    _nonnegative(lam, gamma)
    irm = np.flatnonzero(np.asarray(lam) > 0)
    start = 0
    for (envs, rows), count in zip(seeds, counts):
        top = np.max([np.abs(env.X).max(axis=0) for env in envs], axis=0)
        sx = power_of_two_scale(top)
        B = np.stack([np.column_stack([env.X[train] / sx, np.ones(train.size),
                                       -env.Y[train]])
                      for env, train in zip(envs, rows)])
        if not start:
            n_envs, n, k = B.shape
            K = np.empty((len(lam), k, k))
            scale = np.ones((len(lam), k - 1))
            M = np.empty((irm.size, n_envs, k - 1, k))
        M_e = np.matmul(B.swapaxes(1, 2), B)
        models = slice(start, start + count)
        K[models] = M_e.sum(axis=0)
        scale[models, :-1] = sx
        ib = start + np.flatnonzero(gamma[models] > 0)
        if ib.size:
            K[ib, :-2, :-2] += gamma[ib, None, None] * _scatter(B[..., :-2])
        own = (irm >= start) & (irm < start + count)
        M[own] = np.sqrt(lam[irm[own]])[:, None, None, None] * M_e[:, :-1]
        start += count
    if not irm.size:
        M = irm = None
    return MomentStack(K, scale, scale * (2.0 / n), n, M, irm)


def _scatter(x):
    """Σ_e (x_e - x̄)ᵀ(x_e - x̄) of rows ``x`` (E, n, d) about their pooled
    mean x̄, centred first, not taken as a difference of raw moments."""
    x = x - x.sum(axis=1).sum(axis=0) / (x.shape[0] * x.shape[1])
    # times a copy: BLAS rounds a buffer's product with itself otherwise
    return np.matmul(x.swapaxes(1, 2), x.copy()).sum(axis=0)


def keep_queries(stack, keep):
    """``stack`` with only the models ``keep`` (increasing).  An
    :class:`EnvStack` keeps its rows, which every model shares, and drops
    the other models' weights.  A :class:`MomentStack`'s per-model arrays
    are indexed by ``keep``; its ``M`` keeps the rows of the kept models,
    and is None once it has none."""
    if isinstance(stack, EnvStack):
        return replace(stack, lam=stack.lam[keep], gamma=stack.gamma[keep])
    kept = {name: getattr(stack, name)[keep] for name in ("K", "scale", "step")}
    if stack.M is not None:
        rows = np.flatnonzero(np.isin(stack.irm, keep))
        kept["M"] = stack.M[rows] if rows.size else None
        kept["irm"] = np.searchsorted(keep, stack.irm[rows]) if rows.size else None
    return replace(stack, **kept)


def _env_terms(yhat, e, p, y, irm, lam, scored):
    """Logistic-loss terms of every (environment, model) pair, from (E, Q, n)
    predictions and labels ``y`` (E, 1, n) in {0, 1}, in the buffers ``e``
    of the predictions' shape and ``p`` of the IRM models' share of it; the
    predictions are overwritten.

    Returns the risks (E, Q) when ``scored`` (else None, and no risk term
    is computed); n times the derivative in ŷ of each model's objective but
    the bottleneck, one row term per prediction (E, Q, n), in ``e``, whose
    product with the rows, over n, is the gradient; and, for the models
    ``irm`` (None for none), at weights ``lam``, the scale derivative g
    (E, Q_irm) (else None).  A row's risk term contributes s - y, and the
    IRM term lam g_e² adds 2 lam g_e (s (1 - s) ŷ + s - y).  A risk is a
    row sum divided by n, which is how ``np.mean`` computes it.

    One e = exp(-|ŷ|) per row gives both the sigmoid,
    max(e, [ŷ ≥ 0]) / (1 + e), and the softplus, max(ŷ, 0) + log1p(e).
    As e is in [0, 1] or nan, the sigmoid's numerator is 1 where ŷ ≥ 0 and
    e elsewhere, as the per-model path takes it.  The softplus is the
    formula of numpy's ``logaddexp(0, ŷ)`` with a vectorised exp; it agrees
    with it to a few ulp (see :mod:`oodbench.trainer`).  The derivative
    reads no risk term, so skipping the risks leaves its bits alone.
    """
    n = y.shape[-1]
    risk = g = None
    np.abs(yhat, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)              # exp(-|yhat|), shared by both halves
    if scored:
        risk = np.empty(yhat.shape[:2])
        # an environment at a time: its buffers are a third of the batch's
        for risk_e, e_e, yhat_e, y_e in zip(risk, e, yhat, y):
            r = np.log1p(e_e)
            r += np.maximum(yhat_e, 0.0)  # softplus = max(yhat, 0) + log1p(e)
            r -= y_e * yhat_e
            risk_e[:] = _row_sum(r) / n
    positive = yhat >= 0
    if irm is not None:
        np.copyto(p, yhat[:, irm])  # the IRM models' yhat outlives the buffer
    t = np.add(e, 1.0, out=yhat)
    np.maximum(e, positive, out=e)
    s = np.divide(e, t, out=e)    # sigmoid(yhat)
    if irm is not None:
        t = np.subtract(1.0, s[:, irm], out=t[:, :p.shape[1]])
        t *= s[:, irm]
        t *= p                    # s (1 - s) yhat
    r = np.subtract(s, y, out=s)  # s - y
    if irm is not None:
        # one dot per (environment, model), none of which reads another model
        g = np.matmul(r[:, irm, None, :], p[..., None])[..., 0, 0] / n
        t += r[:, irm]
        t *= (lam * 2.0 * g)[..., None]
        r[:, irm] += t
    return risk, r, g


def _row_sum(a):
    """Sum over the contiguous last axis: pairwise, as for one model's row."""
    return np.add.reduce(a, axis=-1)


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


def _certified(theta, stack):
    """The models of an :class:`EnvStack` whose objective value is certainly
    finite, found from theta alone, in O(Q d).

    Every prediction of a model is at most B = ‖w‖₁ xmax + |b| in
    magnitude.  With labels in {0, 1} a row's risk term is at most 2B + 1
    (log1p of a number in [0, 1] is below 1), and |g_e| at most B
    (|s - y| ≤ 1), so lam g_e² ≤ lam B² (and lam |g_e| ≤ max(lam,
    lam B²), as lam is finite); a centred prediction squared is at
    most 4B², so n_envs gamma Var ≤ 4 n_envs gamma B².  Every partial sum of
    the value is at most the N = n_envs n rows times the sum of those
    terms, 4B² counted once more for the centred squares' own sum.  So a
    model is certified where N (2B + 1 + c B²) ≤ :data:`CERTIFIED_MAX`, with
    c = lam, plus 4 (n_envs gamma + 1) where gamma > 0.  The stack sums the
    centred squares as φᵀCφ (see :class:`EnvStack`), each of whose partial
    sums is at most 16 N B², as ‖φ‖₁ ≤ 2B and a scaled centred entry is
    below 2 in magnitude: four times its share of the bound, which the
    threshold's margin covers.  A nan or inf B, or an n_envs gamma that
    overflows, makes the bound nan or inf, which is not certified."""
    n_envs, n = stack.Y.shape
    b = np.abs(theta[:, :-1]).sum(axis=1)
    b *= stack.xmax
    b += np.abs(theta[:, -1])
    c = stack.lam + np.where(stack.gamma > 0, (n_envs * stack.gamma + 1.0) * 4.0, 0.0)
    bound = b * (c * b + 2.0) + 1.0
    return bound <= CERTIFIED_MAX / (n_envs * n)


def objective_and_gradient(theta, stack, value=True):
    """Penalized objective values and their exact gradients in (w, b) for a
    batch of Q linear models.

    ``theta`` is (Q, d+1), weights then intercept; model q is scored on its
    data seed's training rows in ``stack`` at its own penalty weights, which
    the stack holds: on the square loss from a :class:`MomentStack`, on the
    logistic loss from an :class:`EnvStack`.  A penalty whose weight is 0
    is left out of a model's sum, not added as 0.  Returns
    ``(values, grads)`` of shapes (Q,) and (Q, d+1).

    With ``value=False`` it returns ``(finite, grads)``, ``finite`` being
    ``np.isfinite(values)``: all that training reads of the value.  The
    square loss computes the value, O(d²).  The logistic loss computes it
    for every model of the batch, or, where :func:`_certified` proves every
    model's value finite from theta alone, for none.  A certified model's
    value is finite, so ``finite`` is the same either way, and the gradient
    is the same as with ``value=True``.

    A model's float operations, and the order in which its terms are summed,
    do not depend on the other models of the batch.  On the logistic loss
    the sums over rows are the products Θ X1ᵀ and R X1, whose rounding is
    not the per-model path's X·w + b and Xᵀr (the contract in
    :mod:`oodbench.trainer` bounds the difference).
    """
    if isinstance(stack, MomentStack):
        values, grad = _square_objective(theta, stack)
        return (values if value else np.isfinite(values)), grad
    q = theta.shape[0]
    if q == 1:
        # numpy computes a one-row product by gemv, whose sums round unlike
        # gemm's: a lone model is scored as a pair
        values, grad = objective_and_gradient(np.concatenate([theta, theta]),
                                              keep_queries(stack, [0, 0]), value)
        return values[:1], grad[:1]
    lam, gamma, irm, ib = stack.lam, stack.gamma, stack.irm, stack.ib
    n_envs, n = stack.Y.shape
    scored = value or not _certified(theta, stack).all()
    lam_irm = None if irm is None else lam[irm]
    yhat, e, p = (w[:, :k] for w, k in zip(stack.work, (q, q, np.size(lam_irm))))
    X1t = stack.X1.swapaxes(1, 2)
    np.matmul(theta, X1t, out=yhat)
    risk, r, g = _env_terms(yhat, e, p, stack.Y[:, None], irm, lam_irm, scored)
    # X1ᵀRᵀ, with the models along the columns: a model's bits depend neither
    # on how many share the batch nor on its place (R X1 fails both)
    grad = np.matmul(X1t, r.swapaxes(1, 2)).sum(axis=0).T / n
    if ib is not None:
        # the intercept shifts every prediction equally: no variance gradient
        phi = theta[ib, :-1] * stack.scale
        v = np.matmul(stack.C, phi[..., None])[..., 0]  # one gemv per model
        grad[ib, :-1] += (gamma[ib] * (2.0 / n))[:, None] * (v * stack.scale)
    if not scored:
        return np.ones(q, dtype=bool), grad
    values = risk.sum(axis=0)
    if irm is not None:
        values[irm] += (lam_irm * g * g).sum(axis=0)
    if ib is not None:
        values[ib] += gamma[ib] * (_row_sum(v * phi) / n)
    return (values if value else np.isfinite(values)), grad
