"""Exact discrete-entropy checks: entropy of sums of independent
variables, conditioning gaps over labeled mixtures, and the Gaussian
maximum-entropy bound that justifies substituting variance for entropy.
All computations are exact over finite supports (natural-log units).

The checks run on batches.  A :class:`PmfBatch` holds T pmfs as padded
(T, W) arrays and each row's atom count; a row's atoms come first, in
increasing order, and its padding is support +inf and probability 0, so a
stable sort of a row leaves the padding last and the atoms in the order
that sorting them alone gives.  Each row gets the float operations, in
their order, of the same computation on its atoms alone as 1-d arrays.
Elementwise operations are the same in either layout.  A sum is not:
numpy sums a 1-d array of length L pairwise, in an order set by L, so
every sum over a row is taken over the row's own length, one call for all
the rows of each length, which sums each row as it sums a 1-d array.

The entropy suite's random families are drawn here, each pmf and mixture
from its own stream, forked by a label from a parent stream:
:func:`random_pmfs` draws a pmf from each given label (the suite's sum
check draws trial i's two pmfs from ``trial<i>/p`` and ``trial<i>/q`` under
``entropy/sum_gap``), and :func:`random_mixtures` draws trial i's mixture
from ``trial<i>/k`` (its component count), ``trial<i>/w`` (its weights) and
``trial<i>/pmf<j>`` (its component j), under ``entropy/cond_gap`` in the
suite.  No draw depends on the other labels of its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .numeric_core import ParameterError, batch_random, to_interval

__all__ = [
    "PmfBatch",
    "LabeledMixture",
    "entropies",
    "convolve",
    "mixture_marginal",
    "sum_entropy_gap",
    "conditional_entropy_gap",
    "gaussian_entropy_bound",
    "row_sums",
    "random_pmfs",
    "random_mixtures",
]

MERGE_TOL = 1e-12

# The running sums that RngStream.categorical searches, for the laws of a
# random pmf's atom count less 2 (uniform on 0..6) and of a mixture's
# component count less 2.
_ATOM_COUNT_CUM = list(accumulate([1.0 / 7] * 7))
_COMPONENT_COUNT_CUM = list(accumulate([0.5, 0.3, 0.2]))
MAX_ATOMS = 8
MAX_COMPONENTS = 4


def row_sums(a, size):
    """Each row of ``a``'s sum over its first ``size`` entries, summed as
    numpy sums a 1-d array of that length (0 for an empty row)."""
    by_size = np.argsort(size, kind="stable")
    ends = np.cumsum(np.bincount(size)).tolist()
    out = np.zeros(a.shape[0])
    for length, (start, end) in enumerate(zip(ends, ends[1:]), 1):
        if end > start:
            rows = by_size[start:end]
            out[rows] = a[rows, :length].sum(axis=1)
    return out


@dataclass(frozen=True)
class PmfBatch:
    """T finite discrete distributions as padded rows.

    Row t's atoms are ``support[t, :size[t]]``, finite and strictly
    increasing, with ``probs[t, :size[t]]``, nonnegative and summing to 1
    within 1e-12.  The rest of the row is padding: support +inf and
    probability 0.  A row of size 0 holds no distribution; it fills a
    mixture's unused component slots (see :class:`LabeledMixture`).
    """

    support: np.ndarray
    probs: np.ndarray
    size: np.ndarray

    def __post_init__(self):
        support, probs = self.support, self.probs
        size = np.asarray(self.size, dtype=np.int64)
        object.__setattr__(self, "size", size)
        if (support.ndim != 2 or probs.shape != support.shape
                or size.shape != support.shape[:1]
                or not np.all((size >= 0) & (size <= support.shape[1]))):
            raise ParameterError("support and probs must be (T, W) with one "
                                 "atom count in 0..W per row")
        atom = np.arange(support.shape[1]) < size[:, None]
        increasing = support[:, 1:] > support[:, :-1]
        if not (np.all(np.where(atom, np.isfinite(support), support == np.inf))
                and np.all(increasing | ~atom[:, 1:])):
            raise ParameterError("support must be finite and strictly "
                                 "increasing, padded with +inf")
        total = probs.sum(axis=1)
        if not (np.all(np.where(atom, probs >= 0.0, probs == 0.0))
                and np.all((np.abs(total - 1.0) <= 1e-12) | (size == 0))):
            raise ParameterError("probs must be finite, nonnegative and sum to "
                                 "1 within 1e-12, padded with 0")


def _merged(support, probs, size):
    """The pmfs whose rows hold ``size`` atoms in any order: each row's atoms
    sorted, each group of them that lies within MERGE_TOL of the group's
    first atom merged into that atom, and the probabilities normalized."""
    order = np.argsort(support, axis=1, kind="stable")
    support = np.take_along_axis(support, order, axis=1)
    probs = np.take_along_axis(probs, order, axis=1)
    del order  # a chunk's (T, W) arrays set the suite's peak memory
    size = size.copy()
    with np.errstate(invalid="ignore"):  # inf - inf in the padding
        close = support[:, 1:] - support[:, :-1] <= MERGE_TOL
    close &= np.arange(1, support.shape[1]) < size[:, None]
    for t in np.flatnonzero(close.any(axis=1)).tolist():
        merged_s, merged_p = [], []
        for s, q in zip(support[t, :size[t]].tolist(), probs[t, :size[t]].tolist()):
            if merged_s and s - merged_s[-1] <= MERGE_TOL:
                merged_p[-1] += q
            else:
                merged_s.append(s)
                merged_p.append(q)
        size[t] = len(merged_s)
        support[t] = np.inf
        probs[t] = 0.0
        support[t, :size[t]] = merged_s
        probs[t, :size[t]] = merged_p
    probs /= row_sums(probs, size)[:, None]
    return PmfBatch(support, probs, size)


def entropies(p):
    """Each row's Shannon entropy -sum p_i ln p_i, with the 0 ln 0 = 0
    convention: the sum runs over the row's positive probabilities alone."""
    positive = p.probs > 0.0
    count = positive.sum(axis=1)
    probs = np.where(positive, p.probs, 1.0)
    if np.any(count != p.size):
        # zero atoms out of the sum: the positive ones first, in order
        order = np.argsort(~positive, axis=1, kind="stable")
        probs = np.take_along_axis(probs, order, axis=1)
    probs *= np.log(probs)
    return -row_sums(probs, count)


def convolve(p, q):
    """Row by row, the exact distribution of the sum of independent
    variables with pmfs ``p`` and ``q``; sums within 1e-12 are merged."""
    t = p.size.size
    return _merged((p.support[:, :, None] + q.support[:, None, :]).reshape(t, -1),
                   (p.probs[:, :, None] * q.probs[:, None, :]).reshape(t, -1),
                   p.size * q.size)


def sum_entropy_gap(p, q):
    """H(X+Y) - max(H(X), H(Y)) for independent X, Y, row by row.

    Nonnegative always; strictly positive whenever both supports have at
    least two atoms.
    """
    hp, hq = entropies(p), entropies(q)
    return entropies(convolve(p, q)) - np.where(hq > hp, hq, hp)


@dataclass(frozen=True)
class LabeledMixture:
    """T weighted collections of up to J per-environment distributions.

    Mixture t's component j has weight ``weights[t, j]`` and the pmf in row
    t·J + j of ``components``.  A mixture of fewer than J components fills
    its last slots with weight 0 and a pmf of size 0.
    """

    weights: np.ndarray  # (T, J)
    components: PmfBatch  # T·J rows

    def __post_init__(self):
        # A nan or inf weight makes the sum nan or inf, which fails the test.
        w = self.weights
        if not (w.ndim == 2 and self.components.size.shape == (w.size,)
                and np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)
                and np.all(w >= 0.0)):
            raise ParameterError("mixture weights must be finite, nonnegative "
                                 "and sum to 1, one per component")


def mixture_marginal(mix):
    """Each mixture's marginal pmf: its components' atoms, weighted, in one
    pmf, with atoms within 1e-12 merged."""
    t, j = mix.weights.shape
    comps = mix.components
    support = comps.support.reshape(t, -1)
    probs = (mix.weights[:, :, None] * comps.probs.reshape(t, j, -1)).reshape(t, -1)
    return _merged(support, probs, comps.size.reshape(t, j).sum(axis=1))


def conditional_entropy_gap(mix):
    """H(mixture) - sum_e w_e H(component_e), mixture by mixture: the amount
    by which conditioning on the environment label reduces entropy.
    Nonnegative.  The weighted entropies are added with Python's ``sum``,
    one mixture at a time, in component order."""
    marginal = entropies(mixture_marginal(mix))
    terms = mix.weights * entropies(mix.components).reshape(mix.weights.shape)
    return marginal - np.array([sum(row) for row in terms.tolist()])


def gaussian_entropy_bound(variance):
    """Maximum differential entropy at a given variance, attained only by
    the Gaussian: (1/2) ln(2 pi e variance)."""
    if variance <= 0:
        raise ParameterError(f"variance must be > 0, got {variance}")
    return float(0.5 * np.log(2.0 * np.pi * np.e * variance))


def _support(u, k):
    """Supports of k[i] atoms uniform on [-5, 5] from the doubles u[i, :k[i]],
    sorted and padded with +inf, and whether each keeps its atoms at least
    1e-6 apart."""
    atoms = np.where(np.arange(u.shape[1]) < k[:, None], to_interval(u, -5.0, 5.0),
                     np.inf)
    atoms.sort(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf in the padding
        gaps = atoms[:, 1:] - atoms[:, :-1]
    return atoms, ~(gaps < 1e-6).any(axis=1)


def _draw_pmfs(parent, labels):
    """The support, probs and size arrays of :func:`random_pmfs`, padded to
    MAX_ATOMS columns.

    A stream's draws are one for its atom count k, k for its support, drawn
    again while two atoms lie within 1e-6 of each other, and then k for its
    probabilities, uniform on [0.05, 1] and normalized.  All but a redrawn
    support come from one :func:`batch_random` call for every stream; a
    stream whose first support is redrawn is built, and continues its own
    sequence past the count and that support.
    """
    u = batch_random(parent, labels, 1 + 2 * MAX_ATOMS)
    k = 2 + np.searchsorted(_ATOM_COUNT_CUM, u[:, 0], side="right")
    support, spread = _support(u[:, 1:1 + MAX_ATOMS], k)
    col = np.arange(MAX_ATOMS)
    drawn_probs = np.take_along_axis(
        u, np.minimum(1 + k[:, None] + col, 2 * MAX_ATOMS), axis=1)
    for i in np.flatnonzero(~spread).tolist():
        stream, n = parent.fork(labels[i]), int(k[i])
        stream.uniform(shape=(1 + n,))  # the count and the first support
        while True:
            atoms, ok = _support(stream.uniform(shape=(1, n)), k[i:i + 1])
            if ok[0]:
                break
        support[i, :n] = atoms[0]
        drawn_probs[i, :n] = stream.uniform(shape=(n,))
    probs = np.where(col < k[:, None], to_interval(drawn_probs, 0.05, 1.0), 0.0)
    probs /= row_sums(probs, k)[:, None]
    return support, probs, k


def random_pmfs(parent, labels):
    """A batch of pmfs on 2 to 8 atoms drawn uniformly from [-5, 5], row i
    from the stream ``parent.fork(labels[i])``."""
    return PmfBatch(*_draw_pmfs(parent, labels))


def random_mixtures(parent, trials):
    """Trial i's mixture of 2 to 4 pmfs of :func:`random_pmfs`' law, with
    weights uniform on [0.05, 1], normalized, for each i in ``trials``.
    Trial i draws from ``parent.fork(f"trial{i}")``'s children: k for the
    component count, w for the weights and pmf<j> for component j.  Only
    the used slots are drawn; the others get weight 0 and a pmf of size 0."""
    t = len(trials)
    u = batch_random(parent, [f"trial{i}/{label}" for label in ("k", "w")
                              for i in trials], MAX_COMPONENTS)
    k = 2 + np.searchsorted(_COMPONENT_COUNT_CUM, u[:t, 0], side="right")
    used = np.arange(MAX_COMPONENTS) < k[:, None]
    weights = np.where(used, to_interval(u[t:], 0.05, 1.0), 0.0)
    weights /= row_sums(weights, k)[:, None]
    support = np.full((t * MAX_COMPONENTS, MAX_ATOMS), np.inf)
    probs = np.zeros_like(support)
    size = np.zeros(t * MAX_COMPONENTS, dtype=np.int64)
    slots = np.flatnonzero(used)
    support[slots], probs[slots], size[slots] = _draw_pmfs(
        parent, [f"trial{i}/pmf{j}" for i, n in zip(trials, k.tolist())
                 for j in range(n)])
    return LabeledMixture(weights, PmfBatch(support, probs, size))
