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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric_core import ParameterError

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
]

MERGE_TOL = 1e-12


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
