"""Exact discrete-entropy checks: entropy of sums of independent
variables, conditioning gaps over labeled mixtures, and the Gaussian
maximum-entropy bound that justifies substituting variance for entropy.
All computations are exact over finite supports (natural-log units)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric_core import ParameterError, Pmf

__all__ = [
    "LabeledMixture",
    "pmf_entropy",
    "pmf_convolve",
    "sum_entropy_gap",
    "conditional_entropy_gap",
    "gaussian_entropy_bound",
    "mixture_pmf",
]

MERGE_TOL = 1e-12


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


def gaussian_entropy_bound(variance):
    """Maximum differential entropy at a given variance, attained only by
    the Gaussian: (1/2) ln(2 pi e variance)."""
    if variance <= 0:
        raise ParameterError(f"variance must be > 0, got {variance}")
    return float(0.5 * np.log(2.0 * np.pi * np.e * variance))
