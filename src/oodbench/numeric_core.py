"""Deterministic randomness, small dense linear algebra and special
functions shared by the rest of the suite.

Everything here is pure given its inputs.  Random draws go through
:class:`RngStream`, a splittable counter-based generator: streams are keyed
by the hash of their label path from the root seed, so any two runs that
fork the same labels in any order see identical samples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ParameterError",
    "DivergenceError",
    "RngStream",
    "Pmf",
    "random_orthogonal",
    "lambert_w0",
]


class ParameterError(ValueError):
    """An argument lies outside the domain of the operation."""


class DivergenceError(RuntimeError):
    """A numeric iteration produced a non-finite state."""


_TWO_PI = 2.0 * np.pi


def _path_key(root_seed, path):
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode())
    for label in path:
        h.update(b"/")
        h.update(label.encode())
    return int.from_bytes(h.digest()[:16], "little")


class RngStream:
    """Splittable deterministic random stream.

    A stream is identified by ``(root_seed, label path)``.  :meth:`fork`
    derives a child stream from a label without touching the parent's
    state, so the sample sequence seen by any consumer depends only on the
    labels used to reach it, never on scheduling order.

    A stream holds only its seed and label path until its first draw, which
    builds its Philox generator; a stream that only forks never builds one.
    """

    def __init__(self, root_seed, _path=()):
        self.root_seed = int(root_seed)
        self.lineage = tuple(_path)

    @cached_property
    def _gen(self):
        return np.random.Generator(
            np.random.Philox(key=_path_key(self.root_seed, self.lineage)))

    def fork(self, label):
        if not label:
            raise ParameterError("fork label must be nonempty")
        return RngStream(self.root_seed, self.lineage + (str(label),))

    # -- draws; uniform and categorical give a scalar when ``shape`` is None

    def uniform(self, a=0.0, b=1.0, shape=None):
        if not a <= b:
            raise ParameterError(f"uniform requires a <= b, got ({a}, {b})")
        return a + (b - a) * self._gen.random(shape)

    def categorical(self, probs, shape=None):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-9:
            raise ParameterError("categorical probs must be nonnegative and sum to 1")
        draws = probs.cumsum().searchsorted(self._gen.random(shape), side="right")
        return int(draws) if shape is None else draws

    def gaussian_array(self, shape, std=1.0):
        if np.any(np.asarray(std) < 0):
            raise ParameterError("gaussian std must be >= 0")
        n = int(np.prod(shape)) if shape else 1
        z = self._box_muller(n).reshape(shape)
        return np.asarray(std) * z

    def bernoulli_array(self, shape, p):
        if np.any(np.asarray(p) < 0) or np.any(np.asarray(p) > 1):
            raise ParameterError("bernoulli p must be in [0, 1]")
        return (self._gen.random(shape) < p).astype(np.int64)

    def permutation(self, n):
        return self._gen.permutation(n)

    def _box_muller(self, n):
        # Deterministic pair consumption: each normal burns exactly two
        # uniforms regardless of value.
        u = self._gen.random((n, 2))
        r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        return r * np.cos(_TWO_PI * u[:, 1])


@dataclass(frozen=True)
class Pmf:
    """Finite discrete distribution with strictly increasing support."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if support.ndim != 1 or probs.shape != support.shape:
            raise ParameterError("support and probs must be 1-d of equal length")
        if (support[1:] - support[:-1] <= 0).any():
            raise ParameterError("support must be strictly increasing")
        if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-12:
            raise ParameterError("probs must be nonnegative and sum to 1 within 1e-12")


def random_orthogonal(rng, dim):
    """Haar-distributed orthogonal matrix of size ``dim``.

    QR of a square standard-Gaussian matrix, with the triangular factor's
    diagonal forced positive so the result is both Haar and deterministic.
    """
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    a = rng.gaussian_array((dim, dim))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def lambert_w0(x):
    """Principal branch of the Lambert W function for x >= 0.

    Damped Halley iteration from the initial guess ln(1+x), carried out in
    extended precision so the round trip |w e^w - x| stays below 1e-12 even
    for x as large as 1e4 (plain double cannot represent such a w tightly
    enough).  Returns an extended-precision scalar.
    """
    if x < 0:
        raise ParameterError(f"lambert_w0 requires x >= 0, got {x}")
    x = np.longdouble(x)
    if x == 0:
        return np.longdouble(0.0)
    w = np.log1p(x)
    resid = abs(w * np.exp(w) - x)
    for _ in range(100):
        e = np.exp(w)
        f = w * e - x
        step = f / (e * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0)))
        # Damp: never accept a step that worsens the residual.
        cand = w - step
        cand_resid = abs(cand * np.exp(cand) - x)
        while cand_resid > resid and abs(step) > np.abs(w) * 1e-30:
            step *= 0.5
            cand = w - step
            cand_resid = abs(cand * np.exp(cand) - x)
        w, resid = cand, cand_resid
        if resid <= 1e-13 * max(1.0, float(x) * 1e-3):
            break
    return w
