"""Deterministic randomness, small dense linear algebra and special
functions shared by the rest of the suite.

Everything here is pure given its inputs.  Random draws go through
:class:`RngStream`, a splittable counter-based generator: streams are keyed
by the hash of their label path from the root seed, so any two runs that
fork the same labels in any order see identical samples.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import isfinite
from operator import lt

import numpy as np

__all__ = [
    "ParameterError",
    "DivergenceError",
    "RngStream",
    "Pmf",
    "random_orthogonal",
    "lambert_w0",
    "power_of_two_scale",
]


class ParameterError(ValueError):
    """An argument lies outside the domain of the operation."""


class DivergenceError(RuntimeError):
    """A numeric iteration produced a non-finite state."""


_TWO_PI = 2.0 * np.pi


def _path_key(root_seed, path):
    """The 128-bit key of a label path: the first 16 bytes, little-endian,
    of the sha256 of the root seed's digits and each label, joined by "/"."""
    text = "/".join((str(int(root_seed)),) + tuple(path))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:16], "little")


class _PhiloxKey:
    """A 128-bit key in the form in which Philox reads its key from a seed
    sequence: ``generate_state(2, np.uint64)`` gives the key's two 64-bit
    words, low first, as ``Philox(key=...)`` splits the integer.

    It becomes a numpy ``ISeedSequence`` by registration on the first
    build, so that importing this module does not import ``numpy.random``.
    """

    def __init__(self, key):
        self.words = (key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64)

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.words, dtype=np.uint64)


class RngStream:
    """Splittable deterministic random stream.

    A stream is identified by ``(root_seed, label path)``.  :meth:`fork`
    derives a child stream from a label without touching the parent's
    state, so the sample sequence seen by any consumer depends only on the
    labels used to reach it, never on scheduling order.

    A stream holds only its seed and label path until its first draw, which
    builds its Philox generator; a stream that only forks never builds one.
    The generator's whole state is the 128-bit Philox key
    ``_path_key(root_seed, path)`` and a zero counter: its draws are
    ``Generator(Philox(key=_path_key(root_seed, path)))``'s.  Philox is
    handed the key as a seed sequence (:class:`_PhiloxKey`), so no OS
    entropy is read: ``Philox(key=...)`` would seed a ``SeedSequence`` from
    it and then ignore it, which is most of the cost of a build.
    """

    def __init__(self, root_seed, _path=()):
        self.root_seed = int(root_seed)
        self.lineage = tuple(_path)

    @cached_property
    def _gen(self):
        seed_sequence = np.random.bit_generator.ISeedSequence
        if not issubclass(_PhiloxKey, seed_sequence):
            seed_sequence.register(_PhiloxKey)
        return np.random.Generator(np.random.Philox(
            _PhiloxKey(_path_key(self.root_seed, self.lineage))))

    def fork(self, label):
        if not label:
            raise ParameterError("fork label must be nonempty")
        return RngStream(self.root_seed, self.lineage + (str(label),))

    # -- draws; uniform and categorical give a scalar when ``shape`` is None

    def uniform(self, a=0.0, b=1.0, shape=None):
        # b - a is nan or inf if either bound is, or if the width overflows
        if not (a <= b and b - a < np.inf):
            raise ParameterError(f"uniform requires a <= b with b - a finite, "
                                 f"got ({a}, {b})")
        return a + (b - a) * self._gen.random(shape)

    def categorical(self, probs, shape=None):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1:
            raise ParameterError("categorical probs must be 1-d")
        probs = probs.tolist()
        # A nan or inf entry makes the sum nan or inf, which fails the test.
        if not (abs(sum(probs) - 1.0) <= 1e-9 and min(probs) >= 0.0):
            raise ParameterError("categorical probs must be finite, nonnegative "
                                 "and sum to 1")
        # The running sums are np.cumsum's: one sequential add per entry.
        cum = list(accumulate(probs))
        if shape is None:
            return bisect_right(cum, self._gen.random())
        return np.searchsorted(cum, self._gen.random(shape), side="right")

    def gaussian_array(self, shape, std=1.0):
        std = np.asarray(std)
        if not np.all((std >= 0) & (std < np.inf)):
            raise ParameterError("gaussian std must be finite and >= 0")
        n = int(np.prod(shape)) if shape else 1
        z = self._box_muller(n).reshape(shape)
        return std * z

    def bernoulli_array(self, shape, p):
        if not np.all((np.asarray(p) >= 0) & (np.asarray(p) <= 1)):
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


def power_of_two_scale(x):
    """The least power of two above every ``|x|`` elementwise, at most
    2**1023: 2**e for frexp's exponent e, so 1 at 0.  Dividing by it is
    exact, and leaves a finite x below 2 in magnitude; uncapped, it would
    be inf for |x| >= 2**1023."""
    return np.ldexp(1.0, np.minimum(np.frexp(x)[1], 1023))


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
