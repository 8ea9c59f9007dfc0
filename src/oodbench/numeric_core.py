"""Deterministic randomness, small dense linear algebra and special
functions shared by the rest of the suite.

Everything here is pure given its inputs.  Random draws go through
:class:`RngStream`, a splittable counter-based generator: streams are keyed
by the hash of their label path from the root seed, so any two runs that
fork the same labels in any order see identical samples.

A stream's generator is Philox4x64-10 (Salmon et al. 2011), which is
counter-based: its i-th double is a pure function of its 128-bit key and
i.  So :func:`batch_random` gives many streams their first draws at once,
in numpy arrays, with no generator and no stream built: row i of
``batch_random(parent, labels, n)`` is bit for bit
``Generator(Philox(key=_path_key(...))).random(n)`` on the key of
``parent.fork(labels[i])``.

A key hashes the stream's path text, its labels joined by "/", so the keys
of a parent's children share a prefix: the parent's text and "/".  That
prefix is hashed once, and each child's key is a copy of its hash state
fed the child's label.  A label may itself hold "/": ``fork("a/b")`` is the
stream ``fork("a").fork("b")``, so one prefix serves the grandchildren too.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from itertools import accumulate

import numpy as np

__all__ = [
    "ParameterError",
    "DivergenceError",
    "RngStream",
    "batch_random",
    "to_interval",
    "random_orthogonal",
    "lambert_w0",
    "power_of_two_scale",
]


class ParameterError(ValueError):
    """An argument lies outside the domain of the operation."""


class DivergenceError(RuntimeError):
    """A numeric iteration produced a non-finite state."""


_TWO_PI = 2.0 * np.pi


def _key_bytes(root_seed, path):
    """The first 16 bytes of the sha256 of the root seed's digits and each
    label of a path, joined by "/"."""
    text = "/".join((str(int(root_seed)),) + tuple(path))
    return hashlib.sha256(text.encode()).digest()[:16]


def _path_key(root_seed, path):
    """The 128-bit key of a label path: its :func:`_key_bytes`,
    little-endian."""
    return int.from_bytes(_key_bytes(root_seed, path), "little")


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

    :func:`batch_random` computes the same doubles from the key without a
    generator: ``batch_random(s, [label], n)[0]`` equals a fresh
    ``s.fork(label)``'s ``uniform(shape=(n,))``, bit for bit.
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
        """The child stream of ``label``.  Its key hashes the path text,
        the labels joined by "/", so ``fork("a/b")`` is the stream
        ``fork("a").fork("b")``: :func:`batch_random` derives a
        descendant's key from its parent's text and a "/"-joined label."""
        if not label:
            raise ParameterError("fork label must be nonempty")
        return RngStream(self.root_seed, self.lineage + (str(label),))

    # -- draws; uniform and categorical give a scalar when ``shape`` is None

    def uniform(self, a=0.0, b=1.0, shape=None):
        # b - a is nan or inf if either bound is, or if the width overflows
        if not (a <= b and b - a < np.inf):
            raise ParameterError(f"uniform requires a <= b with b - a finite, "
                                 f"got ({a}, {b})")
        return to_interval(self._gen.random(shape), a, b)

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


def to_interval(u, a, b):
    """Doubles ``u`` in [0, 1) mapped onto [a, b), as :meth:`RngStream.uniform`
    maps its draws: so ``to_interval(batch_random(s, [label], n), a, b)[0]``
    is a fresh ``s.fork(label)``'s ``uniform(a, b, shape=(n,))``, bit for
    bit."""
    return a + (b - a) * u


# Philox4x64-10's two round multipliers and two key increments, as numpy's
# Philox uses them, shaped to pair with the (2, blocks, streams) halves of
# the counter that batch_random holds.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                     dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                     dtype=np.uint64).reshape(2, 1, 1)
_LOW32 = np.uint64(0xFFFF_FFFF)
_32 = np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _32


def _mulhi(x):
    """The high 64-bit words of the 128-bit products x·_PHILOX_M.  numpy has
    no 128-bit integer, so they are summed from the products of 32-bit
    halves, as in Hacker's Delight's mulhu: no partial sum overflows."""
    x_lo = x & _LOW32
    x_hi = x >> _32
    t = x_hi * _PHILOX_M_LO
    low = x_lo * _PHILOX_M_LO
    low >>= _32
    t += low                      # x_hi m_lo + (x_lo m_lo >> 32)
    mid = np.bitwise_and(t, _LOW32, out=low)
    t >>= _32
    x_lo *= _PHILOX_M_HI
    mid += x_lo                   # x_lo m_hi + (t mod 2**32)
    mid >>= _32
    x_hi *= _PHILOX_M_HI
    x_hi += t
    x_hi += mid
    return x_hi


def _child_keys(parent, labels):
    """The (len(labels), 2) uint64 words of the keys of ``parent.fork(label)``
    for each label: each is :func:`_key_bytes` of the child's path, from one
    hash of the parent's path text and "/", copied and fed the label."""
    prefix = hashlib.sha256(
        "/".join((str(parent.root_seed), *parent.lineage, "")).encode())
    digests = []
    for label in labels:
        h = prefix.copy()
        h.update(label.encode())
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8").reshape(-1, 4)[:, :2]


def batch_random(parent, labels, n):
    """An (len(labels), n) array: row i holds the first n doubles of
    ``parent.fork(labels[i])``'s ``random()`` sequence, bit for bit its
    ``uniform(shape=(n,))``, with no stream built.  Each label is a
    nonempty ``fork`` label, or several joined by "/"."""
    return _philox_random(_child_keys(parent, labels), n)


def _philox_random(key, n):
    """The first n doubles of ``Generator(Philox(key=k)).random`` for each
    row (k mod 2**64, k >> 64) of the (S, 2) uint64 array ``key``:
    Philox4x64-10 in uint64 arithmetic, all S streams at once.

    Philox block b, of counter (b + 1, 0, 0, 0) as numpy's Philox
    increments its counter before each block, gives four 64-bit words, and
    a word x gives the double (x >> 11) · 2**-53.  A round maps the counter
    (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1,
    lo(M0 c0)), and the key (k0, k1) is bumped by the increments before
    each round but the first; here the halves (c0, c2) and (c1, c3) are two
    arrays, each (2, blocks, S).
    """
    key = key.T[:, None, :]
    n_blocks = -(-n // 4)
    even = np.zeros((2, n_blocks, key.shape[2]), dtype=np.uint64)  # c0, c2
    even[0] = np.arange(1, 1 + n_blocks, dtype=np.uint64)[:, None]
    odd = np.zeros_like(even)                                       # c1, c3
    for r in range(10):
        if r:
            key = key + _PHILOX_W
        hi = _mulhi(even)[::-1]
        hi ^= odd
        hi ^= key
        even, odd = hi, (even * _PHILOX_M)[::-1]
    words = np.empty((key.shape[2], n_blocks, 4), dtype=np.uint64)
    words[..., 0::2] = even.T
    words[..., 1::2] = odd.T
    del even, odd, hi
    words = words.reshape(key.shape[2], 4 * n_blocks)[:, :n]
    words >>= np.uint64(11)
    return words * (1.0 / 9007199254740992.0)


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
