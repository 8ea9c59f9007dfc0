"""Synthetic environment generators for the linear structural equation
model benchmarks.

``EXAMPLES`` holds one :class:`Example` record per example, and every
per-example decision of the package reads it: the example's generator,
which draws the invariant latents, spurious latents and label of one
environment from its stream ``gen/env<id>``; its parameter schedule, which
draws environment e's parameter from ``env_params/env<e>``; its task; whether
it has a scrambled variant; and the :class:`GeneratorSpec` settings it
reads.  An environment's parameter is whatever its example's schedule
returns: ex1's noise variance, ex2's (p, s), ex3's spurious prototype, the
2D task's selection bias p and the XOR tasks' flip probability u.
:func:`generate_env` assembles every training and test environment from
the generator's draws, and makes a test environment's shift there, in
latent space, with the stream ``shift_perm``.  The sweep goldens pin every
stream label.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .numeric_core import ParameterError, random_orthogonal

__all__ = [
    "Example",
    "EXAMPLES",
    "GeneratorSpec",
    "EnvDataset",
    "FixedWeights",
    "env_params",
    "draw_fixed_weights",
    "generate_env",
    "gen_example1",
    "gen_example2",
    "gen_example3",
    "gen_2d",
    "gen_binary_xor",
    "generate_training_envs",
    "default_test_envs",
]

XOR_VARIANTS = ("both", "invariance_only", "bottleneck_only")

# Example 2 constants: animal/background prototypes and their scales.
NU_ANIMAL = 1e-2
NU_BACKGROUND = 1.0
# Example 3 invariant prototype magnitude.
THETA_INV_SCALE = 0.1
# Latent noise second parameter, read as a variance.
LATENT_NOISE_STD = np.sqrt(0.1)


@dataclass
class GeneratorSpec:
    example: str = "ex2"
    m: int = 5
    o: int = 5
    n_per_env: int = 1000
    n_envs: int = 3
    scramble: bool = False
    xor_variant: str = "both"
    xor_q: float = 0.1
    xor_a: float = 0.1

    def __post_init__(self):
        if self.example not in EXAMPLES:
            raise ParameterError(f"unknown example {self.example!r}")
        if self.m < 1 or self.o < 1 or self.n_per_env < 2 or self.n_envs < 1:
            raise ParameterError("require m >= 1, o >= 1, n_per_env >= 2, n_envs >= 1")
        # At least the largest array a draw asks numpy for: two uniforms for
        # each of up to (m + o)² or n_per_env (m + o) normals, 16 bytes a normal.
        size = 16 * max(self.m + self.o, self.n_per_env) * (self.m + self.o)
        if size > np.iinfo(np.intp).max:
            raise ParameterError(
                f"m = {self.m}, o = {self.o} and n_per_env = {self.n_per_env} "
                f"need an array of {size:.3g} bytes, more than numpy can hold")
        if self.scramble and not EXAMPLES[self.example].scrambled:
            raise ParameterError(f"{self.example} has no scrambled variant")
        # Checked on every example, so a bad xor setting never passes
        # silently where it is ignored.
        if self.xor_variant not in XOR_VARIANTS:
            raise ParameterError(f"xor_variant must be one of {XOR_VARIANTS}, "
                                 f"got {self.xor_variant!r}")
        for name, prob in (("q", self.xor_q), ("a", self.xor_a)):
            if not 0.0 <= prob <= 1.0:
                raise ParameterError(f"xor probability {name}={prob} outside [0, 1]")

    @property
    def name(self):
        """The example's name: a scrambled example's ends in ``s``."""
        return self.example + "s" * self.scramble

    @property
    def task(self):
        """The example's task, from its record."""
        return EXAMPLES[self.example].task


@dataclass
class EnvDataset:
    env_id: int
    X: np.ndarray
    Y: np.ndarray
    task: str  # "regression" | "classification"
    Z_inv: np.ndarray | None = None
    Z_spu: np.ndarray | None = None

    @property
    def n(self):
        return self.X.shape[0]


@dataclass
class FixedWeights:
    """Weights drawn once per data seed and shared by every environment;
    the scrambler ``S`` only for a scrambled spec."""

    W_yz: np.ndarray
    W_zy: np.ndarray
    S: np.ndarray | None = None


def draw_fixed_weights(spec, rng):
    r = rng.fork("fixed_weights")
    w_yz = r.fork("W_yz").gaussian_array((spec.m, spec.m))
    w_zy = r.fork("W_zy").gaussian_array((spec.o, spec.m))
    s = random_orthogonal(r.fork("S"), spec.m + spec.o) if spec.scramble else None
    return FixedWeights(W_yz=w_yz, W_zy=w_zy, S=s)


def env_params(spec, rng):
    """The parameter of each environment e, drawn by the example's schedule
    from ``rng.fork("env_params").fork(f"env{e}")``."""
    r = rng.fork("env_params")
    schedule = EXAMPLES[spec.example].schedule
    return [schedule(spec, e, r.fork(f"env{e}")) for e in range(spec.n_envs)]


def gen_example1(spec, sigma_sq, fw, r):
    """Linear regression SEM (partially informative invariant features)."""
    n, m, o = spec.n_per_env, spec.m, spec.o
    sigma = np.sqrt(sigma_sq)
    z_inv = r.fork("z_inv").gaussian_array((n, m), std=sigma)
    y_tilde = z_inv @ fw.W_yz.T + r.fork("y_tilde").gaussian_array((n, m), std=sigma)
    z_spu = y_tilde @ fw.W_zy.T + r.fork("z_spu").gaussian_array((n, o), std=1.0)
    y = (2.0 / (m + o)) * y_tilde.sum(axis=1)
    return z_inv, z_spu, y


def gen_example2(spec, p_s, fw, r):
    """Cow-versus-camel classification SEM with selection bias."""
    n, m, o = spec.n_per_env, spec.m, spec.o
    p, s = p_s
    # Outcomes 1..4 with P = (ps, (1-p)s, p(1-s), (1-p)(1-s)).
    u = r.fork("u").categorical([p * s, (1 - p) * s, p * (1 - s),
                                 (1 - p) * (1 - s)], shape=(n,)) + 1
    cow = u <= 2
    grass = (u == 1) | (u == 4)
    theta_animal = np.where(cow[:, None], 1.0, -1.0) * np.ones(m)
    theta_background = np.where(grass[:, None], 1.0, -1.0) * np.ones(o)
    z_inv = (r.fork("z_inv").gaussian_array((n, m), std=LATENT_NOISE_STD)
             + theta_animal) * NU_ANIMAL
    z_spu = (r.fork("z_spu").gaussian_array((n, o), std=LATENT_NOISE_STD)
             + theta_background) * NU_BACKGROUND
    y = (z_inv.sum(axis=1) >= 0).astype(float)
    return z_inv, z_spu, y


def gen_example3(spec, theta_spu, fw, r):
    """Linearized spiral classification SEM (anti-causal invariant features)."""
    n, m, o = spec.n_per_env, spec.m, spec.o
    y = r.fork("y").bernoulli_array((n,), 0.5).astype(float)
    sign = np.where(y[:, None] == 0, 1.0, -1.0)
    theta_inv = THETA_INV_SCALE * np.ones(m)
    z_inv = sign * theta_inv + r.fork("z_inv").gaussian_array((n, m), std=LATENT_NOISE_STD)
    z_spu = sign * theta_spu + r.fork("z_spu").gaussian_array((n, o), std=LATENT_NOISE_STD)
    return z_inv, z_spu, y


def gen_2d(spec, p, fw, r):
    """Two-feature toy classification task with selection bias p > 1/2."""
    if p <= 0.5:
        raise ParameterError("gen_2d requires selection bias p > 1/2")
    n = spec.n_per_env
    x_inv = r.fork("x_inv").bernoulli_array((n,), 0.5).astype(float)
    w = r.fork("w").bernoulli_array((n,), 1.0 - p).astype(float)
    x_spu = np.logical_xor(x_inv, w).astype(float)
    return x_inv[:, None], x_spu[:, None], x_inv.copy()


def gen_binary_xor(spec, u, fw, r):
    """Binary XOR constructions showing when invariance and/or the
    bottleneck are needed."""
    n, q, a = spec.n_per_env, spec.xor_q, spec.xor_a
    if not 0.0 <= u <= 1.0:
        raise ParameterError(f"xor probability u={u} outside [0, 1]")
    if spec.xor_variant == "both":
        x_inv = r.fork("x_inv").bernoulli_array((n,), 0.5)
        noise = r.fork("n").bernoulli_array((n,), q)
        y = np.bitwise_xor(x_inv, noise)
        x_spu1 = np.bitwise_xor(y, r.fork("w").bernoulli_array((n,), u))
        x_spu2 = np.bitwise_xor(x_inv, r.fork("v").bernoulli_array((n,), a))
        z_inv = x_inv[:, None].astype(float)
        z_spu = np.stack([x_spu1, x_spu2], axis=1).astype(float)
    elif spec.xor_variant == "invariance_only":
        x1 = r.fork("x1").bernoulli_array((n,), 0.5)
        x2 = r.fork("x2").bernoulli_array((n,), 0.5)
        noise = r.fork("n").bernoulli_array((n,), q)
        y = np.bitwise_xor(np.bitwise_xor(x1, x2), noise)
        x_spu = np.bitwise_xor(y, r.fork("w").bernoulli_array((n,), u))
        z_inv = np.stack([x1, x2], axis=1).astype(float)
        z_spu = x_spu[:, None].astype(float)
    else:  # bottleneck_only: noiseless 2D plus a high-entropy invariant pair
        x_inv = r.fork("x_inv").bernoulli_array((n,), 0.5)
        y = x_inv.copy()
        x_spu = np.bitwise_xor(x_inv, r.fork("w").bernoulli_array((n,), 1.0 - u))
        g1 = r.fork("g1").bernoulli_array((n,), 0.5)
        g2 = r.fork("g2").bernoulli_array((n,), 0.5)
        z_inv = np.stack([x_inv, g1, g2], axis=1).astype(float)
        z_spu = x_spu[:, None].astype(float)
    return z_inv, z_spu, y.astype(float)


# Parameter schedules: environment e's parameter, drawn from ``r``.  ex1
# and ex2 give their first three environments the published parameters and
# draw the rest from the stated ranges.

def _ex1_noise(spec, e, r):
    """ex1's noise variance sigma_e^2; U(1e-2, 10) for e >= 3."""
    return (0.1, 1.5, 2.0)[e] if e < 3 else r.uniform(1e-2, 10.0)


def _ex2_bias(spec, e, r):
    """ex2's (p, s); p from U(0.9, 1) and s from U(0.3, 0.7) for e >= 3."""
    if e < 3:
        return ((0.95, 0.3), (0.97, 0.5), (0.99, 0.7))[e]
    return r.fork("p").uniform(0.9, 1.0), r.fork("s").uniform(0.3, 0.7)


def _ex3_prototype(spec, e, r):
    """ex3's spurious prototype theta_spu^e, drawn from N(0, I_o)."""
    return r.gaussian_array((spec.o,))


def _bias(spec, e, r):
    """The 2D task's p and the XOR tasks' u.  Uniform(0.7, 0.95) is this
    suite's choice."""
    return r.uniform(0.7, 0.95)


@dataclass(frozen=True)
class Example:
    """One example: ``generator(spec, param, fw, r)`` draws an
    environment's latents and label; ``schedule(spec, e, r)`` draws
    environment e's parameter; ``scrambled`` says whether the example has a
    scrambled variant; ``settings`` are the config-file settings of
    :class:`GeneratorSpec` that it reads, and ``unread`` pairs an
    ``xor_variant`` with those of them that the variant leaves unread."""

    generator: Callable
    schedule: Callable
    task: str
    scrambled: bool
    settings: tuple
    unread: tuple = ()

    def variants_reading(self, key):
        """The ``xor_variant`` values under which a spec of this example
        reads setting ``key``: all of them, some, or none."""
        if key not in self.settings:
            return []
        unread = dict(self.unread)
        return [v for v in XOR_VARIANTS if key not in unread.get(v, ())]


LINEAR_SETTINGS = ("m", "o", "n_per_env")
EXAMPLES = {
    "ex1": Example(gen_example1, _ex1_noise, "regression", True, LINEAR_SETTINGS),
    "ex2": Example(gen_example2, _ex2_bias, "classification", True, LINEAR_SETTINGS),
    "ex3": Example(gen_example3, _ex3_prototype, "classification", True,
                   LINEAR_SETTINGS),
    "twod": Example(gen_2d, _bias, "classification", False, ("n_per_env",)),
    # invariance_only draws no second spurious feature (a), and
    # bottleneck_only no label noise (q) either
    "xor": Example(gen_binary_xor, _bias, "classification", False,
                   ("n_per_env", "xor_variant", "xor_q", "xor_a"),
                   (("invariance_only", ("xor_a",)),
                    ("bottleneck_only", ("xor_q", "xor_a")))),
}


def generate_env(spec, env_id, param, fw, rng, shift=False):
    """Environment ``env_id`` of parameter ``param``: latents and label
    drawn by the example's generator from ``rng.fork("gen/env<id>")``.
    ``shift`` is the OOD test shift, made here: ``rng.fork("shift_perm")``
    permutes the spurious latents across samples, cutting their tie to the
    label.  X is the latents mixed by ``fw.S`` for a scrambled spec, else
    the stacked latents."""
    z_inv, z_spu, y = EXAMPLES[spec.example].generator(
        spec, param, fw, rng.fork(f"gen/env{env_id}"))
    if shift:
        z_spu = z_spu[rng.fork("shift_perm").permutation(len(y))]
    z = np.hstack([z_inv, z_spu])
    x = z @ fw.S.T if spec.scramble else z
    return EnvDataset(env_id=env_id, X=x, Y=y, task=spec.task,
                      Z_inv=z_inv, Z_spu=z_spu)


def generate_training_envs(spec, rng):
    """Draw fixed weights, the parameter schedule, and all training
    environments for one data seed."""
    fw = draw_fixed_weights(spec, rng)
    params = env_params(spec, rng)
    envs = [generate_env(spec, e, p, fw, rng) for e, p in enumerate(params)]
    return fw, params, envs


def default_test_envs(spec, params, fw, rng):
    """Default OOD protocol: one test environment per training environment,
    which :func:`generate_env` draws (``gen/env<id>``) and shifts
    (``shift_perm``) under ``rng`` forked by ``test_envs`` and ``env<id>``."""
    r = rng.fork("test_envs")
    return [generate_env(spec, e, p, fw, r.fork(f"env{e}"), shift=True)
            for e, p in enumerate(params)]
