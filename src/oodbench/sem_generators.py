"""Synthetic environment generators for the linear structural equation
model benchmarks, plus the shifted test environments used for
out-of-distribution evaluation.

All generators record the latent invariant/spurious blocks alongside the
observed features, so test-time shifts can be applied in latent space and
the observed matrix rebuilt through the scrambler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric_core import ParameterError, random_orthogonal

__all__ = [
    "EnvParams",
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
    "make_test_env",
    "generate_training_envs",
    "default_test_envs",
]

EXAMPLES = ("ex1", "ex2", "ex3", "twod", "xor")
XOR_VARIANTS = ("both", "invariance_only", "bottleneck_only")

# Example 2 constants: animal/background prototypes and their scales.
NU_ANIMAL = 1e-2
NU_BACKGROUND = 1.0
# Example 3 invariant prototype magnitude.
THETA_INV_SCALE = 0.1
# Latent noise second parameter, read as a variance.
LATENT_NOISE_STD = np.sqrt(0.1)


@dataclass
class EnvParams:
    """Per-environment parameters; only the fields used by the chosen
    example are populated."""

    env_id: int
    sigma_sq: float | None = None       # ex1
    p: float | None = None              # ex2 selection bias / twod
    s: float | None = None              # ex2 animal parameter
    theta_spu: np.ndarray | None = None  # ex3
    u: float | None = None              # xor


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
        """The example's task: ex1 is the one regression example."""
        return "regression" if self.example == "ex1" else "classification"


@dataclass
class EnvDataset:
    env_id: int
    X: np.ndarray
    Y: np.ndarray
    task: str  # "regression" | "classification"
    Z_inv: np.ndarray | None = None
    Z_spu: np.ndarray | None = None
    scrambler: np.ndarray | None = None  # S used to mix latents into X

    @property
    def n(self):
        return self.X.shape[0]


@dataclass
class FixedWeights:
    """Weights drawn once per data seed and shared by every environment."""

    W_yz: np.ndarray
    W_zy: np.ndarray
    S: np.ndarray


def draw_fixed_weights(spec, rng):
    r = rng.fork("fixed_weights")
    w_yz = r.fork("W_yz").gaussian_array((spec.m, spec.m))
    w_zy = r.fork("W_zy").gaussian_array((spec.o, spec.m))
    d = spec.m + spec.o
    if spec.scramble:
        s = random_orthogonal(r.fork("S"), d)
    else:
        s = np.eye(d)
    return FixedWeights(W_yz=w_yz, W_zy=w_zy, S=s)


def env_params(spec, rng):
    """Per-environment parameter schedule.

    The first three environments use the fixed published constants; extra
    environments draw their parameters from the stated ranges.  The 2D and
    XOR bias schedule Uniform(0.7, 0.95) is this suite's choice.
    """
    r = rng.fork("env_params")
    out = []
    for e in range(spec.n_envs):
        re = r.fork(f"env{e}")
        if spec.example == "ex1":
            fixed = (0.1, 1.5, 2.0)
            sig = fixed[e] if e < 3 else re.uniform(1e-2, 10.0)
            out.append(EnvParams(env_id=e, sigma_sq=sig))
        elif spec.example == "ex2":
            fixed_p = (0.95, 0.97, 0.99)
            fixed_s = (0.3, 0.5, 0.7)
            if e < 3:
                p, s = fixed_p[e], fixed_s[e]
            else:
                p = re.fork("p").uniform(0.9, 1.0)
                s = re.fork("s").uniform(0.3, 0.7)
            out.append(EnvParams(env_id=e, p=p, s=s))
        elif spec.example == "ex3":
            theta = re.gaussian_array((spec.o,))
            out.append(EnvParams(env_id=e, theta_spu=theta))
        elif spec.example == "twod":
            out.append(EnvParams(env_id=e, p=re.uniform(0.7, 0.95)))
        else:  # xor
            out.append(EnvParams(env_id=e, u=re.uniform(0.7, 0.95)))
    return out


def _assemble(env_id, z_inv, z_spu, y, task, s):
    z = np.hstack([z_inv, z_spu])
    x = z @ s.T
    return EnvDataset(env_id=env_id, X=x, Y=y, task=task,
                      Z_inv=z_inv, Z_spu=z_spu, scrambler=s)


def gen_example1(spec, params, fw, rng):
    """Linear regression SEM (partially informative invariant features)."""
    n, m, o = spec.n_per_env, spec.m, spec.o
    sigma = np.sqrt(params.sigma_sq)
    r = rng.fork(f"gen/env{params.env_id}")
    z_inv = r.fork("z_inv").gaussian_array((n, m), std=sigma)
    y_tilde = z_inv @ fw.W_yz.T + r.fork("y_tilde").gaussian_array((n, m), std=sigma)
    z_spu = y_tilde @ fw.W_zy.T + r.fork("z_spu").gaussian_array((n, o), std=1.0)
    y = (2.0 / (m + o)) * y_tilde.sum(axis=1)
    return _assemble(params.env_id, z_inv, z_spu, y, spec.task, fw.S)


def gen_example2(spec, params, fw, rng):
    """Cow-versus-camel classification SEM with selection bias."""
    n, m, o = spec.n_per_env, spec.m, spec.o
    p, s = params.p, params.s
    r = rng.fork(f"gen/env{params.env_id}")
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
    return _assemble(params.env_id, z_inv, z_spu, y, "classification", fw.S)


def gen_example3(spec, params, fw, rng):
    """Linearized spiral classification SEM (anti-causal invariant features)."""
    n, m, o = spec.n_per_env, spec.m, spec.o
    r = rng.fork(f"gen/env{params.env_id}")
    y = r.fork("y").bernoulli_array((n,), 0.5).astype(float)
    sign = np.where(y[:, None] == 0, 1.0, -1.0)
    theta_inv = THETA_INV_SCALE * np.ones(m)
    z_inv = sign * theta_inv + r.fork("z_inv").gaussian_array((n, m), std=LATENT_NOISE_STD)
    z_spu = sign * params.theta_spu + r.fork("z_spu").gaussian_array((n, o), std=LATENT_NOISE_STD)
    return _assemble(params.env_id, z_inv, z_spu, y, "classification", fw.S)


def gen_2d(params, n, rng):
    """Two-feature toy classification task with selection bias p > 1/2."""
    if params.p is None or params.p <= 0.5:
        raise ParameterError("gen_2d requires selection bias p > 1/2")
    r = rng.fork(f"gen/env{params.env_id}")
    x_inv = r.fork("x_inv").bernoulli_array((n,), 0.5).astype(float)
    w = r.fork("w").bernoulli_array((n,), 1.0 - params.p).astype(float)
    x_spu = np.logical_xor(x_inv, w).astype(float)
    y = x_inv.copy()
    return _assemble(params.env_id, x_inv[:, None], x_spu[:, None], y,
                     "classification", np.eye(2))


def gen_binary_xor(spec, params, rng):
    """Binary XOR constructions showing when invariance and/or the
    bottleneck are needed."""
    n, q, a, u = spec.n_per_env, spec.xor_q, spec.xor_a, params.u
    if not 0.0 <= u <= 1.0:
        raise ParameterError(f"xor probability u={u} outside [0, 1]")
    r = rng.fork(f"gen/env{params.env_id}")
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
    d = z_inv.shape[1] + z_spu.shape[1]
    return _assemble(params.env_id, z_inv, z_spu, y.astype(float),
                     "classification", np.eye(d))


def generate_env(spec, params, fw, rng):
    """Dispatch to the generator for ``spec.example``."""
    if spec.example == "ex1":
        return gen_example1(spec, params, fw, rng)
    if spec.example == "ex2":
        return gen_example2(spec, params, fw, rng)
    if spec.example == "ex3":
        return gen_example3(spec, params, fw, rng)
    if spec.example == "twod":
        return gen_2d(params, spec.n_per_env, rng)
    return gen_binary_xor(spec, params, rng)


def make_test_env(spec, params, fw, rng):
    """Generate an environment and permute its spurious latents across
    samples, destroying their correlation with the label."""
    env = generate_env(spec, params, fw, rng)
    perm = rng.fork("shift_perm").permutation(env.n)
    return _assemble(env.env_id, env.Z_inv, env.Z_spu[perm], env.Y, env.task,
                     env.scrambler)


def generate_training_envs(spec, rng):
    """Draw fixed weights, the parameter schedule, and all training
    environments for one data seed."""
    fw = draw_fixed_weights(spec, rng)
    params = env_params(spec, rng)
    envs = [generate_env(spec, p, fw, rng) for p in params]
    return fw, params, envs


def default_test_envs(spec, params, fw, rng):
    """Default OOD protocol: one :func:`make_test_env` test environment per
    training environment."""
    r = rng.fork("test_envs")
    return [make_test_env(spec, p, fw, r.fork(f"env{p.env_id}")) for p in params]
