"""Gradient-flow dynamics for the two-feature task: the plain and
bottleneck-penalized exponential-loss flows, their Lambert-W equilibrium,
and the learning-speed bound verification.

The flows are solved in rotated coordinates x = w_inv + w_spu and
y = w_inv - w_spu, where they decouple:

    dx/dt = 2 p     (e^{-x} - 2 gamma x)
    dy/dt = 2 (1-p) (e^{-y} - 2 gamma y)

with the gamma terms absent for the plain flow.

The plain flow (gamma = 0) is solved in closed form on the time grid:
x = ln(1 + 2 p t) and y = ln(1 + 2 (1-p) t).  The penalized flow has no
elementary solution and is integrated with classical RK4, one coordinate
at a time.  Its step map is a pure function of (u, h), so once a full step
of length dt leaves a coordinate unchanged in floating point, every later
full step would too: that value is filled into the rest of the full steps,
and a shortened final step still runs.  The result is bit-identical to
stepping through the whole horizon; a map that never reaches a fixed point
runs every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

import numpy as np

from .numeric_core import DivergenceError, ParameterError, lambert_w0

__all__ = [
    "FlowSpec",
    "FlowTrajectory",
    "equilibrium_x",
    "simulate_flow",
    "theorem5_report",
]


@dataclass
class FlowSpec:
    kind: str           # "erm" | "ib_erm"
    p: float            # average selection bias, > 1/2
    gamma: float = 0.0  # bottleneck weight, > 0 for ib_erm

    def __post_init__(self):
        if self.kind not in ("erm", "ib_erm"):
            raise ParameterError(f"unknown flow kind {self.kind!r}")
        if not 0.5 <= self.p < 1.0:
            raise ParameterError(f"p must lie in [1/2, 1), got {self.p}")
        if self.kind == "ib_erm" and self.gamma <= 0:
            raise ParameterError("ib_erm requires gamma > 0")


@dataclass
class FlowTrajectory:
    times: np.ndarray
    w_inv: np.ndarray
    w_spu: np.ndarray

    def ratio(self, p):
        """|w_spu / w_inv| along the trajectory; the origin is assigned the
        one-sided limit 2p - 1 implied by the initial slopes."""
        out = np.full_like(self.w_inv, 2.0 * p - 1.0)
        np.divide(self.w_spu, self.w_inv, out=out, where=self.w_inv != 0)
        return np.abs(out, out=out)


def equilibrium_x(gamma):
    """Stationary value of both rotated coordinates for the penalized flow."""
    if gamma <= 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    return float(lambert_w0(1.0 / (2.0 * gamma)))


def _rk4_coordinate(c, g2, dt, t_end, out):
    """Classical RK4 for du/dt = c (e^{-u} - g2 u) from u(0) = 0, writing
    u at every grid point into ``out``.

    Step i starts at t = i dt and has length h = min(dt, t_end - t), so the
    full steps form a prefix of the grid.  A full step that leaves u
    unchanged is a fixed point of the step map, which depends on (u, h)
    alone: u is filled into the remaining full steps, and the shortened
    steps after them run as usual.
    """
    n_steps = len(out) - 1
    u = 0.0
    out[0] = u
    i = 0
    while i < n_steps:
        t = i * dt
        h = dt if dt <= t_end - t else t_end - t
        k1 = c * (exp(-u) - g2 * u)
        k2 = c * (exp(-(u + 0.5 * h * k1)) - g2 * (u + 0.5 * h * k1))
        k3 = c * (exp(-(u + 0.5 * h * k2)) - g2 * (u + 0.5 * h * k2))
        k4 = c * (exp(-(u + h * k3)) - g2 * (u + h * k3))
        u_next = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        i += 1
        out[i] = u_next
        if u_next == u and h == dt:
            n_full = n_steps
            while n_full > i and dt > t_end - (n_full - 1) * dt:
                n_full -= 1
            out[i + 1:n_full + 1] = u_next
            i = n_full
        u = u_next


def simulate_flow(spec, t_end, dt=1e-3):
    """Solve the flow from the origin on the grid 0, dt, 2 dt, ..., t_end
    (the last step shortened to land on t_end) and convert back to
    (w_inv, w_spu)."""
    if t_end <= 0:
        raise ParameterError(f"t_end must be > 0, got {t_end}")
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    n_full, rem = divmod(t_end, dt)
    n_steps = int(n_full) + (1 if rem > 1e-12 * dt else 0)
    times = np.arange(n_steps + 1, dtype=float)
    times *= dt
    if n_steps:
        times[-1] = t_end
    x = np.empty_like(times)
    y = np.empty_like(times)
    cx = 2.0 * spec.p
    cy = 2.0 * (1.0 - spec.p)
    if spec.kind == "erm":
        np.log1p(np.multiply(times, cx, out=x), out=x)
        np.log1p(np.multiply(times, cy, out=y), out=y)
    else:
        g2 = 2.0 * spec.gamma
        try:
            _rk4_coordinate(cx, g2, dt, t_end, x)
            _rk4_coordinate(cy, g2, dt, t_end, y)
        except OverflowError as exc:
            raise DivergenceError(f"flow integration overflowed: {exc}") from exc
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DivergenceError("flow integration diverged")
    w_spu = np.subtract(x, y)
    w_spu *= 0.5
    w_inv = np.add(x, y, out=x)
    w_inv *= 0.5
    return FlowTrajectory(times=times, w_inv=w_inv, w_spu=w_spu)


def _crossing_time(times, ratio, eps):
    """First time the ratio falls below eps and stays below; None if it
    never settles."""
    above = ratio >= eps
    if above[-1]:
        return None
    last_above = np.nonzero(above)[0]
    if last_above.size == 0:
        return float(times[0])
    return float(times[last_above[-1] + 1])


def theorem5_report(p, gamma, eps, dt=1e-2):
    """Verify the learning-speed separation between the plain and
    bottleneck-penalized flows.

    Solves both flows up to T_ib = W0(1/(2 gamma)) / (2 (1-p) eps) and
    checks (a) the penalized flow's weight ratio crosses eps no later than
    T_ib and (b) the plain flow's ratio at T_ib still exceeds
    ln((1+2p)/(3-2p)) / ln(1 + T_ib).
    """
    if not 0.5 < p < 1.0:
        raise ParameterError(f"p must lie in (1/2, 1), got {p}")
    if eps <= 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    if eps >= 1:
        raise ParameterError("eps >= 1 makes the ratio bound degenerate")
    x_star = equilibrium_x(gamma)
    t_ib = x_star / (2.0 * (1.0 - p) * eps)

    ib = simulate_flow(FlowSpec(kind="ib_erm", p=p, gamma=gamma), t_ib, dt)
    erm = simulate_flow(FlowSpec(kind="erm", p=p, gamma=gamma), t_ib, dt)

    ib_ratio = ib.ratio(p)
    crossing = _crossing_time(ib.times, ib_ratio, eps)
    erm_ratio_at_tib = float(erm.ratio(p)[-1])
    erm_lower_bound = float(np.log((1.0 + 2.0 * p) / (3.0 - 2.0 * p))
                            / np.log1p(t_ib))
    ib_pass = crossing is not None and crossing <= t_ib
    erm_pass = erm_ratio_at_tib >= erm_lower_bound
    return {
        "p": p,
        "gamma": gamma,
        "eps": eps,
        "dt": dt,
        "x_star": x_star,
        "t_ib": t_ib,
        "crossing_time": crossing,
        "ib_ratio_at_tib": float(ib_ratio[-1]),
        "erm_ratio_at_tib": erm_ratio_at_tib,
        "erm_lower_bound": erm_lower_bound,
        "ratio_bound_scaled": eps / x_star,  # the proof-side variant of the bound
        "pass": bool(ib_pass and erm_pass),
        "ib_pass": bool(ib_pass),
        "erm_pass": bool(erm_pass),
        "ib_trajectory": ib,
        "erm_trajectory": erm,
    }
