"""Gradient-flow dynamics for the two-feature task: the plain and
bottleneck-penalized exponential-loss flows, their Lambert-W equilibrium,
and the learning-speed bound verification.

The flows are solved in rotated coordinates x = w_inv + w_spu and
y = w_inv - w_spu, where they decouple:

    dx/dt = 2 p     (e^{-x} - 2 gamma x)
    dy/dt = 2 (1-p) (e^{-y} - 2 gamma y)

with the gamma terms absent for the plain flow.

The plain flow (gamma = 0) is solved in closed form: x = ln(1 + 2 p t) and
y = ln(1 + 2 (1-p) t), evaluated only at the grid points a caller samples.
The penalized flow has no elementary solution and is integrated with
classical RK4, one coordinate at a time.  Its step map is a pure function
of (u, h), so once a full step of length dt leaves a coordinate unchanged
in floating point, every later full step would too: the coordinate stays at
that value through the last full step, and only the shortened final step
still runs.  So a trajectory holds just the RK4 prefix up to both fixed
points, the fill's last point and the shortened step(s), whatever the
horizon, and every point it yields is bit-identical to stepping through the
whole grid; a map that never reaches a fixed point holds every step.
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
    """A flow on the grid t_i = i dt for i < n_steps, t_{n_steps} = t_end,
    held without materialising the grid.

    Only the grid points in ``index`` are held, with their ``times``,
    ``w_inv`` and ``w_spu``; a point that is not held has the value of the
    held point before it.  The penalized flow holds its RK4 prefix up to
    both coordinates' float fixed point, the last point of the fill and the
    shortened step(s) after it.  The plain flow holds only the origin and is
    evaluated in closed form wherever it is sampled.
    """
    spec: FlowSpec
    dt: float
    t_end: float
    n_steps: int
    index: np.ndarray
    w_inv: np.ndarray
    w_spu: np.ndarray

    @property
    def times(self):
        """Times of the held points."""
        return self.grid_times(self.index)

    def grid_times(self, idx):
        """Times of the grid indices ``idx``."""
        times = idx.astype(float)
        times *= self.dt
        if self.n_steps:
            times[idx == self.n_steps] = self.t_end
        return times

    def at(self, idx):
        """Times, (w_inv, w_spu) and the weight ratio |w_spu / w_inv| at the
        grid indices ``idx``.  The origin's ratio is the one-sided limit
        2p - 1 implied by the initial slopes."""
        times = self.grid_times(idx)
        if self.spec.kind == "erm":
            x = np.log1p(times * (2.0 * self.spec.p))
            y = np.log1p(times * (2.0 * (1.0 - self.spec.p)))
            w_inv, w_spu = (x + y) * 0.5, (x - y) * 0.5
        else:
            held = np.searchsorted(self.index, idx, side="right") - 1
            w_inv, w_spu = self.w_inv[held], self.w_spu[held]
        ratio = np.full_like(w_inv, 2.0 * self.spec.p - 1.0)
        np.divide(w_spu, w_inv, out=ratio, where=w_inv != 0)
        return times, w_inv, w_spu, np.abs(ratio, out=ratio)


def equilibrium_x(gamma):
    """Stationary value of both rotated coordinates for the penalized flow."""
    if not gamma > 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    return float(lambert_w0(1.0 / (2.0 * gamma)))


def _rk4_coordinate(c, g2, dt, t_end, n_full, n_steps):
    """Classical RK4 for du/dt = c (e^{-u} - g2 u) from u(0) = 0.

    Step i starts at t = i dt; the first ``n_full`` steps have length dt and
    the rest are shortened to land on t_end.  A full step that leaves u
    unchanged is a fixed point of the step map, which depends on (u, h)
    alone, so u stays there through step n_full.  Returns ``(u, j)``: u at
    grid points 0..j, where j is that fixed point (or n_full if there is
    none), followed by u at grid points n_full+1..n_steps.
    """
    def step(u, h):
        k1 = c * (exp(-u) - g2 * u)
        k2 = c * (exp(-(u + 0.5 * h * k1)) - g2 * (u + 0.5 * h * k1))
        k3 = c * (exp(-(u + 0.5 * h * k2)) - g2 * (u + 0.5 * h * k2))
        k4 = c * (exp(-(u + h * k3)) - g2 * (u + h * k3))
        return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    u = [0.0]
    for _ in range(n_full):
        u.append(step(u[-1], dt))
        if u[-1] == u[-2]:
            break
    j = len(u) - 1
    for i in range(n_full, n_steps):
        u.append(step(u[-1], t_end - i * dt))
    return np.array(u), j


def simulate_flow(spec, t_end, dt):
    """Solve the flow from the origin on the grid 0, dt, 2 dt, ..., t_end
    (the last step shortened to land on t_end) in (w_inv, w_spu)."""
    if not t_end > 0:
        raise ParameterError(f"t_end must be > 0, got {t_end}")
    if not 0 < dt < np.inf:
        raise ParameterError(f"dt must be finite and > 0, got {dt}")
    if not t_end / dt < 2.0 ** 53:
        raise ParameterError(f"t_end / dt must be < 2**53 for the grid times "
                             f"to be exact, got {t_end / dt:g}")
    n_full, rem = divmod(t_end, dt)
    n_steps = int(n_full) + (1 if rem > 1e-12 * dt else 0)
    if spec.kind == "erm":
        origin = np.zeros(1)
        return FlowTrajectory(spec, dt, t_end, n_steps,
                              np.zeros(1, dtype=np.int64), origin, origin)
    # Steps that start after t_end - dt are shortened; they form a suffix.
    n_full = n_steps
    while n_full > 0 and dt > t_end - (n_full - 1) * dt:
        n_full -= 1
    g2 = 2.0 * spec.gamma
    try:
        x, jx = _rk4_coordinate(2.0 * spec.p, g2, dt, t_end, n_full, n_steps)
        y, jy = _rk4_coordinate(2.0 * (1.0 - spec.p), g2, dt, t_end, n_full, n_steps)
    except OverflowError as exc:
        raise DivergenceError(f"flow integration overflowed: {exc}") from exc
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DivergenceError("flow integration diverged")
    # Hold every point up to the later fixed point, the fill's last point
    # and the shortened steps.
    m = max(jx, jy)
    index = np.concatenate([np.arange(m + 1),
                            np.arange(max(m + 1, n_full), n_steps + 1)])
    tail = np.maximum(index - n_full, 0)
    x = x[np.minimum(index, jx) + tail]
    y = y[np.minimum(index, jy) + tail]
    return FlowTrajectory(spec, dt, t_end, n_steps, index,
                          (x + y) * 0.5, (x - y) * 0.5)


def _crossing_time(traj, eps):
    """First time the ratio falls below eps and stays below; None if it
    never settles.  Between two held points the ratio is constant, so the
    held points decide it."""
    times, _, _, ratio = traj.at(traj.index)
    above = ratio >= eps
    if above[-1]:
        return None
    last_above = np.nonzero(above)[0]
    if last_above.size == 0:
        return float(times[0])
    return float(traj.grid_times(traj.index[last_above[-1:]] + 1)[0])


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
    if not eps > 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    if eps >= 1:
        raise ParameterError("eps >= 1 makes the ratio bound degenerate")
    x_star = equilibrium_x(gamma)
    rate = 2.0 * (1.0 - p) * eps
    if rate == 0.0:
        raise ParameterError(f"eps = {eps:g} puts T_ib beyond the float range")
    t_ib = x_star / rate
    if not 0.0 < t_ib < np.inf:
        raise ParameterError(f"gamma = {gamma:g} and eps = {eps:g} give T_ib = "
                             f"{t_ib:g}; it must be finite and > 0")

    ib = simulate_flow(FlowSpec(kind="ib_erm", p=p, gamma=gamma), t_ib, dt)
    erm = simulate_flow(FlowSpec(kind="erm", p=p, gamma=gamma), t_ib, dt)

    crossing = _crossing_time(ib, eps)
    ib_ratio_at_tib = float(ib.at(ib.index[-1:])[3][0])
    erm_ratio_at_tib = float(erm.at(np.array([erm.n_steps]))[3][0])
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
        "ib_ratio_at_tib": ib_ratio_at_tib,
        "erm_ratio_at_tib": erm_ratio_at_tib,
        "erm_lower_bound": erm_lower_bound,
        "ratio_bound_scaled": eps / x_star,  # the proof-side variant of the bound
        "pass": bool(ib_pass and erm_pass),
        "ib_pass": bool(ib_pass),
        "erm_pass": bool(erm_pass),
        "ib_trajectory": ib,
        "erm_trajectory": erm,
    }
