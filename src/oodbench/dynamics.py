"""Gradient-flow dynamics for the two-feature task: the plain and
bottleneck-penalized exponential-loss flows, their Lambert-W equilibrium,
and the learning-speed bound verification.

The flows are solved in rotated coordinates x = w_inv + w_spu and
y = w_inv - w_spu, where they decouple:

    dx/dt = 2 p     (e^{-x} - 2 gamma x)
    dy/dt = 2 (1-p) (e^{-y} - 2 gamma y)

with the gamma terms absent for the plain flow, which has the closed form
x = ln(1 + 2 p t), y = ln(1 + 2 (1-p) t) (:func:`plain_flow`).

The penalized flow has no elementary solution and is integrated with
classical RK4, one coordinate at a time.  Its step map is a pure function
of (u, h), so once a full step of length dt leaves a coordinate unchanged
in floating point, every later full step would too: the coordinate stays at
that value through the last full step, and only the shortened final step
still runs.  So a trajectory holds just the RK4 prefix up to both fixed
points, the fill's last point and the shortened step(s), whatever the
horizon, and every point it yields is bit-identical to stepping through the
whole grid; a map that never reaches a fixed point holds every step, up
to a cap past which the flow is refused.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import exp

import numpy as np

from .numeric_core import DivergenceError, ParameterError, lambert_w0

__all__ = [
    "FlowTrajectory",
    "equilibrium_x",
    "flow_weights",
    "plain_flow",
    "simulate_flow",
    "theorem5_report",
]

# The most full RK4 steps a penalized flow coordinate may take before its
# fixed point; a flow that needs more is refused.  This suite's choice, by
# measurement at p 0.9 and dt 1e-2: the fixed point comes at 8,797 points
# for gamma 0.58 (the paper point), 176,536 for 1e-2, 1,086,426 for 1e-3
# (1.3 s) and 1,924,047 for 5e-4 (2.5 s).  The cap admits those and ends
# gamma 1e-300, which would take 3.4e8 steps, in a few seconds.
MAX_HELD_STEPS = 2 ** 21


@dataclass
class FlowTrajectory:
    """The penalized flow on the grid t_i = i dt for i < n_steps,
    t_{n_steps} = t_end, held as its rotated coordinates ``x`` and ``y``
    as :func:`_rk4_coordinate` returns them, with their fixed points
    ``jx`` and ``jy``: grid point i of a coordinate with fixed point j is
    its element ``min(i, j) + max(i - n_full, 0)``."""
    p: float
    dt: float
    t_end: float
    n_steps: int
    n_full: int
    x: np.ndarray
    jx: int
    y: np.ndarray
    jy: int

    @property
    def index(self):
        """Grid indices of the held points: every point up to the later
        fixed point, the fill's last point and the shortened step(s)."""
        m = max(self.jx, self.jy)
        return np.concatenate([np.arange(m + 1),
                               np.arange(max(m + 1, self.n_full), self.n_steps + 1)])

    @property
    def times(self):
        """Times of the held points, not of the grid: their count less one
        is not the number of grid steps once a coordinate settles."""
        return self.grid_times(self.index)

    def grid_times(self, idx):
        """Times of the grid indices ``idx``."""
        times = idx.astype(float)
        times *= self.dt
        if self.n_steps:
            times[idx == self.n_steps] = self.t_end
        return times

    def at(self, idx):
        """Times, (w_inv, w_spu) and the weight ratio (see
        :func:`flow_weights`) at the grid indices ``idx``."""
        tail = np.maximum(idx - self.n_full, 0)
        x = self.x[np.minimum(idx, self.jx) + tail]
        y = self.y[np.minimum(idx, self.jy) + tail]
        del tail  # freed before the weights are built, to lower the peak
        return (self.grid_times(idx), *flow_weights(self.p, x, y))


def plain_flow(p, times):
    """The plain flow's rotated coordinates (x, y) at ``times``."""
    return np.log1p(times * (2.0 * p)), np.log1p(times * (2.0 * (1.0 - p)))


def flow_weights(p, x, y):
    """(w_inv, w_spu) and the weight ratio |w_spu / w_inv| from the rotated
    coordinates.  The origin's ratio is the one-sided limit 2p - 1 implied
    by the initial slopes.  ``x`` and ``y`` are consumed: w_spu is written
    into ``x`` and the ratio into ``y``."""
    w_inv = x + y
    w_inv *= 0.5
    np.subtract(x, y, out=x)
    x *= 0.5
    y.fill(2.0 * p - 1.0)
    np.divide(x, w_inv, out=y, where=w_inv != 0)
    return w_inv, x, np.abs(y, out=y)


def equilibrium_x(gamma):
    """Stationary value of both rotated coordinates for the penalized flow."""
    if not gamma > 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    return float(lambert_w0(1.0 / (2.0 * gamma)))


def _rk4_coordinate(p, c, gamma, dt, t_end, n_full, n_steps):
    """Classical RK4 for du/dt = c (e^{-u} - 2 gamma u) from u(0) = 0: the
    rotated coordinate of rate c, 2p or 2(1 - p), of the flow at ``p``.

    Step i starts at t = i dt; the first ``n_full`` steps have length dt and
    the rest are shortened to land on t_end.  A full step that leaves u
    unchanged is a fixed point of the step map, which depends on (u, h)
    alone, so u stays there through step n_full.  Returns ``(u, j)``: u at
    grid points 0..j, where j is that fixed point (or n_full if there is
    none), followed by u at grid points n_full+1..n_steps.  A fill that
    would hold more than MAX_HELD_STEPS points (a small gamma, or p near 1)
    is a ParameterError.
    """
    g2 = 2.0 * gamma

    def step(u, h):
        half = 0.5 * h
        k1 = c * (exp(-u) - g2 * u)
        v = u + half * k1
        k2 = c * (exp(-v) - g2 * v)
        v = u + half * k2
        k3 = c * (exp(-v) - g2 * v)
        v = u + h * k3
        k4 = c * (exp(-v) - g2 * v)
        return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    held = array("d", [0.0])
    u = 0.0
    for _ in range(min(n_full, MAX_HELD_STEPS)):
        nxt = step(u, dt)
        held.append(nxt)
        if nxt == u:
            break
        u = nxt
    else:
        if n_full > MAX_HELD_STEPS:
            raise ParameterError(
                f"p = {p}, gamma = {gamma:g} with dt = {dt:g} does not settle "
                f"within {MAX_HELD_STEPS:,} RK4 steps, the most a flow may "
                f"hold: the coordinate of rate {c:g} is still moving")
    j = len(held) - 1
    for i in range(n_full, n_steps):
        held.append(step(held[-1], t_end - i * dt))
    return np.array(held), j


def simulate_flow(p, gamma, t_end, dt):
    """Solve the penalized flow from the origin on the grid 0, dt, 2 dt,
    ..., t_end (the last step shortened to land on t_end)."""
    if not 0.5 <= p < 1.0:
        raise ParameterError(f"p must lie in [1/2, 1), got {p}")
    if not gamma > 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    if not t_end > 0:
        raise ParameterError(f"t_end must be > 0, got {t_end}")
    if not 0 < dt < np.inf:
        raise ParameterError(f"dt must be finite and > 0, got {dt}")
    if not t_end / dt < 2.0 ** 53:
        raise ParameterError(f"t_end / dt must be < 2**53 for the grid times "
                             f"to be exact, got {t_end / dt:g}")
    n_full, rem = divmod(t_end, dt)
    n_steps = int(n_full) + (1 if rem > 1e-12 * dt else 0)
    # Steps that start after t_end - dt are shortened; they form a suffix.
    n_full = n_steps
    while n_full > 0 and dt > t_end - (n_full - 1) * dt:
        n_full -= 1
    try:
        x, jx = _rk4_coordinate(p, 2.0 * p, gamma, dt, t_end, n_full, n_steps)
        y, jy = _rk4_coordinate(p, 2.0 * (1.0 - p), gamma, dt, t_end, n_full, n_steps)
    except OverflowError as exc:
        raise DivergenceError(f"flow integration overflowed: {exc}") from exc
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DivergenceError("flow integration diverged")
    return FlowTrajectory(p, dt, t_end, n_steps, n_full, x, jx, y, jy)


def _crossing_time(traj, eps):
    """First time the ratio falls below eps and stays below; None if it
    never settles.  The ratio is constant between two held points."""
    index = traj.index
    above = np.flatnonzero(traj.at(index)[3] >= eps)
    if not above.size:
        return 0.0
    if above[-1] == index.size - 1:
        return None
    return float(traj.grid_times(index[above[-1:]] + 1)[0])


def theorem5_report(p, gamma, eps, dt=1e-2):
    """Verify the learning-speed separation between the plain and
    bottleneck-penalized flows.

    Solves the penalized flow up to T_ib = W0(1/(2 gamma)) / (2 (1-p) eps)
    and checks (a) its weight ratio crosses eps no later than T_ib and (b)
    the plain flow's ratio at T_ib still exceeds
    ln((1+2p)/(3-2p)) / ln(1 + T_ib).

    The penalized ratio has a float floor: RK4's float fixed points of x
    and y differ in their last bits, so the ratio settles at 1.358e-14 at
    the paper point (p 0.9, gamma 0.58, dt 1e-2), not at 0, and (a) cannot
    hold for an eps below it.  There such an eps puts T_ib past the 2**53
    grid steps that :func:`simulate_flow` takes, so it is refused first.
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

    ib = simulate_flow(p, gamma, t_ib, dt)
    crossing = _crossing_time(ib, eps)
    times, _, _, ib_ratio = ib.at(np.array([ib.n_steps]))
    ib_ratio_at_tib = float(ib_ratio[0])
    erm_ratio_at_tib = float(flow_weights(p, *plain_flow(p, times))[2][0])
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
    }
