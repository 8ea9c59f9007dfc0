import math
import tracemalloc

import numpy as np
import pytest

from oodbench import dynamics
from oodbench.dynamics import (equilibrium_x, flow_weights, plain_flow,
                               simulate_flow, theorem5_report)
from oodbench.numeric_core import (DivergenceError, ParameterError, RngStream,
                                   lambert_w0)
from oodbench.objectives import ObjectiveConfig
from oodbench.sem_generators import EnvDataset, GeneratorSpec, generate_env
from oracle import (LinearModel, flow_rhs, objective_and_gradient,
                    rk4_integrate, simulate_flow_full_loop)


def _dense(traj):
    """Times, w_inv and w_spu at every grid point of a trajectory."""
    return traj.at(np.arange(traj.n_steps + 1))[:3]


class TestEquilibrium:
    def test_large_gamma_linearizes(self):
        # W0(z) = z - z^2 + O(z^3) for small z
        g = 1e6
        z = 1.0 / (2 * g)
        assert abs(equilibrium_x(g) - z) < 2 * z * z

    def test_gamma_half_over_e(self):
        assert abs(equilibrium_x(1.0 / (2.0 * math.e)) - 1.0) < 1e-12

    def test_gamma_058(self):
        assert abs(equilibrium_x(0.58) - float(lambert_w0(1.0 / 1.16))) < 1e-15

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            equilibrium_x(0.0)

    @pytest.mark.parametrize("gamma", [0.1, 0.58, 1.0, 10.0])
    def test_rhs_vanishes_at_equilibrium(self, gamma):
        x_star = equilibrium_x(gamma)
        rhs = flow_rhs(0.9, gamma)(0.0, np.array([x_star, x_star]))
        assert np.max(np.abs(rhs)) <= 1e-10


class TestFlowRhs:
    def test_erm_at_origin(self):
        p = 0.8
        rhs = flow_rhs(p, 0.0)(0.0, np.zeros(2))
        assert np.allclose(rhs, [2 * p, 2 * (1 - p)])

    def test_matches_sampled_objective_gradient(self):
        # rotated flow rhs equals minus the rotated gradient of the sampled
        # exponential-loss bottleneck objective on signed 2D data, up to
        # Monte Carlo error
        p, gamma = 0.85, 0.5
        env = generate_env(GeneratorSpec(example="twod", n_per_env=400_000),
                           0, p, None, RngStream(31))
        signed = EnvDataset(env_id=0, X=2.0 * env.X - 1.0, Y=env.Y,
                            task="classification")
        w_inv, w_spu = 0.4, 0.15
        model = LinearModel(w=np.array([w_inv, w_spu]), b=0.0)
        cfg = ObjectiveConfig(lam=0.0, gamma=gamma)
        _, grad = objective_and_gradient(model, [signed], cfg, "exponential")
        x, y = w_inv + w_spu, w_inv - w_spu
        rhs = flow_rhs(p, gamma)(0.0, np.array([x, y]))
        rotated = np.array([-(grad[0] + grad[1]), -(grad[0] - grad[1])])
        assert np.max(np.abs(rhs - rotated)) < 0.02


class TestEngineGradientFlow:
    """Plain GD on the exponential-loss objective, on the exact 2D
    population, is Euler's method for the Theorem-5 flow: the flow is the
    gradient flow of that objective.  The sweep trains the 2D task on the
    logistic loss instead; the engine's logistic objective is tied to the
    same per-model objective within the tolerance contract by
    test_batched_engine.py."""

    # Largest gap in (w_inv, w_spu) over [0, T], per unit of dt.  Measured
    # at T = 5: 0.1732 (ERM) and 0.1711 (IB-ERM) at both step sizes; at
    # t = T alone the gaps are 1.21e-4 and 1.41e-5 at dt = 1e-3.
    GAP_PER_DT = 0.2

    @staticmethod
    def _population(p):
        """20 rows, ±1-coded: x_inv = y, and x_spu = y on all but one row
        in ten."""
        signs = np.repeat([1.0, -1.0], 10)
        x_spu = signs.copy()
        x_spu[::10] *= -1.0
        assert np.mean(x_spu == signs) == p
        return EnvDataset(env_id=0, X=np.column_stack([signs, x_spu]),
                          Y=(signs + 1.0) / 2.0, task="classification")

    def _gap(self, gamma, dt, t_end=5.0):
        p = 0.9
        env = self._population(p)
        cfg = ObjectiveConfig(0.0, gamma)
        # the plain flow (gamma 0) is taken at the penalized flow's grid times
        traj = simulate_flow(p, gamma or 0.58, t_end, dt)
        times, w_inv, w_spu, _ = traj.at(np.arange(traj.n_steps + 1))
        if not gamma:
            w_inv, w_spu, _ = flow_weights(p, *plain_flow(p, times))
        theta = np.zeros(3)
        gap = 0.0
        for i in range(times.size):
            gap = max(gap, abs(theta[0] - w_inv[i]), abs(theta[1] - w_spu[i]))
            model = LinearModel(w=theta[:-1], b=theta[-1])
            _, grad = objective_and_gradient(model, [env], cfg, "exponential")
            theta = theta - dt * grad
        assert abs(theta[2]) <= 1e-15  # the classes mirror: b stays 0
        return gap

    @pytest.mark.parametrize("gamma", [0.0, 0.58])
    def test_gd_follows_the_flow_to_first_order(self, gamma):
        coarse, fine = self._gap(gamma, 1e-3), self._gap(gamma, 5e-4)
        assert coarse <= self.GAP_PER_DT * 1e-3
        assert fine <= self.GAP_PER_DT * 5e-4
        assert 1.9 <= coarse / fine <= 2.1


class TestSimulateFlow:
    def test_monotone_increase_to_equilibrium(self):
        _, w_inv, w_spu = _dense(simulate_flow(0.9, 0.58, 60.0, dt=1e-2))
        x = w_inv + w_spu
        y = w_inv - w_spu
        assert np.all(np.diff(x) >= -1e-12)
        assert np.all(np.diff(y) >= -1e-12)
        x_star = equilibrium_x(0.58)
        assert abs(x[-1] - x_star) <= 1e-6
        assert abs(y[-1] - x_star) <= 1e-6

    def test_boundary_bias_symmetric(self):
        _, _, w_spu = _dense(simulate_flow(0.5, 0.3, 5.0, dt=1e-2))
        assert np.max(np.abs(w_spu)) < 1e-12

    def test_lyapunov_decrease(self):
        _, w_inv, w_spu = _dense(simulate_flow(0.9, 0.58, 30.0, dt=1e-2))
        x_star = equilibrium_x(0.58)
        v = (w_inv + w_spu - x_star) ** 2
        assert np.all(np.diff(v) <= 1e-14)

    @pytest.mark.parametrize("kind,gamma", [("erm", 0.0), ("ib_erm", 0.58)])
    def test_fast_path_matches_generic_integrator(self, kind, gamma):
        p = 0.9
        times, w_inv, w_spu = _dense(simulate_flow(p, 0.58, 7.3, dt=1e-2))
        ref = rk4_integrate(flow_rhs(p, gamma), np.zeros(2), 0.0, 7.3, 1e-2)
        assert np.array_equal(times, ref.times)
        if kind == "erm":
            # the plain flow is solved in closed form at the grid times;
            # RK4's own truncation error here is 5.4e-11
            w_inv, w_spu, _ = flow_weights(p, *plain_flow(p, times))
            x = np.log1p(2 * p * times)
            y = np.log1p(2 * (1 - p) * times)
            assert np.array_equal(w_inv, 0.5 * (x + y))
            assert np.array_equal(w_spu, 0.5 * (x - y))
            assert np.max(np.abs(ref.states - np.column_stack([x, y]))) < 1e-10
        else:
            # the scalar loop mirrors the generic RK4 arithmetic; only
            # last-bit exp differences are tolerated
            assert np.allclose(w_inv,
                               0.5 * (ref.states[:, 0] + ref.states[:, 1]),
                               rtol=0, atol=1e-12)
            assert np.allclose(w_spu,
                               0.5 * (ref.states[:, 0] - ref.states[:, 1]),
                               rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p,gamma,dt,t_end", [
        (0.9, 0.58, 1e-2, 300.0),    # paper point; both coordinates reach a fixed point
        (0.5, 0.3, 1e-2, 100.0),     # unbiased: x and y coincide
        (0.7, 0.1, 1e-2, 400.0),     # slow convergence, fixed point after ~10^4 steps
        (0.9, 0.58, 1e-2, 200.005),  # shortened last step after the fill
        (0.8, 1.0, 0.05, 123.456),   # shortened last step, coarse grid
        (0.9, 0.58, 0.75, 75.3),     # near the stability limit the shortened
                                     # step moves x off the full step's fixed point
        (0.9, 0.58, 1e-2, 5.0),      # horizon ends before any fixed point
    ])
    def test_fill_matches_full_loop(self, p, gamma, dt, t_end):
        traj = simulate_flow(p, gamma, t_end, dt)
        ref = simulate_flow_full_loop(p, gamma, t_end, dt)
        times, w_inv, w_spu, ratio = traj.at(np.arange(traj.n_steps + 1))
        assert np.array_equal(times, ref.times)
        assert np.array_equal(w_inv, ref.w_inv)
        assert np.array_equal(w_spu, ref.w_spu)
        assert np.array_equal(ratio, ref.ratio(p))
        # the held points are the grid's own values at their indices
        _, w_inv, w_spu, _ = traj.at(traj.index)
        assert np.array_equal(traj.times, ref.times[traj.index])
        assert np.array_equal(w_inv, ref.w_inv[traj.index])
        assert np.array_equal(w_spu, ref.w_spu[traj.index])

    def test_holds_prefix_fill_end_and_tail_only(self):
        # paper point at eps 1e-4: y reaches its fixed point at step 8794,
        # and the 2,575,287-step grid ends in one shortened step
        t_end = equilibrium_x(0.58) / (2 * 0.1 * 1e-4)
        traj = simulate_flow(0.9, 0.58, t_end, 1e-2)
        assert traj.n_steps == 2_575_287
        assert np.array_equal(traj.index, np.r_[0:8795, traj.n_steps - 1, traj.n_steps])
        assert traj.times[-1] == t_end
        # each coordinate holds its prefix and the one shortened step
        assert traj.n_full == traj.n_steps - 1
        assert traj.jy == 8794 and traj.y.size == traj.jy + 2
        assert traj.jx < traj.jy and traj.x.size == traj.jx + 2

    def test_held_steps_capped_at_the_fixed_point(self, monkeypatch):
        # the paper point at eps 1e-4 settles at full step 8794 (see above):
        # a cap of 8794 steps holds it, one step less refuses the flow
        t_end = equilibrium_x(0.58) / (2 * 0.1 * 1e-4)
        ref = simulate_flow(0.9, 0.58, t_end, 1e-2)
        monkeypatch.setattr(dynamics, "MAX_HELD_STEPS", 8794)
        traj = simulate_flow(0.9, 0.58, t_end, 1e-2)
        assert np.array_equal(traj.index, ref.index)
        assert np.array_equal(traj.x, ref.x)
        assert np.array_equal(traj.y, ref.y)
        monkeypatch.setattr(dynamics, "MAX_HELD_STEPS", 8793)
        with pytest.raises(ParameterError, match="gamma = 0.58 with dt = 0.01 does "
                           "not settle within 8,793 RK4 steps"):
            simulate_flow(0.9, 0.58, t_end, 1e-2)

    def test_short_grid_is_not_capped(self, monkeypatch):
        # t_end 5 at dt 1e-2 has 499 full steps and no fixed point: a cap
        # of exactly 499 steps holds every one of them
        monkeypatch.setattr(dynamics, "MAX_HELD_STEPS", 499)
        traj = simulate_flow(0.9, 0.58, 5.0, 1e-2)
        assert traj.index.size == traj.n_steps + 1 == 501

    @pytest.mark.parametrize("idx", [[5], [3, 0, 7], [10, 10], []])
    def test_at_any_indices(self, idx):
        # sampled points need not be sorted or distinct
        traj = simulate_flow(0.9, 0.58, 0.1, 1e-2)
        ref = simulate_flow_full_loop(0.9, 0.58, 0.1, 1e-2)
        idx = np.array(idx, dtype=np.int64)
        times, w_inv, _, ratio = traj.at(idx)
        assert np.array_equal(times, ref.times[idx])
        assert np.array_equal(w_inv, ref.w_inv[idx])
        assert np.array_equal(ratio, ref.ratio(0.9)[idx])

    def test_unstable_step_diverges_like_full_loop(self):
        t_end = equilibrium_x(5.0) / (2 * 0.1 * 0.05)
        with pytest.raises(DivergenceError):
            simulate_flow_full_loop(0.9, 5.0, t_end, 1.0)
        with pytest.raises(DivergenceError):
            simulate_flow(0.9, 5.0, t_end, 1.0)

    @pytest.mark.parametrize("t_end", [1e20, math.inf])
    def test_grid_beyond_exact_float_times_rejected(self, t_end):
        with pytest.raises(ParameterError):
            simulate_flow(0.9, 0.58, t_end, 1e-2)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ParameterError):
            simulate_flow(0.9, 0.58, 5.0, dt)

    # Each check is written so that nan fails it.
    @pytest.mark.parametrize("p,gamma,message", [
        (0.49, 0.58, "p must lie in"), (1.0, 0.58, "p must lie in"),
        (math.nan, 0.58, "p must lie in"), (0.9, 0.0, "gamma must be > 0"),
        (0.9, -1.0, "gamma must be > 0"), (0.9, math.nan, "gamma must be > 0")])
    def test_bad_p_or_gamma_rejected(self, p, gamma, message):
        with pytest.raises(ParameterError, match=message):
            simulate_flow(p, gamma, 5.0, 1e-2)

    def test_erm_matches_analytic_solution(self):
        # plain flow solves dx/dt = 2 p e^{-x}: x(t) = ln(1 + 2 p t); RK4
        # through the whole grid agrees with it
        p = 0.75
        ref = simulate_flow_full_loop(p, 0.0, 20.0, 1e-3)
        times = ref.times
        w_inv, w_spu, ratio = flow_weights(p, *plain_flow(p, times))
        assert np.max(np.abs(w_inv - ref.w_inv)) < 1e-8
        assert np.max(np.abs(w_spu - ref.w_spu)) < 1e-8
        assert np.max(np.abs(ratio - ref.ratio(p))) < 1e-8
        x = w_inv + w_spu
        y = w_inv - w_spu
        assert np.max(np.abs(x - np.log1p(2 * p * times))) < 1e-8
        assert np.max(np.abs(y - np.log1p(2 * (1 - p) * times))) < 1e-8


class TestTheorem5Report:
    def test_paper_point(self):
        rep = theorem5_report(p=0.9, gamma=0.58, eps=1e-3, dt=1e-2)
        assert rep["pass"]
        assert rep["crossing_time"] is not None
        assert rep["crossing_time"] <= rep["t_ib"]
        assert rep["erm_ratio_at_tib"] >= 0.09

    def test_erm_lower_bound_value(self):
        # direct evaluation of ln((1 + 2p)/(3 - 2p)) / ln(1 + T_ib)
        p, gamma, eps = 0.9, 0.58, 1e-3
        t_ib = equilibrium_x(gamma) / (2 * (1 - p) * eps)
        bound = math.log((1 + 2 * p) / (3 - 2 * p)) / math.log(1 + t_ib)
        rep = theorem5_report(p, gamma, eps, dt=1e-2)
        assert abs(rep["erm_lower_bound"] - bound) < 1e-12
        assert bound >= 0.09

    def test_tib_inverse_in_eps(self):
        r1 = theorem5_report(0.8, 0.5, 2e-2, dt=0.05)
        r2 = theorem5_report(0.8, 0.5, 1e-2, dt=0.05)
        assert abs(r1["t_ib"] * 2 - r2["t_ib"]) < 1e-9

    def test_verdict_stable_under_dt_halving(self):
        a = theorem5_report(0.9, 0.58, 1e-3, dt=1e-2)
        b = theorem5_report(0.9, 0.58, 1e-3, dt=5e-3)
        assert a["pass"] == b["pass"]
        assert abs(a["erm_ratio_at_tib"] - b["erm_ratio_at_tib"]) < 1e-6

    @pytest.mark.parametrize("p", [0.7, 0.8, 0.9])
    @pytest.mark.parametrize("gamma", [0.1, 0.58, 1.0])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_inequality_grid(self, p, gamma, eps):
        # dt = 0.1 is well inside the RK4 stability region for these rates
        rep = theorem5_report(p, gamma, eps, dt=0.1)
        assert rep["pass"], rep

    @pytest.mark.parametrize("p,gamma,eps,dt", [
        (0.9, 0.58, 1e-3, 1e-2),   # paper point
        (0.9, 0.58, 0.9, 1e-2),    # the ratio starts below eps
        (0.7, 0.1, 0.3, 0.05),
        (0.9, 0.58, 1e-2, 0.75),   # the shortened last step leaves the fixed point
    ])
    def test_verdict_matches_full_loop(self, p, gamma, eps, dt):
        rep = theorem5_report(p, gamma, eps, dt)
        ref = simulate_flow_full_loop(p, gamma, rep["t_ib"], dt)
        ratio = ref.ratio(p)
        above = np.nonzero(ratio >= eps)[0]
        assert ratio[-1] < eps
        crossing = float(ref.times[above[-1] + 1]) if above.size else 0.0
        assert rep["crossing_time"] == crossing
        assert rep["ib_ratio_at_tib"] == ratio[-1]

    def test_peak_memory_bounded(self):
        # the eps 1e-4 grid has 2,575,288 points per flow; holding both
        # grids peaks near 167 MB, the RK4 prefix stays under 1 MB
        tracemalloc.start()
        try:
            rep = theorem5_report(0.9, 0.58, 1e-4, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["pass"]
        assert peak < 8e6

    def test_degenerate_eps_rejected(self):
        with pytest.raises(ParameterError):
            theorem5_report(0.9, 0.58, 1.0)
