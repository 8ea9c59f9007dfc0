import math
import tracemalloc

import numpy as np
import pytest

from oodbench.dynamics import (FlowSpec, equilibrium_x, simulate_flow,
                               theorem5_report)
from oodbench.numeric_core import (DivergenceError, ParameterError, RngStream,
                                   lambert_w0)
from oodbench.objectives import (EnvStack, LinearModel, ObjectiveConfig,
                                 objective_and_gradient)
from oodbench.sem_generators import EnvDataset, EnvParams, gen_2d
from oracle import (batched_objective, flow_rhs, rk4_integrate,
                    simulate_flow_full_loop)


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
        spec = FlowSpec(kind="ib_erm", p=0.9, gamma=gamma)
        x_star = equilibrium_x(gamma)
        rhs = flow_rhs(spec)(0.0, np.array([x_star, x_star]))
        assert np.max(np.abs(rhs)) <= 1e-10


class TestFlowRhs:
    def test_erm_at_origin(self):
        p = 0.8
        rhs = flow_rhs(FlowSpec(kind="erm", p=p))(0.0, np.zeros(2))
        assert np.allclose(rhs, [2 * p, 2 * (1 - p)])

    def test_matches_sampled_objective_gradient(self):
        # rotated flow rhs equals minus the rotated gradient of the sampled
        # bottleneck objective on signed 2D data, up to Monte Carlo error
        p, gamma = 0.85, 0.5
        env = gen_2d(EnvParams(env_id=0, p=p), 400_000, RngStream(31))
        signed = EnvDataset(env_id=0, X=2.0 * env.X - 1.0, Y=env.Y,
                            task="classification")
        w_inv, w_spu = 0.4, 0.15
        model = LinearModel(w=np.array([w_inv, w_spu]), b=0.0)
        cfg = ObjectiveConfig(loss="exponential", lam=0.0, gamma=gamma)
        _, grad = batched_objective(model, [signed], cfg)
        x, y = w_inv + w_spu, w_inv - w_spu
        rhs = flow_rhs(FlowSpec(kind="ib_erm", p=p, gamma=gamma))(0.0, np.array([x, y]))
        rotated = np.array([-(grad[0] + grad[1]), -(grad[0] - grad[1])])
        assert np.max(np.abs(rhs - rotated)) < 0.02


class TestEngineGradientFlow:
    """Plain GD on the training engine's objective, on the exact 2D
    population, is Euler's method for the Theorem-5 flow: the flow is the
    gradient flow of the model the sweep trains."""

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
        return EnvStack(np.column_stack([signs, x_spu])[None, None],
                        ((signs + 1.0) / 2.0)[None, None], "classification")

    def _gap(self, gamma, dt, t_end=5.0):
        p = 0.9
        stack = self._population(p)
        cfg = ObjectiveConfig("exponential", 0.0, gamma)
        spec = FlowSpec(kind="ib_erm" if gamma else "erm", p=p, gamma=gamma)
        traj = simulate_flow(spec, t_end, dt)
        _, w_inv, w_spu, _ = traj.at(np.arange(traj.n_steps + 1))
        theta = np.zeros((1, 3))
        gap = 0.0
        for i in range(traj.n_steps + 1):
            gap = max(gap, abs(theta[0, 0] - w_inv[i]), abs(theta[0, 1] - w_spu[i]))
            _, grad = objective_and_gradient(theta, stack, cfg)
            theta = theta - dt * grad
        assert abs(theta[0, 2]) <= 1e-15  # the classes mirror: b stays 0
        return gap

    @pytest.mark.parametrize("gamma", [0.0, 0.58])
    def test_gd_follows_the_flow_to_first_order(self, gamma):
        coarse, fine = self._gap(gamma, 1e-3), self._gap(gamma, 5e-4)
        assert coarse <= self.GAP_PER_DT * 1e-3
        assert fine <= self.GAP_PER_DT * 5e-4
        assert 1.9 <= coarse / fine <= 2.1


class TestSimulateFlow:
    def test_monotone_increase_to_equilibrium(self):
        spec = FlowSpec(kind="ib_erm", p=0.9, gamma=0.58)
        _, w_inv, w_spu = _dense(simulate_flow(spec, 60.0, dt=1e-2))
        x = w_inv + w_spu
        y = w_inv - w_spu
        assert np.all(np.diff(x) >= -1e-12)
        assert np.all(np.diff(y) >= -1e-12)
        x_star = equilibrium_x(0.58)
        assert abs(x[-1] - x_star) <= 1e-6
        assert abs(y[-1] - x_star) <= 1e-6

    def test_boundary_bias_symmetric(self):
        spec = FlowSpec(kind="ib_erm", p=0.5, gamma=0.3)
        _, _, w_spu = _dense(simulate_flow(spec, 5.0, dt=1e-2))
        assert np.max(np.abs(w_spu)) < 1e-12

    def test_lyapunov_decrease(self):
        spec = FlowSpec(kind="ib_erm", p=0.9, gamma=0.58)
        _, w_inv, w_spu = _dense(simulate_flow(spec, 30.0, dt=1e-2))
        x_star = equilibrium_x(0.58)
        v = (w_inv + w_spu - x_star) ** 2
        assert np.all(np.diff(v) <= 1e-14)

    @pytest.mark.parametrize("kind,gamma", [("erm", 0.0), ("ib_erm", 0.58)])
    def test_fast_path_matches_generic_integrator(self, kind, gamma):
        spec = FlowSpec(kind=kind, p=0.9, gamma=gamma)
        times, w_inv, w_spu = _dense(simulate_flow(spec, 7.3, dt=1e-2))
        ref = rk4_integrate(flow_rhs(spec), np.zeros(2), 0.0, 7.3, 1e-2)
        assert np.array_equal(times, ref.times)
        if kind == "erm":
            # the plain flow is solved in closed form on the grid; RK4's own
            # truncation error here is 5.4e-11
            x = np.log1p(2 * spec.p * times)
            y = np.log1p(2 * (1 - spec.p) * times)
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
        spec = FlowSpec(kind="ib_erm", p=p, gamma=gamma)
        traj = simulate_flow(spec, t_end, dt)
        ref = simulate_flow_full_loop(spec, t_end, dt)
        times, w_inv, w_spu, ratio = traj.at(np.arange(traj.n_steps + 1))
        assert np.array_equal(times, ref.times)
        assert np.array_equal(w_inv, ref.w_inv)
        assert np.array_equal(w_spu, ref.w_spu)
        assert np.array_equal(ratio, ref.ratio(p))
        # the held points are the grid's own values at their indices
        assert np.array_equal(traj.times, ref.times[traj.index])
        assert np.array_equal(traj.w_inv, ref.w_inv[traj.index])
        assert np.array_equal(traj.w_spu, ref.w_spu[traj.index])

    def test_holds_prefix_fill_end_and_tail_only(self):
        # paper point at eps 1e-4: y reaches its fixed point at step 8794,
        # and the 2,575,287-step grid ends in one shortened step
        spec = FlowSpec(kind="ib_erm", p=0.9, gamma=0.58)
        t_end = equilibrium_x(0.58) / (2 * 0.1 * 1e-4)
        traj = simulate_flow(spec, t_end, 1e-2)
        assert traj.n_steps == 2_575_287
        assert np.array_equal(traj.index, np.r_[0:8795, traj.n_steps - 1, traj.n_steps])
        assert traj.times[-1] == t_end
        erm = simulate_flow(FlowSpec(kind="erm", p=0.9), t_end, 1e-2)
        assert erm.n_steps == traj.n_steps
        assert np.array_equal(erm.index, [0])

    @pytest.mark.parametrize("idx", [[5], [3, 0, 7], [10, 10], []])
    def test_at_any_indices(self, idx):
        # sampled points need not be sorted or distinct
        spec = FlowSpec(kind="ib_erm", p=0.9, gamma=0.58)
        traj = simulate_flow(spec, 0.1, 1e-2)
        ref = simulate_flow_full_loop(spec, 0.1, 1e-2)
        idx = np.array(idx, dtype=np.int64)
        times, w_inv, _, ratio = traj.at(idx)
        assert np.array_equal(times, ref.times[idx])
        assert np.array_equal(w_inv, ref.w_inv[idx])
        assert np.array_equal(ratio, ref.ratio(0.9)[idx])

    def test_unstable_step_diverges_like_full_loop(self):
        spec = FlowSpec(kind="ib_erm", p=0.9, gamma=5.0)
        t_end = equilibrium_x(5.0) / (2 * 0.1 * 0.05)
        with pytest.raises(DivergenceError):
            simulate_flow_full_loop(spec, t_end, 1.0)
        with pytest.raises(DivergenceError):
            simulate_flow(spec, t_end, 1.0)

    @pytest.mark.parametrize("t_end", [1e20, math.inf])
    def test_grid_beyond_exact_float_times_rejected(self, t_end):
        with pytest.raises(ParameterError):
            simulate_flow(FlowSpec(kind="ib_erm", p=0.9, gamma=0.58), t_end, 1e-2)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ParameterError):
            simulate_flow(FlowSpec(kind="ib_erm", p=0.9, gamma=0.58), 5.0, dt)

    def test_erm_matches_analytic_solution(self):
        # plain flow solves dx/dt = 2 p e^{-x}: x(t) = ln(1 + 2 p t)
        p = 0.75
        times, w_inv, w_spu = _dense(simulate_flow(FlowSpec(kind="erm", p=p), 20.0, dt=1e-3))
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
        ref = simulate_flow_full_loop(FlowSpec(kind="ib_erm", p=p, gamma=gamma),
                                      rep["t_ib"], dt)
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
