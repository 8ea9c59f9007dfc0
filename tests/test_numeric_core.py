import math

import numpy as np
import pytest
import scipy.special

from oodbench.numeric_core import (ParameterError, Pmf, RngStream, _path_key,
                                   lambert_w0, random_orthogonal)
from oracle import OracleDivergence, rk4_integrate


class TestRngStream:
    def test_fork_same_label_identical_sequences(self):
        a = RngStream(7).fork("a")
        b = RngStream(7).fork("a")
        assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]

    def test_fork_different_labels_differ(self):
        a = RngStream(7).fork("a")
        b = RngStream(7).fork("b")
        xs = [a.uniform() for _ in range(100)]
        ys = [b.uniform() for _ in range(100)]
        assert xs != ys

    def test_fork_does_not_advance_parent(self):
        parent = RngStream(3)
        ref = RngStream(3)
        parent.fork("child")
        assert [parent.uniform() for _ in range(10)] == [ref.uniform() for _ in range(10)]

    def test_fork_empty_label_rejected(self):
        with pytest.raises(ParameterError):
            RngStream(0).fork("")

    def test_schedule_independence(self):
        # draws from a child do not depend on sibling activity
        r1 = RngStream(5)
        c1 = r1.fork("x")
        r2 = RngStream(5)
        noisy = r2.fork("y")
        [noisy.uniform() for _ in range(50)]
        c2 = r2.fork("x")
        assert c1.uniform() == c2.uniform()

    @pytest.mark.parametrize("path", [(), ("a",), ("method/ERM", "seed3"),
                                      ("entropy", "cond_gap", "trial7", "pmf2")])
    def test_draws_match_philox_on_path_key(self, path):
        rng = RngStream(42)
        for label in path:
            rng = rng.fork(label)
        ref = np.random.Generator(np.random.Philox(key=_path_key(42, path)))
        assert np.array_equal(rng.uniform_array((5,)), ref.random(5))
        assert rng.uniform() == ref.random()
        assert np.array_equal(rng.permutation(10), ref.permutation(10))

    def test_generator_built_on_first_draw_only(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        child = RngStream(3).fork("a").fork("b")
        assert built == []
        child.uniform()
        child.uniform_array((4,))
        assert len(built) == 1
        child.fork("c")
        assert len(built) == 1

    def test_gaussian_zero_std_exact(self):
        assert np.all(RngStream(1).gaussian_array((50,), std=0.0) == 0.0)

    def test_gaussian_negative_std_rejected(self):
        with pytest.raises(ParameterError):
            RngStream(1).gaussian_array((5,), std=-1.0)

    def test_bernoulli_degenerate(self):
        r = RngStream(2)
        assert np.all(r.bernoulli_array((50,), 1.0) == 1)
        assert np.all(r.bernoulli_array((50,), 0.0) == 0)

    def test_bernoulli_domain(self):
        with pytest.raises(ParameterError):
            RngStream(1).bernoulli_array((5,), 1.5)

    def test_uniform_mean(self):
        u = RngStream(11).uniform_array((100_000,))
        assert abs(u.mean() - 0.5) < 0.01

    def test_uniform_bad_bounds(self):
        with pytest.raises(ParameterError):
            RngStream(1).uniform(2.0, 1.0)

    def test_gaussian_array_moments(self):
        z = RngStream(13).gaussian_array((200_000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_categorical_distribution(self):
        probs = [0.2, 0.5, 0.3]
        draws = RngStream(17).categorical_array((100_000,), probs)
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, probs, atol=0.01)


class TestPmf:
    def test_valid(self):
        Pmf([0.0, 1.0], [0.5, 0.5])

    def test_rejects_decreasing_support(self):
        with pytest.raises(ParameterError):
            Pmf([1.0, 0.0], [0.5, 0.5])

    def test_rejects_repeated_atom(self):
        with pytest.raises(ParameterError):
            Pmf([0.0, 0.0, 1.0], [0.25, 0.25, 0.5])

    def test_rejects_bad_probs(self):
        with pytest.raises(ParameterError):
            Pmf([0.0, 1.0], [0.6, 0.5])


class TestRandomOrthogonal:
    def test_dim_one_is_sign(self):
        s = random_orthogonal(RngStream(1), 1)
        assert s.shape == (1, 1)
        assert abs(abs(s[0, 0]) - 1.0) < 1e-12

    def test_orthogonality(self):
        s = random_orthogonal(RngStream(2), 6)
        assert np.max(np.abs(s.T @ s - np.eye(6))) <= 1e-10

    def test_zero_dim_rejected(self):
        with pytest.raises(ParameterError):
            random_orthogonal(RngStream(1), 0)

    def test_norm_preservation(self):
        rng = RngStream(3)
        s = random_orthogonal(rng, 8)
        z = rng.fork("z").gaussian_array((8,))
        assert abs(np.linalg.norm(s @ z) - np.linalg.norm(z)) < 1e-9

    def test_haar_symmetry_monte_carlo(self):
        rng = RngStream(4)
        vals = [random_orthogonal(rng.fork(f"s{i}"), 4)[0, 0] for i in range(10_000)]
        assert abs(np.mean(vals)) < 0.02


class TestLambertW0:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert abs(float(lambert_w0(math.e)) - 1.0) <= 1e-14

    def test_omega_constant(self):
        # independent oracle: fixed-point iteration w <- (w^2 e^w + x) / (e^w (w + 1))
        x, w = 1.0, 0.5
        for _ in range(200):
            ew = math.exp(w)
            w = (w * w * ew + x) / (ew * (w + 1.0))
        assert abs(float(lambert_w0(1.0)) - w) < 1e-12
        assert abs(float(lambert_w0(1.0)) - 0.5671432904097838) < 1e-14

    @pytest.mark.parametrize("x", [0.0, 1e-6, 0.5, 1.0, math.e, 10.0, 1e4])
    def test_round_trip(self, x):
        w = lambert_w0(x)
        assert abs(w * np.exp(w) - np.longdouble(x)) <= 1e-12

    def test_matches_scipy(self):
        for x in [1e-8, 0.1, 2.0, 100.0, 1e4]:
            assert abs(float(lambert_w0(x)) - scipy.special.lambertw(x).real) < 1e-10

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            lambert_w0(-0.1)


class TestRk4:
    def test_constant_rhs_zero(self):
        traj = rk4_integrate(lambda t, y: np.zeros(2), np.array([1.0, 2.0]),
                             0.0, 1.0, 0.1)
        assert np.allclose(traj.states, [1.0, 2.0])

    def test_exponential_decay(self):
        traj = rk4_integrate(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, 1e-3)
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-9

    def test_order_four_convergence(self):
        def err(dt):
            traj = rk4_integrate(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, dt)
            return abs(traj.states[-1, 0] - math.exp(-1.0))

        ratio = err(0.05) / err(0.025)
        assert 12.0 < ratio < 20.0

    def test_short_final_step_lands_on_t1(self):
        traj = rk4_integrate(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, 0.3)
        assert traj.times[-1] == 1.0
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-4

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_reports_last_state(self):
        with pytest.raises(OracleDivergence) as exc:
            rk4_integrate(lambda t, y: y * y, np.array([1.0]), 0.0, 10.0, 0.1)
        assert exc.value.step >= 1
        assert np.all(np.isfinite(exc.value.last_state))

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            rk4_integrate(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            rk4_integrate(lambda t, y: -y, np.array([1.0]), 1.0, 0.0, 0.1)
