import math
import os
import pickle
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.special

import oodbench
from oodbench.entropy_lab import LabeledMixture, PmfBatch
from oodbench.numeric_core import (ParameterError, RngStream, _child_keys,
                                   _key_bytes, _path_key, _philox_random,
                                   batch_random, lambert_w0, random_orthogonal,
                                   to_interval)
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
        assert np.array_equal(rng.uniform(shape=(5,)), ref.random(5))
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
        child.uniform(shape=(4,))
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
        u = RngStream(11).uniform(shape=(100_000,))
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
        draws = RngStream(17).categorical(probs, shape=(100_000,))
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, probs, atol=0.01)

    @pytest.mark.parametrize("probs", [[1.0 / 7] * 7, [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
                             ids=["uniform", "zero-between", "point"])
    def test_scalar_draw_is_the_first_of_a_shaped_draw(self, probs):
        # a scalar draw is a numpy integer, the index of the first running
        # sum above the uniform: an atom of probability 0 is never drawn
        cum = list(np.cumsum(probs))
        for i in range(200):
            got = RngStream(19).fork(f"s{i}").categorical(probs)
            u = RngStream(19).fork(f"s{i}").uniform()
            assert isinstance(got, np.integer)
            assert got == RngStream(19).fork(f"s{i}").categorical(probs, shape=(1,))[0]
            assert got == sum(c <= u for c in cum) and probs[got] > 0


NAN, INF = float("nan"), float("inf")


def _one_pmf(support, probs):
    """A one-row PmfBatch of the atoms ``support`` with ``probs``."""
    return PmfBatch(np.array([support], dtype=float), np.array([probs], dtype=float),
                    [len(support)])


def _mixture(*weights):
    """A one-mixture LabeledMixture of the weights, each on the pmf POINT."""
    comps = np.tile(TestNonFiniteInputsRejected.POINT.support, (len(weights), 1))
    return LabeledMixture(np.array([weights]),
                          PmfBatch(comps, np.tile([0.5, 0.5], (len(weights), 1)),
                                   [2] * len(weights)))


def _stream(root, path):
    rng = RngStream(root)
    for label in path:
        rng = rng.fork(label)
    return rng


def _reference(root, path):
    """The generator a stream's draws are defined by: Philox keyed by the
    path key, with numpy's own OS-entropy seed sequence built and unused."""
    return np.random.Generator(np.random.Philox(key=_path_key(root, path)))


def _reference_gaussian(ref, n, std):
    u = ref.random((n, 2))
    return std * (np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1]))


class TestStreamBuild:
    # 240 label paths of one to three labels; their keys are spread over
    # all 128 bits, the top one included (the check below counts them).
    PATHS = [("entropy", f"trial{i}", "p")[: 1 + i % 3] + (f"label{i}",)
             for i in range(240)]

    def test_paths_cover_both_halves_of_the_key_space(self):
        top = [_path_key(i, path) >> 127 for i, path in enumerate(self.PATHS)]
        assert len(set(self.PATHS)) == 240
        assert 60 <= sum(top) <= 180

    @pytest.mark.parametrize("half", [0, 1])
    def test_every_draw_kind_matches_philox_on_the_path_key(self, half):
        probs = [0.2, 0.5, 0.3]
        cum = np.cumsum(probs)
        for root, path in enumerate(self.PATHS):
            if _path_key(root, path) >> 127 != half:
                continue
            rng, ref = _stream(root, path), _reference(root, path)
            assert np.array_equal(rng.uniform(-5.0, 5.0, shape=(4,)),
                                  -5.0 + 10.0 * ref.random(4))
            assert rng.uniform() == ref.random()
            assert rng.categorical(probs) == cum.searchsorted(ref.random(), side="right")
            assert np.array_equal(rng.categorical(probs, shape=(6,)),
                                  cum.searchsorted(ref.random(6), side="right"))
            assert np.array_equal(rng.gaussian_array((3, 2), std=0.5),
                                  _reference_gaussian(ref, 6, 0.5).reshape(3, 2))
            assert np.array_equal(rng.bernoulli_array((7,), 0.3),
                                  (ref.random(7) < 0.3).astype(np.int64))
            assert np.array_equal(rng.permutation(9), ref.permutation(9))
            assert rng._gen.bit_generator.state["state"]["key"].tolist() == \
                ref.bit_generator.state["state"]["key"].tolist()

    def test_drawn_stream_survives_pickling(self):
        # as a worker process receives it: built, part-drawn, then pickled
        rng = _stream(7, ("method/IBIRM", "seed3"))
        rng.uniform(shape=(5,))
        blob = pickle.dumps(rng)
        want = rng.uniform(shape=(8,))
        assert np.array_equal(pickle.loads(blob).uniform(shape=(8,)), want)
        src = os.path.dirname(os.path.dirname(oodbench.__file__))
        fresh = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys\n"
             "rng = pickle.loads(sys.stdin.buffer.read())\n"
             "print(repr(rng.uniform(shape=(8,)).tolist()))"],
            input=blob, capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert fresh.stdout.decode().strip() == repr(want.tolist())

    def test_interleaved_streams_stay_independent(self):
        a, b = _stream(3, ("a",)), _stream(3, ("b",))
        mixed_a, mixed_b = [], []
        for i in range(20):
            mixed_a.append(a.uniform(shape=(i % 3 + 1,)))
            mixed_b.append(b.gaussian_array((i % 2 + 1,)))
        alone_a, alone_b = _stream(3, ("a",)), _stream(3, ("b",))
        for i in range(20):
            assert np.array_equal(alone_a.uniform(shape=(i % 3 + 1,)), mixed_a[i])
        for i in range(20):
            assert np.array_equal(alone_b.gaussian_array((i % 2 + 1,)), mixed_b[i])


def _words(keys):
    """The (S, 2) uint64 array of 128-bit keys, low word first."""
    return np.array([[k & (2 ** 64 - 1), k >> 64] for k in keys], dtype=np.uint64)


class TestBatchRandom:
    EDGE_KEYS = [0, 2 ** 128 - 1, 1 << 63, 1 << 127, (1 << 127) | (1 << 63),
                 2 ** 64 - 1, 2 ** 64]
    RANDOM_KEYS = [random.Random(2011).getrandbits(128) for _ in range(40)]

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 17, 20])
    @pytest.mark.parametrize("keys", ["edge", "random"])
    def test_matches_philox_on_its_key(self, n, keys):
        keys = self.EDGE_KEYS if keys == "edge" else self.RANDOM_KEYS
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no uint64 overflow warning
            got = _philox_random(_words(keys), n)
        want = [np.random.Generator(np.random.Philox(key=k)).random(n) for k in keys]
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

    def test_edge_keys_cover_the_top_bit_of_each_word(self):
        top = _words(self.EDGE_KEYS) >> np.uint64(63)
        assert {tuple(t) for t in top.tolist()} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_streams_draw_as_their_generators(self):
        # each path's last label, drawn from its parent at depth 0 to 2
        paths = list(enumerate(TestStreamBuild.PATHS))
        got = [batch_random(_stream(root, path[:-1]), [path[-1]], 9)[0]
               for root, path in paths]
        for (root, path), row in zip(paths, got):
            assert np.array_equal(row, _stream(root, path).uniform(shape=(9,)))
        # many children of one parent at once, "/"-joined labels included;
        # the parent's own draws change none of them
        parent = _stream(4, ("entropy", "sum_gap"))
        labels = [f"trial{i}/{c}" for i in range(50) for c in "pq"] + ["x"]
        parent.uniform(shape=(3,))
        rows = batch_random(parent, labels, 9)
        for label, row in zip(labels, rows):
            want = _reference(4, ("entropy", "sum_gap", *label.split("/"))).random(9)
            assert np.array_equal(row, want)

    def test_matches_the_scalar_categorical_and_uniform_draws(self):
        probs = [1.0 / 7] * 7
        cum = list(np.cumsum(probs))
        root = RngStream(9).fork("entropy")
        u = batch_random(root, [f"trial{i}/p" for i in range(300)], 1 + 8 + 8)
        fresh = [root.fork(f"trial{i}").fork("p") for i in range(300)]
        for rng, row in zip(fresh, u):
            assert rng.categorical(probs) == np.searchsorted(cum, row[0], side="right")
            assert np.array_equal(rng.uniform(-5.0, 5.0, shape=(8,)), -5.0 + 10.0 * row[1:9])
            assert np.array_equal(rng.uniform(0.05, 1.0, shape=(8,)),
                                  to_interval(row[9:], 0.05, 1.0))
        fresh = [root.fork(f"trial{i}").fork("p") for i in range(300)]
        assert [rng.uniform() for rng in fresh] == u[:, 0].tolist()

    def test_builds_no_generator(self, monkeypatch):
        built = []
        monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(a))
        monkeypatch.setattr(RngStream, "fork", lambda *a: built.append(a))
        parent = RngStream(1)
        batch_random(parent, [f"s{i}" for i in range(5)], 4)
        assert built == [] and "_gen" not in vars(parent)

    @pytest.mark.parametrize("count,n", [(0, 5), (3, 0), (0, 0)])
    def test_empty_shapes(self, count, n):
        labels = [f"s{i}" for i in range(count)]
        assert batch_random(RngStream(2), labels, n).shape == (count, n)


class TestChildKeys:
    """A child's key from the parent's hashed prefix is the key of its
    whole path, which is what a stream built by fork draws from."""

    @pytest.mark.parametrize("root", [0, -3, 2 ** 70])
    @pytest.mark.parametrize("lineage", [(), ("entropy", "sum_gap", "trial7")])
    @pytest.mark.parametrize("label", ["p", "trial999/pmf3", "é"])
    def test_prefix_key_is_the_path_key(self, root, lineage, label):
        parent = RngStream(root, lineage)
        assert _child_keys(parent, [label]).tobytes() == \
            _key_bytes(root, lineage + (label,))
        assert _child_keys(parent, [label, "q", label]).tobytes() == b"".join(
            _key_bytes(root, lineage + (lab,)) for lab in (label, "q", label))

    @pytest.mark.parametrize("root", [0, -3, 2 ** 70])
    def test_a_slashed_label_forks_twice(self, root):
        parent = RngStream(root).fork("entropy")
        one, two = parent.fork("a/b"), parent.fork("a").fork("b")
        assert _path_key(root, one.lineage) == _path_key(root, two.lineage)
        assert np.array_equal(one.uniform(shape=(6,)), two.uniform(shape=(6,)))


class TestNonFiniteInputsRejected:
    POINT = _one_pmf([0.0, 1.0], [0.5, 0.5])

    @pytest.mark.parametrize("build", [
        lambda: _one_pmf([0.0, NAN], [0.5, 0.5]),
        lambda: _one_pmf([NAN, 0.0], [0.5, 0.5]),
        lambda: _one_pmf([0.0, 1.0], [NAN, 1.0]),
        lambda: _one_pmf([0.0, 1.0], [1.0, NAN]),
        lambda: _one_pmf([INF, INF], [0.5, 0.5]),
        lambda: _one_pmf([-INF, 0.0], [0.5, 0.5]),
        lambda: _one_pmf([INF], [1.0]),
        lambda: _one_pmf([0.0, 1.0], [INF, 1.0]),
        lambda: RngStream(0).categorical([NAN, 1.0]),
        lambda: RngStream(0).categorical([1.0, NAN]),
        lambda: RngStream(0).categorical([INF, 1.0], shape=(3,)),
        lambda: _mixture(NAN),
        lambda: _mixture(0.5, INF),
        lambda: RngStream(0).gaussian_array((3,), std=NAN),
        lambda: RngStream(0).gaussian_array((3,), std=INF),
        lambda: RngStream(0).gaussian_array((2,), std=np.array([1.0, NAN])),
        lambda: RngStream(0).bernoulli_array((3,), NAN),
        lambda: RngStream(0).uniform(0.0, INF),
        lambda: RngStream(0).uniform(NAN, 1.0),
        lambda: RngStream(0).uniform(-1e308, 1e308),
    ], ids=["pmf-support-nan", "pmf-support-nan-first", "pmf-probs-nan",
            "pmf-probs-nan-last", "pmf-support-inf", "pmf-support-minus-inf",
            "pmf-support-single-inf", "pmf-probs-inf", "categorical-nan",
            "categorical-nan-last", "categorical-inf", "mixture-weight-nan",
            "mixture-weight-inf", "gaussian-std-nan", "gaussian-std-inf",
            "gaussian-std-array-nan", "bernoulli-p-nan", "uniform-inf",
            "uniform-nan", "uniform-width-overflows"])
    def test_rejected(self, build):
        with pytest.raises(ParameterError):
            build()

    def test_finite_boundaries_still_accepted(self):
        _one_pmf([-5.0, 5.0], [0.0, 1.0])
        assert RngStream(0).categorical([0.0, 1.0]) == 1
        assert np.all(RngStream(0).gaussian_array((3,), std=0.0) == 0.0)
        assert np.all(RngStream(0).bernoulli_array((3,), 1.0) == 1)


class TestPmf:
    def test_valid(self):
        _one_pmf([0.0, 1.0], [0.5, 0.5])

    def test_rejects_decreasing_support(self):
        with pytest.raises(ParameterError):
            _one_pmf([1.0, 0.0], [0.5, 0.5])

    def test_rejects_repeated_atom(self):
        with pytest.raises(ParameterError):
            _one_pmf([0.0, 0.0, 1.0], [0.25, 0.25, 0.5])

    def test_rejects_bad_probs(self):
        with pytest.raises(ParameterError):
            _one_pmf([0.0, 1.0], [0.6, 0.5])


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
