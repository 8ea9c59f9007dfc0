import re

import numpy as np
import pytest

from oodbench.numeric_core import ParameterError, RngStream
from oodbench.sem_generators import (EXAMPLES, GENERATORS, SCRAMBLED,
                                     EnvParams, GeneratorSpec,
                                     default_test_envs, draw_fixed_weights,
                                     env_params, gen_2d, gen_binary_xor,
                                     generate_env, generate_training_envs)


def rng():
    return RngStream(42)


def twod(p, n):
    """A 2D environment of selection bias ``p`` and ``n`` rows."""
    return generate_env(GeneratorSpec(example="twod", n_per_env=n),
                        EnvParams(env_id=0, p=p), None, rng())


class TestEnvParams:
    def test_ex1_fixed_schedule(self):
        spec = GeneratorSpec(example="ex1", n_envs=3)
        params = env_params(spec, rng())
        assert [p.sigma_sq for p in params] == [0.1, 1.5, 2.0]

    def test_ex2_fixed_schedule(self):
        spec = GeneratorSpec(example="ex2", n_envs=3)
        params = env_params(spec, rng())
        assert [p.p for p in params] == [0.95, 0.97, 0.99]
        assert [p.s for p in params] == [0.3, 0.5, 0.7]

    def test_ex1_extra_envs_in_range(self):
        spec = GeneratorSpec(example="ex1", n_envs=6)
        params = env_params(spec, rng())
        for p in params[3:]:
            assert 1e-2 <= p.sigma_sq <= 10.0

    def test_ex2_extra_envs_in_range(self):
        spec = GeneratorSpec(example="ex2", n_envs=6)
        params = env_params(spec, rng())
        for p in params[3:]:
            assert 0.9 <= p.p <= 1.0
            assert 0.3 <= p.s <= 0.7

    def test_twod_bias_range(self):
        spec = GeneratorSpec(example="twod", n_envs=5)
        for p in env_params(spec, rng()):
            assert 0.7 <= p.p <= 0.95

    def test_bad_example_rejected(self):
        with pytest.raises(ParameterError):
            GeneratorSpec(example="ex9")

    @pytest.mark.parametrize("example", ["ex1", "ex2", "twod"])
    @pytest.mark.parametrize("setting, message", [
        ({"xor_variant": "bogus"}, "xor_variant must be one of"),
        ({"xor_q": 1.5}, "xor probability q=1.5 outside [0, 1]"),
        ({"xor_a": -0.1}, "xor probability a=-0.1 outside [0, 1]"),
        ({"xor_q": float("nan")}, "xor probability q=nan outside [0, 1]"),
    ], ids=["variant", "q", "a", "q_nan"])
    def test_xor_settings_checked_on_every_example(self, example, setting,
                                                   message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            GeneratorSpec(example=example, **setting)


class TestExample1:
    def test_zero_variance_collapse(self):
        spec = GeneratorSpec(example="ex1", m=3, o=2, n_per_env=50)
        fw = draw_fixed_weights(spec, rng())
        fw.W_yz[:] = np.eye(3)
        fw.W_zy[:] = 0.0
        env = generate_env(spec, EnvParams(env_id=0, sigma_sq=0.0), fw, rng())
        assert np.allclose(env.Z_inv, 0.0)
        assert np.allclose(env.Y, 0.0)

    def test_mean_of_y_near_zero(self):
        spec = GeneratorSpec(example="ex1", n_per_env=10_000)
        fw = draw_fixed_weights(spec, rng())
        env = generate_env(spec, EnvParams(env_id=0, sigma_sq=1.5), fw, rng())
        # all constituent means are zero; stderr of the mean over n draws
        stderr = env.Y.std() / np.sqrt(env.n)
        assert abs(env.Y.mean()) < 3 * stderr

    def test_scramble_reconstruction(self):
        spec = GeneratorSpec(example="ex1", n_per_env=200, scramble=True)
        fw = draw_fixed_weights(spec, rng())
        env = generate_env(spec, EnvParams(env_id=0, sigma_sq=0.1), fw, rng())
        latents = env.X @ np.linalg.inv(fw.S).T
        assert np.max(np.abs(latents - np.hstack([env.Z_inv, env.Z_spu]))) < 1e-10

    def test_task_is_regression(self):
        spec = GeneratorSpec(example="ex1", n_per_env=10)
        fw = draw_fixed_weights(spec, rng())
        env = generate_env(spec, EnvParams(env_id=0, sigma_sq=0.1), fw, rng())
        assert env.task == "regression"


class TestExample2:
    def test_degenerate_categorical(self):
        spec = GeneratorSpec(example="ex2", n_per_env=500)
        fw = draw_fixed_weights(spec, rng())
        env = generate_env(spec, EnvParams(env_id=0, p=1.0, s=1.0), fw, rng())
        # all cow-on-grass: labels all 1, latent means positive
        assert np.all(env.Y == 1.0)
        assert np.all(env.Z_inv.mean(axis=0) > 0)
        assert np.all(env.Z_spu.mean(axis=0) > 0)

    def test_label_frequency_tracks_s(self):
        spec = GeneratorSpec(example="ex2", n_per_env=10_000)
        fw = draw_fixed_weights(spec, rng())
        env = generate_env(spec, EnvParams(env_id=0, p=0.95, s=0.3), fw, rng())
        assert abs(env.Y.mean() - 0.3) < 0.02

    def test_grass_given_cow_tracks_p(self):
        spec = GeneratorSpec(example="ex2", n_per_env=10_000)
        fw = draw_fixed_weights(spec, rng())
        env = generate_env(spec, EnvParams(env_id=0, p=0.95, s=0.5), fw, rng())
        cow = env.Z_inv.sum(axis=1) >= 0
        grass = env.Z_spu.sum(axis=1) >= 0
        assert abs(np.mean(grass[cow]) - 0.95) < 0.02

    def test_labels_binary(self):
        spec = GeneratorSpec(example="ex2", n_per_env=100)
        fw = draw_fixed_weights(spec, rng())
        env = generate_env(spec, EnvParams(env_id=0, p=0.95, s=0.5), fw, rng())
        assert set(np.unique(env.Y)) <= {0.0, 1.0}


class TestExample3:
    def make(self, n=10_000, seed=1):
        spec = GeneratorSpec(example="ex3", n_per_env=n)
        r = RngStream(seed)
        fw = draw_fixed_weights(spec, r)
        params = env_params(spec, r)
        return spec, fw, params, r

    def test_fair_labels(self):
        spec, fw, params, r = self.make()
        env = generate_env(spec, params[0], fw, r)
        assert abs(env.Y.mean() - 0.5) < 0.015

    def test_conditional_invariant_mean(self):
        spec, fw, params, r = self.make()
        env = generate_env(spec, params[0], fw, r)
        z0 = env.Z_inv[env.Y == 0]
        stderr = z0.std(axis=0) / np.sqrt(z0.shape[0])
        assert np.all(np.abs(z0.mean(axis=0) - 0.1) < 3 * stderr + 1e-12)

    def test_spurious_means_vary_across_envs(self):
        spec, fw, params, r = self.make(n=2000)
        e0 = generate_env(spec, params[0], fw, r)
        e1 = generate_env(spec, params[1], fw, r)
        # identical invariant construction, different spurious prototypes
        assert not np.allclose(params[0].theta_spu, params[1].theta_spu)
        m0 = e0.Z_spu[e0.Y == 0].mean(axis=0)
        m1 = e1.Z_spu[e1.Y == 0].mean(axis=0)
        assert np.max(np.abs(m0 - m1)) > 0.1


class TestTwoD:
    def test_p_one_spurious_equals_invariant(self):
        env = twod(1.0, 500)
        assert np.array_equal(env.X[:, 0], env.X[:, 1])

    def test_label_equals_invariant(self):
        env = twod(0.8, 500)
        assert np.array_equal(env.Y, env.X[:, 0])

    def test_agreement_frequency(self):
        env = twod(0.9, 100_000)
        agree = np.mean(env.X[:, 0] == env.X[:, 1])
        assert abs(agree - 0.9) < 0.005

    def test_low_bias_rejected(self):
        with pytest.raises(ParameterError):
            gen_2d(GeneratorSpec(example="twod", n_per_env=10),
                   EnvParams(env_id=0, p=0.5), None, rng())


class TestBinaryXor:
    def test_noiseless_identities(self):
        spec = GeneratorSpec(example="xor", n_per_env=500, xor_variant="both",
                             xor_q=0.0, xor_a=0.0)
        env = generate_env(spec, EnvParams(env_id=0, u=0.0), None, rng())
        x_inv, x_spu1, x_spu2 = env.X.T
        assert np.array_equal(env.Y, x_inv)
        assert np.array_equal(x_spu1, env.Y)
        assert np.array_equal(x_spu2, x_inv)

    def test_spurious_flip_frequency(self):
        spec = GeneratorSpec(example="xor", n_per_env=100_000, xor_variant="both")
        env = generate_env(spec, EnvParams(env_id=0, u=0.25), None, rng())
        assert abs(np.mean(env.X[:, 1] != env.Y) - 0.25) < 0.005

    def test_invariance_only_bayes_errors(self):
        # exact XOR-channel errors: spurious alone errs at u, invariant pair at q
        q, u = 0.2, 0.05
        spec = GeneratorSpec(example="xor", n_per_env=200_000,
                             xor_variant="invariance_only", xor_q=q)
        env = generate_env(spec, EnvParams(env_id=0, u=u), None, rng())
        x1, x2, x_spu = env.X.T
        err_spu = np.mean(x_spu != env.Y)
        err_inv = np.mean(np.bitwise_xor(x1.astype(int), x2.astype(int)) != env.Y)
        assert abs(err_spu - u) < 0.005
        assert abs(err_inv - q) < 0.005
        assert err_spu < err_inv

    def test_probability_domain(self):
        spec = GeneratorSpec(example="xor", n_per_env=10, xor_variant="both")
        with pytest.raises(ParameterError):
            gen_binary_xor(spec, EnvParams(env_id=0, u=1.5), None, rng())


class TestTestEnvShifts:
    def make_env2(self, n=10_000):
        spec = GeneratorSpec(example="ex2", n_per_env=n)
        r = RngStream(3)
        fw = draw_fixed_weights(spec, r)
        params = env_params(spec, r)[0]
        return spec, params, fw

    def test_scramble_preserves_labels_and_invariants(self):
        spec, params, fw = self.make_env2(n=1000)
        base = generate_env(spec, params, fw, RngStream(3))
        shifted = generate_env(spec, params, fw, RngStream(3), shift=True)
        assert np.array_equal(base.Y, shifted.Y)
        assert np.array_equal(base.Z_inv, shifted.Z_inv)
        assert sorted(map(tuple, base.Z_spu)) == sorted(map(tuple, shifted.Z_spu))

    def test_scramble_destroys_spurious_correlation(self):
        spec, params, fw = self.make_env2()
        shifted = generate_env(spec, params, fw, RngStream(3), shift=True)
        grass = shifted.Z_spu.sum(axis=1) >= 0
        corr = np.corrcoef(grass.astype(float), shifted.Y)[0, 1]
        assert abs(corr) < 3.5 / np.sqrt(shifted.n)

    def test_scramble_rebuilds_x_through_scrambler(self):
        spec = GeneratorSpec(example="ex2", n_per_env=10_000, scramble=True)
        r = RngStream(9)
        fw = draw_fixed_weights(spec, r)
        params = env_params(spec, r)[0]
        env = generate_env(spec, params, fw, r)
        shifted = generate_env(spec, params, fw, r, shift=True)
        assert np.array_equal(env.Z_inv, shifted.Z_inv)
        grass = shifted.Z_spu.sum(axis=1) >= 0
        corr = np.corrcoef(grass.astype(float), shifted.Y)[0, 1]
        assert abs(corr) < 3.5 / np.sqrt(env.n)
        rebuilt = np.hstack([shifted.Z_inv, shifted.Z_spu]) @ fw.S.T
        assert np.allclose(shifted.X, rebuilt)

    def test_shift_isolates_invariant_marginal(self):
        spec, params, fw = self.make_env2()
        base = generate_env(spec, params, fw, RngStream(3))
        shifted = generate_env(spec, params, fw, RngStream(3), shift=True)
        assert np.allclose(base.Z_inv.mean(axis=0), shifted.Z_inv.mean(axis=0))
        assert np.allclose(base.Z_inv.var(axis=0), shifted.Z_inv.var(axis=0))


class TestInvMargin:
    def test_ex2_sample_strictly_separable(self):
        # every invariant latent lies strictly off the labelling hyperplane
        spec = GeneratorSpec(example="ex2", n_per_env=10_000)
        r = RngStream(21)
        fw = draw_fixed_weights(spec, r)
        env = generate_env(spec, env_params(spec, r)[0], fw, r)
        w_star = np.ones(spec.m) / np.sqrt(spec.m)  # the labelling direction
        assert np.min(np.abs(env.Z_inv @ w_star)) > 0


class TestBenchmarkInstance:
    @pytest.mark.parametrize("scramble", [False, True], ids=["plain", "scrambled"])
    @pytest.mark.parametrize("example", EXAMPLES)
    def test_every_environment_carries_the_spec_task(self, example, scramble):
        if scramble and example not in SCRAMBLED:
            # twod and xor have no scrambler: the spec is rejected, not
            # named as scrambled with X left as drawn
            with pytest.raises(ParameterError, match="no scrambled variant"):
                GeneratorSpec(example=example, n_per_env=20, scramble=True)
            return
        spec = GeneratorSpec(example=example, n_per_env=20, scramble=scramble)
        _, _, envs = generate_training_envs(spec, RngStream(3))
        assert [env.task for env in envs] == [spec.task] * spec.n_envs
        assert spec.task == ("regression" if example == "ex1" else "classification")

    def test_fixed_weights_shared_across_envs(self):
        # every training and shifted test environment is mixed by the seed's
        # one scrambler, bit for bit
        spec = GeneratorSpec(example="ex2", n_per_env=100, scramble=True)
        fw, params, envs = generate_training_envs(spec, RngStream(1))
        assert not np.array_equal(fw.S, np.eye(spec.m + spec.o))
        for env in envs + default_test_envs(spec, params, fw, RngStream(1)):
            assert np.array_equal(env.X,
                                  np.hstack([env.Z_inv, env.Z_spu]) @ fw.S.T)

    def test_generators_cover_the_examples(self):
        assert tuple(GENERATORS) == EXAMPLES
        assert set(SCRAMBLED) < set(EXAMPLES)

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_generator_returns_the_latents_and_label(self, example):
        # drawn from the environment's own stream; unscrambled, X is the
        # stacked latents
        spec = GeneratorSpec(example=example, n_per_env=20)
        r = RngStream(5)
        fw = draw_fixed_weights(spec, r)
        params = env_params(spec, r)[1]
        z_inv, z_spu, y = GENERATORS[example](spec, params, fw, r.fork("gen/env1"))
        env = generate_env(spec, params, fw, r)
        assert y.shape == (20,) and z_inv.shape[0] == z_spu.shape[0] == 20
        for got, want in ((env.Z_inv, z_inv), (env.Z_spu, z_spu), (env.Y, y),
                          (env.X, np.hstack([z_inv, z_spu]))):
            assert np.array_equal(got, want)

    def test_label_map_invariant_across_envs(self):
        # same invariant latents produce the same labels in every environment
        spec = GeneratorSpec(example="ex2", n_per_env=5000)
        fw, params, envs = generate_training_envs(spec, RngStream(2))
        for env in envs:
            assert np.array_equal(env.Y, (env.Z_inv.sum(axis=1) >= 0).astype(float))

    def test_determinism(self):
        spec = GeneratorSpec(example="ex3", n_per_env=200, scramble=True)
        fw1, _, envs1 = generate_training_envs(spec, RngStream(7))
        fw2, _, envs2 = generate_training_envs(spec, RngStream(7))
        assert np.array_equal(fw1.S, fw2.S)
        for a, b in zip(envs1, envs2):
            assert np.array_equal(a.X, b.X)
            assert np.array_equal(a.Y, b.Y)
