import hashlib
import math

import numpy as np
import pytest

from oodbench.cli import _random_pmf, run_entropy_suite
from oodbench.entropy_lab import (LabeledMixture, _merge, conditional_entropy_gap,
                                  gaussian_entropy_bound, mixture_pmf,
                                  pmf_convolve, pmf_entropy, sum_entropy_gap)
from oodbench.numeric_core import ParameterError, Pmf, RngStream


FAIR_COIN = Pmf(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
POINT = Pmf(np.array([2.5]), np.array([1.0]))


class TestPmfEntropy:
    def test_point_mass_zero(self):
        assert pmf_entropy(POINT) == 0.0

    @pytest.mark.parametrize("k", [2, 3, 5, 17])
    def test_uniform_is_log_k(self, k):
        p = Pmf(np.arange(k, dtype=float), np.full(k, 1.0 / k))
        assert abs(pmf_entropy(p) - math.log(k)) < 1e-14

    def test_bernoulli_quarter(self):
        p = Pmf(np.array([0.0, 1.0]), np.array([0.75, 0.25]))
        expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
        assert abs(pmf_entropy(p) - expected) < 1e-15

    def test_zero_prob_atom_ignored(self):
        p = Pmf(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.0, 0.5]))
        assert abs(pmf_entropy(p) - math.log(2)) < 1e-15


class TestPmfConvolve:
    def test_point_mass_shifts(self):
        out = pmf_convolve(FAIR_COIN, POINT)
        assert np.allclose(out.support, [2.5, 3.5])
        assert np.allclose(out.probs, [0.5, 0.5])

    def test_two_fair_coins(self):
        out = pmf_convolve(FAIR_COIN, FAIR_COIN)
        assert np.array_equal(out.support, [0.0, 1.0, 2.0])
        assert np.allclose(out.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_commutative(self):
        rng = RngStream(7)
        p = _random_pmf(rng.fork("p"))
        q = _random_pmf(rng.fork("q"))
        a, b = pmf_convolve(p, q), pmf_convolve(q, p)
        assert np.allclose(a.support, b.support, atol=1e-12)
        assert np.allclose(a.probs, b.probs, atol=1e-12)

    def test_probs_sum_to_one(self):
        rng = RngStream(11)
        for i in range(50):
            r = rng.fork(f"t{i}")
            out = pmf_convolve(_random_pmf(r.fork("p")), _random_pmf(r.fork("q")))
            assert abs(out.probs.sum() - 1.0) < 1e-12
            assert np.all(np.diff(out.support) > 0)

    def test_merge_groups_anchor_on_first_atom(self):
        # a + 1.2e-12 lies within 1e-12 of its neighbour a + 0.6e-12 but
        # not of the group's first atom a, so it starts a group of its own
        a = 0.5
        out = _merge(np.array([a + 1.2e-12, a, a + 0.6e-12]),
                     np.array([0.2, 0.3, 0.5]))
        assert np.array_equal(out.support, [a, a + 1.2e-12])
        assert np.allclose(out.probs, [0.8, 0.2], rtol=0, atol=1e-15)

    def test_merge_without_close_atoms_sorts_and_normalizes(self):
        support = np.array([2.0, -1.0, 0.5])
        probs = np.array([0.2, 0.6, 0.4])
        out = _merge(support, probs)
        assert np.array_equal(out.support, [-1.0, 0.5, 2.0])
        assert np.array_equal(out.probs, np.array([0.6, 0.4, 0.2]) / 1.2)

    def test_coincident_sums_merged(self):
        # supports {0,1} + {0,1} collide at 1: three atoms, not four
        p = Pmf(np.array([0.0, 1.0]), np.array([0.3, 0.7]))
        out = pmf_convolve(p, p)
        assert out.support.size == 3
        assert abs(out.probs[1] - 2 * 0.3 * 0.7) < 1e-15


class TestSumEntropyGap:
    def test_point_mass_boundary(self):
        assert abs(sum_entropy_gap(FAIR_COIN, POINT)) < 1e-15

    def test_two_fair_coins_exact(self):
        # H(X+Y) = (3/2) ln 2, H(X) = ln 2: gap is exactly (1/2) ln 2
        gap = sum_entropy_gap(FAIR_COIN, FAIR_COIN)
        assert abs(gap - 0.5 * math.log(2)) < 1e-14

    def test_symmetric(self):
        rng = RngStream(3)
        p = _random_pmf(rng.fork("p"))
        q = _random_pmf(rng.fork("q"))
        assert abs(sum_entropy_gap(p, q) - sum_entropy_gap(q, p)) < 1e-12

    def test_strict_on_thousand_random_pairs(self):
        rng = RngStream(2026).fork("pairs")
        worst = np.inf
        for i in range(1000):
            r = rng.fork(f"t{i}")
            gap = sum_entropy_gap(_random_pmf(r.fork("p")), _random_pmf(r.fork("q")))
            worst = min(worst, gap)
        assert worst > 1e-9

    def test_weak_inequality_with_point_masses(self):
        rng = RngStream(4).fork("weak")
        for i in range(200):
            r = rng.fork(f"t{i}")
            p = _random_pmf(r.fork("p"))
            q = POINT if i % 3 == 0 else _random_pmf(r.fork("q"))
            assert sum_entropy_gap(p, q) >= -1e-12


class TestConditionalEntropyGap:
    def test_identical_components_zero(self):
        mix = LabeledMixture(((0.25, FAIR_COIN), (0.75, FAIR_COIN)))
        assert abs(conditional_entropy_gap(mix)) < 1e-14

    def test_disjoint_point_masses(self):
        a = Pmf(np.array([0.0]), np.array([1.0]))
        b = Pmf(np.array([1.0]), np.array([1.0]))
        mix = LabeledMixture(((0.5, a), (0.5, b)))
        assert abs(conditional_entropy_gap(mix) - math.log(2)) < 1e-14

    def test_mixture_pmf_normalized(self):
        rng = RngStream(9)
        mix = LabeledMixture(((0.4, _random_pmf(rng.fork("a"))),
                              (0.6, _random_pmf(rng.fork("b")))))
        marg = mixture_pmf(mix)
        assert abs(marg.probs.sum() - 1.0) < 1e-12

    def test_bad_weights_rejected(self):
        with pytest.raises(ParameterError):
            LabeledMixture(((0.5, FAIR_COIN), (0.6, FAIR_COIN)))
        with pytest.raises(ParameterError):
            LabeledMixture(((-0.5, FAIR_COIN), (1.5, FAIR_COIN)))

    def test_nonnegative_on_thousand_random_mixtures(self):
        rng = RngStream(515).fork("mix")
        worst = np.inf
        for i in range(1000):
            r = rng.fork(f"t{i}")
            k = 2 + r.fork("k").categorical([0.5, 0.3, 0.2])
            weights = r.fork("w").uniform(0.05, 1.0, shape=(k,))
            weights /= weights.sum()
            comps = tuple((float(w), _random_pmf(r.fork(f"pmf{j}")))
                          for j, w in enumerate(weights))
            worst = min(worst, conditional_entropy_gap(LabeledMixture(comps)))
        assert worst >= -1e-12


class TestGaussianEntropyBound:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ParameterError):
            gaussian_entropy_bound(0.0)
        with pytest.raises(ParameterError):
            gaussian_entropy_bound(-1.0)

    @pytest.mark.parametrize("sigma2", [0.1, 1.0, 1.3 ** 2, 25.0])
    def test_gaussian_attains_bound(self, sigma2):
        h = 0.5 * math.log(2 * math.pi * math.e * sigma2)
        assert abs(gaussian_entropy_bound(sigma2) - h) < 1e-14

    @pytest.mark.parametrize("width", [0.5, 1.0, 3.0])
    def test_uniform_strictly_below(self, width):
        # uniform on an interval of length w: entropy ln w, variance w^2/12
        h = math.log(width)
        assert gaussian_entropy_bound(width ** 2 / 12.0) - h > 1e-9

    @pytest.mark.parametrize("scale", [0.3, 0.7, 2.0])
    def test_laplace_strictly_below(self, scale):
        # Laplace(scale s): entropy 1 + ln(2s), variance 2 s^2
        h = 1.0 + math.log(2.0 * scale)
        assert gaussian_entropy_bound(2.0 * scale ** 2) - h > 1e-9

    @pytest.mark.parametrize("width", [0.5, 1.0, 3.0])
    def test_triangular_strictly_below(self, width):
        # sum of two uniforms of width w: entropy 1/2 + ln w, variance w^2/6
        h = 0.5 + math.log(width)
        assert gaussian_entropy_bound(width ** 2 / 6.0) - h > 1e-9

    def test_triangular_entropy_exceeds_uniform(self):
        # the continuous analogue of the sum-entropy gap on the catalogue
        assert (0.5 + math.log(1.0)) - math.log(1.0) > 1e-9


def _suite_gaps(seed, trials):
    """Every trial's gap in the suite's two randomized checks, drawn with the
    suite's fork labels."""
    rng = RngStream(seed).fork("entropy")
    sums, conds = [], []
    r = rng.fork("sum_gap")
    for i in range(trials):
        ri = r.fork(f"trial{i}")
        sums.append(sum_entropy_gap(_random_pmf(ri.fork("p")),
                                    _random_pmf(ri.fork("q"))))
    r = rng.fork("cond_gap")
    for i in range(trials):
        ri = r.fork(f"trial{i}")
        k = 2 + ri.fork("k").categorical([0.5, 0.3, 0.2])
        weights = ri.fork("w").uniform(0.05, 1.0, shape=(k,))
        weights /= weights.sum()
        comps = tuple((float(w), _random_pmf(ri.fork(f"pmf{j}")))
                      for j, w in enumerate(weights))
        conds.append(conditional_entropy_gap(LabeledMixture(comps)))
    return np.array(sums), np.array(conds)


class TestEntropySuite:
    # sha256 of the float64 bytes of all 1000 per-trial gaps at seed 0, for
    # sum_entropy_gap and conditional_entropy_gap.  The suite reports only
    # the worst gap, which would hide a moved bit in any other trial.
    TRIAL_GAPS_SHA = (
        "8a660aa63bc8d5b441aa34d50e0f4d912ad8b70e5813d483cdbf3c368a437ac9",
        "0be3d224fd1f7994afaa579d220a91d6a4dc3605de6c639bd89ee0a961f07f9f")

    def test_every_trial_gap_pinned(self):
        sums, conds = _suite_gaps(0, 1000)
        results = run_entropy_suite(seed=0, trials=1000)
        assert results[0]["worst_gap"] == sums.min()
        assert results[1]["worst_gap"] == conds.min()
        assert (hashlib.sha256(sums.tobytes()).hexdigest(),
                hashlib.sha256(conds.tobytes()).hexdigest()) == self.TRIAL_GAPS_SHA

    def test_all_checks_pass(self):
        results = run_entropy_suite(seed=0, trials=200)
        names = [r["check"] for r in results]
        assert names == ["sum_entropy_strict", "conditioning_reduces_entropy",
                         "variance_bounds_entropy"]
        assert all(r["pass"] for r in results)

    def test_deterministic_in_seed(self):
        a = run_entropy_suite(seed=5, trials=50)
        b = run_entropy_suite(seed=5, trials=50)
        assert a == b
