import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import oracle
from oodbench import cli
from oodbench.cli import run_entropy_suite
from oodbench.entropy_lab import (LabeledMixture, PmfBatch, _merged,
                                  conditional_entropy_gap, convolve, entropies,
                                  gaussian_entropy_bound, mixture_marginal,
                                  random_mixtures, random_pmfs, row_sums,
                                  sum_entropy_gap)
from oodbench.numeric_core import ParameterError, RngStream
from oracle import Pmf


FAIR_COIN = Pmf(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
POINT = Pmf(np.array([2.5]), np.array([1.0]))


def batch(*pmfs):
    """A PmfBatch of the (per-trial) pmfs ``pmfs``, one a row; None gives
    an empty row."""
    width = max([p.support.size for p in pmfs if p is not None] + [1])
    support = np.full((len(pmfs), width), np.inf)
    probs = np.zeros((len(pmfs), width))
    size = [0 if p is None else p.support.size for p in pmfs]
    for t, (p, k) in enumerate(zip(pmfs, size)):
        if k:
            support[t, :k], probs[t, :k] = p.support, p.probs
    return PmfBatch(support, probs, size)


def rows(b):
    """The rows of a PmfBatch as per-trial pmfs."""
    return [Pmf(s[:k], p[:k]) for s, p, k in zip(b.support, b.probs, b.size)]


def take(b, idx):
    return PmfBatch(b.support[idx], b.probs[idx], b.size[idx])


def mixtures(*mixes):
    """A LabeledMixture batch of per-trial mixtures, each a tuple of
    (weight, Pmf)."""
    j = max(len(m) for m in mixes)
    weights = np.zeros((len(mixes), j))
    comps = []
    for t, m in enumerate(mixes):
        weights[t, :len(m)] = [w for w, _ in m]
        comps += [p for _, p in m] + [None] * (j - len(m))
    return LabeledMixture(weights, batch(*comps))


def same_pmf(a, b):
    return np.array_equal(a.support, b.support) and np.array_equal(a.probs, b.probs)


def seeded_pmfs(seed, n):
    """n pmfs of the suite's law, from streams t0..t<n-1>."""
    return random_pmfs(RngStream(seed), [f"t{i}" for i in range(n)])


class TestPmfEntropy:
    def test_point_mass_zero(self):
        assert entropies(batch(POINT))[0] == 0.0

    @pytest.mark.parametrize("k", [2, 3, 5, 17])
    def test_uniform_is_log_k(self, k):
        p = Pmf(np.arange(k, dtype=float), np.full(k, 1.0 / k))
        assert abs(entropies(batch(p))[0] - math.log(k)) < 1e-14

    def test_bernoulli_quarter(self):
        p = Pmf(np.array([0.0, 1.0]), np.array([0.75, 0.25]))
        expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
        assert abs(entropies(batch(p))[0] - expected) < 1e-15

    def test_zero_prob_atom_ignored(self):
        p = Pmf(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.0, 0.5]))
        assert abs(entropies(batch(p))[0] - math.log(2)) < 1e-15


class TestPmfConvolve:
    def test_point_mass_shifts(self):
        [out] = rows(convolve(batch(FAIR_COIN), batch(POINT)))
        assert np.allclose(out.support, [2.5, 3.5])
        assert np.allclose(out.probs, [0.5, 0.5])

    def test_two_fair_coins(self):
        [out] = rows(convolve(batch(FAIR_COIN), batch(FAIR_COIN)))
        assert np.array_equal(out.support, [0.0, 1.0, 2.0])
        assert np.allclose(out.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_commutative(self):
        pq = seeded_pmfs(7, 2)
        p, q = take(pq, [0]), take(pq, [1])
        [a], [b] = rows(convolve(p, q)), rows(convolve(q, p))
        assert np.allclose(a.support, b.support, atol=1e-12)
        assert np.allclose(a.probs, b.probs, atol=1e-12)

    def test_probs_sum_to_one(self):
        pq = seeded_pmfs(11, 100)
        for out in rows(convolve(take(pq, slice(0, 50)), take(pq, slice(50, 100)))):
            assert abs(out.probs.sum() - 1.0) < 1e-12
            assert np.all(np.diff(out.support) > 0)

    def test_merge_groups_anchor_on_first_atom(self):
        # a + 1.2e-12 lies within 1e-12 of its neighbour a + 0.6e-12 but
        # not of the group's first atom a, so it starts a group of its own
        a = 0.5
        [out] = rows(_merged(np.array([[a + 1.2e-12, a, a + 0.6e-12]]),
                             np.array([[0.2, 0.3, 0.5]]), np.array([3])))
        assert np.array_equal(out.support, [a, a + 1.2e-12])
        assert np.allclose(out.probs, [0.8, 0.2], rtol=0, atol=1e-15)

    def test_merge_without_close_atoms_sorts_and_normalizes(self):
        support = np.array([[2.0, -1.0, 0.5]])
        probs = np.array([[0.2, 0.6, 0.4]])
        [out] = rows(_merged(support, probs, np.array([3])))
        assert np.array_equal(out.support, [-1.0, 0.5, 2.0])
        assert np.array_equal(out.probs, np.array([0.6, 0.4, 0.2]) / 1.2)

    def test_coincident_sums_merged(self):
        # supports {0,1} + {0,1} collide at 1: three atoms, not four
        p = Pmf(np.array([0.0, 1.0]), np.array([0.3, 0.7]))
        [out] = rows(convolve(batch(p), batch(p)))
        assert out.support.size == 3
        assert abs(out.probs[1] - 2 * 0.3 * 0.7) < 1e-15


class TestSumEntropyGap:
    def test_point_mass_boundary(self):
        assert abs(sum_entropy_gap(batch(FAIR_COIN), batch(POINT))[0]) < 1e-15

    def test_two_fair_coins_exact(self):
        # H(X+Y) = (3/2) ln 2, H(X) = ln 2: gap is exactly (1/2) ln 2
        gap = sum_entropy_gap(batch(FAIR_COIN), batch(FAIR_COIN))[0]
        assert abs(gap - 0.5 * math.log(2)) < 1e-14

    def test_symmetric(self):
        pq = seeded_pmfs(3, 2)
        p, q = take(pq, [0]), take(pq, [1])
        assert abs(sum_entropy_gap(p, q)[0] - sum_entropy_gap(q, p)[0]) < 1e-12

    def test_strict_on_thousand_random_pairs(self):
        pq = seeded_pmfs(2026, 2000)
        assert sum_entropy_gap(take(pq, slice(0, 1000)),
                               take(pq, slice(1000, 2000))).min() > 1e-9

    def test_weak_inequality_with_point_masses(self):
        pq = rows(seeded_pmfs(4, 400))
        p = batch(*pq[:200])
        q = batch(*(POINT if i % 3 == 0 else pmf for i, pmf in enumerate(pq[200:])))
        assert sum_entropy_gap(p, q).min() >= -1e-12


class TestConditionalEntropyGap:
    def test_identical_components_zero(self):
        mix = mixtures(((0.25, FAIR_COIN), (0.75, FAIR_COIN)))
        assert abs(conditional_entropy_gap(mix)[0]) < 1e-14

    def test_disjoint_point_masses(self):
        a = Pmf(np.array([0.0]), np.array([1.0]))
        b = Pmf(np.array([1.0]), np.array([1.0]))
        mix = mixtures(((0.5, a), (0.5, b)))
        assert abs(conditional_entropy_gap(mix)[0] - math.log(2)) < 1e-14

    def test_mixture_pmf_normalized(self):
        ab = rows(seeded_pmfs(9, 2))
        [marg] = rows(mixture_marginal(mixtures(((0.4, ab[0]), (0.6, ab[1])))))
        assert abs(marg.probs.sum() - 1.0) < 1e-12

    def test_bad_weights_rejected(self):
        with pytest.raises(ParameterError):
            mixtures(((0.5, FAIR_COIN), (0.6, FAIR_COIN)))
        with pytest.raises(ParameterError):
            mixtures(((-0.5, FAIR_COIN), (1.5, FAIR_COIN)))

    def test_nonnegative_on_thousand_random_mixtures(self):
        gaps = conditional_entropy_gap(random_mixtures(RngStream(515).fork("mix"),
                                                       range(1000)))
        assert gaps.size == 1000
        assert gaps.min() >= -1e-12


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


class TestRowSums:
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 64, 130])
    def test_each_row_sums_as_its_own_1d_array(self, width):
        rng = np.random.default_rng(width)
        a = rng.random((60, width)) * rng.choice([1e-3, 1.0, 1e3], size=(60, width))
        size = rng.integers(0, width + 1, size=60)
        want = [a[t, :k].copy().sum() if k else 0.0 for t, k in enumerate(size)]
        assert np.array_equal(row_sums(a, size), want)


def _suite_gaps(seed, trials):
    """Every trial's gap in the suite's two randomized checks, by the
    per-trial reference path, drawn with the suite's fork labels."""
    rng = RngStream(seed).fork("entropy")
    sums, conds = [], []
    r = rng.fork("sum_gap")
    for i in range(trials):
        ri = r.fork(f"trial{i}")
        sums.append(oracle.sum_entropy_gap(oracle._random_pmf(ri.fork("p")),
                                           oracle._random_pmf(ri.fork("q"))))
    r = rng.fork("cond_gap")
    for i in range(trials):
        ri = r.fork(f"trial{i}")
        k = 2 + ri.fork("k").categorical([0.5, 0.3, 0.2])
        weights = ri.fork("w").uniform(0.05, 1.0, shape=(k,))
        weights /= weights.sum()
        comps = tuple((float(w), oracle._random_pmf(ri.fork(f"pmf{j}")))
                      for j, w in enumerate(weights))
        conds.append(oracle.conditional_entropy_gap(oracle.LabeledMixture(comps)))
    return np.array(sums), np.array(conds)


def _batched_gaps(monkeypatch, seed, trials):
    """Every trial's gap as ``run_entropy_suite`` computes it, read from the
    batched gap functions that it calls, one call per chunk."""
    got = {"sum": [], "cond": []}
    for key, name in (("sum", "sum_entropy_gap"), ("cond", "conditional_entropy_gap")):
        def record(*args, _fn=getattr(cli, name), _out=got[key]):
            _out.append(_fn(*args))
            return _out[-1]
        monkeypatch.setattr(cli, name, record)
    results = run_entropy_suite(seed=seed, trials=trials)
    return results, got["sum"], got["cond"]


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

    @pytest.mark.parametrize("chunk,trials,seed", [
        (1, 40, 0), (7, 300, 0), (7, 300, 7919), (cli.ENTROPY_CHUNK, 1000, 0),
        (cli.ENTROPY_CHUNK, 1000, 7919), (cli.ENTROPY_CHUNK, 2 * cli.ENTROPY_CHUNK + 3, 5)])
    def test_every_trial_gap_matches_the_per_trial_path(self, monkeypatch, chunk,
                                                        trials, seed):
        # bit for bit, trial by trial, at any chunk size, a last short chunk
        # included
        monkeypatch.setattr(cli, "ENTROPY_CHUNK", chunk)
        results, sums, conds = _batched_gaps(monkeypatch, seed, trials)
        assert [len(g) for g in sums] == [len(g) for g in conds] == \
            [min(chunk, trials - lo) for lo in range(0, trials, chunk)]
        want_sums, want_conds = _suite_gaps(seed, trials)
        assert np.array_equal(np.concatenate(sums), want_sums)
        assert np.array_equal(np.concatenate(conds), want_conds)
        assert results[0]["worst_gap"] == want_sums.min()
        assert results[1]["worst_gap"] == want_conds.min()
        assert type(results[0]["worst_gap"]) is float

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

    @pytest.mark.parametrize("trials", [1000, 20000])
    def test_peak_memory_does_not_grow_with_trials(self, trials):
        # A chunk's arrays are the suite's memory: the peak stays below 1 MB
        # at any trial count.  The first call in a process also builds
        # numpy's lazily made objects, which are not the suite's.
        run_entropy_suite(seed=0, trials=1)
        tracemalloc.start()
        try:
            run_entropy_suite(seed=0, trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestRareRows:
    """Rows the suite meets rarely or never, each against the per-trial
    reference path, bit for bit, in a batch with ordinary rows."""

    # Streams under RngStream(0).fork("retry") whose first support draw has
    # two atoms within 1e-6, found by a search over s0..s3000000: with 8, 7
    # and 6 atoms, so the redraw starts in the third, third and second
    # Philox block at offsets 1, 0 and 3.
    REDRAWN = ("s1427192", "s1995254", "s2834408")

    def test_support_redraw_matches_the_per_trial_path(self):
        root = RngStream(0).fork("retry")
        labels = ("s0",) + self.REDRAWN + ("s1",)
        got = rows(random_pmfs(root, labels))
        for label, pmf in zip(labels, got):
            assert same_pmf(pmf, oracle._random_pmf(root.fork(label)))
        for label, k in zip(self.REDRAWN, (8, 7, 6)):
            r = root.fork(label)
            assert 2 + r.categorical(oracle._ATOM_COUNT_PROBS) == k
            assert np.diff(np.sort(r.uniform(-5.0, 5.0, shape=(k,)))).min() < 1e-6

    def test_mixture_slots_past_the_count_are_empty(self):
        # a used slot holds its trial<i>/pmf<j> stream's pmf; a slot past
        # the trial's component count has size 0, +inf support, probability
        # 0 and weight 0
        root = RngStream(1)
        trials = range(5, 45)
        mix = random_mixtures(root, trials)
        comps, j = mix.components, mix.weights.shape[1]
        counts = [2 + root.fork(f"trial{i}/k").categorical([0.5, 0.3, 0.2])
                  for i in trials]
        assert j == 4 and set(counts) == {2, 3, 4}
        for t, (i, k) in enumerate(zip(trials, counts)):
            used = rows(take(comps, slice(t * j, t * j + k)))
            for slot, pmf in enumerate(used):
                assert same_pmf(pmf, oracle._random_pmf(root.fork(f"trial{i}/pmf{slot}")))
            empty = slice(t * j + k, (t + 1) * j)
            assert comps.size[empty].tolist() == [0] * (j - k)
            assert np.all(comps.support[empty] == np.inf)
            assert np.all(comps.probs[empty] == 0)
            assert np.all(mix.weights[t, k:] == 0)

    CLOSE = [
        # exact collisions, collisions within MERGE_TOL, and a chain whose
        # third atom is within MERGE_TOL of the second but not of the first
        (Pmf([0.0, 1.0], [0.3, 0.7]), Pmf([0.0, 1.0], [0.6, 0.4])),
        (Pmf([0.0, 0.5], [0.5, 0.5]), Pmf([0.0, 0.5 + 4e-13], [0.25, 0.75])),
        (Pmf([0.0, 6e-13, 1.2e-12], [0.2, 0.3, 0.5]), Pmf([1.0], [1.0])),
        (Pmf([-1.0, 2.0], [0.1, 0.9]), Pmf([3.0, 6.0 - 1e-13], [0.5, 0.5])),
    ]

    def test_close_atoms_merge_as_the_per_trial_path(self):
        # with two 8-atom grids, 64 sums fall on 15 values: the merge adds
        # each group's probabilities in the stable sort's order
        rng = np.random.default_rng(0)
        grids = [Pmf(np.arange(8.0), w / w.sum()) for w in rng.random((2, 8)) + 0.1]
        ordinary = rows(seeded_pmfs(8, 4))
        ps = [p for p, _ in self.CLOSE] + [grids[0]] + ordinary[:2]
        qs = [q for _, q in self.CLOSE] + [grids[1]] + ordinary[2:]
        out = rows(convolve(batch(*ps), batch(*qs)))
        for p, q, got in zip(ps, qs, out):
            assert same_pmf(got, oracle.pmf_convolve(p, q))
        assert [o.support.size for o in out[:5]] == [3, 3, 2, 3, 15]
        assert np.array_equal(sum_entropy_gap(batch(*ps), batch(*qs)),
                              [oracle.sum_entropy_gap(p, q) for p, q in zip(ps, qs)])

    def test_close_atoms_of_a_mixture_merge_as_the_per_trial_path(self):
        ordinary = rows(seeded_pmfs(12, 3))
        mixes = [((0.5, Pmf([0.0, 1.0], [0.5, 0.5])),
                  (0.5, Pmf([1.0 + 5e-13, 2.0], [0.5, 0.5]))),
                 ((0.2, Pmf([0.0], [1.0])), (0.3, Pmf([4e-13], [1.0])),
                  (0.5, Pmf([8e-13, 1e-12 + 1e-13], [0.5, 0.5]))),
                 tuple(zip((0.3, 0.3, 0.4), ordinary))]
        mix = mixtures(*mixes)
        for got, m in zip(rows(mixture_marginal(mix)), mixes):
            assert same_pmf(got, oracle.mixture_pmf(oracle.LabeledMixture(m)))
        assert np.array_equal(
            conditional_entropy_gap(mix),
            [oracle.conditional_entropy_gap(oracle.LabeledMixture(m)) for m in mixes])

    def test_zero_probability_atom(self):
        zero = Pmf([0.0, 1.0, 2.0], [0.5, 0.0, 0.5])
        other = rows(seeded_pmfs(13, 2))
        ps, qs = [zero, other[0], zero], [FAIR_COIN, other[1], zero]
        assert np.array_equal(entropies(batch(*ps)),
                              [oracle.pmf_entropy(p) for p in ps])
        for p, q, got in zip(ps, qs, rows(convolve(batch(*ps), batch(*qs)))):
            assert same_pmf(got, oracle.pmf_convolve(p, q))
        assert np.array_equal(sum_entropy_gap(batch(*ps), batch(*qs)),
                              [oracle.sum_entropy_gap(p, q) for p, q in zip(ps, qs)])
        mixes = [((0.5, zero), (0.5, other[0])), ((0.25, other[1]), (0.75, zero))]
        assert np.array_equal(
            conditional_entropy_gap(mixtures(*mixes)),
            [oracle.conditional_entropy_gap(oracle.LabeledMixture(m)) for m in mixes])

    def test_rows_of_8_and_64_atoms(self):
        # 8 x 8 atoms whose 64 sums are distinct, next to rows of other sizes
        rng = np.random.default_rng(64)
        eight = [Pmf(np.arange(8.0) * step + shift, w / w.sum())
                 for step, shift, w in ((0.1, 0.0, rng.random(8) + 0.1),
                                        (0.8, 0.01, rng.random(8) + 0.1))]
        assert rows(convolve(batch(eight[0]), batch(eight[1])))[0].support.size == 64
        other = rows(seeded_pmfs(14, 4))
        ps, qs = [eight[0], other[0], eight[1]], [eight[1], other[1], other[2]]
        for p, q, got in zip(ps, qs, rows(convolve(batch(*ps), batch(*qs)))):
            assert same_pmf(got, oracle.pmf_convolve(p, q))
        wide = [oracle.pmf_convolve(eight[0], eight[1]), other[3], eight[0]]
        assert np.array_equal(entropies(batch(*wide)),
                              [oracle.pmf_entropy(p) for p in wide])
        assert np.array_equal(sum_entropy_gap(batch(*ps), batch(*qs)),
                              [oracle.sum_entropy_gap(p, q) for p, q in zip(ps, qs)])


class TestPmfBatch:
    def test_padding_must_be_inf_and_zero(self):
        with pytest.raises(ParameterError):
            PmfBatch(np.array([[0.0, 1.0, 5.0]]), np.array([[0.5, 0.5, 0.0]]), [2])
        with pytest.raises(ParameterError):
            PmfBatch(np.array([[0.0, 1.0, np.inf]]), np.array([[0.5, 0.5, 0.1]]), [2])

    @pytest.mark.parametrize("size", [[-1], [4], [2, 2]])
    def test_atom_counts_must_fit(self, size):
        with pytest.raises(ParameterError):
            PmfBatch(np.array([[0.0, 1.0, np.inf]]), np.array([[0.5, 0.5, 0.0]]), size)

    def test_empty_row_accepted(self):
        b = PmfBatch(np.array([[np.inf, np.inf], [0.0, 1.0]]),
                     np.array([[0.0, 0.0], [0.5, 0.5]]), [0, 2])
        assert b.size.tolist() == [0, 2]
