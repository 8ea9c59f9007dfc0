import concurrent.futures
import hashlib

import numpy as np
import pytest

import oracle
from oodbench import trainer
from oodbench.numeric_core import ParameterError, RngStream
from oodbench.objectives import ObjectiveConfig
from oodbench.sem_generators import (EnvDataset, FixedWeights, GeneratorSpec,
                                     generate_training_envs)
from oodbench.trainer import (METHODS, SweepRow, TrainConfig, _split,
                              evaluate, random_search, train_gd)
from oracle import LinearModel


def _linear_env(env_id, n, w, b, noise_std, rng, task="regression"):
    x = rng.fork("x").gaussian_array((n, len(w)))
    y = x @ np.asarray(w) + b + noise_std * rng.fork("eps").gaussian_array((n,))
    if task == "classification":
        y = (y >= 0).astype(float)
    return EnvDataset(env_id=env_id, X=x, Y=y, task=task)


def _model(result):
    """A trained query as the oracle's model."""
    return LinearModel(w=result.theta[:-1], b=result.theta[-1])


def spurious_ratio(model, fw, m):
    """Share of the model's weight that lives in the spurious latent block.

    Maps observed-space weights to latent coordinates via S^T w (valid for
    orthogonal scramblers; an unscrambled spec has no S) and returns
    ||v_spu|| / ||v||.
    """
    v = model.w if fw.S is None else fw.S.T @ model.w
    spu = float(np.linalg.norm(v[m:]))
    inv = float(np.linalg.norm(v[:m]))
    denom = np.sqrt(spu * spu + inv * inv)
    if denom == 0.0:
        return 0.0
    return spu / denom


class TestTrainConfig:
    def test_defaults(self):
        tc = TrainConfig()
        assert tc.steps == 2000 and tc.optimizer == "gd"

    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0}, {"lr": -1.0}, {"lr": float("nan")},
        {"steps": 0}, {"lr": float("inf")}, {"optimizer": "sgd"},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ParameterError):
            TrainConfig(**kwargs)


class TestTrainGd:
    def test_recovers_noiseless_linear_map(self):
        rng = RngStream(0)
        w_true, b_true = np.array([1.5, -2.0, 0.5]), 0.7
        envs = [_linear_env(i, 400, w_true, b_true, 0.0, rng.fork(f"e{i}"))
                for i in range(2)]
        cfg = ObjectiveConfig(lam=0.0, gamma=0.0)
        res, = train_gd([(envs, rng.fork("t"))], cfg, TrainConfig(lr=0.05, steps=3000), [1])
        # the ERM objective is the sum of the two environments' risks
        assert oracle.objective_and_gradient(_model(res), envs, cfg)[0] < 2e-6
        assert res.val_risk < 1e-6
        assert np.allclose(res.theta[:-1], w_true, atol=1e-3)
        assert abs(res.theta[-1] - b_true) < 1e-3

    def test_curve_monotone_for_small_lr(self):
        rng = RngStream(1)
        envs = [_linear_env(0, 300, np.array([1.0, -1.0]), 0.0, 0.5, rng.fork("e"))]
        cfg = ObjectiveConfig(lam=1.0, gamma=0.5)
        tc = TrainConfig(lr=0.01, steps=500)
        theta, curve, _ = oracle.train_gd(envs, cfg, tc, rng.fork("t"))
        assert curve.shape == (501,)
        assert np.all(np.diff(curve) <= 1e-12)
        res, = train_gd([(envs, rng.fork("t"))], cfg, tc, [1])
        assert np.allclose(res.theta, theta, rtol=1e-12, atol=0.0)

    def test_deterministic(self):
        cfg = ObjectiveConfig(lam=10.0, gamma=0.5)
        tc = TrainConfig(lr=0.05, steps=200)
        outs = []
        for _ in range(2):
            rng = RngStream(42)
            envs = [_linear_env(i, 200, np.array([2.0, -1.0]), 0.0, 0.3,
                                rng.fork(f"e{i}"), task="classification")
                    for i in range(2)]
            res, = train_gd([(envs, rng.fork("t"))], cfg, tc, [1])
            outs.append((res.theta[:-1].copy(), res.theta[-1], res.val_risk))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1] and outs[0][2] == outs[1][2]

    def test_adam_reaches_low_risk(self):
        rng = RngStream(2)
        envs = [_linear_env(0, 300, np.array([0.01, 0.0]), 0.0, 0.0, rng.fork("e"))]
        cfg = ObjectiveConfig(lam=0.0, gamma=0.0)
        res, = train_gd([(envs, rng.fork("t"))], cfg,
                        TrainConfig(lr=0.01, steps=1500, optimizer="adam"), [1])
        assert oracle.objective_and_gradient(_model(res), envs, cfg)[0] < 1e-8

    def test_divergence_reports_step(self):
        rng = RngStream(3)
        envs = [_linear_env(0, 100, np.array([1.0]), 0.0, 0.0, rng.fork("e"))]
        cfg = ObjectiveConfig(lam=0.0, gamma=0.0)
        tc = TrainConfig(lr=1e6, steps=400)
        res, = train_gd([(envs, rng.fork("t"))], cfg, tc, [1])
        assert res.diverged_step is not None and res.diverged_step > 0
        assert res.val_risk == float("inf")
        # the oracle's objective leaves the finite range at the same step
        with np.errstate(all="ignore"), pytest.raises(oracle.OracleDivergence) as exc:
            oracle.train_gd(envs, cfg, tc, rng.fork("t"))
        assert exc.value.step == res.diverged_step

    def test_requires_environments(self):
        cfg = ObjectiveConfig(lam=0.0, gamma=0.0)
        with pytest.raises(ParameterError, match="at least one environment"):
            train_gd([([], RngStream(0))], cfg, TrainConfig(), [1])
        envs = [_linear_env(0, 50, np.array([1.0]), 0.0, 0.1, RngStream(0))]
        with pytest.raises(ParameterError, match="2 data seeds for 1 query counts"):
            train_gd([(envs, RngStream(0))] * 2, cfg, TrainConfig(), [1])
        with pytest.raises(ParameterError, match="need at least one data seed"):
            train_gd([], cfg, TrainConfig(), [1])
        with pytest.raises(ParameterError, match="at least one query per data seed"):
            train_gd([(envs, RngStream(0))], cfg, TrainConfig(), [0])

    @pytest.mark.parametrize("field,value,match", [
        ("lr", [0.01, 0.02, 0.03], "lr must be one value or one per query"),
        ("lam", [1.0, 2.0, 3.0], "lam must be one value or one per query"),
        ("gamma", [[0.5, 0.5]], "gamma must be one value or one per query"),
        ("lam", np.inf, "lam must be finite"),
        ("gamma", np.inf, "gamma must be finite"),
    ])
    def test_rejects_bad_per_query_fields(self, field, value, match):
        # two queries of ex2; a weight set after ObjectiveConfig checked it
        spec = GeneratorSpec(example="ex2", n_per_env=50)
        _, _, envs = generate_training_envs(spec, RngStream(0))
        cfg, tc = ObjectiveConfig(), TrainConfig(steps=5)
        setattr(tc if field == "lr" else cfg, field, value)
        with pytest.raises(ParameterError, match=match):
            train_gd([(envs, RngStream(1))], cfg, tc, [2])


class TestSplit:
    def test_sizes_and_disjointness(self):
        rng = RngStream(5)
        n = 50
        tr, va = _split(n, rng.fork("s"))
        assert va.size == 10 and tr.size == 40
        assert np.array_equal(np.sort(np.concatenate([tr, va])), np.arange(n))

    def test_split_is_stream_deterministic(self):
        a = _split(20, RngStream(7).fork("s"))
        b = _split(20, RngStream(7).fork("s"))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestEvaluate:
    def test_mse_hand_value(self):
        X, Y = np.array([[1.0], [2.0]]), np.array([1.0, 1.0])
        # predictions (1, 2): errors (0, 1), mse 1/2
        assert evaluate(np.array([1.0, 0.0]), X, Y, "regression") == 0.5
        # the intercept shifts them to (0.5, 1.5): mse 1/4
        assert evaluate(np.array([1.0, -0.5]), X, Y, "regression") == 0.25

    def test_class_error_hand_count(self):
        X = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        Y = np.array([1.0, 1.0, 0.0, 0.0])
        # thresholded predictions (1, 0, 1, 0): wrong on samples 2 and 3
        assert evaluate(np.array([1.0, 0.0]), X, Y, "classification") == 0.5
        # intercept 1.5 gives predictions (2.5, 0.5, 3.5, -0.5): wrong on 3
        assert evaluate(np.array([1.0, 1.5]), X, Y, "classification") == 0.25

    def test_threshold_is_closed_at_zero(self):
        X, Y = np.array([[0.0], [1.0]]), np.array([1.0, 1.0])
        # a prediction of exactly 0 is class 1: predictions (0, 1) are both
        # right, and (-1, 0) wrong on the first sample only
        assert evaluate(np.array([1.0, 0.0]), X, Y, "classification") == 0.0
        assert evaluate(np.array([1.0, -1.0]), X, Y, "classification") == 0.5


class TestSpuriousRatio:
    def _fw(self, s):
        return FixedWeights(W_yz=np.eye(1), W_zy=np.eye(1), S=s)

    def test_pure_invariant_is_zero(self):
        fw = self._fw(np.eye(2))
        assert spurious_ratio(LinearModel(w=np.array([3.0, 0.0]), b=0.0), fw, 1) == 0.0

    def test_pure_spurious_is_one(self):
        fw = self._fw(np.eye(2))
        assert spurious_ratio(LinearModel(w=np.array([0.0, -2.0]), b=0.0), fw, 1) == 1.0

    def test_balanced_weight(self):
        fw = self._fw(np.eye(2))
        r = spurious_ratio(LinearModel(w=np.array([1.0, 1.0]), b=0.0), fw, 1)
        assert r == pytest.approx(1.0 / np.sqrt(2.0))

    def test_zero_weight_is_zero(self):
        fw = self._fw(np.eye(2))
        assert spurious_ratio(LinearModel(w=np.zeros(2), b=0.0), fw, 1) == 0.0

    def test_undone_by_scrambler(self):
        # observed weights S v map back to the latent split of v
        from oodbench.numeric_core import random_orthogonal
        s = random_orthogonal(RngStream(11).fork("S"), 4)
        fw = FixedWeights(W_yz=np.eye(2), W_zy=np.eye(2), S=s)
        v = np.array([1.0, 0.0, 2.0, -1.0])
        r = spurious_ratio(LinearModel(w=s @ v, b=0.0), fw, 2)
        assert r == pytest.approx(np.sqrt(5.0 / 6.0), abs=1e-12)


class TestRandomSearch:
    SPEC = GeneratorSpec(example="twod", m=1, o=1, n_per_env=80, n_envs=2)
    TC = TrainConfig(steps=30)

    def test_row_shape_and_hparam_ranges(self):
        rows = random_search(self.SPEC, ["IBIRM"], (3, 2), RngStream(0), self.TC)
        assert len(rows) == 6
        assert {r.data_seed for r in rows} == {0, 1}
        assert {r.hparam_id for r in rows} == {0, 1, 2}
        for r in rows:
            assert isinstance(r, SweepRow)
            assert r.method == "IBIRM" and r.example == "twod"
            assert 1e-3 <= r.lr <= 1e-1
            assert 1e-1 <= r.lam <= 1e4
            assert 0.0 < r.gamma <= 0.99
            assert np.isfinite(r.val_risk)
            assert r.test_metric <= r.test_metric_max

    def test_penalty_weights_zero_when_unused(self):
        erm = random_search(self.SPEC, ["ERM"], (2, 1), RngStream(0), self.TC)
        assert all(r.lam == 0.0 and r.gamma == 0.0 for r in erm)
        irm = random_search(self.SPEC, ["IRM"], (2, 1), RngStream(0), self.TC)
        assert all(r.lam > 0.0 and r.gamma == 0.0 for r in irm)
        iberm = random_search(self.SPEC, ["IBERM"], (2, 1), RngStream(0), self.TC)
        assert all(r.lam == 0.0 and r.gamma > 0.0 for r in iberm)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError, match="unknown method"):
            random_search(self.SPEC, ["GroupDRO"], (1, 1), RngStream(0), self.TC)
        with pytest.raises(ParameterError, match="names no method"):
            random_search(self.SPEC, [], (1, 1), RngStream(0), self.TC)
        with pytest.raises(ParameterError, match="repeats a method"):
            random_search(self.SPEC, ["ERM", "IRM", "ERM"], (1, 1), RngStream(0),
                          self.TC)
        with pytest.raises(ParameterError):
            random_search(self.SPEC, ["ERM"], (0, 1), RngStream(0), self.TC)
        with pytest.raises(ParameterError):
            random_search(self.SPEC, ["ERM"], (1, 0), RngStream(0), self.TC)

    def test_deterministic_in_root_stream(self):
        a = random_search(self.SPEC, ["IRM"], (2, 2), RngStream(9), self.TC)
        b = random_search(self.SPEC, ["IRM"], (2, 2), RngStream(9), self.TC)
        assert a == b

    # A square-loss example (moment stacks, one batch per worker) and a
    # classification one (row stacks, one batch per data seed).
    SPECS = {"ex1": GeneratorSpec(example="ex1", n_per_env=60, n_envs=2),
             "twod": SPEC}

    @pytest.mark.parametrize("example", sorted(SPECS))
    @pytest.mark.parametrize("threads,seeds", [("2", 3), ("3", 2)])
    def test_parallel_matches_serial(self, monkeypatch, example, threads, seeds):
        spec = self.SPECS[example]
        serial = random_search(spec, METHODS, (2, seeds), RngStream(4), self.TC)
        monkeypatch.setenv("IBIRM_THREADS", threads)
        parallel = random_search(spec, METHODS, (2, seeds), RngStream(4), self.TC)
        assert serial == parallel

    @pytest.mark.parametrize("cpus", [2, None])
    def test_parallel_matches_serial_without_cpu_affinity(self, monkeypatch, cpus):
        # macOS and Windows have no os.sched_getaffinity: every CPU counts,
        # and one when the count is unknown
        spec = self.SPECS["ex1"]
        serial = random_search(spec, METHODS, (2, 3), RngStream(4), self.TC)
        monkeypatch.delattr(trainer.os, "sched_getaffinity")
        monkeypatch.setattr(trainer.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("IBIRM_THREADS", "2")
        assert random_search(spec, METHODS, (2, 3), RngStream(4), self.TC) == serial

    def _pool_sizes(self, monkeypatch, spec, threads, seeds, cpus):
        """The ``max_workers`` of each pool a sweep of ``seeds`` data seeds
        makes under ``IBIRM_THREADS=threads`` on ``cpus`` CPUs.  The pool's
        batches run here, serially: no process is started."""
        made = []

        class Recorder:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(trainer.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        monkeypatch.setenv("IBIRM_THREADS", threads)
        rows = random_search(spec, ["ERM"], (2, seeds), RngStream(0), self.TC)
        assert [(r.data_seed, r.hparam_id) for r in rows] == \
            [(s, q) for s in range(seeds) for q in range(2)]
        monkeypatch.delenv("IBIRM_THREADS")
        assert rows == random_search(spec, ["ERM"], (2, seeds), RngStream(0), self.TC)
        return made

    @pytest.mark.parametrize("example", sorted(SPECS))
    @pytest.mark.parametrize("threads,seeds,workers",
                             [("64", 2, 2), ("2", 3, 2), ("8", 1, 1)])
    def test_pool_has_at_most_one_worker_per_batch(self, monkeypatch, example,
                                                   threads, seeds, workers):
        # One worker means no pool.
        made = self._pool_sizes(monkeypatch, self.SPECS[example], threads, seeds, 64)
        assert made == ([] if workers == 1 else [workers])

    @pytest.mark.parametrize("example", sorted(SPECS))
    @pytest.mark.parametrize("threads,seeds,cpus,workers",
                             [("8", 8, 2, 2), ("5", 6, 3, 3), ("8", 8, 1, 1)])
    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch, example,
                                                 threads, seeds, cpus, workers):
        # A pool under fork starts every worker at its first task, so more
        # workers than CPUs only add processes.  One worker means no pool.
        made = self._pool_sizes(monkeypatch, self.SPECS[example], threads, seeds, cpus)
        assert made == ([] if workers == 1 else [workers])

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_worker_count_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("IBIRM_THREADS", value)
        with pytest.raises(ParameterError, match="IBIRM_THREADS"):
            random_search(self.SPEC, ["ERM"], (1, 1), RngStream(0), self.TC)

    def test_overflowing_query_does_not_abort(self, monkeypatch):
        # query 1's first update overflows its weights to inf while its
        # objective is still finite; only that query's row reports it
        spec = GeneratorSpec(example="ex1", n_per_env=60, n_envs=2)
        tc = TrainConfig(steps=40, optimizer="adam")
        before = random_search(spec, ["IBIRM"], (3, 1), RngStream(2), tc)
        sample = trainer._sample_hparams

        def huge_lr_for_query1(method, rng):
            lr, lam, gamma = sample(method, rng)
            return (np.finfo(float).max if "query1" in rng.lineage else lr), lam, gamma

        monkeypatch.setattr(trainer, "_sample_hparams", huge_lr_for_query1)
        after = random_search(spec, ["IBIRM"], (3, 1), RngStream(2), tc)
        assert np.isfinite(before[1].val_risk)
        assert after[1].val_risk == after[1].test_metric == float("inf")
        assert after[0] == before[0] and after[2] == before[2]

    @pytest.mark.parametrize("example", sorted(SPECS))
    def test_methods_train_and_test_on_one_draw_per_seed(self, monkeypatch,
                                                         example):
        # Record, per (method, seed), the bytes of every query's training
        # environments and of every test environment that scores a query.
        # A test score is tied to its query by the trained theta's bytes.
        seen, owner = {}, {}
        train, score = trainer.train_gd, trainer.evaluate

        def digest(*arrays):
            return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

        def recording_train(seeds, cfg, tc, counts):
            # a call's queries are seed-major, each seed's method-major
            drawn = []

            def recorded():
                for envs, split_rng in seeds:
                    drawn.append((split_rng.lineage[0],  # seed<s>
                                  digest(*(a for env in envs for a in (env.X, env.Y)))))
                    yield envs, split_rng

            results = train(recorded(), cfg, tc, counts)
            per_method = counts[0] // len(METHODS)
            for i, result in enumerate(results):
                seed, draw = drawn[i // counts[0]]
                key = (METHODS[i % counts[0] // per_method], seed)
                seen.setdefault(key, [set(), set()])[0].add(draw)
                owner[result.theta.tobytes()] = key
            return results

        def recording_score(theta, X, Y, task):
            key = owner.get(theta.tobytes())
            if key is not None:
                seen[key][1].add(digest(X, Y))
            return score(theta, X, Y, task)

        monkeypatch.setattr(trainer, "train_gd", recording_train)
        monkeypatch.setattr(trainer, "evaluate", recording_score)
        spec = self.SPECS[example]
        rows = random_search(spec, METHODS, (2, 3), RngStream(6),
                             TrainConfig(steps=30, optimizer="adam"))
        assert all(np.isfinite(r.val_risk) for r in rows)
        per_seed = []
        for seed in range(3):
            draws = [seen[(m, f"seed{seed}")] for m in METHODS]
            train_draw, test_draw = draws[0]
            assert len(train_draw) == 1 and len(test_draw) == spec.n_envs
            assert all(draw == draws[0] for draw in draws)
            per_seed.append(draws[0])
        assert len({next(iter(train_draw)) for train_draw, _ in per_seed}) == 3

    @pytest.mark.parametrize("example", sorted(SPECS))
    def test_every_query_of_a_seed_trains_and_validates_on_one_split(
            self, monkeypatch, example):
        # Each environment's split is drawn once per data seed, from the
        # stream seed<s>/split/env<e>, which names no method and no query.
        # The seed's training stack is built from its training rows, and
        # every query of the seed is validated on its held-out rows.
        spec, root = self.SPECS[example], RngStream(6)
        splits, built, evaluated = {}, [], {}
        split, score = trainer._split, trainer.evaluate

        def recording_split(n, rng):
            assert rng.lineage not in splits
            splits[rng.lineage] = split(n, rng)
            return splits[rng.lineage]

        def recording(build):
            def wrapped(seeds, *args):
                seeds = list(seeds)
                built.extend(rows for _, rows in seeds)
                return build(seeds, *args)
            return wrapped

        def recording_score(theta, X, Y, task):
            evaluated.setdefault(theta.tobytes(), set()).add(X.tobytes())
            return score(theta, X, Y, task)

        monkeypatch.setattr(trainer, "_split", recording_split)
        monkeypatch.setattr(trainer, "moment_stack", recording(trainer.moment_stack))
        monkeypatch.setattr(trainer, "env_stack", recording(trainer.env_stack))
        monkeypatch.setattr(trainer, "evaluate", recording_score)
        rows = random_search(spec, METHODS, (2, 3), root, self.TC)
        names = [[("seed%d" % s, "split", "env%d" % e) for e in range(spec.n_envs)]
                 for s in range(3)]
        assert sorted(splits) == sorted(name for seed in names for name in seed)
        assert [[r.tobytes() for r in rows_] for rows_ in built] == \
            [[splits[name][0].tobytes() for name in seed] for seed in names]
        held = []
        for s, seed in enumerate(names):
            _, _, envs = generate_training_envs(spec, root.fork(f"seed{s}").fork("data"))
            held.append({env.X[splits[name][1]].tobytes() for env, name in zip(envs, seed)})
        validated = [s for blocks in evaluated.values()
                     for s, seed_held in enumerate(held) if seed_held <= blocks]
        finished = [r.data_seed for r in rows if np.isfinite(r.val_risk)]
        assert sorted(validated) == sorted(finished) and finished

    def test_methods_tuple(self):
        assert METHODS == ("ERM", "IRM", "IBERM", "IBIRM")


class TestBottleneckSlowsSpuriousWeight:
    def test_2d_ratio_ordering_single_seed(self):
        # small-scale version of the learning-speed comparison: with a
        # bottleneck weight the spurious share of the weight stays lower
        spec = GeneratorSpec(example="twod", m=1, o=1, n_per_env=2000, n_envs=3)
        rng = RngStream(13)
        fw, params, envs = generate_training_envs(spec, rng.fork("data"))
        tc = TrainConfig(lr=0.1, steps=800)
        erm_cfg = ObjectiveConfig(lam=0.0, gamma=0.0)
        ib_cfg = ObjectiveConfig(lam=0.0, gamma=0.9)
        erm, = train_gd([(envs, rng.fork("t1"))], erm_cfg, tc, [1])
        ib, = train_gd([(envs, rng.fork("t2"))], ib_cfg, tc, [1])
        r_erm = spurious_ratio(_model(erm), fw, 1)
        r_ib = spurious_ratio(_model(ib), fw, 1)
        assert r_ib < r_erm
