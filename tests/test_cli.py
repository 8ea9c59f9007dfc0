import hashlib
import json
import os

import numpy as np
import pytest

from oodbench.cli import main
from oodbench.dynamics import FlowSpec
from oodbench.reporting import (SWEEP_FIELDS, SummaryRow, aggregate_rows,
                                atomic_write_text, config_hash, fmt_float,
                                format_summary_table, read_csv, write_csv)
from oracle import simulate_flow_full_loop


def _strip_timestamp(text):
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# timestamp="))


def _read(path):
    with open(path) as fh:
        return fh.read()


class TestFormatting:
    def test_fmt_float_round_trips(self):
        for v in (0.1, 1.0 / 3.0, 1e-300, -2.5e17, np.float64(np.pi)):
            assert float(fmt_float(v)) == float(v)

    def test_fmt_float_passes_strings_and_ints(self):
        assert fmt_float("ERM") == "ERM"
        assert fmt_float(7) == "7"

    def test_config_hash_stable_and_order_free(self):
        a = config_hash({"b": 2, "a": 1})
        b = config_hash({"a": 1, "b": 2})
        assert a == b and len(a) == 16
        assert config_hash({"a": 1, "b": 3}) != a

    def test_summary_table_layout(self):
        rows = [SummaryRow("ex2", 3, "ERM", 0.42, 0.01)]
        table = format_summary_table(rows)
        assert "0.42 ± 0.01" in table
        assert "ex2" in table and "ERM" in table


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ("a", "b"), [(1, 0.5), (2, 1.0 / 3.0)], {"root_seed": 7})
        meta, fields, rows = read_csv(path)
        assert meta["root_seed"] == "7"
        assert "version" in meta and "timestamp" in meta
        assert fields == ("a", "b")
        assert [r["a"] for r in rows] == ["1", "2"]
        assert float(rows[1]["b"]) == 1.0 / 3.0

    def test_no_temp_files_left(self, tmp_path):
        path = str(tmp_path / "t.csv")
        atomic_write_text(path, "x\n")
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        atomic_write_text(path, "# root_seed=0\n")
        with pytest.raises(Exception):
            read_csv(path)


class TestAggregateRows:
    def test_per_seed_best_by_validation(self):
        recs = [
            {"example": "ex2", "n_envs": 3, "method": "ERM", "data_seed": 0,
             "val_risk": 0.5, "test_metric": 0.9},
            {"example": "ex2", "n_envs": 3, "method": "ERM", "data_seed": 0,
             "val_risk": 0.1, "test_metric": 0.3},
            {"example": "ex2", "n_envs": 3, "method": "ERM", "data_seed": 1,
             "val_risk": 0.2, "test_metric": 0.5},
        ]
        out = aggregate_rows(recs)
        assert len(out) == 1
        row = out[0]
        # seeds pick metrics 0.3 and 0.5: mean 0.4, population std 0.1
        assert row.mean_metric == pytest.approx(0.4)
        assert row.std_metric == pytest.approx(0.1)

    def test_groups_sorted_by_key(self):
        recs = [
            {"example": "ex2", "n_envs": 3, "method": "IRM", "data_seed": 0,
             "val_risk": 0.1, "test_metric": 0.2},
            {"example": "ex2", "n_envs": 3, "method": "ERM", "data_seed": 0,
             "val_risk": 0.1, "test_metric": 0.4},
        ]
        out = aggregate_rows(recs)
        assert [r.method for r in out] == ["ERM", "IRM"]


class TestGenerateCommand:
    def test_writes_env_files_and_manifest(self, tmp_path):
        out = str(tmp_path / "gen")
        assert main(["generate", "--example", "ex2", "--envs", "3",
                     "--seed", "1", "--out", out]) == 0
        names = sorted(os.listdir(out))
        assert names == ["env_0.csv", "env_1.csv", "env_2.csv", "manifest.json"]
        meta, fields, rows = read_csv(os.path.join(out, "env_0.csv"))
        assert meta["root_seed"] == "1"
        assert fields[:2] == ("env_id", "y")
        assert any(f.startswith("x_") for f in fields)
        assert any(f.startswith("zinv_") for f in fields)
        assert len(rows) == 1000
        manifest = json.loads(_read(os.path.join(out, "manifest.json")))
        assert manifest["n_envs"] == 3 and len(manifest["files"]) == 3

    def test_rerun_identical_up_to_timestamp(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["generate", "--example", "ex1s", "--envs", "2",
                         "--seed", "9", "--out", out]) == 0
        for name in ("env_0.csv", "env_1.csv"):
            assert _strip_timestamp(_read(os.path.join(a, name))) == \
                _strip_timestamp(_read(os.path.join(b, name)))

    def test_different_seeds_differ(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["generate", "--envs", "1", "--seed", "0", "--out", a])
        main(["generate", "--envs", "1", "--seed", "1", "--out", b])
        assert _strip_timestamp(_read(os.path.join(a, "env_0.csv"))) != \
            _strip_timestamp(_read(os.path.join(b, "env_0.csv")))


class TestSweepCommand:
    def _config(self, tmp_path):
        cfg = {"n_per_env": 60, "steps": 20, "queries": 2, "seeds": 2}
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def test_sweep_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--example", "twod", "--envs", "2",
                     "--methods", "erm,iberm", "--seed", "3",
                     "--config", self._config(tmp_path), "--out", out])
        assert code == 0
        meta, fields, rows = read_csv(os.path.join(out, "sweep.csv"))
        assert fields == SWEEP_FIELDS
        assert len(rows) == 2 * 2 * 2  # methods x seeds x queries
        assert {r["method"] for r in rows} == {"ERM", "IBERM"}
        _, sfields, srows = read_csv(os.path.join(out, "summary.csv"))
        assert sfields == ("example", "n_envs", "method", "mean_metric",
                           "std_metric")
        assert len(srows) == 2
        assert "±" in capsys.readouterr().out

    def test_rerun_identical_up_to_timestamp(self, tmp_path):
        outs = [str(tmp_path / d) for d in ("a", "b")]
        for out in outs:
            assert main(["sweep", "--example", "twod", "--envs", "2",
                         "--methods", "irm", "--seed", "5",
                         "--config", self._config(tmp_path), "--out", out]) == 0
        for name in ("sweep.csv", "summary.csv"):
            assert _strip_timestamp(_read(os.path.join(outs[0], name))) == \
                _strip_timestamp(_read(os.path.join(outs[1], name)))

    # sha256 of sweep.csv and summary.csv with the timestamp line removed,
    # as the per-model training engine wrote them before queries were
    # batched: the batched engine must give the same bytes.
    GOLDEN = {
        "ex1": (["--queries", "3", "--seeds", "2"], {"steps": 300},
                "8905c9483209fcffcee9c257392cbd329d4784b57b488d6bae5de664a01b4287",
                "1e93edaadcc58822b1444d211f9c1e820c83cc6810be4f8ffeb152a223b78ce2"),
        "ex2": (["--queries", "2", "--seeds", "1"], {"steps": 500},
                "8eb51e2eb1e5bfa24fc267fffa7df500dc5dfaecdb11ed6d5fef6246d6aa7cac",
                "dd3e7a15d2786ba98cd026c6742db563007906fc812949fe9629b50856cda035"),
    }

    @pytest.mark.parametrize("example", sorted(GOLDEN))
    def test_golden_outputs(self, tmp_path, capsys, example):
        argv, cfg, sweep_sha, summary_sha = self.GOLDEN[example]
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--example", example, *argv, "--seed", "0",
                     "--config", cfg_path, "--out", out]) == 0
        capsys.readouterr()
        for name, sha in (("sweep.csv", sweep_sha), ("summary.csv", summary_sha)):
            body = "".join(line + "\n" for line in
                           _read(os.path.join(out, name)).splitlines()
                           if not line.startswith("# timestamp="))
            assert hashlib.sha256(body.encode()).hexdigest() == sha, name

    def test_bad_worker_count_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("IBIRM_THREADS", "abc")
        code = main(["sweep", "--example", "twod", "--envs", "2",
                     "--methods", "erm", "--config", self._config(tmp_path),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "IBIRM_THREADS" in capsys.readouterr().err

    def test_unknown_method_is_validation_error(self, tmp_path):
        code = main(["sweep", "--methods", "erm,dro",
                     "--out", str(tmp_path / "x")])
        assert code == 2


class TestDynamicsCommand:
    def test_passing_point_writes_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "dyn")
        code = main(["dynamics", "--p", "0.9", "--gamma", "0.58",
                     "--eps", "0.05", "--dt", "0.01", "--out", out])
        assert code == 0
        verdict = json.loads(_read(os.path.join(out, "verdict.json")))
        assert verdict["pass"] is True
        assert verdict["crossing_time"] <= verdict["t_ib"]
        _, fields, rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert fields == ("flow", "t", "w_inv", "w_spu", "ratio")
        assert {r["flow"] for r in rows} == {"ib_erm", "erm"}
        assert len(rows) <= 2 * 4000
        assert "crossing_time" in capsys.readouterr().out

    # sha256 of the ib_erm rows of trajectory.csv for the paper point at
    # eps 1e-3, as the full-horizon RK4 loop wrote them: the fixed-point
    # fill must give the same bytes.
    IB_ROWS_SHA = "572226ae7e629014884bfc0525e5b0a820fa07d68f5738dc29e0d6e270cdf547"

    def test_paper_point_matches_full_loop(self, tmp_path, capsys):
        out = str(tmp_path / "dyn")
        assert main(["dynamics", "--p", "0.9", "--gamma", "0.58",
                     "--eps", "1e-3", "--out", out]) == 0
        capsys.readouterr()
        verdict = json.loads(_read(os.path.join(out, "verdict.json")))
        assert verdict["crossing_time"] == 17.43
        assert verdict["ib_ratio_at_tib"] == 1.3579859753090982e-14
        assert abs(verdict["erm_ratio_at_tib"] - 0.14947645674559448) <= 1e-10
        path = os.path.join(out, "trajectory.csv")
        ib = "".join(line + "\n" for line in _read(path).splitlines()
                     if line.startswith("ib_erm,"))
        assert hashlib.sha256(ib.encode()).hexdigest() == self.IB_ROWS_SHA
        # the plain flow is closed form; the loop's RK4 rows agree
        # within its truncation error
        ref = simulate_flow_full_loop(FlowSpec(kind="erm", p=0.9), verdict["t_ib"], 1e-2)
        stride = -(-len(ref.times) // 4000)
        _, _, rows = read_csv(path)
        got = np.array([[float(r[k]) for k in ("t", "w_inv", "w_spu", "ratio")]
                        for r in rows if r["flow"] == "erm"])
        want = np.column_stack([ref.times, ref.w_inv, ref.w_spu,
                                ref.ratio(0.9)])[::stride]
        assert got.shape == want.shape
        assert np.array_equal(got[:, 0], want[:, 0])
        assert np.max(np.abs(got[:, 1:] - want[:, 1:])) <= 1e-10

    def test_invalid_eps_exits_2(self, tmp_path):
        assert main(["dynamics", "--eps", "2.0",
                     "--out", str(tmp_path / "d")]) == 2

    def test_unstable_step_exits_3(self, tmp_path):
        assert main(["dynamics", "--p", "0.9", "--gamma", "5.0",
                     "--eps", "0.05", "--dt", "1.0",
                     "--out", str(tmp_path / "d")]) == 3


class TestEntropyCommand:
    def test_pass_table_and_csv(self, tmp_path, capsys):
        out = str(tmp_path / "ent")
        assert main(["entropy", "--seed", "0", "--trials", "60",
                     "--out", out]) == 0
        text = capsys.readouterr().out
        assert "sum_entropy_strict" in text
        assert "conditioning_reduces_entropy" in text
        assert "variance_bounds_entropy" in text
        assert "FAIL" not in text
        _, fields, rows = read_csv(os.path.join(out, "entropy.csv"))
        assert fields == ("check", "trials", "worst_gap", "pass")
        assert len(rows) == 3

    def test_no_out_dir_needed(self, capsys):
        assert main(["entropy", "--trials", "30"]) == 0
        capsys.readouterr()


class TestReportCommand:
    def test_round_trip_from_sweep(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"n_per_env": 60, "steps": 20, "queries": 2,
                       "seeds": 2}, fh)
        main(["sweep", "--example", "twod", "--envs", "2", "--methods", "erm",
              "--seed", "1", "--config", cfg, "--out", out])
        capsys.readouterr()
        rep_out = str(tmp_path / "rep")
        code = main(["report", os.path.join(out, "sweep.csv"),
                     "--out", rep_out])
        assert code == 0
        assert "ERM" in capsys.readouterr().out
        assert os.path.exists(os.path.join(rep_out, "summary.csv"))

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.csv")]) == 2

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.csv")
        atomic_write_text(bad, ",".join(SWEEP_FIELDS) + "\n" +
                          "ex2,3,ERM,0,0,0,0,0.01,not_a_number,0.1,0.1\n")
        assert main(["report", bad]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 64
        capsys.readouterr()

    def test_bad_example_choice(self, capsys):
        assert main(["generate", "--example", "mnist"]) == 64
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 64
        capsys.readouterr()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"envs": 2, "n_per_env": 50, "seed": 11}, fh)
        out = str(tmp_path / "gen")
        assert main(["generate", "--example", "twod", "--config", cfg,
                     "--out", out]) == 0
        meta, _, rows = read_csv(os.path.join(out, "env_0.csv"))
        assert meta["root_seed"] == "11"
        assert len(rows) == 50
        assert sorted(os.listdir(out)) == ["env_0.csv", "env_1.csv",
                                           "manifest.json"]

    @pytest.mark.parametrize("flag", [["--seeds", "1"], ["--seeds=1"]])
    def test_explicit_flag_beats_config(self, tmp_path, capsys, flag):
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"seeds": 3, "queries": 1, "steps": 5, "n_per_env": 40}, fh)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--example", "twod", "--envs", "2",
                     "--methods", "erm", *flag, "--config", cfg,
                     "--out", out]) == 0
        capsys.readouterr()
        _, _, rows = read_csv(os.path.join(out, "sweep.csv"))
        assert [r["data_seed"] for r in rows] == ["0"]

    @pytest.mark.parametrize("text", ['{"seedz": 3}', '{"func": 1}', "[1, 2]",
                                      "{not json"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, text):
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            fh.write(text)
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "gen")]) == 64
        assert "cfg.json" in capsys.readouterr().err
