import hashlib
import json
import os
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from oodbench.cli import (EXAMPLE_CHOICES, SPEC_KEYS, TRAIN_KEYS, _configs,
                          build_parser, main)
from oodbench.dynamics import MAX_HELD_STEPS, theorem5_report
from oodbench.reporting import (SUMMARY_FIELDS, SWEEP_FIELDS, SummaryRow,
                                aggregate_rows, atomic_write_text, config_hash,
                                format_summary_table, read_csv, write_csv)
from oodbench.sem_generators import EXAMPLES
from oodbench.trainer import SweepRow
from oracle import simulate_flow_full_loop

# The sweep.csv columns before diverged_step was added: the handmade files
# of the report tests use them, as report reads a file with or without it.
PLAIN_FIELDS = SWEEP_FIELDS[:-1]


def _strip_timestamp(text):
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# timestamp="))


def _read(path):
    with open(path) as fh:
        return fh.read()


def _sha256_untimed(text):
    """sha256 of ``text`` without its timestamp lines (CSV header or JSON
    meta)."""
    body = "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith("# timestamp=")
                   and not line.lstrip().startswith('"timestamp":'))
    return hashlib.sha256(body.encode()).hexdigest()


def _csv_body(path):
    """The lines of a written CSV after its ``#`` metadata lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [line for line in fh.read().split("\n") if not line.startswith("#")]


class TestFormatting:
    def test_float_cells_round_trip(self, tmp_path):
        values = (0.1, 1.0 / 3.0, 1e-300, -2.5e17, np.float64(np.pi))
        path = str(tmp_path / "t.csv")
        write_csv(path, [f"c{i}" for i in range(len(values))],
                  [[v] for v in values], {})
        _, _, rows = read_csv(path)
        assert [float(cell) for cell in rows[0].values()] == [float(v) for v in values]

    def test_string_and_int_cells_print_as_str(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ("method", "seed"), [["ERM"], [7]], {})
        assert _csv_body(path) == ["method,seed", "ERM,7", ""]

    # Each cell reads as format(float(v), ".17g") prints a numpy or Python
    # float and as str(v) prints anything else; the two rows put different
    # cell types in each column.  The rows are written as their columns.
    EDGE_ROWS = [
        (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308,
         np.float32(0.1), np.int64(-7), True, np.bool_(False), "ERM"),
        (np.float64(0.1), -1e-300, 1.0 / 3.0, np.float32(-0.0), np.int64(2 ** 62),
         np.float16(0.1), False, 3, np.bool_(True), "a%sb", 2.5),
    ]
    EDGE_BODY = [
        "nan,inf,-inf,-0,4.9406564584124654e-324,1e+308,0.10000000149011612,"
        "-7,True,False,ERM",
        "0.10000000000000001,-1e-300,0.33333333333333331,-0,4611686018427387904,"
        "0.0999755859375,False,3,True,a%sb,2.5",
    ]

    def test_cell_bytes_pinned_on_edge_values(self, tmp_path):
        path = str(tmp_path / "t.csv")
        fields = [f"c{i}" for i in range(11)]
        write_csv(path, fields, list(zip(*self.EDGE_ROWS)), {"root_seed": 0})
        assert _csv_body(path) == [",".join(fields), *self.EDGE_BODY, ""]

    # Float columns whose bit patterns differ where values compare equal
    # (0.0 and -0.0) or where nan is unequal to itself (two payloads), with
    # the smallest subnormal, both infinities, and one repeated value.  A
    # float64 array is printed by formatting each distinct bit pattern once;
    # a list of Python floats, cell by cell: both must print each cell as
    # "%.17g" prints it alone.
    FLOAT_COLUMNS = [
        [0.0, -0.0, -0.0, 0.0, -0.0],
        [np.uint64(0x7FF8000000000001).view(np.float64).item(), -np.nan,
         np.uint64(0x7FF8000000000001).view(np.float64).item(), np.nan, -np.nan],
        [5e-324, np.inf, -np.inf, 5e-324, -5e-324],
        [1.0 / 3.0] * 5,
    ]

    @pytest.mark.parametrize("kind", ["array", "list"])
    def test_float_columns_print_cell_by_cell(self, tmp_path, kind):
        bits = [{np.float64(v).view(np.uint64).item() for v in column}
                for column in self.FLOAT_COLUMNS]
        assert [len(b) for b in bits] == [2, 3, 4, 1]
        columns = [np.array(column) if kind == "array" else column
                   for column in self.FLOAT_COLUMNS]
        path = str(tmp_path / "t.csv")
        write_csv(path, ("zero", "nan", "edge", "same"), columns, {})
        want = [",".join("%.17g" % float(v) for v in row)
                for row in zip(*self.FLOAT_COLUMNS)]
        assert _csv_body(path) == ["zero,nan,edge,same", *want, ""]
        assert want[:2] == ["0,nan,4.9406564584124654e-324,0.33333333333333331",
                            "-0,nan,inf,0.33333333333333331"]

    def test_config_hash_stable_and_order_free(self):
        a = config_hash({"b": 2, "a": 1})
        b = config_hash({"a": 1, "b": 2})
        assert a == b and len(a) == 16
        assert config_hash({"a": 1, "b": 3}) != a

    def test_row_fields_are_the_csv_columns(self):
        # sweep.csv and summary.csv rows are the rows' dataclass fields in order
        sweep = [f.name for f in fields(SweepRow)]
        assert sweep == [{"lambda": "lam"}.get(c, c) for c in SWEEP_FIELDS]
        assert tuple(f.name for f in fields(SummaryRow)) == SUMMARY_FIELDS

    def test_summary_table_layout(self):
        rows = [SummaryRow("ex2", 3, "ERM", 0.42, 0.01)]
        table = format_summary_table(rows)
        assert "0.42 ± 0.01" in table
        assert "ex2" in table and "ERM" in table


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ("a", "b"), [[1, 2], [0.5, 1.0 / 3.0]], {"root_seed": 7})
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

    @pytest.mark.parametrize("cell,text", [
        ("ER\u2028M", "ER\u2028M"),
        ("ER\x85M", "ER\x85M"),
        ("ER\x0bM", "ER\x0bM"),
        ("ER\nM", '"ER\nM"'),
        ("ER\r\nM", '"ER\r\nM"'),
    ], ids=["line_separator", "next_line", "vertical_tab", "quoted_newline",
            "quoted_crlf"])
    def test_a_line_break_in_a_cell_stays_in_its_row(self, tmp_path, cell, text):
        # the csv module splits the rows: a break that is not \n or \r
        # ends no row, and a quoted cell keeps its line break
        path = str(tmp_path / "t.csv")
        atomic_write_text(path, f"# root_seed=0\nmethod,seed\n{text},1\nERM,2\n")
        meta, fields, rows = read_csv(path)
        assert meta == {"root_seed": "0"} and fields == ("method", "seed")
        assert rows == [{"method": cell, "seed": "1"}, {"method": "ERM", "seed": "2"}]

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

    def test_diverged_seeds_are_counted_not_averaged(self):
        def rec(method, seed, val, metric):
            return {"example": "ex1", "n_envs": 3, "method": method,
                    "data_seed": seed, "val_risk": val, "test_metric": metric}
        inf = float("inf")
        recs = [rec("ERM", 0, 0.3, 2.0), rec("ERM", 0, inf, inf),
                rec("ERM", 1, inf, inf), rec("ERM", 2, 0.1, 4.0),
                rec("IRM", 0, inf, inf), rec("IRM", 1, inf, inf)]
        erm, irm = aggregate_rows(recs)
        assert (erm.mean_metric, erm.std_metric, erm.n_diverged) == (3.0, 1.0, 1)
        assert np.isnan(irm.mean_metric) and np.isnan(irm.std_metric)
        assert irm.n_diverged == 2
        table = format_summary_table([erm, irm])
        assert "3.00 ± 1.00 (1 diverged)" in table
        assert "- (2 diverged)" in table
        assert "inf" not in table and "nan" not in table

    def test_groups_sorted_by_key(self):
        recs = [
            {"example": "ex2", "n_envs": 3, "method": "IRM", "data_seed": 0,
             "val_risk": 0.1, "test_metric": 0.2},
            {"example": "ex2", "n_envs": 3, "method": "ERM", "data_seed": 0,
             "val_risk": 0.1, "test_metric": 0.4},
        ]
        out = aggregate_rows(recs)
        assert [r.method for r in out] == ["ERM", "IRM"]


class TestConfigs:
    @pytest.mark.parametrize("name", EXAMPLE_CHOICES)
    def test_example_name_round_trips(self, name):
        spec, _ = _configs(build_parser().parse_args(["sweep", "--example", name]))
        assert spec.name == name

    def test_every_scrambled_name_maps_to_a_scrambled_example(self):
        specs = [_configs(build_parser().parse_args(["sweep", "--example", n]))[0]
                 for n in EXAMPLE_CHOICES]
        assert [s.example for s in specs if s.scramble] == \
            [ex for ex, record in EXAMPLES.items() if record.scrambled]
        assert [s.example for s in specs if not s.scramble] == list(EXAMPLES)


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

    # sha256 of the data rows of env_0.csv to env_2.csv at seed 0, the "#"
    # metadata lines removed.
    DATA_SHA = {
        "ex1": "2a8c51b09fb10538d9317eba4577e9ac5ca0dd9748240e23548cf548893fd346",
        "ex2": "df24a12d2d226c68ad5c65ec974f9e4ed232a5499666c2e07a336c2da243d8a9",
        "ex3s": "f5bd4307b39534fa63b47d39e867650b894189a972b0bfad46e00033d54fa477",
        "twod": "38ae11df1f84106722ee525ce1f4fff3aa2b5ea62ed8d353047c21766ece34f5",
        "xor": "748793d26cf48c00f728f53e7975ba813d920cb5892c89680236314a4dc86af9",
    }

    @pytest.mark.parametrize("example", sorted(DATA_SHA))
    def test_data_rows_pinned(self, tmp_path, example):
        out = str(tmp_path / "gen")
        assert main(["generate", "--example", example, "--seed", "0",
                     "--out", out]) == 0
        digest = hashlib.sha256()
        for name in ("env_0.csv", "env_1.csv", "env_2.csv"):
            for line in _read(os.path.join(out, name)).splitlines():
                if not line.startswith("#"):
                    digest.update((line + "\n").encode())
        assert digest.hexdigest() == self.DATA_SHA[example]

    def test_config_hash_covers_the_resolved_spec(self, tmp_path):
        hashes = []
        for name, n_per_env in (("a", 50), ("b", 60), ("c", 50)):
            cfg = str(tmp_path / f"{name}.json")
            with open(cfg, "w") as fh:
                json.dump({"n_per_env": n_per_env}, fh)
            out = str(tmp_path / name)
            assert main(["generate", "--envs", "1", "--config", cfg,
                         "--out", out]) == 0
            hashes.append(read_csv(os.path.join(out, "env_0.csv"))[0]["config_hash"])
        assert hashes[0] != hashes[1]
        assert hashes[0] == hashes[2]


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
                           "std_metric", "n_diverged")
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

    def test_config_hash_covers_the_resolved_config(self, tmp_path, capsys):
        hashes = []
        for name, steps in (("a", 5), ("b", 10), ("c", 5)):
            cfg = str(tmp_path / f"{name}.json")
            with open(cfg, "w") as fh:
                json.dump({"steps": steps}, fh)
            out = str(tmp_path / name)
            assert main(["sweep", "--example", "twod", "--queries", "1",
                         "--seeds", "1", "--config", cfg, "--out", out]) == 0
            hashes.append(read_csv(os.path.join(out, "sweep.csv"))[0]["config_hash"])
        capsys.readouterr()
        assert hashes[0] != hashes[1]
        assert hashes[0] == hashes[2]

    # sha256 of sweep.csv and summary.csv with the timestamp line removed.
    # Every pin was taken again when the methods of a sweep were paired on
    # one data draw per seed and sweep.csv gained its diverged_step column;
    # every row's lambda, gamma and lr cells, and the metadata lines, kept
    # their bytes.  Before that, ex2 was the bytes the per-model training
    # engine wrote (but for the config_hash line and summary.csv's
    # n_diverged column), and the other classification pins were checked
    # against the earlier paths when the softplus, the shifted test
    # environments and the scrambled names changed.  ex1 is trained from
    # moments: test_square_contract.py ties it to the per-model path.
    GOLDEN = {
        "ex1": (["--queries", "3", "--seeds", "2"], {"steps": 300},
                "5bd5c730178b09abb414ed3a54a1cb6106c1df838b64812beb9f35fe484d1f8a",
                "08e0f3ab8631b73b20e5b93d471ddd2b87c5cd375a7633a669d7e6058dee1ccb"),
        "ex2": (["--queries", "2", "--seeds", "1"], {"steps": 500},
                "ee961e102a8ceec7e5d29da52772a9d13337c3c3f7096b6e37f0d3e7c3cef54e",
                "0a3087b07a8f74ae95a79f4c0a0e31ede142740e350ddf25df6ebcdba89b4a5e"),
        "ex2s": (["--queries", "2", "--seeds", "1"], {"steps": 200, "n_per_env": 200},
                 "a45ec1057a39dae67a5f4ae9a0637bf2f1f6598a4c07589539c8e1126b012937",
                 "571d83b91bac5214a3f886e86d3dc9c39e514557fe4da74a2b7dad2e8c6f0166"),
        "ex3": (["--queries", "2", "--seeds", "1"], {"steps": 200, "n_per_env": 200},
                "d12c31f947f3884827c4711ef0f44484e3bb5ec9d43624e7cd5b35ea5980b556",
                "6efb74cac56e8d4a60ec188a53b3f3e6faa0fe9cbe3ebbcdad5bf7d251db0531"),
        "ex3s": (["--queries", "2", "--seeds", "1"], {"steps": 200, "n_per_env": 200},
                 "f1edb885da613c8885a0f86285177e63a01f48f23d07569db94ec5c325c83a9a",
                 "fcd139278bc820db4ab625157d34d068a8aca5e8aecaa89904b05428fb362ae8"),
        "twod": (["--queries", "2", "--seeds", "2"], {"steps": 200, "n_per_env": 200},
                 "07230d3050b097a91b449acc067e31833ac7744e4f5944c05dd0ff3614ae463c",
                 "5c5d84bddfb9158726090c34ec75e66e08c684282f869cdabf4259751a0ccd5f"),
        "xor": (["--queries", "3", "--seeds", "1"], {"steps": 200, "n_per_env": 200},
                "e11edc6003b1f0e61ee9d2eeac2dc24cda8eb0afd17181d2d02a9042fe3d9717",
                "8c76b550d58fa79880611c4ce41104585b629dedb5f77b2a7b4e36ee64f293d7"),
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
            assert _sha256_untimed(_read(os.path.join(out, name))) == sha, name

    def test_diverged_step_is_empty_for_a_finished_query(self, tmp_path, capsys):
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"steps": 300, "queries": 3, "seeds": 2}, fh)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--example", "ex1", "--config", cfg,
                     "--out", out]) == 0
        capsys.readouterr()
        rows = read_csv(os.path.join(out, "sweep.csv"))[2]
        finished = [r["diverged_step"] == "" for r in rows]
        assert any(finished) and not all(finished)
        for r, done in zip(rows, finished):
            assert done == (r["val_risk"] != "inf")
            assert done or 0 <= int(r["diverged_step"]) <= 300

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_one_method_sweep_is_its_rows_of_the_full_sweep(self, tmp_path,
                                                            capsys, example):
        # ex1 trains every method of a seed batch as one batch, ex2 one
        # batch per method; either way a method's rows are its own
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"n_per_env": 100, "steps": 200, "queries": 3,
                       "seeds": 2}, fh)
        bodies = []
        for name, methods in (("erm", ["--methods", "erm"]), ("all", [])):
            out = str(tmp_path / name)
            assert main(["sweep", "--example", example, *methods, "--seed", "4",
                         "--config", cfg, "--out", out]) == 0
            bodies.append(_csv_body(os.path.join(out, "sweep.csv")))
        capsys.readouterr()
        (_, *erm, _), (_, *every, _) = bodies
        assert len(erm) == 6 and len(every) == 24
        assert erm == [line for line in every if line.split(",")[2] == "ERM"]

    def test_bad_worker_count_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("IBIRM_THREADS", "abc")
        code = main(["sweep", "--example", "twod", "--envs", "2",
                     "--methods", "erm", "--config", self._config(tmp_path),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "IBIRM_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("methods,message", [
        pytest.param("erm,dro", "unknown method", id="unknown"),
        pytest.param(",", "names no method", id="empty"),
        pytest.param("erm,erm", "repeats a method", id="repeated")])
    def test_unknown_method_is_validation_error(self, tmp_path, capsys,
                                                methods, message):
        out = tmp_path / "x"
        code = main(["sweep", "--methods", methods, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


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
        ref = simulate_flow_full_loop(0.9, 0.0, verdict["t_ib"], 1e-2)
        stride = -(-len(ref.times) // 4000)
        _, _, rows = read_csv(path)
        got = np.array([[float(r[k]) for k in ("t", "w_inv", "w_spu", "ratio")]
                        for r in rows if r["flow"] == "erm"])
        want = np.column_stack([ref.times, ref.w_inv, ref.w_spu,
                                ref.ratio(0.9)])[::stride]
        assert got.shape == want.shape
        assert np.array_equal(got[:, 0], want[:, 0])
        assert np.max(np.abs(got[:, 1:] - want[:, 1:])) <= 1e-10

    # sha256 of trajectory.csv (both flows) and verdict.json, timestamps
    # removed, as written when both flows were held on the full grid, and,
    # at eps 0.05, where no column settles, as written row by row.
    PINNED = {
        "1e-3": ("fd92d9526c38643769ef92557587d32ddc46298e9108ec08816490efbd5cf043",
                 "4e3c126597f23cb10e32a7d5021dc88c73f992965f53caac4ebba3fb9bbe4d00"),
        "1e-4": ("42dd81761dd65a3b3bda0bcd8066fd6889295b10b1439738631b89121ab72270",
                 "fd0ab03a6dfd8011e8266c919b90f47044f7fb1f58d50508a6da914e392ced7d"),
        "0.05": ("d97c84175adf9464f9691b81383e86d8a9f7ebe4177a5a8ecde842fab66c5d15",
                 "d2a23b07de2ef747a3b52238c7e12f7d27645e4330631304b0f53cdd0383a66c"),
    }

    def test_unsettled_pin_has_no_fixed_point(self):
        # at eps 0.05 the penalized y-coordinate reaches no fixed point on
        # its grid, and the CSV holds 2,576 rows a flow, at stride 2
        ib = theorem5_report(0.9, 0.58, 0.05, 1e-2)["ib_trajectory"]
        assert ib.jy == ib.n_full == 5150
        assert -(-(ib.n_steps + 1) // 4000) == 2
        assert ib.at(np.arange(0, ib.n_steps + 1, 2))[0].size == 2576

    @pytest.mark.parametrize("eps", sorted(PINNED))
    def test_outputs_pinned(self, tmp_path, capsys, eps):
        out = str(tmp_path / "dyn")
        assert main(["dynamics", "--eps", eps, "--out", out]) == 0
        capsys.readouterr()
        for name, sha in zip(("trajectory.csv", "verdict.json"), self.PINNED[eps]):
            assert _sha256_untimed(_read(os.path.join(out, name))) == sha, name

    def test_long_horizon_memory_bounded(self, tmp_path, capsys):
        # eps 1e-6 puts 257,528,620 points on each flow's grid (about 16 GB
        # if both grids are held); only the RK4 prefix and the written rows
        # are computed
        out = str(tmp_path / "dyn")
        tracemalloc.start()
        try:
            code = main(["dynamics", "--eps", "1e-6", "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 8e6
        verdict = json.loads(_read(os.path.join(out, "verdict.json")))
        assert verdict["crossing_time"] == 37.08
        _, _, rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert len(rows) == 2 * 4000

    # Each bad value exits 2 before any output, with a message naming the
    # flag; a non-finite gamma, eps or dt is not blamed on the grid.
    BAD_VALUES = [("eps", "2.0", "eps >= 1"), ("eps", "nan", "eps must be > 0"),
                  ("gamma", "nan", "gamma must be > 0"),
                  ("gamma", "inf", "gamma = inf and eps"),
                  ("gamma", "1e308", "gamma = 1e+308 and eps"),
                  ("dt", "nan", "dt must be finite"), ("dt", "inf", "dt must be finite"),
                  # negative values that argparse alone would take for options
                  ("eps", "-1e-3", "eps must be > 0"),
                  ("gamma", "-5e-1", "gamma must be > 0"),
                  ("dt", "-inf", "dt must be finite")]

    @pytest.mark.parametrize("flag,value,message", BAD_VALUES,
                             ids=[f"{flag}-{value}" for flag, value, _ in BAD_VALUES])
    def test_invalid_value_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "d"
        assert main(["dynamics", f"--{flag}", value, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps,message", [("1e-20", "2**53"),
                                             ("5e-324", "float range")])
    def test_horizon_too_long_for_the_grid_exits_2(self, tmp_path, capsys,
                                                   eps, message):
        assert main(["dynamics", "--eps", eps, "--out", str(tmp_path / "d")]) == 2
        assert message in capsys.readouterr().err

    def test_flow_that_never_settles_exits_2_within_seconds(self, tmp_path, capsys):
        # gamma 1e-300 at eps 1e-3 puts x* near 684 and T_ib near 3.4e6, a
        # fill of 3.4e8 RK4 steps; the cap ends it after MAX_HELD_STEPS
        out = tmp_path / "d"
        start = time.monotonic()
        assert main(["dynamics", "--gamma", "1e-300", "--out", str(out)]) == 2
        assert time.monotonic() - start < 30.0
        err = capsys.readouterr().err
        assert "gamma = 1e-300 with dt = 0.01" in err
        assert f"{MAX_HELD_STEPS:,} RK4 steps" in err
        assert not out.exists()

    def test_slow_coordinate_near_p_1_exits_2_naming_p(self, tmp_path, capsys):
        # at the default gamma the coordinate y, of rate 2(1 - p) = 2e-8,
        # is the one that does not settle: the message names p
        out = tmp_path / "d"
        start = time.monotonic()
        assert main(["dynamics", "--p", "0.99999999", "--out", str(out)]) == 2
        assert time.monotonic() - start < 30.0
        err = capsys.readouterr().err
        assert "p = 0.99999999, gamma = 0.58 with dt = 0.01" in err
        assert "rate 2e-08" in err
        assert not out.exists()

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

    # sha256 of entropy.csv and of stdout at 1000 trials, timestamps removed.
    PINNED = {
        "0": ("d59b0fd4223f1fa679dde38bf82b58cda74e718982a271abad0004760b864b3e",
              "19d499ab6884b7707b28cb06532329e731f695e6440b4053cb5e850d61aa9352"),
        "7919": ("9563e547c783cd67c4cb3913613a7977510db313316d952c0b5c1ba32a0ad413",
                 "fae9a8e6d665724fac9bdfeb54f822967550f8c57c4620e235cae7ab1c9a55a5"),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_outputs_pinned(self, tmp_path, capsys, seed):
        out = str(tmp_path / "ent")
        assert main(["entropy", "--trials", "1000", "--seed", seed,
                     "--out", out]) == 0
        csv_sha, stdout_sha = self.PINNED[seed]
        assert _sha256_untimed(capsys.readouterr().out) == stdout_sha
        assert _sha256_untimed(_read(os.path.join(out, "entropy.csv"))) == csv_sha

    def test_no_out_dir_needed(self, capsys):
        assert main(["entropy", "--trials", "30"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_exits_2(self, capsys, trials):
        assert main(["entropy", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "trials" in captured.err and "pass" not in captured.out


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
        # the sweep summarises its rows in memory: the same data rows
        assert read_csv(os.path.join(rep_out, "summary.csv"))[1:] == \
            read_csv(os.path.join(out, "summary.csv"))[1:]

    def test_byte_order_mark_reads_as_the_plain_file(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"n_per_env": 60, "steps": 20, "queries": 2,
                       "seeds": 2}, fh)
        assert main(["sweep", "--example", "twod", "--envs", "2",
                     "--methods", "erm,irm", "--seed", "1", "--config", cfg,
                     "--out", out]) == 0
        plain = os.path.join(out, "sweep.csv")
        marked = str(tmp_path / "marked.csv")
        with open(plain, encoding="utf-8", newline="") as fh:
            text = fh.read()
        with open(marked, "w", encoding="utf-8-sig", newline="") as fh:
            fh.write(text)
        with open(marked, "rb") as fh:
            assert fh.read(4) == b"\xef\xbb\xbf#"
        capsys.readouterr()
        summaries = []
        for name, path in (("plain", plain), ("marked", marked)):
            rep_out = str(tmp_path / name)
            assert main(["report", path, "--out", rep_out]) == 0
            summaries.append((capsys.readouterr().out,
                              read_csv(os.path.join(rep_out, "summary.csv"))[1:]))
        assert summaries[0] == summaries[1]

    def test_scrambled_example_is_its_own_group(self, tmp_path, capsys):
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"n_per_env": 60, "steps": 5, "queries": 1, "seeds": 1}, fh)
        files = []
        for example in ("ex1", "ex1s"):
            out = str(tmp_path / example)
            assert main(["sweep", "--example", example, "--methods", "erm",
                         "--config", cfg, "--out", out]) == 0
            files.append(os.path.join(out, "sweep.csv"))
            assert {r["example"] for r in read_csv(files[-1])[2]} == {example}
        rep_out = str(tmp_path / "rep")
        assert main(["report", *files, "--out", rep_out]) == 0
        capsys.readouterr()
        rows = read_csv(os.path.join(rep_out, "summary.csv"))[2]
        assert [r["example"] for r in rows] == ["ex1", "ex1s"]

    def test_std_of_large_metrics_is_finite(self, tmp_path, capsys):
        # squaring 1e160 overflows; the summary must not, and the table
        # prints the values in exponent form, not 161 digits
        path = str(tmp_path / "sweep.csv")
        atomic_write_text(path, ",".join(PLAIN_FIELDS) + "\n" +
                          "ex2,3,ERM,0,0,0,0,0.01,0.2,1e160,1e160\n" +
                          "ex2,3,ERM,1,0,0,0,0.01,0.2,3e160,3e160\n")
        rep_out = str(tmp_path / "rep")
        assert main(["report", path, "--out", rep_out]) == 0
        out = capsys.readouterr().out
        assert "2.00e+160 ± 1.00e+160 (0 diverged)" in out
        assert max(len(line) for line in out.splitlines()) <= 80
        row, = read_csv(os.path.join(rep_out, "summary.csv"))[2]
        assert float(row["mean_metric"]) == 2e160
        assert float(row["std_metric"]) == 1e160

    @pytest.mark.parametrize("metrics,cell,mean,std", [
        ((1e308,), "1.00e+308 ± 0.00 (0 diverged)", 1e308, 0.0),
        ((1e308, 1.5e308), "1.25e+308 ± 2.50e+307 (0 diverged)", 1.25e308, 2.5e307),
        ((-2.0 ** 1023, 2.0 ** 1023), "0.00 ± 8.99e+307 (0 diverged)", 0.0, 2.0 ** 1023),
    ], ids=["one", "two", "at_2**1023"])
    def test_metrics_near_the_largest_float_are_summarised(self, tmp_path, capsys,
                                                           metrics, cell, mean, std):
        # a finite metric of magnitude 2**1023 or more has no finite power
        # of two above it: the scale is capped at 2**1023, with no warning
        path = str(tmp_path / "sweep.csv")
        atomic_write_text(path, ",".join(PLAIN_FIELDS) + "\n" + "".join(
            f"ex2,3,ERM,{seed},0,0,0,0.01,0.2,{m!r},{m!r}\n"
            for seed, m in enumerate(metrics)))
        rep_out = str(tmp_path / "rep")
        assert main(["report", path, "--out", rep_out]) == 0
        assert cell in capsys.readouterr().out
        row, = read_csv(os.path.join(rep_out, "summary.csv"))[2]
        assert (float(row["mean_metric"]), float(row["std_metric"])) == (mean, std)

    def test_nan_val_risk_is_ranked_last_in_either_order(self, tmp_path, capsys):
        # one seed, two queries: val_risk nan with test metric 9, and 0.5
        # with 1; the numbered query is kept whichever row comes first
        rows = ["ex2,3,ERM,0,0,0,0,0.01,nan,9.0,9.0",
                "ex2,3,ERM,0,1,0,0,0.01,0.5,1.0,1.0"]
        bodies = []
        for name, order in (("nan_first", rows), ("nan_last", rows[::-1])):
            path = str(tmp_path / f"{name}.csv")
            atomic_write_text(path, ",".join(PLAIN_FIELDS) + "\n" +
                              "\n".join(order) + "\n")
            rep_out = tmp_path / name
            assert main(["report", path, "--out", str(rep_out)]) == 0
            assert "1.00 ± 0.00 (0 diverged)" in capsys.readouterr().out
            bodies.append(_csv_body(rep_out / "summary.csv"))
        assert bodies[0] == bodies[1]
        assert read_csv(str(tmp_path / "nan_first" / "summary.csv"))[2][0][
            "mean_metric"] == "1"

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.csv")]) == 2

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.csv")
        atomic_write_text(bad, ",".join(PLAIN_FIELDS) + "\n" +
                          "ex2,3,ERM,0,0,0,0,0.01,not_a_number,0.1,0.1\n")
        assert main(["report", bad]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err

    @pytest.mark.parametrize("row", [
        "ex2,three,ERM,0,0,0,0,0.01,0.2,0.1,0.1",
        "ex2,3,ERM,0.5,0,0,0,0.01,0.2,0.1,0.1",
        "ex2,3,ERM",
        "ex2,3,ERM,0,0,0,0,0.01,0.2,0.1,0.1,0.1",
        "x" * 131_073 + ",3,ERM,0,0,0,0,0.01,0.2,0.1,0.1",
    ], ids=["n_envs", "data_seed", "short_row", "long_row", "overlong_field"])
    def test_bad_cell_exits_2(self, tmp_path, capsys, row):
        bad = str(tmp_path / "bad.csv")
        atomic_write_text(bad, ",".join(PLAIN_FIELDS) + "\n" + row + "\n")
        assert main(["report", bad]) == 2
        assert "bad.csv: bad row 2" in capsys.readouterr().err

    def test_repeated_column_exits_2(self, tmp_path, capsys):
        # read from the last copy, the row's ex1 would be its example
        bad = str(tmp_path / "bad.csv")
        atomic_write_text(bad, ",".join(PLAIN_FIELDS) + ",example\n" +
                          "ex2,3,ERM,0,0,0,0,0.01,0.2,0.1,0.1,ex1\n")
        assert main(["report", bad]) == 2
        assert "bad.csv: header repeats example" in capsys.readouterr().err

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes((",".join(PLAIN_FIELDS) + "\n" +
                         "caf\xe9,3,ERM,0,0,0,0,0.01,0.2,0.1,0.1\n")
                        .encode("latin-1"))
        assert main(["report", str(bad)]) == 2
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err


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
                                      "{not json", b'{"seed": "\xff"}'])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, text):
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode())
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "gen")]) == 64
        assert "cfg.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      '{"seed": 1' + "0" * 5000 + "}"],
                             ids=["deep_nesting", "long_integer"])
    def test_json_past_the_parser_limits_is_usage_error(self, tmp_path, capsys,
                                                        text):
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "gen")]) == 64
        assert f"config file {cfg}: " in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,key", [({"steps": "5"}, "steps"),
                                         ({"n_per_env": "abc"}, "n_per_env"),
                                         ({"seed": [1]}, "seed")])
    def test_wrong_value_type_is_usage_error(self, tmp_path, capsys, cfg, key):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["sweep", "--example", "twod", "--queries", "1",
                     "--seeds", "1", "--config", path,
                     "--out", str(tmp_path / "sweep")]) == 64
        err = capsys.readouterr().err
        assert "cfg.json" in err and f"{key} must be" in err

    @pytest.mark.parametrize("command,example", [("sweep", "twods"),
                                                 ("generate", "xors")])
    def test_example_outside_the_choices_is_usage_error(self, tmp_path, capsys,
                                                       command, example):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump({"example": example, "steps": 5, "n_per_env": 40}
                      if command == "sweep" else {"example": example}, fh)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert "cfg.json" in err and "example must be one of" in err
        assert not out.exists()

    def test_example_among_the_choices_runs(self, tmp_path, capsys):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump({"example": "ex1s", "steps": 5, "n_per_env": 40,
                       "queries": 1, "seeds": 1, "methods": "erm"}, fh)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", path, "--out", out]) == 0
        capsys.readouterr()
        assert {r["example"] for r in read_csv(os.path.join(out, "sweep.csv"))[2]} \
            == {"ex1s"}

    @pytest.mark.parametrize("key", ["xor_q", "xor_a"])
    def test_xor_probability_outside_unit_interval_exits_2(self, tmp_path,
                                                            capsys, key):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump({key: 1.5}, fh)
        out = tmp_path / "sweep"
        assert main(["sweep", "--example", "xor", "--config", path,
                     "--out", str(out)]) == 2
        name = key.removeprefix("xor_")
        assert f"xor probability {name}=1.5 outside [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_xor_settings_are_checked_on_another_example(self, tmp_path, capsys):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump({"xor_variant": "bogus", "xor_q": 1.5}, fh)
        out = tmp_path / "gen"
        assert main(["generate", "--example", "ex1", "--config", path,
                     "--out", str(out)]) == 2
        assert "xor_variant must be one of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "generate"])
    @pytest.mark.parametrize("key,value", [("xor_variant", "invariance_only"),
                                           ("xor_q", 0.2), ("xor_a", 0.3)])
    def test_xor_setting_on_another_example_exits_2(self, tmp_path, capsys,
                                                    command, key, value):
        # a valid value that the example would ignore, changing only its
        # config_hash
        path = str(tmp_path / "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({key: value}, fh)
        out = tmp_path / "out"
        assert main([command, "--example", "ex1s", "--config", path,
                     "--out", str(out)]) == 2
        assert f"{key} applies only to the xor example, not ex1s" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "generate"])
    @pytest.mark.parametrize("variant,cfg,readers", [
        ("invariance_only", {"xor_a": 0.3}, "both xor variant"),
        ("bottleneck_only", {"xor_q": 0.2}, "both, invariance_only xor variants"),
        ("bottleneck_only", {"xor_a": 0.3}, "both xor variant"),
        ("bottleneck_only", {"xor_q": 0.2, "xor_a": 0.3}, "both, invariance_only xor variants"),
    ], ids=["invariance_only-a", "bottleneck_only-q", "bottleneck_only-a",
            "bottleneck_only-q_a"])
    def test_xor_setting_the_variant_does_not_read_exits_2(self, tmp_path, capsys,
                                                          command, variant, cfg,
                                                          readers):
        # bottleneck_only draws no label noise (q) and no second spurious
        # feature (a), invariance_only no second spurious feature: the
        # setting would change nothing but config_hash
        path = str(tmp_path / "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"xor_variant": variant, **cfg}, fh)
        out = tmp_path / "out"
        assert main([command, "--example", "xor", "--config", path,
                     "--out", str(out)]) == 2
        assert f"{next(iter(cfg))} applies only to the {readers}, not {variant}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variant,cfg", [
        ("both", {"xor_q": 0.2, "xor_a": 0.3}), ("invariance_only", {"xor_q": 0.2})])
    def test_xor_setting_the_variant_reads_is_accepted(self, tmp_path, variant, cfg):
        path = str(tmp_path / "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"xor_variant": variant, "n_per_env": 20, **cfg}, fh)
        assert main(["generate", "--example", "xor", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["sweep", "generate"])
    @pytest.mark.parametrize("example", ["twod", "xor"])
    @pytest.mark.parametrize("cfg", [{"m": 7}, {"o": 2}, {"m": 7, "o": 2}],
                             ids=["m", "o", "m_o"])
    def test_a_setting_the_example_does_not_read_exits_2(self, tmp_path, capsys,
                                                         command, example, cfg):
        # m and o size only ex1-ex3's latents: on twod and xor they would
        # change nothing but config_hash
        path = str(tmp_path / "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = tmp_path / "out"
        assert main([command, "--example", example, "--config", path,
                     "--out", str(out)]) == 2
        assert f"{next(iter(cfg))} applies only to the ex1, ex2, ex3 examples, " \
            f"not {example}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "generate"])
    @pytest.mark.parametrize("cfg,message", [
        ({"m": 10_000_000_000}, "need an array of 1.6e+21 bytes, more than numpy can hold"),
        ({"n_per_env": 10 ** 16}, "out of memory: Unable to allocate"),
        ({"n_per_env": 10 ** 20}, "need an array of 1.6e+22 bytes, more than numpy can hold"),
    ], ids=["m", "n_per_env-1e16", "n_per_env-1e20"])
    def test_oversized_setting_exits_2(self, tmp_path, capsys, command, cfg, message):
        # Each size is refused by numpy before a page is touched: two exceed
        # what an array's byte count can hold, and 1e16 rows ask for 711 PiB,
        # more than a process can address.  Never test a size that memory
        # overcommit could map.
        path = str(tmp_path / "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = tmp_path / "out"
        assert main([command, "--example", "ex1", "--config", path,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_sweep_help_names_every_config_key(self, capsys):
        assert main(["sweep", "--help"]) == 0
        out = capsys.readouterr().out
        assert [k for k in (*SPEC_KEYS, *TRAIN_KEYS) if k not in out] == []
        assert "IBIRM_THREADS" in out

    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path),
                     "--out", str(tmp_path / "gen")]) == 2
        assert str(tmp_path) in capsys.readouterr().err
