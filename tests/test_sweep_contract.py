"""The sweep against the per-model oracle, under the tolerance contract of
``oodbench.trainer``, through the CLI, once with the engine and once with
every query trained alone on its rows: ex1 on the square loss (moments)
and ex2 on the logistic loss (products over one data seed's rows)."""

import json
import math
import os

import numpy as np
import pytest

import oracle
from oodbench import trainer
from oodbench.cli import main
from oodbench.reporting import read_csv

# Square loss, ex1: optimizer -> (CLI flags, config file, per-query bound,
# summary-mean bound).  The bounds are relative.  Measured at seeds 0 /
# 7919, on one split per data seed: GD per query 2.1e-13 / 5.0e-15 and
# summary means 2.1e-15 / 3.6e-15; Adam per query 2.9e-8 / 8.8e-15 and
# summary means 2.4e-10 / 4.1e-15.  On each query's own split they read GD
# 9.5e-13 / 4.3e-15, Adam 5.4e-14 / 1.2e-14, and on the earlier per-method
# draws GD 1.4e-9 and 8.1e-10, Adam 1.7e-5 and 1.4e-7 at worst.  Adam is
# looser: its step m / sqrt(v) has about unit size whatever the gradient's,
# so a last-bit difference in a near-zero gradient entry becomes a
# step-sized one.
PROTOCOLS = {
    "gd": (["--queries", "6", "--seeds", "2"], {"n_per_env": 200},
           1e-7, 1e-7),
    "adam": (["--queries", "4", "--seeds", "2"],
             {"n_per_env": 200, "steps": 500, "optimizer": "adam"},
             1e-3, 1e-5),
}


# Logistic loss, ex2: optimizer -> (CLI flags, config file).  Measured at
# seeds 0 / 7919, every finite val_risk, test_metric and test_metric_max
# equals the per-model path's.  The bound is one held-out row of the 120:
# a classification error moves by rows, not by ulps.
LOGISTIC = {
    "gd": (["--queries", "4", "--seeds", "2"], {"n_per_env": 200, "steps": 500}),
    "adam": (["--queries", "4", "--seeds", "2"],
             {"n_per_env": 200, "steps": 500, "optimizer": "adam"}),
}
LOGISTIC_ATOL = 1.0 / 120


def _sweep(tmp_path, name, seed, protocol, example="ex1"):
    argv, cfg = protocol[:2]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / name)
    assert main(["sweep", "--example", example, *argv, "--seed", str(seed),
                 "--config", str(cfg_path), "--out", out]) == 0
    return out


def _rows(out, name):
    return read_csv(os.path.join(out, name))[2]


def _selected(rows):
    """The hparam_id kept per (method, data seed): least val_risk, first
    query on a tie."""
    best = {}
    for r in rows:
        cell, val = (r["method"], r["data_seed"]), float(r["val_risk"])
        if cell not in best or val < best[cell][0]:
            best[cell] = (val, r["hparam_id"])
    return {cell: hp for cell, (_, hp) in best.items()}


def _rel(a, b):
    return abs(float(a) - float(b)) / abs(float(b))


@pytest.mark.parametrize("optimizer", sorted(PROTOCOLS))
@pytest.mark.parametrize("seed", [0, 7919])
def test_sweep_matches_per_model_oracle(tmp_path, capsys, monkeypatch,
                                        seed, optimizer):
    engine = _sweep(tmp_path, "engine", seed, PROTOCOLS[optimizer])
    monkeypatch.setattr(trainer, "train_gd", oracle.train_queries)
    reference = _sweep(tmp_path, "oracle", seed, PROTOCOLS[optimizer])
    capsys.readouterr()
    _, _, query_rtol, mean_rtol = PROTOCOLS[optimizer]

    got, want = _paired_rows(engine, reference)
    for g, w in zip(got, want):
        if math.isfinite(float(w["val_risk"])):
            for key in ("val_risk", "test_metric", "test_metric_max"):
                assert _rel(g[key], w[key]) <= query_rtol, (key, g, w)

    got, want = _rows(engine, "summary.csv"), _rows(reference, "summary.csv")
    assert [(r["method"], r["n_diverged"]) for r in got] == \
        [(r["method"], r["n_diverged"]) for r in want]
    for g, w in zip(got, want):
        if w["mean_metric"] != "nan":
            assert _rel(g["mean_metric"], w["mean_metric"]) <= mean_rtol


def _paired_rows(engine, reference):
    """The sweep.csv rows of two sweeps, which must list the same queries,
    diverge on the same ones and select the same one in every (method, data
    seed) cell."""
    got, want = _rows(engine, "sweep.csv"), _rows(reference, "sweep.csv")
    assert [(r["method"], r["data_seed"], r["hparam_id"]) for r in got] == \
        [(r["method"], r["data_seed"], r["hparam_id"]) for r in want]
    diverged = [not math.isfinite(float(r["val_risk"])) for r in want]
    assert [not math.isfinite(float(r["val_risk"])) for r in got] == diverged
    assert not all(diverged)
    assert _selected(got) == _selected(want)
    return got, want


@pytest.mark.parametrize("optimizer", sorted(LOGISTIC))
@pytest.mark.parametrize("seed", [0, 7919])
def test_logistic_sweep_matches_per_model_oracle(tmp_path, capsys, monkeypatch,
                                                 seed, optimizer):
    engine = _sweep(tmp_path, "engine", seed, LOGISTIC[optimizer], "ex2")
    monkeypatch.setattr(trainer, "train_gd", oracle.train_queries)
    reference = _sweep(tmp_path, "oracle", seed, LOGISTIC[optimizer], "ex2")
    capsys.readouterr()
    for g, w in zip(*_paired_rows(engine, reference)):
        if math.isfinite(float(w["val_risk"])):
            for key in ("val_risk", "test_metric", "test_metric_max"):
                assert abs(float(g[key]) - float(w[key])) <= LOGISTIC_ATOL, (key, g, w)


def test_reruns_and_workers_give_the_same_bytes(tmp_path, capsys, monkeypatch):
    outs = [_sweep(tmp_path, name, 0, PROTOCOLS["gd"]) for name in ("a", "b")]
    monkeypatch.setenv("IBIRM_THREADS", "2")
    outs.append(_sweep(tmp_path, "parallel", 0, PROTOCOLS["gd"]))
    capsys.readouterr()
    for name in ("sweep.csv", "summary.csv"):
        texts = []
        for out in outs:
            with open(os.path.join(out, name)) as fh:
                texts.append([line for line in fh
                              if not line.startswith("# timestamp=")])
        assert texts[0] == texts[1] == texts[2], name
    finite = [np.isfinite(float(r["val_risk"])) for r in _rows(outs[0], "sweep.csv")]
    assert any(finite) and not all(finite)
