"""The benchmark's workloads: which ``oodbench`` commands one pass runs, and
how each command's outputs are checked.

A pass is the unit of the closed loop: one client runs its commands one at
a time, checks them, then starts the next pass.  Every pass gives every
command the workload seed, so every pass does the same work: how many
passes fit in a run does not change what is measured, and the passes of
one run must give byte-identical outputs.

Why these workloads:

* ``sweep-logistic`` -- ``sweep --example ex2``: the logistic-loss training
  path, where training is ~99% of the wall time.  Four queries share each
  data seed, so an engine that trains the queries of one seed together has
  something to batch.
* ``sweep-square`` -- ``sweep --example ex1``: the square-loss path, run at
  the CLI defaults so that the known GD divergence defect stays visible
  (most queries diverge today) instead of being configured away.  Which
  queries diverge depends on the seed, so the sweep is large (384 trainings
  a pass, most of them cheap divergences) for the share that finishes, and
  with it the throughput, to vary little from seed to seed.
* ``theory`` -- two ``dynamics`` runs and ``entropy``: the Theorem-5 flow
  and the entropy lemmas; no training at all, so training changes should
  leave it unchanged.

``generate`` and ``report`` get no workload: each takes ~0.15 s, too short
to time steadily, and their layers already run inside the sweeps and
``dynamics``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

# The seed a run uses when none is given, and one kept out of tuning so a
# gain claimed on the default seed can be checked on inputs nobody tuned for.
DEFAULT_SEED = 0
HELDOUT_SEED = 7919

METHODS = ("ERM", "IRM", "IBERM", "IBIRM")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "sweep" | "theory"
    example: str = ""         # sweeps only
    queries: int = 0
    seeds: int = 0
    eps: tuple = ()           # theory only: one ``dynamics`` run per value
    trials: int = 1000        # theory only: ``entropy --trials``
    steps: int | None = None  # GD steps via --config; None keeps the default
    setup_repeats: int = 9    # fresh interpreters timed per run


WORKLOADS = {
    "sweep-logistic": Workload("sweep-logistic", "sweep", example="ex2",
                               queries=4, seeds=1),
    "sweep-square": Workload("sweep-square", "sweep", example="ex1",
                             queries=12, seeds=8),
    "theory": Workload("theory", "theory", eps=(1e-3, 1e-4)),
}


def commands(wl, seed, out_dir):
    """The argv lists of one pass, each paired with its output directory."""
    if wl.kind == "sweep":
        out = os.path.join(out_dir, "sweep")
        argv = ["sweep", "--example", wl.example, "--queries", str(wl.queries),
                "--seeds", str(wl.seeds), "--seed", str(seed), "--out", out]
        if wl.steps is not None:
            os.makedirs(out_dir, exist_ok=True)
            cfg = os.path.join(out_dir, "config.json")
            with open(cfg, "w") as fh:
                json.dump({"steps": wl.steps}, fh)
            argv += ["--config", cfg]
        return [(argv, out)]
    cmds = []
    for k, eps in enumerate(wl.eps):
        out = os.path.join(out_dir, f"dynamics{k}")
        cmds.append((["dynamics", "--eps", repr(eps), "--seed", str(seed),
                      "--out", out], out))
    out = os.path.join(out_dir, "entropy")
    cmds.append((["entropy", "--trials", str(wl.trials), "--seed", str(seed),
                  "--out", out], out))
    return cmds


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def check(wl, argv, out, code):
    """Check one command's outputs.

    Returns ``(problems, completed, queries, diverged)``: a list of failed
    checks, the work items it completed (finite-risk trainings for a sweep,
    1 for a passing theory command), and for a sweep the queries attempted
    and those that diverged.  Diverged queries are measured, not failures.
    """
    if code != 0:
        return [f"{argv[0]} exited {code}"], 0, 0, 0
    problems = []
    if argv[0] == "sweep":
        rows = _csv_rows(os.path.join(out, "sweep.csv"))
        want = len(METHODS) * wl.queries * wl.seeds
        if len(rows) != want:
            problems.append(f"sweep.csv has {len(rows)} rows, want {want}")
        summary = {r["method"] for r in _csv_rows(os.path.join(out, "summary.csv"))}
        if summary != set(METHODS):
            problems.append(f"summary.csv methods {sorted(summary)}")
        finite = sum(math.isfinite(float(r["val_risk"])) for r in rows)
        return problems, finite, len(rows), len(rows) - finite
    if argv[0] == "dynamics":
        with open(os.path.join(out, "verdict.json")) as fh:
            verdict = json.load(fh)
        if verdict.get("pass") is not True:
            problems.append(f"dynamics {argv[2]} verdict is not pass")
        if len(_csv_rows(os.path.join(out, "trajectory.csv"))) < 2:
            problems.append("trajectory.csv is empty")
    else:
        results = _csv_rows(os.path.join(out, "entropy.csv"))
        failing = [r["check"] for r in results if r["pass"] != "True"]
        if len(results) != 3 or failing:
            problems.append(f"entropy checks failing: {failing or results}")
    return problems, 0 if problems else 1, 0, 0
