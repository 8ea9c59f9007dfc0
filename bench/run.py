"""Benchmark of the ``oodbench`` CLI, end to end and layer by layer.

    python3 bench/run.py --workload sweep-logistic --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  One client process (``client.py``)
drives ``oodbench.cli.main`` as a closed loop: one command at a time,
serial (``IBIRM_THREADS`` unset, BLAS pinned to one thread), for
``--seconds``.  Every command's outputs are checked; a run whose checks
fail prints ``"correct": false`` with no timing and exits 1.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` -- median, over several fresh interpreters, of the CPU time
  a client has used when it is ready (interpreter started, ``oodbench.cli``
  imported, first inputs prepared).  The wall times are in the record.
* ``completed_per_cpu_s`` -- completed work of one pass over the client's
  CPU time inside that pass's commands, taking each command's fastest pass:
  trainings with a finite ``val_risk`` on the sweeps, commands that exit 0
  with passing checks on ``theory``.  A diverged query is wasted work, so a
  fix that turns divergences into finished trainings raises it.  Every pass
  does the same work, so the fastest is the one least slowed by other
  tenants of a shared machine.  CPU time, not wall time, because on a
  shared virtual machine the time the client waits for a CPU it was
  promised varies from run to run; the client is serial, so the two agree
  on an idle machine (both are in the record).
* ``peak_rss_mb`` -- peak resident memory of the client.

``--trace 1`` runs each pass untraced and then traced (``spans.py``) and
reports per-layer metrics per traced pass, the share of queries that
diverged (``failed_frac``), and the tracing overhead.

``--seed`` defaults to ``workloads.DEFAULT_SEED``; claim a gain on
``workloads.HELDOUT_SEED`` too.  The last line of stdout is the result
JSON.  A record goes to ``.bench_out/<workload>-seed<n>-trace<t>.json``:
provenance (Python, numpy, BLAS, CPUs, git commit, line counts of ``src/``
and ``tests/``), each pass's times, counts and output digest, and the
workload digest to compare a change with its parent.  Every pass of a run
uses the one seed, so a run whose passes (traced or not) give different
outputs fails its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "completed_per_cpu_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"calls": "count", "diverged": "count", "steps": "count",
                   "bytes": "B", "us_per_call": "us"}
OUT = ".bench_out"
# A whole run must end within 180 s; this leaves a margin for set-up and the record.
CLIENT_DEADLINE_S = 165.0


def per_layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_frac"):
        return "frac"
    return PER_LAYER_UNITS.get(last, "s")


def _client_env():
    env = {k: v for k, v in os.environ.items() if k != "IBIRM_THREADS"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(job, work_dir, deadline):
    """Start a client on ``job``; return (CPU seconds and wall seconds until
    it was ready, exit code).  The client is killed if it outlives
    ``deadline``."""
    os.makedirs(work_dir, exist_ok=True)
    job_path = os.path.join(work_dir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    with open(os.path.join(work_dir, "client.log"), "a") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "client.py"), job_path],
            stdout=subprocess.PIPE, stderr=log, env=_client_env(), text=True)
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        try:
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "timeout"
    word, _, cpu = line.partition(" ")
    return ((float(cpu), wall) if word == "ready" else None), proc.returncode


def digest_problems(passes):
    """All passes of a run use one seed, so their outputs must agree."""
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        return [f"outputs differ between passes at seed {passes[0]['seed']}: "
                f"{len(digests)} distinct digests"]
    return []


def _line_count(root, sub):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, sub)):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _git_commit(root):
    git_dir = os.path.join(root, ".git")
    if not os.path.isdir(git_dir):
        return None
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:  # no git on PATH
        return None
    return out.stdout.strip() or None


def provenance(root):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(root),
            "lines_src": _line_count(root, "src"),
            "lines_tests": _line_count(root, "tests")}


def measure(root, wl, seed, seconds, trace, out_root):
    """Run workload ``wl`` once; returns the result line, the full record,
    and the client's working directory."""
    deadline = time.monotonic() + CLIENT_DEADLINE_S
    work_dir = os.path.join(out_root, f"{wl.name}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    job = {"src": os.path.join(root, "src"), "out": work_dir, "seed": seed,
           "seconds": seconds, "trace": bool(trace), "setup_only": True,
           "workload": wl.__dict__}
    setup, problems = [], []
    for _ in range(0 if trace else wl.setup_repeats - 1):
        ready, code = _spawn(job, work_dir, deadline)
        if ready is None or code != 0:
            problems.append(f"set-up client failed: exit {code}")
            break
        setup.append(ready)
    result = None
    if not problems:
        ready, code = _spawn({**job, "setup_only": False}, work_dir, deadline)
        result_path = os.path.join(work_dir, "result.json")
        if ready is None or code != 0 or not os.path.exists(result_path):
            problems.append(f"client failed: exit {code}, see {work_dir}/client.log")
        else:
            setup.append(ready)
            with open(result_path) as fh:
                result = json.load(fh)

    record = {"workload": wl.name, "seed": seed, "default_seed": DEFAULT_SEED,
              "heldout_seed": HELDOUT_SEED, "seconds": seconds,
              "trace": bool(trace), "provenance": provenance(root)}
    passes, traced = [], []
    if result is not None:
        passes, traced = result["passes"], result["traced"]
        for p in passes + traced:
            problems += p["problems"]
        problems += digest_problems(passes + traced)
        if result.get("nesting_errors"):
            problems.append(f"{result['nesting_errors']} spans do not nest")
        record.update(
            passes=len(passes), workload_digest=passes[0]["digest"],
            pass_records=passes + traced,
            queries=sum(p["queries"] for p in passes),
            diverged=sum(p["diverged"] for p in passes))
    attempted = sum(p["commands"] for p in passes + traced) or 1
    failed = sum(p["failed"] for p in passes + traced)
    if result is not None and not problems and failed == 0:
        if trace:
            metrics = dict(result["layers"])
            queries = sum(p["queries"] for p in traced)
            metrics["failed_frac"] = (sum(p["diverged"] for p in traced) / queries
                                      if queries else 0.0)
            metrics["trace.overhead_frac"] = (
                sum(p["cpu_s"] for p in traced) / sum(p["cpu_s"] for p in passes) - 1.0)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            fastest = [min(cmd) for cmd in zip(*(p["cmd_cpu_s"] for p in passes))]
            metrics = {"setup_s": statistics.median(cpu for cpu, _ in setup),
                       "completed_per_cpu_s": passes[0]["completed"] / sum(fastest),
                       "peak_rss_mb": result["peak_rss_mb"]}
            units = END_TO_END
        line = {"correct": True, "attempted": attempted, "failed": 0,
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in metrics.items()}}
    else:
        line = {"correct": False, "attempted": attempted,
                "failed": max(failed, 1), "metrics": {}}
    record.update(problems=problems, setup_cpu_s=[cpu for cpu, _ in setup],
                  setup_wall_s=[wall for _, wall in setup], result=line)
    return line, record, work_dir


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oodbench", "cli.py")):
        print("run.py: no src/oodbench/cli.py here; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    out_root = os.path.join(root, OUT)
    os.makedirs(out_root, exist_ok=True)
    line, record, work_dir = measure(root, WORKLOADS[args.workload], args.seed,
                                     args.seconds, args.trace, out_root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(work_dir, "spans.json")
    if os.path.exists(spans):
        os.replace(spans, os.path.join(out_root, f"{tag}-spans.json"))
    if line["correct"]:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(out_root, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {record.get('passes', 0)} passes, "
          f"{record.get('diverged', 0)}/{record.get('queries', 0)} queries diverged, "
          f"digest {record.get('workload_digest')}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
