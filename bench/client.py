"""The benchmark's client process: one closed loop over ``oodbench.cli.main``.

Run by ``run.py`` as ``python3 bench/client.py <job.json>``.  It imports the
CLI, prepares the first pass's inputs, prints ``ready`` with the CPU time
the process has used so far (its set-up time), then runs passes one command
at a time, all at the job's seed, until the next pass would end after the
job's ``seconds`` -- but at least two, so that the run can check that they
agree.  A traced job runs each pass twice, untraced then traced, on the same
inputs.  The result goes to ``<out>/result.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

from workloads import Workload, check, commands


def digest(out_dirs, stdout):
    """sha256 of a pass's outputs: every file body without the timestamp
    lines, which are the only lines allowed to differ between reruns."""
    h = hashlib.sha256(stdout.encode())
    for out in out_dirs:
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name)) as fh:
                body = [line for line in fh
                        if not line.startswith("# timestamp=")
                        and '"timestamp":' not in line]
            h.update(f"\0{os.path.basename(out)}/{name}\0".encode())
            h.update("".join(body).encode())
    return h.hexdigest()


def run_pass(cli, wl, seed, out_dir, tracer=None):
    """Run one pass's commands in order and check them.

    Returns a dict with the pass's wall and CPU time, each command's CPU
    time, digest, work completed, queries attempted and diverged, commands
    attempted, and failed checks.
    """
    cmds = commands(wl, seed, out_dir)
    record = {"seed": seed, "wall_s": 0.0, "cpu_s": 0.0, "cmd_cpu_s": [],
              "completed": 0, "queries": 0,
              "diverged": 0, "commands": len(cmds), "failed": 0, "problems": []}
    stdout = io.StringIO()
    if tracer is not None:
        tracer.install()
        record["problems"] += [f"trace target {name} not found; update spans.TARGETS"
                               for name in tracer.missing]
    try:
        for argv, cmd_out in cmds:
            with contextlib.redirect_stdout(stdout):
                t0, c0 = time.perf_counter(), time.process_time()
                code = cli.main(argv)
                record["wall_s"] += time.perf_counter() - t0
                record["cmd_cpu_s"].append(time.process_time() - c0)
                record["cpu_s"] += record["cmd_cpu_s"][-1]
            problems, completed, queries, diverged = check(wl, argv, cmd_out, code)
            record["problems"] += problems
            record["failed"] += bool(problems)
            record["completed"] += completed
            record["queries"] += queries
            record["diverged"] += diverged
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["digest"] = digest([out for _, out in cmds], stdout.getvalue())
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from oodbench import cli

    wl = Workload(**{**job["workload"], "eps": tuple(job["workload"]["eps"])})
    out = job["out"]
    seed = job["seed"]
    commands(wl, seed, os.path.join(out, "pass0"))
    print(f"ready {time.process_time()!r}", flush=True)
    if job["setup_only"]:
        return 0

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
    passes, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        passes.append(run_pass(cli, wl, seed, os.path.join(out, f"pass{i}")))
        if tracer is not None:
            traced.append(run_pass(cli, wl, seed, os.path.join(out, f"pass{i}t"),
                                   tracer))
        i += 1
        elapsed = time.perf_counter() - start
        if len(passes) + len(traced) >= 2 and elapsed + elapsed / i > job["seconds"]:
            break

    result = {"passes": passes, "traced": traced,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        from spans import layer_metrics, nesting_errors
        result["layers"] = layer_metrics(tracer.spans, len(traced))
        result["nesting_errors"] = len(nesting_errors(tracer.spans))
        with open(os.path.join(out, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
