"""In-memory span tracing of ``oodbench`` layers, installed from outside.

Each traced function is replaced, at the name its caller resolves, by a
wrapper that records a span: name, start, end, parent span, the exception
that ended it (if any) and a few counts taken from the call.  Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

# (span name, module that resolves the callee, attribute): each target is
# patched where its caller looks it up, so the caller sees the wrapper.
TARGETS = (
    ("cli.main", "oodbench.cli", "main"),
    ("cli.cmd_sweep", "oodbench.cli", "cmd_sweep"),
    ("cli.cmd_dynamics", "oodbench.cli", "cmd_dynamics"),
    ("cli.cmd_entropy", "oodbench.cli", "cmd_entropy"),
    ("cli.run_entropy_suite", "oodbench.cli", "run_entropy_suite"),
    ("dynamics.theorem5_report", "oodbench.cli", "theorem5_report"),
    ("dynamics.simulate_flow", "oodbench.dynamics", "simulate_flow"),
    ("numeric_core.lambert_w0", "oodbench.dynamics", "lambert_w0"),
    ("entropy_lab.sum_entropy_gap", "oodbench.cli", "sum_entropy_gap"),
    ("entropy_lab.conditional_entropy_gap", "oodbench.cli",
     "conditional_entropy_gap"),
    ("numeric_core.RngStream.fork", "oodbench.numeric_core", "RngStream.fork"),
    ("trainer.train_gd", "oodbench.trainer", "train_gd"),
    ("objectives.objective_and_gradient", "oodbench.trainer",
     "objective_and_gradient"),
    ("trainer.evaluate", "oodbench.trainer", "evaluate"),
    ("sem_generators.generate_training_envs", "oodbench.trainer",
     "generate_training_envs"),
    ("sem_generators.default_test_envs", "oodbench.trainer",
     "default_test_envs"),
    ("reporting.write_csv", "oodbench.cli", "write_csv"),
    ("reporting.read_csv", "oodbench.reporting", "read_csv"),
    ("reporting.aggregate_report", "oodbench.cli", "aggregate_report"),
)


def _note(name, args, result):
    """Counts taken from a finished call: trajectory steps and bytes written."""
    if name == "dynamics.simulate_flow":
        return len(result.times) - 1
    if name == "reporting.write_csv":
        return os.path.getsize(args[0])
    return 0


class Tracer:
    """Records spans as ``[name, start, end, parent, error, note]`` lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.missing = []

    def install(self):
        """Patch every target.  A target that no longer exists (its function
        was renamed or moved) is listed in ``missing``, which fails the run:
        its layer would otherwise read 0, a false gain."""
        import importlib
        self.missing = []
        for name, module, attr in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            *outer, attr = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                self.missing.append(name)
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            span[5] = _note(name, args, result)
            return result

        return traced


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, covered)]


def nesting_errors(spans):
    """Spans whose interval leaves their parent's, or whose self time is < 0."""
    bad = []
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                bad.append((i, name, "outside parent"))
    for i, s in enumerate(self_times(spans)):
        if s < 0:
            bad.append((i, spans[i][0], "negative self time"))
    return bad


def layer_metrics(spans, n_passes):
    """Per-layer metrics, totals divided by the number of traced passes."""
    dur = defaultdict(list)
    own = defaultdict(float)
    notes = defaultdict(int)
    for span, s in zip(spans, self_times(spans)):
        dur[span[0]].append(span[2] - span[1])
        own[span[0]] += s
        notes[span[0]] += span[5]

    def calls(name):
        return len(dur[name]) / n_passes

    def secs(name):
        return sum(dur[name]) / n_passes

    def pct(name, q):
        return float(np.percentile(dur[name], q)) if dur[name] else 0.0

    # Objective calls inside trainings that finished, over all of them.
    obj, useful = "objectives.objective_and_gradient", 0
    for name, _, _, parent, _, _ in spans:
        if name == obj and parent >= 0 and spans[parent][4] is None:
            useful += 1
    n_obj = len(dur[obj])
    diverged = sum(1 for span in spans
                   if span[0] == "trainer.train_gd" and span[4] == "DivergenceError")
    return {
        "trainer.train_gd.calls": calls("trainer.train_gd"),
        "trainer.train_gd.s_p50": pct("trainer.train_gd", 50),
        "trainer.train_gd.s_p90": pct("trainer.train_gd", 90),
        "trainer.train_gd.self_s": own["trainer.train_gd"] / n_passes,
        "trainer.train_gd.diverged": diverged / n_passes,
        "trainer.useful_step_frac": useful / n_obj if n_obj else 0.0,
        "trainer.evaluate.s": secs("trainer.evaluate"),
        f"{obj}.calls": calls(obj),
        f"{obj}.s": secs(obj),
        f"{obj}.us_per_call": 1e6 * sum(dur[obj]) / n_obj if n_obj else 0.0,
        "sem_generators.generate_training_envs.s":
            secs("sem_generators.generate_training_envs"),
        "sem_generators.default_test_envs.s":
            secs("sem_generators.default_test_envs"),
        "numeric_core.RngStream.fork.calls": calls("numeric_core.RngStream.fork"),
        "numeric_core.RngStream.fork.s": secs("numeric_core.RngStream.fork"),
        "numeric_core.lambert_w0.s": secs("numeric_core.lambert_w0"),
        "dynamics.simulate_flow.calls": calls("dynamics.simulate_flow"),
        "dynamics.simulate_flow.s": secs("dynamics.simulate_flow"),
        "dynamics.simulate_flow.steps": notes["dynamics.simulate_flow"] / n_passes,
        "dynamics.theorem5_report.self_s": own["dynamics.theorem5_report"] / n_passes,
        "entropy_lab.sum_entropy_gap.s": secs("entropy_lab.sum_entropy_gap"),
        "entropy_lab.conditional_entropy_gap.s":
            secs("entropy_lab.conditional_entropy_gap"),
        "cli.run_entropy_suite.self_s": own["cli.run_entropy_suite"] / n_passes,
        "reporting.write_csv.calls": calls("reporting.write_csv"),
        "reporting.write_csv.bytes": notes["reporting.write_csv"] / n_passes,
        "reporting.write_csv.s": secs("reporting.write_csv"),
        "reporting.read_csv.s": secs("reporting.read_csv"),
        "reporting.aggregate_report.s": secs("reporting.aggregate_report"),
        "cli.main.s": secs("cli.main"),
        "cli.main.self_s": own["cli.main"] / n_passes,
        "cli.cmd_sweep.s": secs("cli.cmd_sweep"),
        "cli.cmd_dynamics.s": secs("cli.cmd_dynamics"),
        "cli.cmd_entropy.s": secs("cli.cmd_entropy"),
    }
