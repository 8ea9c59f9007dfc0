"""Command-line harness: dataset generation, hyperparameter sweeps, flow
dynamics verification, the entropy suite, and report aggregation.

Exit codes: 0 success, 2 validation failure, 3 numeric divergence,
64 usage error.

The entropy suite draws its pmfs and mixtures in ``entropy_lab``; its
chunk loop, :func:`run_entropy_suite`, stays here because the bench's span
tracer finds it, ``sum_entropy_gap`` and ``conditional_entropy_gap`` by
their names in this module.  It moves when the package has a span
registry of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .numeric_core import DivergenceError, ParameterError, RngStream
from .sem_generators import EXAMPLES, GeneratorSpec, generate_training_envs
from .trainer import SweepRow, TrainConfig, random_search
from .dynamics import flow_weights, plain_flow, theorem5_report
from .entropy_lab import (conditional_entropy_gap, gaussian_entropy_bound,
                          random_mixtures, random_pmfs, sum_entropy_gap)
from .reporting import (SWEEP_FIELDS, SUMMARY_FIELDS, SummaryRow,
                        aggregate_report, aggregate_rows, config_hash,
                        format_summary_table, write_csv, write_json)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_USAGE = 64

EXAMPLE_CHOICES = tuple(name for ex, record in EXAMPLES.items()
                        for name in (ex, ex + "s")[:1 + record.scrambled])

# Trajectory CSVs keep at most this many rows per flow, strided evenly over
# the grid.  Only these rows are ever computed: a trajectory holds its RK4
# prefix, not the grid, and the plain flow is evaluated in closed form.
TRAJECTORY_MAX_ROWS = 4000

# Settings only a config file gives, with their types; unset (None) keeps
# the GeneratorSpec or TrainConfig default.
SPEC_KEYS = {"m": int, "o": int, "n_per_env": int, "xor_variant": str,
             "xor_q": float, "xor_a": float}
TRAIN_KEYS = {"steps": int, "optimizer": str}
JSON_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # A token that float() parses is a value, as argparse already takes
        # "-2" or "-0.5"; "-1e-3" and "-inf" would otherwise be options.
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _configs(args):
    """The GeneratorSpec and TrainConfig that ``args`` resolve to; the
    spec's ``name`` is ``args.example``."""
    example = args.example.removesuffix("s")
    spec = dict(example=example, n_envs=args.envs, scramble=example != args.example)
    train = {}
    for kwargs, keys in ((spec, SPEC_KEYS), (train, TRAIN_KEYS)):
        for key in keys:
            if getattr(args, key, None) is not None:
                kwargs[key] = getattr(args, key)
    gen = GeneratorSpec(**spec)  # reports a bad value first
    record = EXAMPLES[example]
    stray = [key for key in SPEC_KEYS
             if key in spec and gen.xor_variant not in record.variants_reading(key)]
    if stray:  # ignored by the data, but not by config_hash
        key = stray[0]
        # the other variants of this example that read it, else the examples
        readers = record.variants_reading(key)
        kind, this = f"{example} variant", gen.xor_variant
        if not readers:
            readers = [name for name, other in EXAMPLES.items() if key in other.settings]
            kind, this = "example", args.example
        raise ParameterError(f"{key} applies only to the {', '.join(readers)} "
                             f"{kind}{'s' * (len(readers) > 1)}, not {this}")
    return gen, TrainConfig(**train)


def _meta(args, **config):
    """Output-file metadata: the root seed and a hash of the resolved config."""
    return {"root_seed": args.seed,
            "config_hash": config_hash({"command": args.command, **config})}


def _columns(kind, records):
    """The columns of ``records``, instances of the dataclass ``kind``: each
    field's values, in field order."""
    return [[getattr(r, f.name) for r in records] for f in fields(kind)]


def _summarise(summary, out, meta):
    """Write ``summary.csv`` into ``out``, if given; print the table."""
    if out:
        os.makedirs(out, exist_ok=True)
        write_csv(os.path.join(out, "summary.csv"), SUMMARY_FIELDS,
                  _columns(SummaryRow, summary), meta)
    print(format_summary_table(summary))


def cmd_generate(args):
    spec, _ = _configs(args)
    _, _, envs = generate_training_envs(spec, RngStream(args.seed))
    meta = _meta(args, spec=asdict(spec), seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    files = []
    for env in envs:
        blocks = (("x", env.X), ("zinv", env.Z_inv), ("zspu", env.Z_spu))
        header = ["env_id", "y"] + [f"{name}_{j}" for name, a in blocks
                                    for j in range(a.shape[1])]
        columns = [[env.env_id] * env.n, env.Y,
                   *(a[:, j] for _, a in blocks for j in range(a.shape[1]))]
        path = os.path.join(args.out, f"env_{env.env_id}.csv")
        write_csv(path, header, columns, meta)
        files.append(os.path.basename(path))
    write_json(os.path.join(args.out, "manifest.json"),
               {"example": args.example, "n_envs": args.envs,
                "n_per_env": spec.n_per_env, "files": files},
               meta)
    return EXIT_OK


def cmd_sweep(args):
    spec, tc = _configs(args)
    methods = [m.strip().upper() for m in args.methods.split(",") if m.strip()]
    rows = random_search(spec, methods, (args.queries, args.seeds),
                         RngStream(args.seed), tc)
    meta = _meta(args, spec=asdict(spec), train=asdict(tc),
                 queries=args.queries, seeds=args.seeds, methods=methods,
                 seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "sweep.csv"), SWEEP_FIELDS,
              _columns(SweepRow, rows), meta)
    _summarise(aggregate_rows(map(vars, rows)), args.out, meta)
    return EXIT_OK


def _trajectory_columns(p, ib):
    """The columns of trajectory.csv: the penalized flow ``ib``'s rows, then
    the plain flow's at the same grid times, at most TRAJECTORY_MAX_ROWS a
    flow.  Each flow's own arrays are dropped on return."""
    n_points = ib.n_steps + 1
    stride = max(1, -(-n_points // TRAJECTORY_MAX_ROWS))
    times, *ib_columns = ib.at(np.arange(0, n_points, stride))
    erm_columns = flow_weights(p, *plain_flow(p, times))
    return [["ib_erm"] * times.size + ["erm"] * times.size,
            *map(np.concatenate, zip((times, *ib_columns), (times, *erm_columns)))]


def cmd_dynamics(args):
    report = theorem5_report(args.p, args.gamma, args.eps, args.dt)
    meta = _meta(args, p=args.p, gamma=args.gamma, eps=args.eps, dt=args.dt)
    os.makedirs(args.out, exist_ok=True)
    verdict = dict(report)
    write_csv(os.path.join(args.out, "trajectory.csv"),
              ("flow", "t", "w_inv", "w_spu", "ratio"),
              _trajectory_columns(args.p, verdict.pop("ib_trajectory")), meta)
    write_json(os.path.join(args.out, "verdict.json"), verdict, meta)
    print(json.dumps(verdict, indent=2, default=float))
    return EXIT_OK if report["pass"] else EXIT_VALIDATION


# The entropy suite scores its trials in batches of this many: large enough
# that numpy's per-call cost is spread over many trials, small enough that
# the suite's peak memory stays below 1 MB at any trial count.
ENTROPY_CHUNK = 256


def run_entropy_suite(seed=0, trials=1000):
    """Run the randomized entropy checks; returns a list of result dicts.

    The trials are scored ENTROPY_CHUNK at a time, both randomized checks
    a chunk, and trial i draws from the streams forked by its labels, so no
    gap depends on the chunk size."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    rng = RngStream(seed).fork("entropy")
    results = []

    # trial i's X and Y of H(X+Y) - max(H(X), H(Y)), and its mixture
    pairs = rng.fork("sum_gap")
    mixtures = rng.fork("cond_gap")
    worst_sum = np.inf
    worst_cond = np.inf
    for lo in range(0, trials, ENTROPY_CHUNK):
        chunk = range(lo, min(lo + ENTROPY_CHUNK, trials))
        x, y = (random_pmfs(pairs, [f"trial{i}/{side}" for i in chunk])
                for side in ("p", "q"))
        worst_sum = min(worst_sum, *sum_entropy_gap(x, y).tolist())
        gaps = conditional_entropy_gap(random_mixtures(mixtures, chunk))
        worst_cond = min(worst_cond, *gaps.tolist())
    results.append({"check": "sum_entropy_strict", "trials": trials,
                    "worst_gap": worst_sum, "pass": worst_sum > 1e-9})
    results.append({"check": "conditioning_reduces_entropy", "trials": trials,
                    "worst_gap": worst_cond, "pass": worst_cond >= -1e-12})

    # Analytic variance-bound catalogue: (name, entropy, variance, is_gaussian)
    width, scale, sigma = 1.0, 0.7, 1.3
    catalogue = [
        ("uniform", np.log(width), width ** 2 / 12.0, False),
        ("laplace", 1.0 + np.log(2.0 * scale), 2.0 * scale ** 2, False),
        ("triangular", 0.5 + np.log(width), width ** 2 / 6.0, False),
        ("gaussian", 0.5 * np.log(2 * np.pi * np.e * sigma ** 2), sigma ** 2, True),
    ]
    worst = np.inf
    ok = True
    for name, h, var, is_gauss in catalogue:
        slack = gaussian_entropy_bound(var) - h
        worst = min(worst, slack)
        if is_gauss:
            ok &= abs(slack) < 1e-12
        else:
            ok &= slack > 1e-9
    results.append({"check": "variance_bounds_entropy", "trials": len(catalogue),
                    "worst_gap": worst, "pass": bool(ok)})
    return results


def cmd_entropy(args):
    results = run_entropy_suite(seed=args.seed, trials=args.trials)
    print(f"{'check':<32}{'trials':>8}{'worst gap':>16}{'verdict':>9}")
    all_pass = True
    for res in results:
        verdict = "pass" if res["pass"] else "FAIL"
        all_pass &= res["pass"]
        print(f"{res['check']:<32}{res['trials']:>8}"
              f"{res['worst_gap']:>16.3e}{verdict:>9}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        header = ("check", "trials", "worst_gap", "pass")
        write_csv(os.path.join(args.out, "entropy.csv"), header,
                  [[r[key] for r in results] for key in header],
                  _meta(args, seed=args.seed, trials=args.trials))
    return EXIT_OK if all_pass else EXIT_VALIDATION


def cmd_report(args):
    _summarise(aggregate_report(args.files), args.out,
               _meta(args, files=sorted(args.files)))
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="oodbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out="out", keys=()):
        """The flags every command but ``report`` shares; ``keys`` are the
        settings only its config file gives."""
        only = ", ".join(f"{k} ({JSON_TYPE_NAMES[t]})" for k, t in dict(keys).items())
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=out)
        p.add_argument("--config", default=None, help=(
            "a JSON object of settings: a key names a flag (an explicit flag "
            "wins)" + (f" or one of {only}" if only else "")))
        p.set_defaults(**dict.fromkeys(keys))

    g = sub.add_parser("generate", help="write one CSV per environment")
    common(g, keys=SPEC_KEYS)
    g.add_argument("--example", choices=EXAMPLE_CHOICES, default="ex2")
    g.add_argument("--envs", type=int, default=3)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("sweep", help="random hyperparameter search",
                       description=(
                           "Random hyperparameter search. IBIRM_THREADS=N "
                           "trains the data seeds over N worker processes, "
                           "at most one per CPU, with the same output. The "
                           "config key optimizer is gd (default) or adam."))
    common(s, keys={**SPEC_KEYS, **TRAIN_KEYS})
    s.add_argument("--example", choices=EXAMPLE_CHOICES, default="ex2")
    s.add_argument("--envs", type=int, default=3)
    s.add_argument("--queries", type=int, default=20)
    s.add_argument("--seeds", type=int, default=10)
    s.add_argument("--methods", default="erm,irm,iberm,ibirm")
    s.set_defaults(func=cmd_sweep)

    d = sub.add_parser("dynamics", help="verify the learning-speed bounds")
    common(d)
    d.add_argument("--p", type=float, default=0.9)
    d.add_argument("--gamma", type=float, default=0.58)
    d.add_argument("--eps", type=float, default=1e-3)
    d.add_argument("--dt", type=float, default=1e-2)
    d.set_defaults(func=cmd_dynamics)

    e = sub.add_parser("entropy", help="run the entropy lemma suite")
    common(e, out=None)
    e.add_argument("--trials", type=int, default=1000)
    e.set_defaults(func=cmd_entropy)

    r = sub.add_parser("report", help="aggregate sweep CSVs")
    r.add_argument("files", nargs="+")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)
    parser.commands = sub.choices
    return parser


def _apply_config_file(args, parser, argv):
    """Parse ``argv`` again with the JSON config file's values as the
    command's defaults, so flags given explicitly still win.  A key that
    names no setting of the command is a usage error."""
    command = parser.commands[args.command]
    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        # Bad JSON or UTF-8 and too long an integer literal are ValueErrors.
        except (ValueError, RecursionError) as exc:
            command.error(f"config file {args.config}: {exc}")
    if not isinstance(cfg, dict):
        command.error(f"config file {args.config} must hold a JSON object")
    cfg = {key.replace("-", "_"): value for key, value in cfg.items()}
    allowed = set(vars(args)) - {"command", "func", "config"}
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        command.error(f"config file {args.config}: unknown key(s) {', '.join(unknown)}")
    for key, value in cfg.items():
        _check_config_value(command, key, value, args.config)
    command.set_defaults(**cfg)
    return parser.parse_args(argv)


def _check_config_value(command, key, value, path):
    """A usage error unless ``value`` has the JSON type of setting ``key``.
    null is taken only where the default is None.  A setting with a flag
    also takes a string, which argparse parses as the flag's argument; a
    flag's choices bound its value too."""
    flag = next((a for a in command._actions if a.dest == key), None)
    kind = (flag.type or str) if flag else {**SPEC_KEYS, **TRAIN_KEYS}[key]
    if value is None:
        ok = command.get_default(key) is None
    else:
        ok = not isinstance(value, bool) and (
            isinstance(value, (int, float) if kind is float else kind)
            or (flag is not None and isinstance(value, str)))
    if not ok:
        command.error(f"config file {path}: {key} must be "
                      f"{JSON_TYPE_NAMES[kind]}, got {json.dumps(value)}")
    if flag is not None and flag.choices and value not in flag.choices:
        command.error(f"config file {path}: {key} must be one of "
                      f"{', '.join(flag.choices)}, got {json.dumps(value)}")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = _apply_config_file(args, parser, argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except ParameterError as exc:
        print(f"oodbench: invalid parameter: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"oodbench: numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except MemoryError as exc:  # a setting asks for more than can be allocated
        print(f"oodbench: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"oodbench: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
