"""CSV/JSON persistence with deterministic payloads, and aggregation of
sweep results into summary tables.

Every output file starts with ``#``-prefixed metadata lines carrying the
root seed, a hash of the resolved configuration, the suite version, and a
timestamp; the timestamp is the only line allowed to differ between
identical reruns.  Floats are printed with 17 significant digits for a
lossless round trip.

:func:`write_csv` takes a table by columns.  A float64 array column is
printed by formatting each distinct bit pattern once, since a trajectory's
settled columns repeat a few values over thousands of rows; it is keyed by
bits, not by value, because values that compare equal can print
differently (``-0.0 == 0.0``, but they print ``-0`` and ``0``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from itertools import chain, islice

import numpy as np

from . import __version__
from .numeric_core import ParameterError, power_of_two_scale

__all__ = [
    "SummaryRow",
    "config_hash",
    "atomic_write_text",
    "write_csv",
    "read_csv",
    "write_json",
    "aggregate_rows",
    "aggregate_report",
    "format_summary_table",
    "SWEEP_FIELDS",
]

# The columns of sweep.csv: the fields of trainer.SweepRow, in order, but
# ``lambda`` for its ``lam``.
SWEEP_FIELDS = ("example", "n_envs", "method", "data_seed", "hparam_id",
                "lambda", "gamma", "lr", "val_risk", "test_metric",
                "test_metric_max", "diverged_step")
# The columns ``report`` reads: sweep.csv written before it had a
# diverged_step column reads too.
_REPORT_FIELDS = SWEEP_FIELDS[:-1]


@dataclass
class SummaryRow:
    example: str
    n_envs: int
    method: str
    mean_metric: float   # over the seeds that did not diverge; nan if none
    std_metric: float
    n_diverged: int = 0  # seeds whose selected query has no finite metric


# The columns of summary.csv: the fields of SummaryRow, in order.
SUMMARY_FIELDS = tuple(f.name for f in fields(SummaryRow))


def _cell_format(kind):
    """The %-format of a CSV cell of type ``kind``: 17 significant digits
    for a float of any width, an empty cell for None, ``str`` for anything
    else."""
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    return "%.0s" if kind is type(None) else "%s"


def config_hash(cfg):
    payload = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _run_meta(meta):
    """``meta`` followed by the suite version and the time of the write."""
    return {**meta, "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat()}


def atomic_write_text(path, text):
    dirname = os.path.dirname(os.path.abspath(path))
    os.makedirs(dirname, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _column_cells(column):
    """The printed cells of a column: a float64 array's distinct bit
    patterns formatted once each, a column of str cells as it is, since a
    str prints as itself, and any other column's cells one by one by
    :func:`_cell_format` of their type."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        bits, index = np.unique(column.view(np.uint64), return_inverse=True)
        text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()],
                        dtype=object)
        return text[index].tolist()
    kinds = set(map(type, column))
    if kinds == {str}:
        return column
    formats = {kind: _cell_format(kind) for kind in kinds}
    return [formats[type(cell)] % (cell,) for cell in column]


def write_csv(path, fieldnames, columns, meta):
    """Write a table with metadata header, atomically: ``columns`` holds
    one sequence of cells per field, all of one length.  A float64 array
    column formats each distinct bit pattern once (see the module
    docstring), and prints as its cells would one by one; every other cell
    prints by :func:`_cell_format` of its type."""
    out = [f"# {k}={v}" for k, v in _run_meta(meta).items()]
    out.append(",".join(fieldnames))
    out += _row_blocks(columns)
    atomic_write_text(path, "\n".join(out) + "\n")


def _row_blocks(columns):
    """The printed rows of a table, joined by line breaks 1024 at a time,
    so that its rows' strings are never all held at once; the cells are
    dropped with the generator, before the file's text is joined."""
    rows = map(",".join, zip(*map(_column_cells, columns), strict=True))
    while block := list(islice(rows, 1024)):
        yield "\n".join(block)


def read_csv(path):
    """Read a metadata-prefixed UTF-8 CSV, byte-order mark or not; returns
    (meta, fieldnames, rows of string dicts).  The ``#`` lines before the
    header are the metadata; the ``csv`` module splits the rest into rows,
    so a quoted cell may hold a line break, and blank lines are skipped.  A
    repeated column, a ragged row or an overlong field is a ParameterError
    naming the file."""
    meta = {}
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            line = fh.readline()
            while line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
                line = fh.readline()
            reader = csv.reader(chain([line], fh))
            table = [cells for cells in reader if cells]
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not UTF-8 text ({exc})") from exc
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise ParameterError(f"{path}: bad row {reader.line_num}: {exc}") from exc
    if not table:
        raise ParameterError(f"{path}: no header row")
    header, *rows = table
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise ParameterError(f"{path}: header repeats {', '.join(repeated)}")
    for i, cells in enumerate(rows, 2):
        if len(cells) != len(header):
            raise ParameterError(f"{path}: bad row {i}: {len(cells)} cells, "
                                 f"header has {len(header)}")
    return meta, tuple(header), [dict(zip(header, cells)) for cells in rows]


def write_json(path, payload, meta):
    doc = {"meta": _run_meta(meta), **payload}
    atomic_write_text(path, json.dumps(doc, indent=2, default=float) + "\n")


def aggregate_rows(records):
    """Aggregate typed sweep records: per (example, n_envs, method) and
    seed, keep the query with minimal validation risk, nan ranked after
    every number and the first of equals kept, then report the population
    mean and std of the test metric over seeds.  A seed whose kept query
    has no finite test metric (every query of it diverged) is counted in
    ``n_diverged`` and left out of the mean and std."""
    groups = {}
    for rec in records:
        key = (rec["example"], rec["n_envs"], rec["method"])
        best = groups.setdefault(key, {})
        val = rec["val_risk"]
        rank, seed = (val != val, val), rec["data_seed"]  # nan last
        if seed not in best or rank < best[seed][0]:
            best[seed] = (rank, rec["test_metric"])
    out = []
    for (example, n_envs, method), best in sorted(groups.items()):
        metrics = np.array([m for _, m in best.values()])
        finite = metrics[np.isfinite(metrics)]
        mean, std = (_mean_std(finite) if finite.size
                     else (float("nan"), float("nan")))
        out.append(SummaryRow(example=example, n_envs=n_envs, method=method,
                              mean_metric=mean, std_metric=std,
                              n_diverged=metrics.size - finite.size))
    return out


def _mean_std(values):
    """The mean and population std of finite ``values``, taken at a power
    of two scale that keeps the squares finite.  Scaling by a power of two
    is exact, so the results are numpy's wherever numpy's squares neither
    overflow nor underflow."""
    scale = power_of_two_scale(np.max(np.abs(values)))
    scaled = values / scale
    return float(scaled.mean() * scale), float(scaled.std() * scale)


def aggregate_report(sweep_files):
    """Parse sweep CSVs and aggregate them into summary rows."""
    records = []
    for path in sweep_files:
        _, header, rows = read_csv(path)
        missing = set(_REPORT_FIELDS) - set(header)
        if missing:
            raise ParameterError(f"{path}: missing columns {sorted(missing)}")
        for i, row in enumerate(rows):
            try:
                records.append({
                    "example": row["example"],
                    "n_envs": int(row["n_envs"]),
                    "method": row["method"],
                    "data_seed": int(row["data_seed"]),
                    "val_risk": float(row["val_risk"]),
                    "test_metric": float(row["test_metric"]),
                })
            except ValueError as exc:
                raise ParameterError(f"{path}: bad row {i + 2}: {exc}") from exc
    return aggregate_rows(records)


def _fmt_stat(v):
    """Two decimals below 1e6 in magnitude; larger values, which two
    decimals would print in full, in exponent form."""
    return f"{v:.2f}" if abs(v) < 1e6 else f"{v:.2e}"


def format_summary_table(rows):
    """Fixed-width text table with metrics shown as 'mean ± std (k
    diverged)'; a method whose every seed diverged shows '-' as its mean."""
    header = f"{'example':<10}{'envs':>6}{'method':>8}  {'metric':>28}"
    lines = [header, "-" * len(header)]
    for r in rows:
        stat = ("-" if np.isnan(r.mean_metric)
                else f"{_fmt_stat(r.mean_metric)} ± {_fmt_stat(r.std_metric)}")
        cell = f"{stat} ({r.n_diverged} diverged)"
        lines.append(f"{r.example:<10}{r.n_envs:>6}{r.method:>8}  {cell:>28}")
    return "\n".join(lines)

