"""The report record, run envelopes and output formatting shared by the
command line tools.

Every checker returns one ``Report``: a namespace built by one keyword
call, whose keyword order is the key order of its dict and of the JSON.
A report has no schema beside that call; its fields are read as
attributes (``r.passed``) and written out through ``to_dict``.

A run produces one envelope, itself a ``Report``: the command name, the
effective config, a pass flag, the structured report (a dict, or a list
of per-trial dicts) and the wall time.  JSON output is byte-stable for a
fixed seed and config except for the single wall_time_s field, which is
therefore kept at the top level so consumers can strip it before
comparing runs.

Trial runners hand ``map_trials`` a function of one ``random.Random``;
trial i gets ``Random(seed + i)``, and trials run serially in index order.
"""

from __future__ import annotations

import json
import random
import types
from typing import Any, Callable, TypeVar

from .groups import at_least

T = TypeVar("T")


def map_trials(fn: Callable[[random.Random], T], trials: int, seed: int) -> list[T]:
    """``[fn(Random(seed + i)) for i in range(trials)]``, in trial order."""
    trials = at_least(trials, 0, "trials")
    return [fn(random.Random(seed + i)) for i in range(trials)]


class Report(types.SimpleNamespace):
    """A checker's result: its keyword arguments, as attributes and as a dict.

    ``to_dict`` returns a new top-level dict with the keys in the order the
    constructor received them, and that order is the JSON key order.  The
    dict is shallow: nested lists and dicts are shared, not copied.  A deep
    copy (``dataclasses.asdict``) made the 1000-trial ``plunnecke`` command
    40% slower.
    """

    def to_dict(self) -> dict:
        return dict(vars(self))


def _flat(prefix: str, value: Any, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flat(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, (list, tuple)):
        out[prefix] = json.dumps(value)
    else:
        out[prefix] = value


def _rows(report: Any) -> list[dict]:
    items = report if isinstance(report, list) else [report]
    rows = []
    for i, item in enumerate(items):
        row: dict = {"trial": i}
        _flat("", item if isinstance(item, dict) else {"value": item}, row)
        rows.append(row)
    return rows


def to_csv(run: Report) -> str:
    """One line per trial; nested report fields become dotted columns."""
    import csv
    import io

    rows = _rows(run.report)
    cols: list[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cols, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def to_text(run: Report) -> str:
    """Compact human-readable summary."""
    lines = [f"command: {run.command}"]
    for k, v in run.config.items():
        lines.append(f"  {k} = {v}")
    items = run.report if isinstance(run.report, list) else [run.report]
    if isinstance(run.report, list):
        n_pass = sum(1 for item in items if isinstance(item, dict) and item.get("passed"))
        lines.append(f"trials: {len(items)}, passed: {n_pass}")
        for i, item in enumerate(items):
            if isinstance(item, dict) and not item.get("passed", True):
                lines.append(f"  trial {i}: FAILED {json.dumps(item)}")
    else:
        flat: dict = {}
        _flat("", items[0] if isinstance(items[0], dict) else {"value": items[0]}, flat)
        for k, v in flat.items():
            lines.append(f"{k}: {v}")
    lines.append(f"result: {'PASS' if run.passed else 'FAIL'}")
    lines.append(f"wall_time_s: {run.wall_time_s:.3f}")
    return "\n".join(lines) + "\n"


def render(run: Report, output: str) -> str:
    if output == "json":
        return json.dumps(run.to_dict(), indent=2, sort_keys=False) + "\n"
    if output == "csv":
        return to_csv(run)
    if output == "text":
        return to_text(run)
    raise ValueError(f"unknown output format: {output!r}")
