"""Run envelopes and output formatting shared by the command line tools.

A run produces one envelope: the command name, the effective config, a
pass flag, and the structured report (a dict, or a list of per-trial
dicts).  JSON output is byte-stable for a fixed seed and config except for
the single wall_time_s field, which is therefore kept at the top level so
consumers can strip it before comparing runs.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Sequence, TypeVar

T = TypeVar("T")


def map_trials(fn: Callable[[int], T], trials: int, workers: int = 1) -> list[T]:
    """Run fn(0..trials-1), optionally on a thread pool, preserving order."""
    trials = int(trials)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if workers <= 1 or trials <= 1:
        return [fn(i) for i in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


class Report:
    """Base of the report dataclasses: the dict keys are the field names,
    in field order, so field order fixes the JSON key order.

    This is the shallow form of ``dataclasses.asdict``: nested lists and
    dicts are shared, not deep-copied.  ``asdict`` copied every nested value
    and made the 1000-trial ``plunnecke`` command 40% slower.
    """

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RunReport(Report):
    """Envelope for one command invocation."""

    command: str
    config: dict
    passed: bool
    report: Any
    wall_time_s: float = field(default=0.0)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


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


def to_csv(run: RunReport) -> str:
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


def to_text(run: RunReport) -> str:
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


def render(run: RunReport, output: str) -> str:
    if output == "json":
        return run.to_json() + "\n"
    if output == "csv":
        return to_csv(run)
    if output == "text":
        return to_text(run)
    raise ValueError(f"unknown output format: {output!r}")
