"""Spans and counters recorded around calls into sumsetlab's modules.

Nothing here changes the package: ``install`` rebinds names at module
boundaries (for example ``abelian.sumset``, the name ``abelian`` imports
from ``setops``) to timing wrappers, and ``uninstall`` puts the originals
back.  Every span records its name, start and end, and the span that
caused it; the root of each tree is one benchmark operation.  Spans stay
in memory until the run ends.  Self time is a span's duration minus the
part of it that child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from dataclasses import dataclass, field

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar("span", default=None)


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    start: int
    end: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._ids = itertools.count(1)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def begin(self, name: str, parent: int | None = None) -> tuple[Span, contextvars.Token]:
        span = Span(name, next(self._ids), _current.get() if parent is None else parent,
                    time.perf_counter_ns())
        self.spans.append(span)
        return span, _current.set(span.id)

    def end(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter_ns()
        _current.reset(token)

    def call(self, name: str, fn, *args, **kwargs):
        span, token = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span, token)

    def to_json(self) -> str:
        return json.dumps({
            "spans": [[s.name, s.id, s.parent, s.start, s.end, s.attrs] for s in self.spans],
            "counters": self.counters,
        })

    def merge_json(self, text: str) -> None:
        """Adopt another process's spans; its root spans become children of
        the current span.  ``perf_counter_ns`` reads the system-wide
        monotonic clock on Linux, so the timestamps are comparable."""
        parent = _current.get()
        data = json.loads(text)
        remap: dict[int, int] = {}
        for name, sid, sparent, start, end, attrs in data["spans"]:
            remap[sid] = next(self._ids)
            self.spans.append(Span(name, remap[sid], remap.get(sparent, parent), start, end, attrs))
        for name, n in data["counters"].items():
            self.count(name, n)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by any of its children.

    Children may overlap (trials on a thread pool), so their union is taken.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0
        reach = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start - covered) / 1e9
    return out


# ---------------------------------------------------------------------------
# Wrappers installed at module boundaries


def _wrap_plain(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper


def _wrap_sumset(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(a, b):
        span, token = tracer.begin("setops.sumset")
        try:
            out = fn(a, b)
        finally:
            tracer.end(span, token)
        span.attrs = {"cells": a.card * b.card, "full": out.card == out.spec.order}
        return out
    return wrapper


def _wrap_product_set(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(x, y):
        path = "table" if x.group.table is not None else "chunked"
        span, token = tracer.begin(f"sl2.product_set.{path}")
        span.attrs = {"cells": x.card * y.card}
        try:
            return fn(x, y)
        finally:
            tracer.end(span, token)
    return wrapper


def _wrap_counted(tracer: Tracer, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(counter)
        return fn(*args, **kwargs)
    return wrapper


def _wrap_pigeonhole(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(order):
        span, token = tracer.begin("abelian.pigeonhole_exhaustive")
        try:
            out = fn(order)
        finally:
            tracer.end(span, token)
        span.attrs = {"pairs": out["pairs_checked"]}
        return out
    return wrapper


def _wrap_map_trials(tracer: Tracer, fn):
    """Pool overhead stays in the map_trials span; each trial gets a child
    span, parented explicitly because pool threads start with an empty
    context."""

    @functools.wraps(fn)
    def wrapper(trial_fn, trials, workers=1):
        span, token = tracer.begin("reports.map_trials")

        def traced_trial(i):
            child, child_token = tracer.begin("trial", parent=span.id)
            try:
                return trial_fn(i)
            finally:
                tracer.end(child, child_token)

        try:
            return fn(traced_trial, trials, workers)
        finally:
            tracer.end(span, token)
    return wrapper


def _wrap_render(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(run, output):
        span, token = tracer.begin("reports.render")
        try:
            text = fn(run, output)
        finally:
            tracer.end(span, token)
        span.attrs = {"bytes": len(text.encode())}
        return text
    return wrapper


# Every traced name as "owner module.name"; the span has the same name
# unless a special wrapper records more.
_TRACED = [
    "setops.m_fold", "setops.subset_sums", "setops.sumset", "constructions.random_cover_set",
    "abelian.verify_theorem1", "abelian.check_plunnecke", "abelian.kpn_exact_small",
    "abelian.pigeonhole_exhaustive", "sl2.product_set", "sl2.inverse_set", "sl2.random_sl2_set",
    "sl2.sample_hypothesis_set", "sl2.verify_theorem4", "sl2.check_ruzsa", "sl2.check_gowers",
    "reports.map_trials", "reports.render", "cli.run",
]
_SPECIAL = {
    "setops.sumset": _wrap_sumset,
    "abelian.pigeonhole_exhaustive": _wrap_pigeonhole,
    "sl2.product_set": _wrap_product_set,
    "reports.map_trials": _wrap_map_trials,
    "reports.render": _wrap_render,
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every traced name in every sumsetlab module that holds it.

    Returns the undo list for ``uninstall``.
    """
    import sumsetlab
    from sumsetlab import abelian, cli, config, constructions, groups, reports, setops, sl2

    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in
            (abelian, cli, config, constructions, groups, reports, setops, sl2)}
    holders = [sumsetlab, *mods.values()]
    undo: list[tuple[object, str, object]] = []
    for traced in _TRACED:
        owner, name = traced.split(".")
        original = getattr(mods[owner], name)
        if traced in _SPECIAL:
            wrapper = _SPECIAL[traced](tracer, original)
        else:
            wrapper = _wrap_plain(tracer, traced, original)
        for mod in holders:
            if mod.__dict__.get(name) is original:
                undo.append((mod, name, original))
                setattr(mod, name, wrapper)
    # groups.decode is counted only where setops calls it: once per translate.
    undo.append((setops, "decode", setops.decode))
    setops.decode = _wrap_counted(tracer, "groups.decode.calls", setops.decode)
    # Group construction is timed in place, so SL2Group keeps its identity
    # for isinstance and equality checks.
    init = sl2.SL2Group.__init__

    def timed_init(self, p):
        span, token = tracer.begin("sl2.SL2Group")
        try:
            init(self, p)
        finally:
            tracer.end(span, token)
        span.attrs = {"table_cells": self.order**2 if self.table is not None else 0}

    undo.append((sl2.SL2Group, "__init__", init))
    sl2.SL2Group.__init__ = timed_init
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for mod, name, original in reversed(undo):
        setattr(mod, name, original)


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Aggregate spans and counters into the per-layer metric names."""
    selfs = self_times(tracer.spans)
    by_id = {s.id: s for s in tracer.spans}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    attr_sum: dict[tuple[str, str], int] = {}
    child_calls: dict[tuple[str, str], int] = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]
        total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start) / 1e9
        for key, value in s.attrs.items():
            attr_sum[s.name, key] = attr_sum.get((s.name, key), 0) + int(value)
        if s.parent in by_id:
            pair = (by_id[s.parent].name, s.name)
            child_calls[pair] = child_calls.get(pair, 0) + 1

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    cover_draws = child_calls.get(("constructions.random_cover_set", "setops.m_fold"), 0)
    hyp_draws = child_calls.get(("sl2.sample_hypothesis_set", "sl2.random_sl2_set"), 0)
    m: dict[str, float] = {
        "groups.decode.calls": tracer.counters.get("groups.decode.calls", 0),
        "setops.sumset.calls": calls.get("setops.sumset", 0),
        "setops.sumset.self_s": self_s.get("setops.sumset", 0.0),
        "setops.sumset.pair_cells": attr_sum.get(("setops.sumset", "cells"), 0),
        "setops.sumset.full_results": attr_sum.get(("setops.sumset", "full"), 0),
        "setops.m_fold.calls": calls.get("setops.m_fold", 0),
        "setops.m_fold.self_s": self_s.get("setops.m_fold", 0.0),
        "setops.subset_sums.calls": calls.get("setops.subset_sums", 0),
        "setops.subset_sums.self_s": self_s.get("setops.subset_sums", 0.0),
        "constructions.random_cover_set.calls": calls.get("constructions.random_cover_set", 0),
        "constructions.random_cover_set.self_s": self_s.get("constructions.random_cover_set", 0.0),
        "constructions.random_cover_set.draws": cover_draws,
        "constructions.random_cover_set.accept_ratio":
            ratio(calls.get("constructions.random_cover_set", 0), cover_draws),
        "abelian.verify_theorem1.self_s": self_s.get("abelian.verify_theorem1", 0.0),
        "abelian.check_plunnecke.self_s": self_s.get("abelian.check_plunnecke", 0.0),
        "abelian.kpn_exact_small.self_s": self_s.get("abelian.kpn_exact_small", 0.0),
        "abelian.pigeonhole_exhaustive.self_s": self_s.get("abelian.pigeonhole_exhaustive", 0.0),
        "abelian.pigeonhole_exhaustive.pairs_checked":
            attr_sum.get(("abelian.pigeonhole_exhaustive", "pairs"), 0),
        "sl2.SL2Group.build_s": total_s.get("sl2.SL2Group", 0.0),
        "sl2.table_mib": attr_sum.get(("sl2.SL2Group", "table_cells"), 0) * 4 / 2**20,
        "sl2.product_set.table.calls": calls.get("sl2.product_set.table", 0),
        "sl2.product_set.table.self_s": self_s.get("sl2.product_set.table", 0.0),
        "sl2.product_set.chunked.calls": calls.get("sl2.product_set.chunked", 0),
        "sl2.product_set.chunked.self_s": self_s.get("sl2.product_set.chunked", 0.0),
        "sl2.product_set.cells": attr_sum.get(("sl2.product_set.table", "cells"), 0)
        + attr_sum.get(("sl2.product_set.chunked", "cells"), 0),
        "sl2.inverse_set.self_s": self_s.get("sl2.inverse_set", 0.0),
        "sl2.sample_hypothesis_set.draws": hyp_draws,
        "sl2.sample_hypothesis_set.accept_ratio":
            ratio(calls.get("sl2.sample_hypothesis_set", 0), hyp_draws),
        "sl2.verify_theorem4.self_s": self_s.get("sl2.verify_theorem4", 0.0),
        "sl2.check_ruzsa.self_s": self_s.get("sl2.check_ruzsa", 0.0),
        "sl2.check_gowers.self_s": self_s.get("sl2.check_gowers", 0.0),
        "reports.map_trials.self_s": self_s.get("reports.map_trials", 0.0),
        "reports.render.self_s": self_s.get("reports.render", 0.0),
        "reports.render.bytes": attr_sum.get(("reports.render", "bytes"), 0),
        "cli.run.self_s": self_s.get("cli.run", 0.0),
    }
    return m
