"""sumsetlab benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload abelian-sparse --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1                 # every workload, both modes
    python3 perfbench/run.py --all --scale smoke            # the same at tiny sizes, in seconds

A single run prints one line per metric and, as its last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with nothing
wrapped; with ``--trace 1`` they are the per-layer ones, from spans around
the calls into each module, plus the tracing overhead.  Metric names, units
and the default ``--seconds`` come from ``BENCHMARK.json`` next to this
directory.

The package is imported from ``src/`` next to this directory; the run exits
with status 2, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100  # operations timed per run, so ten or more lie beyond the 90th percentile
MAX_TIMED_S = 120.0  # keeps a run inside the 180 s limit whatever the machine
SETUP_PROBES = 5


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _probe_setup(cmd: list[str], ready_line: bool, env: dict) -> float:
    """Seconds from spawning ``cmd`` until it is ready (or, without a ready
    line, until it exits)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env)
    try:
        if ready_line:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            if line.strip() != "ready":
                raise RuntimeError(f"setup probe failed: {proc.communicate()[1][-2000:]}")
            proc.communicate()
        else:
            _, err = proc.communicate()
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed: {err[-2000:]}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed


class Outcome:
    """One timed operation.  Only an input's first output is kept, for its
    check; later repetitions keep whether they matched it."""

    __slots__ = ("op", "latency", "output", "error", "repeat_ok", "span")

    def __init__(self, op, latency, output, error, repeat_ok, span):
        self.op, self.latency, self.output, self.error = op, latency, output, error
        self.repeat_ok, self.span = repeat_ok, span


def _run_passes(ops, passes: int | None = None, seconds: float = 0.0, min_ops: int = 0,
                tracer=None, first: dict | None = None) -> tuple[list[Outcome], float]:
    """Repeat the pass of ``ops``, whole passes only: ``passes`` times, or
    until ``seconds`` have passed and ``min_ops`` operations are done.
    ``first`` maps each input's key to the digest of its first output; pass
    the same dict to compare across phases.  Returns the outcomes and the
    wall time they took."""
    first = {} if first is None else first
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    done = 0
    while True:
        if passes is not None and done == passes:
            break
        elapsed = time.perf_counter() - start
        if passes is None and ((elapsed >= seconds and len(outcomes) >= min_ops)
                               or elapsed > MAX_TIMED_S):
            break
        for op in ops:
            span = token = None
            if tracer is not None:
                span, token = tracer.begin("op." + op.kind)
            t0 = time.perf_counter()
            try:
                output, error = op.fn(), None
            except Exception as exc:  # a failed operation, counted below
                output, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(span, token)
            repeat_ok = None
            if error is None:
                digest = op.digest(output)
                if op.key in first:
                    repeat_ok, output = digest == first[op.key], None
                else:
                    first[op.key] = digest
            outcomes.append(Outcome(op, latency, output, error, repeat_ok, span))
        done += 1
    return outcomes, time.perf_counter() - start


def _judge(outcomes: list[Outcome]) -> tuple[int, bool, list[str]]:
    """Count failed operations.  ``correct`` stays true when the only
    failures are the documented known defect."""
    failed = 0
    unexpected: list[str] = []
    verdict: dict[object, bool] = {}
    for o in outcomes:
        op = o.op
        if o.error is not None:
            ok = False
        elif o.repeat_ok is None:
            ok = verdict[op.key] = bool(op.check(o.output))
        else:
            ok = o.repeat_ok and verdict[op.key]
        if not ok:
            failed += 1
            known = o.output is not None and op.known_defect and op.known_defect(o.output)
            if not (known or (o.repeat_ok and op.known_defect)):
                unexpected.append(f"{op.kind}: {o.error or 'output failed its check'}")
    return failed, not unexpected, unexpected


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    wl = workloads.WORKLOADS[name](scale)
    metrics: dict[str, float] = {}
    if not trace:
        probes = [_probe_setup(wl.probe_command(), not wl.subprocess_ops, workloads.CHILD_ENV)
                  for _ in range(SETUP_PROBES if scale == "full" else 1)]
        metrics["setup_s"] = statistics.median(probes)
    tracer = tracing.Tracer() if trace else None
    undo = tracing.install(tracer) if trace else None
    wl.setup()
    if undo:
        tracing.uninstall(undo)
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl.set_workdir(workdir, seed)
        gc.collect()
        if not trace:
            # A smoke run times one pass.
            full = scale == "full"
            outcomes, wall = _run_passes(wl.ops(seed), seconds=seconds if full else 0,
                                         min_ops=MIN_OPS if full else 1)
            who = resource.RUSAGE_CHILDREN if wl.subprocess_ops else resource.RUSAGE_SELF
            metrics["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024
            latencies_ms = [o.latency * 1e3 for o in outcomes]
            metrics["ops_per_s"] = len(outcomes) / wall
            metrics["op_p50_ms"] = statistics.median(latencies_ms)
            metrics["op_p90_ms"] = statistics.quantiles(latencies_ms, n=10)[8]
            info = {}
        else:
            passes = wl.trace_passes if scale == "full" else 1
            # Untraced and traced passes alternate, so drift in the
            # machine's speed falls on both sides alike.
            first: dict = {}
            ops, traced_ops = wl.ops(seed), wl.ops(seed, tracer)
            plain, traced = [], []
            for _ in range(passes):
                plain += _run_passes(ops, 1, first=first)[0]
                undo = tracing.install(tracer)
                try:
                    traced += _run_passes(traced_ops, 1, tracer=tracer, first=first)[0]
                finally:
                    tracing.uninstall(undo)
            outcomes = plain + traced
            metrics.update(tracing.layer_metrics(tracer))
            info = _overhead(plain, traced, tracer, metrics)
        failed, correct, unexpected = _judge(outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left while another run uses it
            workdir.parent.rmdir()
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": dict(info, ops_failed_frac=failed / len(outcomes), unexpected=unexpected[:10]),
    }


def _overhead(plain, traced, tracer, metrics) -> dict:
    """Tracing overhead, overall and per operation kind.

    The untraced and traced passes ran the same inputs equally often.  For
    each kind, the self times of every span under its traced operations are
    summed and compared with its untraced operations' summed latencies; the
    kind's own overhead, traced over untraced latency, is the gap expected
    for serial operations."""
    selfs = tracing.self_times(tracer.spans)
    parent = {s.id: s.parent for s in tracer.spans}
    tree_self: dict[int, float] = {}
    for s in tracer.spans:
        root = s.id
        while parent.get(root) is not None:
            root = parent[root]
        tree_self[root] = tree_self.get(root, 0.0) + selfs[s.id]
    kinds: dict[str, list[float]] = {}
    for o in plain:
        kinds.setdefault(o.op.kind, [0.0, 0.0, 0.0])[0] += o.latency
    for o in traced:
        kinds[o.op.kind][1] += tree_self[o.span.id]
        kinds[o.op.kind][2] += o.latency
    gaps = {k: (self_sum / untraced - 1, traced_s / untraced - 1)
            for k, (untraced, self_sum, traced_s) in kinds.items()}
    plain_rate = len(plain) / sum(o.latency for o in plain)
    traced_rate = len(traced) / sum(o.latency for o in traced)
    metrics["trace.untraced_ops_per_s"] = plain_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_frac"] = 1 - traced_rate / plain_rate
    metrics["trace.kind_gap_max_frac"] = max(abs(gap) for gap, _ in gaps.values())
    return {"kind_gaps": gaps}


def _print_result(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    info = result["info"]
    print(f"{'ops_failed_frac':48s} {info['ops_failed_frac']:>16.6g} ratio")
    for line in info["unexpected"]:
        print(f"unexpected failure: {line}")
    for kind, (gap, overhead) in info.get("kind_gaps", {}).items():
        print(f"trace {kind:30s} self-time sum vs untraced {gap:+.4f}, "
              f"traced vs untraced {overhead:+.4f}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def _child(args: list[str], timeout: float = 900) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float, scale: str) -> int:
    """Every workload, untraced and traced, each in a fresh process.
    Returns the number of problems found (metrics of BENCHMARK.json missing
    or in another unit, incorrect outputs)."""
    bench = load_benchmark()
    problems = 0
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            res = _child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace), "--scale", scale])
            print(f"== {name} trace={trace} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    print(f"   MISSING {m['name']} [{m['unit']}]")
                    problems += 1
                else:
                    print(f"   {m['name']:48s} {got['value']:>16.6g} {got['unit']}")
            problems += not res["correct"]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke runs every code path in seconds")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    args = parser.parse_args(argv)
    if not (SRC / "sumsetlab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    if args.all:
        return 1 if run_all(args.seed, seconds, args.scale) else 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.scale).setup()
        print("ready", flush=True)
        return 0
    _print_result(run_workload(args.workload, args.seed, seconds, bool(args.trace), args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
