#!/usr/bin/env python3
"""Time two checkouts of sumsetlab against each other on one benchmark
workload, in one process.

    python scripts/ab_kinds.py PARENT CHANGE --workload sl2-products --seed 1 --rounds 40

PARENT and CHANGE are checkout directories, each with ``src/`` and
``perfbench/``.  Each tree's package and benchmark modules are loaded in
turn, with ``sumsetlab*``, ``workloads``, ``inputs`` and ``checks`` cleared
from ``sys.modules`` in between, and each side builds its own pass with its
own ``workloads.WORKLOADS[name](scale)``: set-up done, input files in a
temporary directory.  Before each timed pass the side's modules are put
back in ``sys.modules``, so imports made inside an operation resolve to
the side that runs it.

Each side runs one untimed pass first, whose outputs go through the
operations' checks.  Then every round times one whole pass of each side,
flipping which side goes first each round, so that drift in the host's
speed falls on both alike.  The script prints, per operation kind, each
side's median over the rounds of the kind's time in a pass and their
ratio, the same for the whole pass, and the median and 90th percentile
over every timed operation.  It exits 1 when an output fails its check.

It writes no bytecode and nothing under either ``perfbench/``.  It times
the library the way perfbench does, but it is not the benchmark: it has
no set-up probe and no RSS, and it reads no ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("sl2-products", "cli-inprocess")
BENCH_MODULES = ("workloads", "inputs", "checks")


def _ours(module: str) -> bool:
    """Whether ``module`` belongs to one tree: the package or perfbench's."""
    return module in BENCH_MODULES or module == "sumsetlab" or module.startswith("sumsetlab.")


def _clear() -> None:
    for module in [m for m in sys.modules if _ours(m)]:
        del sys.modules[module]


class Side:
    """One tree's pass of operations and the modules that run it."""

    def __init__(self, label: str, tree: Path, name: str, scale: str, seed: int,
                 workdir: Path) -> None:
        self.label = label
        _clear()
        paths = [str(tree / "src"), str(tree / "perfbench")]
        sys.path[:0] = paths
        try:
            workloads = importlib.import_module("workloads")
            wl = workloads.WORKLOADS[name](scale)
            wl.setup()
            for module, home in ((workloads, "perfbench"), (sys.modules["sumsetlab"], "src")):
                if not Path(module.__file__).resolve().is_relative_to((tree / home).resolve()):
                    raise SystemExit(f"{label}: {module.__name__} loaded from {module.__file__}")
            wl.set_workdir(workdir, seed)
            self.ops = wl.ops(seed)
        finally:
            del sys.path[: len(paths)]
        self.modules = {m: mod for m, mod in sys.modules.items() if _ours(m)}
        self.kinds: dict[str, list[float]] = {op.kind: [] for op in self.ops}
        self.passes: list[float] = []
        self.latencies: list[float] = []

    def _activate(self) -> None:
        _clear()
        sys.modules.update(self.modules)

    def check(self) -> int:
        """Run one untimed pass and return how many outputs fail their check."""
        self._activate()
        failed = sum(not op.check(op.fn()) for op in self.ops)
        self.modules = {m: mod for m, mod in sys.modules.items() if _ours(m)}
        return failed

    def timed_pass(self) -> None:
        self._activate()
        gc.collect()
        kinds = dict.fromkeys(self.kinds, 0.0)
        for op in self.ops:
            t0 = time.perf_counter()
            op.fn()
            latency = time.perf_counter() - t0
            kinds[op.kind] += latency
            self.latencies.append(latency)
        for kind, spent in kinds.items():
            self.kinds[kind].append(spent)
        self.passes.append(sum(kinds.values()))


def _row(name: str, parent: float, change: float) -> str:
    return f"{name:<16} {parent * 1e3:>10.3f} {change * 1e3:>10.3f} {change / parent:>8.3f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout timed as the base")
    parser.add_argument("change", type=Path, help="checkout timed against it")
    parser.add_argument("--workload", choices=WORKLOADS, default="sl2-products")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "sumsetlab").is_dir() or not (tree / "perfbench").is_dir():
            parser.error(f"{tree} has no src/sumsetlab/ or no perfbench/")
    sys.dont_write_bytecode = True

    with contextlib.ExitStack() as stack:
        sides = []
        for label, tree in (("parent", args.parent), ("change", args.change)):
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            sides.append(Side(label, tree, args.workload, args.scale, args.seed, workdir))
        failed = {side.label: side.check() for side in sides}
        for r in range(args.rounds):
            for side in sides if r % 2 == 0 else sides[::-1]:
                side.timed_pass()
    _clear()

    parent, change = sides
    print(f"{args.workload} at seed {args.seed}, scale {args.scale}: {args.rounds} rounds,"
          f" {len(parent.ops)} and {len(change.ops)} operations a pass, order flipped each round")
    print(f"{'median ms':<16} {'parent':>10} {'change':>10} {'ratio':>8}")
    med = statistics.median
    for kind in parent.kinds:
        if kind in change.kinds:
            print(_row(kind, med(parent.kinds[kind]), med(change.kinds[kind])))
    print(_row("pass", med(parent.passes), med(change.passes)))
    print(_row("op p50", med(parent.latencies), med(change.latencies)))
    print(_row("op p90", *(statistics.quantiles(s.latencies, n=10)[8] for s in sides)))
    print("checks failed: " + ", ".join(f"{k} {v}" for k, v in failed.items()))
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
