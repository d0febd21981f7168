"""The workloads: what one operation is, its inputs and its check.

Each workload sits on one side of a path choice the package is expected to
change, so a later gain on one side can be checked against no change on the
other: sparse vs dense Abelian sumsets, the SL2 multiplication table vs
chunked products, and library calls vs one CLI process per command.

A workload builds one pass of operations from the seed: a fixed mix of
operation kinds at fixed sizes, where the seed chooses the elements and the
trial seeds.  The timed phase repeats the pass, so every input is timed
several times.  ``scale="smoke"`` swaps in tiny sizes so every code path
runs in seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Child processes import the package from src/ of this checkout.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


@dataclass
class Op:
    """One timed call on one input, named by ``key``.  Repeated calls must
    return equal outputs (compared through ``digest``); ``check`` is the
    independent test of an output, run after the timed phase."""

    kind: str
    fn: Callable[[], Any]
    key: object
    check: Callable[[Any], bool]
    digest: Callable[[Any], Any] = lambda out: out
    known_defect: Callable[[Any], bool] | None = None


class Workload:
    name: str
    # Untraced and traced passes in a trace run; fixed, so the traced work
    # and its counters repeat exactly for a given seed.
    trace_passes: int
    # Operations run as child processes: peak RSS is the largest child's,
    # and the set-up probe is timed until it exits.
    subprocess_ops = False

    def __init__(self, scale: str) -> None:
        self.scale = scale

    def setup(self) -> None:
        """Everything that happens before the first timed operation."""

    def set_workdir(self, workdir: Path, seed: int) -> None:
        """Write any input files the operations read into ``workdir``."""

    def probe_command(self) -> list[str]:
        """A fresh process that does ``setup`` and prints ``ready``."""
        return [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", self.name,
                "--scale", self.scale, "--setup-only"]

    def ops(self, seed: int, tracer=None) -> list[Op]:
        """One pass.  ``tracer`` is set when the pass will run traced."""
        raise NotImplementedError


def _warm_kernels(specs) -> None:
    """Fill the per-spec translate caches by shifting along every axis."""
    from sumsetlab import GroupSet, encode, setops

    for spec in specs:
        full = GroupSet.full(spec)
        for i, d in enumerate(spec.factors):
            for t in range(1, d):
                coords = [0] * spec.rank
                coords[i] = t
                setops.translate(full, encode(spec, coords))


# ---------------------------------------------------------------------------


class AbelianSparse(Workload):
    """Single kernel calls on sparse sets in many-axis groups.

    The translate kernel costs about |A| * N/64 word operations per nonzero
    axis, so this is where a pairwise kernel would win.
    """

    name = "abelian-sparse"
    trace_passes = 4

    def __init__(self, scale: str) -> None:
        super().__init__(scale)
        if scale == "smoke":
            self.sumsets = {"Z2^8": [(4, 16)], "Z3^4": [(9, 9)]}
            self.folds = [(4, 2), (4, 3)]
            self.subsets = [4]
            self.variants = 1
        else:
            # (|A|, |B|) from about sqrt(N)/4 to 2 sqrt(N).
            self.sumsets = {
                "Z2^16": [(64, 512), (128, 256), (256, 256)],
                "Z3^10": [(61, 486), (122, 243), (243, 243)],
                "Z2^18": [(64, 1024), (128, 512)],
            }
            self.folds = [(32, 2), (32, 3), (64, 2), (64, 3)]
            self.subsets = [8, 12, 16]
            self.variants = 4

    def setup(self) -> None:
        from sumsetlab import parse_group_spec

        self.specs = {g: parse_group_spec(g) for g in self.sumsets}
        _warm_kernels(self.specs.values())

    def ops(self, seed: int, tracer=None) -> list[Op]:
        from sumsetlab import ElementMultiset, GroupSet, setops

        out: list[Op] = []
        for g, spec in self.specs.items():
            f, n = spec.factors, spec.order
            for v in range(self.variants):
                for sa, sb in self.sumsets[g]:
                    ia = inputs.sample_indices(seed, n, sa, g, "sumset-a", sa, sb, v)
                    ib = inputs.sample_indices(seed, n, sb, g, "sumset-b", sa, sb, v)
                    a, b = GroupSet.from_indices(spec, ia), GroupSet.from_indices(spec, ib)
                    out.append(Op(
                        "sumset", lambda a=a, b=b: setops.sumset(a, b), len(out),
                        lambda s, f=f, n=n, ia=ia, ib=ib: checks.same_members(
                            s.bits, n, checks.pair_sums(f, np.array(ia), np.array(ib)))))
                for size, m in self.folds:
                    ia = inputs.sample_indices(seed, n, size, g, "m_fold", size, m, v)
                    a = GroupSet.from_indices(spec, ia)
                    out.append(Op(
                        "m_fold", lambda a=a, m=m: setops.m_fold(a, m), len(out),
                        lambda s, f=f, n=n, ia=ia, m=m: checks.same_members(
                            s.bits, n, checks.m_fold_oracle(f, np.array(ia), m))))
                for size in self.subsets:
                    elems = inputs.multiset_indices(seed, n, size, g, "subset_sums", size, v)
                    b = ElementMultiset.from_indices(spec, elems)
                    out.append(Op(
                        "subset_sums", lambda b=b: setops.subset_sums(b), len(out),
                        lambda s, f=f, n=n, elems=elems: checks.same_members(
                            s.bits, n, checks.subset_sums_oracle(f, elems))))
        return out


# ---------------------------------------------------------------------------


class AbelianDense(Workload):
    """Serial library trials on dense operands, plus the exhaustive
    pigeonhole sweep.  Translate-and-OR with its early exit at the full
    group is the right kernel here, so a sparse-path change must leave this
    workload unchanged."""

    name = "abelian-dense"
    trace_passes = 3

    def __init__(self, scale: str) -> None:
        super().__init__(scale)
        if scale == "smoke":
            self.groups = {"theorem1": "Z3^4", "plunnecke": ["Z3^3", "Z2^6"]}
            self.mix = {"theorem1-m2": 1, "theorem1-m3": 1, "plunnecke": 1}
            self.pigeonhole = [8]
        else:
            self.groups = {"theorem1": "Z3^6", "plunnecke": ["Z3^6", "Z2^12"]}
            self.mix = {"theorem1-m2": 6, "theorem1-m3": 5, "plunnecke": 5}
            self.pigeonhole = [12, 13, 14]

    def setup(self) -> None:
        from sumsetlab import parse_group_spec

        names = {self.groups["theorem1"], *self.groups["plunnecke"]}
        self.specs = {g: parse_group_spec(g) for g in names}
        _warm_kernels(self.specs.values())

    def ops(self, seed: int, tracer=None) -> list[Op]:
        from sumsetlab import GroupSet, abelian

        t1 = self.specs[self.groups["theorem1"]]
        out: list[Op] = []
        for m, density in ((2, 0.5), (3, 0.3)):
            for j in range(self.mix[f"theorem1-m{m}"]):
                s = inputs.trial_seed(seed, "theorem1", m, j)
                out.append(Op(
                    f"theorem1-m{m}",
                    lambda m=m, s=s, d=density: abelian.theorem1_trials(t1, m, 1, s, density=d)[0],
                    ("theorem1", m, j),
                    lambda r, n=t1.order: checks.theorem1_report_ok(r, n)))
        # plunnecke_trials draws |A|, |B| and k at random, so one trial's
        # cost varies tenfold; fixed sizes keep the mix the same per seed.
        for g in self.groups["plunnecke"]:
            spec = self.specs[g]
            for j in range(self.mix["plunnecke"]):
                ia, ib = (inputs.sample_indices(seed, spec.order, spec.order // div,
                                                "plunnecke", g, j, div) for div in (16, 4))
                a, b = GroupSet.from_indices(spec, ia), GroupSet.from_indices(spec, ib)
                out.append(Op(
                    f"plunnecke-{g}", lambda a=a, b=b: abelian.check_plunnecke(a, b, 3),
                    ("plunnecke", g, j),
                    lambda r, f=spec.factors, ia=np.array(ia), ib=np.array(ib): (
                        checks.plunnecke_report_ok(r)
                        and r.card_sum == len(checks.pair_sums(f, ia, ib))
                        and r.lhs == len(checks.m_fold_oracle(f, ia, 3)))))
        for n in self.pigeonhole:
            out.append(Op(
                "pigeonhole", lambda n=n: abelian.pigeonhole_exhaustive(n), ("pigeonhole", n),
                lambda r, n=n: (r["passed"] and not r["failures"]
                                and r["pairs_checked"] == checks.pigeonhole_pairs(n))))
        return out


# ---------------------------------------------------------------------------


class SL2Products(Workload):
    """Serial SL2 trials at a prime with the multiplication table (p = 13,
    order 2184) and one above the table cap (p = 17, order 4896, chunked
    products)."""

    name = "sl2-products"
    trace_passes = 2

    def __init__(self, scale: str) -> None:
        super().__init__(scale)
        if scale == "smoke":
            self.p_table, self.p_chunked = 7, 17
            self.mix = [("theorem4", 1, None), ("ruzsa-small", 1, 8), ("ruzsa", 1, 40),
                        ("gowers", 1, 60), ("gowers-chunked", 1, 40), ("ruzsa-chunked", 1, 40)]
        else:
            self.p_table, self.p_chunked = 13, 17
            # (kind, inputs per pass, set size).  Of 33 operations, the 10
            # table-path checks take 10-20 ms (ranks 0-30%), the 12
            # table-path gowers trials about 22 ms (ranks 30-67%, around
            # the median), the 2 theorem4 trials about 0.3 s, and the 9
            # chunked ones about 0.5 s (ranks 73-100%, around the 90th
            # percentile).  The chunked products, which stream through
            # large arrays, slow least when the host does: they take three
            # quarters of the time, so the run's figures swing less with
            # the host's speed.
            self.mix = [("theorem4", 2, None), ("ruzsa-small", 3, 40), ("ruzsa", 7, 500),
                        ("gowers", 12, 600), ("ruzsa-chunked", 1, 1500),
                        ("gowers-chunked", 8, 1500)]

    def setup(self) -> None:
        from sumsetlab import sl2_group

        self.groups = {p: sl2_group(p) for p in (self.p_table, self.p_chunked)}
        self._products_ok: dict[int, bool] = {}

    def products_ok(self, p: int, seed: int) -> bool:
        """Spot-check product_set at p against direct matrix products."""
        if p not in self._products_ok:
            from sumsetlab import SL2Set, sl2

            g = self.groups[p]
            rng = inputs.rng_for(seed, "product-check", p)
            ok = True
            sizes = [(60, 60), (500, 500)] + ([(1500, 3000)] if g.table is None else [])
            for sx, sy in sizes:
                sx, sy = min(sx, g.order), min(sy, g.order)
                xs = inputs.sample_indices(seed, g.order, sx, "product-check-x", p, sx)
                ys = inputs.sample_indices(seed, g.order, sy, "product-check-y", p, sy)
                out = sl2.product_set(SL2Set.from_indices(g, xs), SL2Set.from_indices(g, ys))
                ok = ok and checks.sl2_products_ok(g, xs, ys, out.bits, rng)
            self._products_ok[p] = ok
        return self._products_ok[p]

    def ops(self, seed: int, tracer=None) -> list[Op]:
        from sumsetlab import SL2Set, sl2

        out: list[Op] = []
        for kind, count, size in self.mix:
            p = self.p_chunked if kind.endswith("chunked") else self.p_table
            g = self.groups[p]
            for j in range(count):
                s = inputs.trial_seed(seed, kind, j)
                key = (kind, j)
                if kind == "theorem4":
                    fn = lambda p=p, s=s: sl2.theorem4_trials(p, 1, s)[0]
                    report_ok = checks.theorem4_report_ok
                elif kind.startswith("gowers"):
                    fn = lambda p=p, s=s, size=size: sl2.gowers_trials(p, size, 1, s)[0]
                    report_ok = checks.gowers_report_ok
                else:
                    a, b, c = (SL2Set.from_indices(g, inputs.sample_indices(
                        seed, g.order, size, kind, j, which)) for which in "abc")
                    fn = lambda a=a, b=b, c=c: sl2.check_ruzsa(a, b, c)
                    report_ok = checks.ruzsa_report_ok
                out.append(Op(kind, fn, key,
                              lambda r, p=p, ok=report_ok: ok(r) and self.products_ok(p, seed)))
        return out


# ---------------------------------------------------------------------------

# The README's command-line section, then `basis` in its default standard
# mode, then three sweeps again on a thread pool.
README_COMMANDS = [
    "sumset --group Z6xZ10 --a {a} --b {b}",
    "example1 --p 3 --k 2",
    "theorem1 --group Z3^4 --m 2 --trials 100 --density 0.5",
    "plunnecke --group Z64 --trials 1000",
    "kpn --p 3 --n 2 --exact",
    "basis --p 2 --n 3 --random",
    "sl2 info --p 11",
    "sl2 ruzsa --p 5 --trials 100",
    "sl2 gowers --p 5 --size 96 --trials 100",
    "sl2 theorem4 --p 7 --trials 10",
    "sl2 remark12 --p 7",
    "basis --p 2 --n 3",
    "theorem1 --group Z3^4 --m 2 --trials 100 --density 0.5 --parallel 2",
    "plunnecke --group Z64 --trials 1000 --parallel 2",
    "sl2 theorem4 --p 7 --trials 10 --parallel 2",
]
SMOKE_COMMANDS = [
    "sumset --group Z6xZ10 --a {a} --b {b}",
    "basis --p 2 --n 3",
    "sl2 info --p 5",
    "theorem1 --group Z3^2 --m 2 --trials 2 --density 0.5 --parallel 2",
]
# Known defect: `basis` without --random treats the ElementMultiset that
# standard_basis returns as a BasisMatrix, so the command exits 1.  It stays
# in the workload and counts as a failed operation until it is fixed.
BASIS_DEFECT = "'ElementMultiset' object has no attribute 'to_multiset'"


def _standard_basis(argv: list[str]) -> bool:
    return argv[0] == "basis" and "--random" not in argv


def _envelope(out) -> dict | None:
    """The report envelope a command printed, without ``wall_time_s``."""
    try:
        env = json.loads(out[1])
    except ValueError:
        return None
    env.pop("wall_time_s", None)
    return env


class CliReadme(Workload):
    """Every README command as its own `python -m sumsetlab.cli` process,
    one at a time, so each pays interpreter start, numpy import and group
    construction."""

    name = "cli-readme"
    trace_passes = 1
    subprocess_ops = True

    def __init__(self, scale: str) -> None:
        super().__init__(scale)
        self.commands = SMOKE_COMMANDS if scale == "smoke" else README_COMMANDS

    def probe_command(self) -> list[str]:
        return [sys.executable, "-m", "sumsetlab.cli", "--help"]

    def set_workdir(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        a, b, ia, ib = inputs.write_set_files(seed, workdir, (6, 10))
        self.set_paths = {"a": str(a), "b": str(b)}
        self.expected_card_sum = len(checks.pair_sums((6, 10), np.array(ia), np.array(ib)))

    def _run(self, argv: list[str], tracer) -> tuple[int, str, str]:
        if tracer is None:
            cmd = [sys.executable, "-m", "sumsetlab.cli", *argv]
            env = CHILD_ENV
        else:
            spans = self.workdir / "spans.json"
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_launcher.py"), *argv]
            env = dict(CHILD_ENV, PERFBENCH_SPANS=str(spans))
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        if tracer is not None:
            tracer.merge_json(spans.read_text())
            spans.unlink()
        return proc.returncode, proc.stdout, proc.stderr

    def _check(self, argv: list[str], out) -> bool:
        env = _envelope(out)
        if out[0] != 0 or env is None or env.get("passed") is not True:
            return False
        if argv[0] == "sumset":
            return env["report"]["card_sum"] == self.expected_card_sum
        if argv[0] == "basis":
            n = int(argv[argv.index("--n") + 1])
            p = int(argv[argv.index("--p") + 1])
            return env["report"]["closure_card"] == p**n and env["report"]["is_additive_basis"]
        return True

    def ops(self, seed: int, tracer=None) -> list[Op]:
        out = []
        for i, template in enumerate(self.commands):
            argv = template.format(**self.set_paths).split() + ["--seed", str(seed)]
            kind = "sl2-" + argv[1] if argv[0] == "sl2" else argv[0]
            if "--parallel" in argv:
                kind += "-parallel"
            defect = None
            if _standard_basis(argv):
                kind = "basis-standard"
                defect = lambda o: o[0] == 1 and BASIS_DEFECT in o[2]
            out.append(Op(kind, lambda argv=argv, tracer=tracer: self._run(argv, tracer), i,
                          lambda o, argv=argv: self._check(argv, o),
                          digest=lambda o: (o[0], _envelope(o)), known_defect=defect))
        return out


class CliInProcess(CliReadme):
    """The README's commands through ``sumsetlab.cli.run`` in the
    benchmark's own process: argument parsing, set-file loading, dispatch,
    the trial runners and report rendering, without the interpreter
    start-up that dominates each `cli-readme` command.  Groups are built in
    set-up, as a long-lived caller would have them."""

    name = "cli-inprocess"
    trace_passes = 2
    subprocess_ops = False

    def __init__(self, scale: str) -> None:
        super().__init__(scale)
        # The known defect is kept visible in cli-readme; here no operation
        # is expected to fail.  The --parallel 2 sweeps also run only there:
        # on two cores their second thread competes with whatever else the
        # host runs, and with them this workload's 90th percentile spread by
        # 0.41 between runs.
        self.commands = [c for c in self.commands
                         if not _standard_basis(c.split()) and "--parallel" not in c]
        # Then `sl2 gowers` at p = 17, above the table cap, on a ladder of
        # set sizes: 26 commands of 0.15-0.45 s, sizes 500-1500 in equal
        # ratios, after the README's 11 commands of 5-175 ms.  The ladder
        # holds the median and the 90th percentile and about 90% of the
        # time, and its costs are spread evenly on a log scale, so neither
        # percentile sits on a step between two commands' costs.
        sizes = [round(500 * 3 ** (i / 25)) for i in range(26)] if scale == "full" else [60]
        self.commands += [f"sl2 gowers --p 17 --size {n} --trials 1" for n in sizes]

    def probe_command(self) -> list[str]:
        return Workload.probe_command(self)

    def setup(self) -> None:
        from sumsetlab import parse_group_spec, sl2_group

        specs, primes = [], set()
        for template in self.commands:
            argv = template.split()
            if "--group" in argv:
                specs.append(parse_group_spec(argv[argv.index("--group") + 1]))
            if argv[0] == "sl2":
                primes.add(int(argv[argv.index("--p") + 1]))
        _warm_kernels(specs)
        for p in sorted(primes):
            sl2_group(p)

    def _run(self, argv: list[str], tracer) -> tuple[int, str, str]:
        """Exit code, stdout and stderr, as the command would give them in
        its own process; spans come from the wrappers installed here."""
        from sumsetlab import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except Exception:  # an uncaught error ends the process with 1
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (AbelianSparse, AbelianDense, SL2Products, CliReadme,
                                 CliInProcess)}
