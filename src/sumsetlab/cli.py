"""Command-line front end: parse specs and set files, run, report.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the report
carries the witness), 2 usage or configuration error.  Reports go to
stdout; diagnostics go to stderr.

Each subcommand declares, beside its options, its runner (``args ->
(passed, report)``) and its config keys.  The envelope's ``config`` lists
every option that shapes the result, read after the runner so that a value
it resolves (``theorem1``'s default ``K``) is recorded.

``run(argv)`` can be called many times in one process.  The argument
parser is built on the first call and reused by every later one; each run
still restores the order cap that ``--order-cap`` changed for it.
``kpn --budget`` and ``--k-max`` must be at least 1, since a search that
checks no tuple has no evidence for its least k.  ``sl2 info`` checks p as
``sl2_group`` does (the cap, then primality) but builds no group.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Any

from . import abelian, constructions, sl2
from .config import order_cap, set_order_cap
from .groups import parse_group_spec, vector_space_spec
from .reports import Report, render
from .setops import set_from_json, set_to_json, sumset


def load_set(path: str, spec: Any):
    """Load a JSON set file against an Abelian spec or an SL2 group."""
    with open(path, encoding="utf-8") as fh:
        return set_from_json(spec, json.load(fh))


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    parser.add_argument(
        "--output", choices=("json", "csv", "text"), default="json", help="report format"
    )
    parser.add_argument("--order-cap", type=int, default=None, help="override the order cap")
    parser.add_argument(
        "--parallel", type=int, default=1, help="accepted and ignored; trials run serially"
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``run`` in the process: parsing keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="sumsetlab",
        description="Sumset, product set, and subset-sum verification over finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sumset", help="compute A+B from two JSON set files")
    p.add_argument("--group", required=True, help="group spec, e.g. Z3^4 or Z6xZ10")
    p.add_argument("--a", required=True, help="path to set file A")
    p.add_argument("--b", required=True, help="path to set file B")
    _common(p)
    p.set_defaults(run=_sumset, config=("group", "a", "b"))

    p = sub.add_parser("example1", help="verify the half-zero family at (p, k)")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    _common(p)
    p.set_defaults(run=lambda a: _one(constructions.verify_example1(a.p, a.k)), config=("p", "k"))

    p = sub.add_parser("theorem1", help="two-half covering trials on random cover sets")
    p.add_argument("--group", required=True)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--K", type=int, default=None, help="half length (default: the bound)")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--density", type=float, default=0.5)
    _common(p)
    p.set_defaults(run=_theorem1, config=("group", "m", "K", "trials", "seed", "density"))

    p = sub.add_parser("plunnecke", help="growth inequality trials on random sets")
    p.add_argument("--group", required=True)
    p.add_argument("--trials", type=int, default=100)
    _common(p)
    p.set_defaults(
        run=lambda a: _trials(
            abelian.plunnecke_trials(parse_group_spec(a.group), a.trials, a.seed)
        ),
        config=("group", "trials", "seed"),
    )

    p = sub.add_parser("kpn", help="bases-union constant: upper bounds and tiny search")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--exact", action="store_true", help="run the tiny exact search")
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--budget", type=int, default=10_000)
    _common(p)
    p.set_defaults(run=_kpn, config=("p", "n", "exact", "k_max", "budget", "seed"))

    p = sub.add_parser("basis", help="emit a basis and its subset-sum closure size")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--random", action="store_true", help="seeded random instead of standard")
    _common(p)
    p.set_defaults(run=_basis, config=("p", "n", "random", "seed"))

    sl2p = sub.add_parser("sl2", help="SL2(Z_p) checks")
    sl2sub = sl2p.add_subparsers(dest="sl2_command", required=True)

    p = sl2sub.add_parser("info", help="order, D, delta, and the block-count bound")
    p.add_argument("--p", required=True, type=int)
    _common(p)
    p.set_defaults(
        run=lambda a: (True, sl2.quasirandom_info(sl2._check_p(a.p)).to_dict()), config=("p",)
    )

    p = sl2sub.add_parser("ruzsa", help="triangle inequality trials")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--trials", type=int, default=100)
    _common(p)
    p.set_defaults(
        run=lambda a: _trials(sl2.ruzsa_trials(a.p, a.trials, a.seed)),
        config=("p", "trials", "seed"),
    )

    p = sl2sub.add_parser("gowers", help="triple-product covering trials")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--size", required=True, type=int)
    p.add_argument("--trials", type=int, default=100)
    _common(p)
    p.set_defaults(
        run=lambda a: _trials(sl2.gowers_trials(a.p, a.size, a.trials, a.seed)),
        config=("p", "size", "trials", "seed"),
    )

    p = sl2sub.add_parser("theorem4", help="three-block covering chain trials")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--density", type=float, default=0.25)
    _common(p)
    p.set_defaults(
        run=lambda a: _trials(sl2.theorem4_trials(a.p, a.trials, a.seed, a.K, a.density)),
        config=("p", "trials", "seed", "K", "density"),
    )

    p = sl2sub.add_parser("remark12", help="twelve-set consequence at p >= 7")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--density", type=float, default=0.25)
    _common(p)
    p.set_defaults(
        run=lambda a: _one(sl2.remark12(a.p, a.trials, a.seed, a.density)),
        config=("p", "trials", "seed", "density"),
    )

    return parser


def _trials(reports) -> tuple[bool, list]:
    """A sweep's verdict and its per-trial reports."""
    return all(r.passed for r in reports), [r.to_dict() for r in reports]


def _one(report) -> tuple[bool, dict]:
    return report.passed, report.to_dict()


def _sumset(args) -> tuple[bool, dict]:
    spec = parse_group_spec(args.group)
    a, b = load_set(args.a, spec), load_set(args.b, spec)
    s = sumset(a, b)
    return True, {
        "group": str(spec),
        "card_a": a.card,
        "card_b": b.card,
        "card_sum": s.card,
        "covers": s.card == spec.order,
        "sum": set_to_json(s, form="elements" if s.card <= 4096 else "bitmask"),
    }


def _theorem1(args) -> tuple[bool, list]:
    spec = parse_group_spec(args.group)
    if args.K is None:
        args.K = abelian.theorem1_bound(args.m, spec.order)  # so that the config records it
    reports = abelian.theorem1_trials(spec, args.m, args.trials, args.seed, args.K, args.density)
    return _trials(reports)


def _kpn(args) -> tuple[bool, dict]:
    report: dict = {"upper": abelian.kpn_upper(args.p, args.n).to_dict()}
    if args.exact:
        report["search"] = abelian.kpn_exact_small(
            args.p, args.n, k_max=args.k_max, budget=args.budget, seed=args.seed
        ).to_dict()
    return True, report


def _basis(args) -> tuple[bool, dict]:
    if args.random:
        basis = constructions.random_basis_matrix(args.p, args.n, args.seed)
    else:
        basis = constructions.standard_basis_matrix(args.p, args.n)
    closure_card = abelian._union_closure(vector_space_spec(args.p, args.n), [basis]).card
    return True, {
        "p": args.p,
        "n": args.n,
        "random": args.random,
        "rows": [list(r) for r in basis],
        "closure_card": closure_card,
        "is_additive_basis": closure_card == args.p**args.n,
    }


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    command = args.command
    if command == "sl2":
        command = f"sl2-{args.sl2_command}"
    cap = None
    try:
        cap = order_cap()  # a bad $SUMSETLAB_ORDER_CAP is refused here
        if args.order_cap is not None:
            set_order_cap(args.order_cap)
        start = time.perf_counter()
        passed, report = args.run(args)
        envelope = Report(
            command=command,
            config={k: getattr(args, k) for k in args.config},
            passed=passed,
            report=report,
            wall_time_s=round(time.perf_counter() - start, 6),
        )
        sys.stdout.write(render(envelope, args.output))
        return 0 if passed else 1
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"sumsetlab: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    finally:
        if cap is not None:
            set_order_cap(cap)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
