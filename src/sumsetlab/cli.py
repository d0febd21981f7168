"""Command-line front end: parse specs and set files, dispatch, report.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the report
carries the witness), 2 usage or configuration error.  Reports go to
stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from . import abelian, constructions, sl2
from .config import order_cap, set_order_cap
from .groups import parse_group_spec
from .reports import RunReport, render
from .setops import set_from_json, set_to_json, subset_sums, sumset
from .sl2 import sl2_group


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
    parser.add_argument("--parallel", type=int, default=1, help="worker threads for trials")


def _build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("example1", help="verify the half-zero family at (p, k)")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    _common(p)

    p = sub.add_parser("theorem1", help="two-half covering trials on random cover sets")
    p.add_argument("--group", required=True)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--K", type=int, default=None, help="half length (default: the bound)")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--density", type=float, default=0.5)
    _common(p)

    p = sub.add_parser("plunnecke", help="growth inequality trials on random sets")
    p.add_argument("--group", required=True)
    p.add_argument("--trials", type=int, default=100)
    _common(p)

    p = sub.add_parser("kpn", help="bases-union constant: upper bounds and tiny search")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--exact", action="store_true", help="run the tiny exact search")
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--budget", type=int, default=10_000)
    _common(p)

    p = sub.add_parser("basis", help="emit a basis and its subset-sum closure size")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--random", action="store_true", help="seeded random instead of standard")
    _common(p)

    sl2p = sub.add_parser("sl2", help="SL2(Z_p) checks")
    sl2sub = sl2p.add_subparsers(dest="sl2_command", required=True)

    p = sl2sub.add_parser("info", help="order, D, delta, and the block-count bound")
    p.add_argument("--p", required=True, type=int)
    _common(p)

    p = sl2sub.add_parser("ruzsa", help="triangle inequality trials")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--trials", type=int, default=100)
    _common(p)

    p = sl2sub.add_parser("gowers", help="triple-product covering trials")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--size", required=True, type=int)
    p.add_argument("--trials", type=int, default=100)
    _common(p)

    p = sl2sub.add_parser("theorem4", help="three-block covering chain trials")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--density", type=float, default=0.25)
    _common(p)

    p = sl2sub.add_parser("remark12", help="twelve-set consequence at p >= 7")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--density", type=float, default=0.25)
    _common(p)

    return parser


def _cmd_sumset(args) -> tuple[bool, dict, Any]:
    spec = parse_group_spec(args.group)
    a = load_set(args.a, spec)
    b = load_set(args.b, spec)
    s = sumset(a, b)
    report = {
        "group": str(spec),
        "card_a": a.card,
        "card_b": b.card,
        "card_sum": s.card,
        "covers": s.card == spec.order,
        "sum": set_to_json(s, form="elements" if s.card <= 4096 else "bitmask"),
    }
    config = {"group": args.group, "a": args.a, "b": args.b}
    return True, config, report


def _cmd_example1(args) -> tuple[bool, dict, Any]:
    report = constructions.verify_example1(args.p, args.k)
    config = {"p": args.p, "k": args.k}
    return report.passed, config, report.to_dict()


def _cmd_theorem1(args) -> tuple[bool, dict, Any]:
    spec = parse_group_spec(args.group)
    big_k = abelian.theorem1_bound(args.m, spec.order) if args.K is None else args.K
    reports = abelian.theorem1_trials(
        spec,
        args.m,
        args.trials,
        args.seed,
        K=big_k,
        density=args.density,
        workers=args.parallel,
    )
    config = {
        "group": args.group,
        "m": args.m,
        "K": big_k,
        "trials": args.trials,
        "seed": args.seed,
        "density": args.density,
    }
    return all(r.passed for r in reports), config, [r.to_dict() for r in reports]


def _cmd_plunnecke(args) -> tuple[bool, dict, Any]:
    spec = parse_group_spec(args.group)
    reports = abelian.plunnecke_trials(spec, args.trials, args.seed, workers=args.parallel)
    config = {"group": args.group, "trials": args.trials, "seed": args.seed}
    return all(r.passed for r in reports), config, [r.to_dict() for r in reports]


def _cmd_kpn(args) -> tuple[bool, dict, Any]:
    report: dict = {"upper": abelian.kpn_upper(args.p, args.n).to_dict()}
    if args.exact:
        report["search"] = abelian.kpn_exact_small(
            args.p, args.n, k_max=args.k_max, budget=args.budget, seed=args.seed
        ).to_dict()
    config = {"p": args.p, "n": args.n, "exact": args.exact}
    return True, config, report


def _cmd_basis(args) -> tuple[bool, dict, Any]:
    if args.random:
        basis = constructions.random_basis_matrix(args.p, args.n, args.seed)
    else:
        basis = constructions.standard_basis_matrix(args.p, args.n)
    closure_card = subset_sums(basis.to_multiset()).card
    report = {
        "p": args.p,
        "n": args.n,
        "random": args.random,
        "rows": [list(r) for r in basis.rows],
        "closure_card": closure_card,
        "is_additive_basis": closure_card == args.p**args.n,
    }
    config = {"p": args.p, "n": args.n, "random": args.random, "seed": args.seed}
    return True, config, report


def _cmd_sl2_info(args) -> tuple[bool, dict, Any]:
    g = sl2_group(args.p)
    report: dict = {
        "p": g.p,
        "order": g.order,
        "D": None,
        "delta": None,
        "K": None,
        "n_sets": None,
    }
    if g.p >= 3:
        info = sl2.quasirandom_info(g.p)
        report["D"] = info.D
        report["delta"] = info.delta
        if info.delta > 0:
            report["K"] = sl2.theorem4_bound(info.delta)
            report["n_sets"] = 3 * report["K"]
    config = {"p": args.p}
    return True, config, report


def _cmd_sl2_ruzsa(args) -> tuple[bool, dict, Any]:
    reports = sl2.ruzsa_trials(args.p, args.trials, args.seed, workers=args.parallel)
    config = {"p": args.p, "trials": args.trials, "seed": args.seed}
    return all(r.passed for r in reports), config, [r.to_dict() for r in reports]


def _cmd_sl2_gowers(args) -> tuple[bool, dict, Any]:
    reports = sl2.gowers_trials(
        args.p, args.size, args.trials, args.seed, workers=args.parallel
    )
    config = {"p": args.p, "size": args.size, "trials": args.trials, "seed": args.seed}
    return all(r.passed for r in reports), config, [r.to_dict() for r in reports]


def _cmd_sl2_theorem4(args) -> tuple[bool, dict, Any]:
    reports = sl2.theorem4_trials(
        args.p,
        args.trials,
        args.seed,
        K=args.K,
        density=args.density,
        workers=args.parallel,
    )
    config = {
        "p": args.p,
        "trials": args.trials,
        "seed": args.seed,
        "K": args.K,
        "density": args.density,
    }
    return all(r.passed for r in reports), config, [r.to_dict() for r in reports]


def _cmd_sl2_remark12(args) -> tuple[bool, dict, Any]:
    report = sl2.remark12(
        args.p, trials=args.trials, seed=args.seed, density=args.density, workers=args.parallel
    )
    config = {"p": args.p, "trials": args.trials, "seed": args.seed}
    return report.passed, config, report.to_dict()


_DISPATCH = {
    "sumset": _cmd_sumset,
    "example1": _cmd_example1,
    "theorem1": _cmd_theorem1,
    "plunnecke": _cmd_plunnecke,
    "kpn": _cmd_kpn,
    "basis": _cmd_basis,
    "sl2-info": _cmd_sl2_info,
    "sl2-ruzsa": _cmd_sl2_ruzsa,
    "sl2-gowers": _cmd_sl2_gowers,
    "sl2-theorem4": _cmd_sl2_theorem4,
    "sl2-remark12": _cmd_sl2_remark12,
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
    cap = order_cap()
    try:
        if args.order_cap is not None:
            set_order_cap(args.order_cap)
        start = time.perf_counter()
        passed, config, report = _DISPATCH[command](args)
        envelope = RunReport(
            command=command,
            config=config,
            passed=passed,
            report=report,
            wall_time_s=round(time.perf_counter() - start, 6),
        )
        sys.stdout.write(render(envelope, args.output))
        return 0 if passed else 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"sumsetlab: error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_order_cap(cap)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
