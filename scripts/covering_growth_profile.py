#!/usr/bin/env python3
"""Measure slack in the sumset growth chain on random cover families.

For a group G and fold parameter m, families of 2K sets whose m-fold
self-sums cover G are sampled at several densities.  Each prefix step is
required to satisfy |P + A| >= |G|^(1/m) |P|^((m-1)/m); the table reports
per density the worst observed ratio card/bound and how often the family
covers G.  The worst ratio is taken only over steps that end below G, since
a step that reaches G meets the bound trivially (a step from G to G has
card = bound = |G|); it reads ``none`` when no step ends below G, and a
ratio of 1.0 would mean a step below G with no slack.  With --trials 0 the
mean final card reads ``none`` as well.

A refused group (a bad spec, or one above the order cap), a refused m, K,
density or trial count, or a sampler that runs out of draws ends the table
with one ``covering_growth_profile.py: error: ...`` line on stderr and exit
status 2, as the command line does.
"""

import argparse

from sumsetlab.abelian import theorem1_bound, theorem1_trials
from sumsetlab.constructions import SearchBudgetError
from sumsetlab.groups import parse_group_spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--group", default="Z3^4")
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--K", type=int, default=None)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--densities", type=float, nargs="+", default=[0.3, 0.4, 0.5, 0.7, 0.9]
    )
    args = parser.parse_args()

    try:
        spec = parse_group_spec(args.group)
        big_k = theorem1_bound(args.m, spec.order) if args.K is None else args.K
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    print(f"group {spec}, order {spec.order}, m={args.m}, K={big_k} (2K sets per family)")
    header = f"{'density':>8} {'worst ratio':>12} {'mean final':>11} {'cover rate':>11}"
    print(header)
    print("-" * len(header))
    for density in args.densities:
        try:
            reports = theorem1_trials(
                spec, args.m, args.trials, args.seed, K=big_k, density=density
            )
        except (ValueError, SearchBudgetError) as exc:
            parser.exit(2, f"{parser.prog}: error: {exc}\n")
        ratios = [
            step["card"] / step["bound"]
            for rep in reports
            for half in rep.halves
            for step in half["steps"]
            if step["card"] < spec.order
        ]
        worst = f"{min(ratios):.4f}" if ratios else "none"
        finals = [r.final_card for r in reports]
        mean_final = f"{sum(finals) / len(finals):.1f}" if finals else "none"
        covered = sum(1 for r in reports if r.final_cover)
        print(
            f"{density:>8.2f} {worst:>12} {mean_final:>11}"
            f" {covered:>8}/{len(reports)}"
        )


if __name__ == "__main__":
    main()
