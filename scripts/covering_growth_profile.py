#!/usr/bin/env python3
"""Measure slack in the sumset growth chain on random cover families.

For a group G and fold parameter m, families of 2K sets whose m-fold
self-sums cover G are sampled at several densities.  Each prefix step is
required to satisfy |P + A| >= |G|^(1/m) |P|^((m-1)/m); the table reports
the worst observed ratio card/bound per density (1.0 would be tight) and
how often the family covers G.
"""

import argparse

from sumsetlab.abelian import theorem1_bound, theorem1_trials
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

    spec = parse_group_spec(args.group)
    big_k = theorem1_bound(args.m, spec.order) if args.K is None else args.K
    print(f"group {spec}, order {spec.order}, m={args.m}, K={big_k} (2K sets per family)")
    header = f"{'density':>8} {'worst ratio':>12} {'mean final':>11} {'cover rate':>11}"
    print(header)
    print("-" * len(header))
    for density in args.densities:
        reports = theorem1_trials(
            spec, args.m, args.trials, args.seed, K=big_k, density=density
        )
        ratios = [
            step["card"] / step["bound"]
            for rep in reports
            for half in rep.halves
            for step in half["steps"]
            if step["bound"] > 0
        ]
        worst = min(ratios) if ratios else float("nan")
        mean_final = sum(r.final_card for r in reports) / len(reports)
        covered = sum(1 for r in reports if r.final_cover)
        print(
            f"{density:>8.2f} {worst:>12.4f} {mean_final:>11.1f}"
            f" {covered:>8}/{len(reports)}"
        )


if __name__ == "__main__":
    main()
