#!/usr/bin/env python3
"""Profile the twelve-set product covering threshold across SL2(Z_p).

For each prime the table lists the group order, the minimal nontrivial
representation dimension D, the quasirandomness exponent delta, the block
count K from the covering bound, and 3K, the number of sets whose product
is forced to cover the group.  With --trials > 0 the seeded twelve-set
experiment is run wherever the bound gives K = 4.
"""

import argparse

from sumsetlab.sl2 import remark12


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[5, 7, 11, 13])
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--density", type=float, default=0.25)
    args = parser.parse_args()

    header = f"{'p':>4} {'order':>7} {'D':>3} {'delta':>8} {'K':>3} {'3K':>3} {'trials':>10}"
    print(header)
    print("-" * len(header))
    for p in args.primes:
        rep = remark12(p, trials=args.trials, seed=args.seed, density=args.density)
        outcome = f"{sum(rep.trials_passed)}/{rep.trials} pass" if rep.applies else "n/a (K > 4)"
        print(
            f"{p:>4} {rep.order:>7} {rep.D:>3} {rep.delta:8.5f} {rep.K:>3} {rep.n_sets:>3}"
            f" {outcome:>10}"
        )


if __name__ == "__main__":
    main()
