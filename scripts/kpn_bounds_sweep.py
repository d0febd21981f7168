#!/usr/bin/env python3
"""Sweep the bases-union covering constant: closed-form upper bounds
against the tiny exact/empirical search.

For each (p, n) the table shows the general bound 2(p-1)(ln n + ln log2 p),
the sharper 2 log2 n + 2 when p = 3, and the least k found such that every
sampled union of k bases is an additive basis.  A refused p, n, k or
budget (a p that is not prime, say), or a basis sampler that runs out of
draws, ends the table with one ``kpn_bounds_sweep.py: error: ...`` line on
stderr and exit status 2, as the command line does.
"""

import argparse

from sumsetlab.abelian import kpn_exact_small, kpn_upper
from sumsetlab.constructions import SearchBudgetError


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5])
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--k-max", type=int, default=4)
    parser.add_argument("--budget", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    header = f"{'p':>3} {'n':>3} {'general':>9} {'p3 bound':>9} {'search k':>9} {'exact':>6}"
    print(header)
    print("-" * len(header))
    for p in args.primes:
        for n in range(1, args.n_max + 1):
            try:
                general = f"{kpn_upper(p, n).general:9.3f}" if n >= 2 else f"{'':>9}"
                p3 = f"{kpn_upper(p, n).for_p3:9.3f}" if p == 3 and n >= 2 else f"{'':>9}"
                search = kpn_exact_small(
                    p, n, k_max=args.k_max, budget=args.budget, seed=args.seed
                )
            except (ValueError, SearchBudgetError) as exc:
                parser.exit(2, f"{parser.prog}: error: {exc}\n")
            k = search.result_k if search.result_k is not None else f">{args.k_max}"
            print(f"{p:>3} {n:>3} {general} {p3} {k!s:>9} {str(search.exact):>6}")


if __name__ == "__main__":
    main()
