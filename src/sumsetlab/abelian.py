"""Numerical verification of sumset covering statements over Abelian groups.

Everything here measures honest cardinalities with the dense-set engine and
compares them against closed-form bounds: the Plunnecke-Ruzsa growth
inequality, the two-half covering argument (each half grows until it
exceeds |G|/2, then one pigeonhole sum finishes), explicit upper bounds for
the bases-union constant, and exact tiny-case searches for that constant.

Every verdict is an exact integer comparison; the real-valued bounds in
the reports are for display.  The closed-form K of the two-half bound is
computed in integers for m = 2, as the least K with 2^(2^K) >= N, and as
the plain ceiling of m * ln(log2 N) for m >= 3.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

import numpy as np

from .config import check_order
from .constructions import (
    _WITNESS_LIMIT,
    _random_basis_rows,
    check_density,
    enumerate_bases,
    random_cover_set,
    random_set,
)
from .groups import GroupSpec, as_int, as_prime, at_least, vector_space_spec
from .reports import Report, map_trials
from .setops import (
    ElementMultiset,
    GroupSet,
    _prefix_chain,
    _same_spec,
    _subset_sum_bits,
    is_cover,
    m_fold,
    subset_sums,
    sumset,
)

_PLUNNECKE_KS = (2, 3, 4)  # the k that ``plunnecke_trials`` draws from


# ---------------------------------------------------------------------------
# Plunnecke-Ruzsa


def check_plunnecke(a: GroupSet, b: GroupSet, k: int) -> Report:
    """Measure alpha = |A+B|/|B| and verify |kA| <= alpha^k |B|.

    The verdict is the integer form |kA| * |B|^(k-1) <= |A+B|^k; ``alpha``
    and ``rhs`` are reported for display.  A failure would indicate an
    engine bug, not new mathematics.
    """
    _same_spec(a.group, b.group)
    if a.card == 0 or b.card == 0:
        raise ValueError("both sets must be nonempty (alpha is undefined for empty B)")
    k = at_least(k, 2, "fold count")
    s = sumset(a, b)
    alpha = s.card / b.card
    lhs = m_fold(a, k).card
    rhs = alpha**k * b.card
    return Report(
        group=str(a.group),
        k=k,
        card_a=a.card,
        card_b=b.card,
        card_sum=s.card,
        alpha=alpha,
        lhs=lhs,
        rhs=rhs,
        passed=lhs * b.card ** (k - 1) <= s.card**k,
    )


def plunnecke_trials(spec: GroupSpec, trials: int, seed: int) -> list[Report]:
    """Seeded random nonempty (A, B, k) instances; per-trial seed is seed+i."""

    def one(rng: random.Random) -> Report:
        n = spec.order
        a = random_set(spec, rng.randint(1, n), rng)
        b = random_set(spec, rng.randint(1, n), rng)
        return check_plunnecke(a, b, rng.choice(_PLUNNECKE_KS))

    return map_trials(one, trials, seed)


# ---------------------------------------------------------------------------
# Two-half covering bound


def theorem1_bound_raw(m: int, order: int) -> float:
    """The raw real bound on K: log2(log2 N) for m = 2, else m*ln(log2 N)."""
    m, order = at_least(m, 2, "m"), at_least(order, 4, "group order")
    loglike = math.log2(order)
    if m == 2:
        return math.log2(loglike)
    return m * math.log(loglike)


def theorem1_bound(m: int, order: int) -> int:
    """Smallest integer K >= the raw bound, and at least 1.  For m = 2 that is
    the least K with 2^(2^K) >= N, in integers: 2^L >= N from L = (N-1).bit_length()."""
    m, order = at_least(m, 2, "m"), at_least(order, 4, "group order")
    if m == 2:
        return ((order - 1).bit_length() - 1).bit_length()
    return max(1, math.ceil(theorem1_bound_raw(m, order)))


def verify_theorem1(family: Sequence[GroupSet], m: int) -> Report:
    """Check the full covering chain for a family of 2K sets.

    Per set: the hypothesis ``m_fold(A_i, m) = G``.  Per half of the family:
    the running prefix sums with, at every hypothesis-satisfying step, the
    growth inequality ``|G|^(1/m) * |P|^((m-1)/m) <= |P + A_i|`` (decided
    as ``|P + A_i|^m >= |G| * |P|^(m-1)``; ``bound`` is for display),
    ending with the half exceeding |G|/2.  Finally the two halves are
    summed and compared against G.  The report passes only when every
    hypothesis and the final coverage hold.
    """
    return _theorem1_chain(family, m, None)


def _growth_holds(n: int, prev: int, card: int, m: int) -> bool:
    """Whether ``card^m >= n * prev^(m-1)``, in exact integers, for a chain
    step (``prev <= card``).  When ``prev < card < n``, Bernoulli's
    inequality ``(card/prev)^t >= 1 + t(card - prev)/prev``, t = m - 1,
    proves the claim for every t at or above prev(n - card) / (card(card -
    prev)), which is below n.  Below that, the powers themselves are formed
    while m is at most the bit length of n.  Above it, the claim, read as
    (card/prev)^t >= n/card, is decided on integer brackets of both sides
    (``_power_bracket``), doubling their precision until they separate.
    They do, because the two sides differ: with card/prev = a/b in lowest
    terms, equality card^m = n * prev^t makes a^m divide n, so 2^m <= n."""
    if card >= n or card == prev:
        return card >= n
    t = m - 1
    if card * (prev + t * (card - prev)) >= n * prev:
        return True
    if m <= n.bit_length():
        return card**m >= n * prev**t
    bits = 64
    while True:
        one = 1 << bits
        target_floor, target_ceil = n * one // card, -(-n * one // card)
        if _power_bracket(card * one // prev, t, bits, target_ceil, False) >= target_ceil:
            return True
        if _power_bracket(-(-card * one // prev), t, bits, target_floor, True) < target_floor:
            return False
        bits *= 2


def _power_bracket(base: int, t: int, bits: int, cap: int, up: bool) -> int:
    """A bound on 2^bits (base / 2^bits)^t for a base above 2^bits: binary
    powering in fixed point with ``bits`` fraction bits, rounded down at
    every step (a lower bound) or, with ``up``, up (an upper bound).  It
    stops at the first partial power at or above ``cap``, which bounds a
    power of at most t on the same side, so the numbers stay near the size
    of ``cap``."""

    def scaled(y: int) -> int:
        return -(-y >> bits) if up else y >> bits

    x = 1 << bits
    for bit in bin(t)[2:]:
        x = scaled(x * x)
        if bit == "1":
            x = scaled(x * base)
        if x >= cap:
            break
    return x


def _theorem1_chain(
    family: Sequence[GroupSet], m: int, hypothesis_ok: list[bool] | None
) -> Report:
    """``verify_theorem1``, taking the hypothesis verdicts when the caller
    already knows them (a trial runner whose sampler accepted each set
    only once its m-fold sumset covered G); ``None`` tests every set."""
    m = at_least(m, 1, "m")
    family, hypothesis_ok, chain, half_sets, chain_ok = _prefix_chain(
        family,
        2,
        sumset,
        lambda a: is_cover(m_fold(a, m)),
        hypothesis_ok,
        lambda n, prev, card: (
            n ** (1.0 / m) * prev ** ((m - 1.0) / m),
            _growth_holds(n, prev, card, m),
        ),
    )
    spec = family[0].group
    n = spec.order
    big_k = len(family) // 2
    halves = [{**half, "exceeds_half": 2 * half["final_card"] > n} for half in chain]
    total = sumset(half_sets[0], half_sets[1])

    try:
        required = theorem1_bound(m, n)
    except ValueError:
        required = None
    return Report(
        group=str(spec),
        m=m,
        K=big_k,
        **{"lambda": ((m - 1) / m) ** big_k},  # a Python keyword, so passed in a dict
        required_K=required,
        meets_required_K=None if required is None else big_k >= required,
        family_cards=[a.card for a in family],
        hypothesis_ok=hypothesis_ok,
        halves=halves,
        chain_ok=chain_ok,
        halves_exceed_half=[half["exceeds_half"] for half in halves],
        final_card=total.card,
        final_cover=is_cover(total),
        passed=all(hypothesis_ok) and is_cover(total),
    )


def theorem1_trials(
    spec: GroupSpec,
    m: int,
    trials: int,
    seed: int,
    K: int | None = None,
    density: float = 0.5,
) -> list[Report]:
    """Run verify_theorem1 on families of 2K rejection-sampled cover sets.

    ``random_cover_set`` returns a set only once its m-fold sumset covers
    G, so every hypothesis verdict is already known to hold and the chain
    does not test it again.  The density is checked before any trial, and
    so is the size of the family that each trial draws, 2K * |G| elements,
    against the order cap; zero trials draw no family.
    """
    m = at_least(m, 1, "m")
    big_k = theorem1_bound(m, spec.order) if K is None else at_least(K, 1, "K")
    check_density(density, "target density")
    if trials:
        check_order(2 * big_k * spec.order, f"a family of {2 * big_k} sets in {spec}")

    def one(rng: random.Random) -> Report:
        sets = [
            random_cover_set(spec, m, density, seed=rng.getrandbits(62))
            for _ in range(2 * big_k)
        ]
        return _theorem1_chain(sets, m, [True] * len(sets))

    return map_trials(one, trials, seed)


# ---------------------------------------------------------------------------
# Pigeonhole completion


def pigeonhole_exhaustive(order: int) -> dict:
    """Word-parallel exhaustive check over Z_order: every unordered pair of
    subsets with cardinality > order/2 sums to the whole group.

    Subsets are machine-word bitmasks; A + B accumulates cyclic rotations
    of the whole candidate block at once.  Returns counts and failures
    (expected none).
    """
    n = as_int(order, "order")
    if not 1 <= n <= 24:
        raise ValueError(f"exhaustive sweep supports orders 1..24, got {n}")
    all_masks = np.arange(1 << n, dtype=np.uint64)
    pop = np.zeros(1 << n, dtype=np.uint32)
    for j in range(n):
        pop += ((all_masks >> np.uint64(j)) & np.uint64(1)).astype(np.uint32)
    sets = all_masks[2 * pop > n]
    full = np.uint64((1 << n) - 1)
    pairs = 0
    failures: list[dict] = []
    for ai in range(len(sets)):
        a = int(sets[ai])
        block = sets[ai:]  # unordered pairs; sumset is commutative
        acc = np.zeros(len(block), dtype=np.uint64)
        g = 0
        bits = a
        while bits:
            if bits & 1:
                if g == 0:
                    acc |= block
                else:
                    acc |= ((block << np.uint64(g)) | (block >> np.uint64(n - g))) & full
                if acc.min() == full:
                    break
            bits >>= 1
            g += 1
        if acc.min() != full:
            for bi in np.flatnonzero(acc != full):
                failures.append({"order": n, "a_mask": a, "b_mask": int(block[bi])})
        pairs += len(block)
    return {
        "order": n,
        "n_sets": len(sets),
        "pairs_checked": pairs,
        "failures": failures,
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# Bases-union constant: explicit upper bounds and tiny exact values


def kpn_upper(p: int, n: int) -> Report:
    """Closed-form upper bounds for the bases-union covering constant:
    ``2(p-1) ln n + 2(p-1) ln log2 p`` and, for p = 3, the sharper
    ``2 log2 n + 2``."""
    p, n = as_prime(p), at_least(n, 2, "n")
    general = 2 * (p - 1) * math.log(n) + 2 * (p - 1) * math.log(math.log2(p))
    for_p3 = 2 * math.log2(n) + 2 if p == 3 else None
    return Report(p=p, n=n, general=general, for_p3=for_p3)


def is_additive_basis(b: ElementMultiset) -> bool:
    """True iff the subset-sum closure of B covers the group."""
    return is_cover(subset_sums(b))


def _union_closure(spec: GroupSpec, bases: Sequence[Sequence[Sequence[int]]]) -> GroupSet:
    """The subset-sum closure of the multiset union of ``bases``.

    A basis row of Z_p^n is already its element's coordinate tuple, the
    form the translate kernel takes, so the rows go to the kernel as they
    are.
    """
    return GroupSet(spec, _subset_sum_bits(spec, ((row, 1) for basis in bases for row in basis)))


def _counterexample_record(bases, closure: GroupSet) -> dict:
    rec = {
        "bases": [[list(row) for row in basis] for basis in bases],
        "closure_card": closure.card,
    }
    if closure.card <= _WITNESS_LIMIT:
        rec["closure"] = [list(c) for c in closure.coords()]
    return rec


def kpn_exact_small(
    p: int,
    n: int,
    k_max: int = 4,
    budget: int = 10_000,
    seed: int = 0,
) -> Report:
    """For k = 1..k_max, hunt for a union of k bases that is NOT an additive
    basis; report the least k with no counterexample.

    Exhaustive when all unordered k-tuples of bases fit the budget (the
    result is then exact); otherwise seeded random tuples are tried and the
    result is only empirical.  ``budget`` and ``k_max`` must be at least 1:
    a level that checks no tuple, or a search with no level, has no
    evidence for its k.
    """
    p, n, k_max = as_prime(p), at_least(n, 1, "n"), at_least(k_max, 1, "k_max")
    budget = at_least(budget, 1, "budget")
    spec = vector_space_spec(p, n)
    bases = enumerate_bases(p, n)
    levels: list[dict] = []
    result_k: int | None = None
    exact = False
    for k in range(1, k_max + 1):
        exhaustive = bases is not None and math.comb(len(bases) + k - 1, k) <= budget
        if exhaustive:
            tuples = itertools.combinations_with_replacement(bases, k)
        else:
            rng = random.Random(seed * 1_000_003 + k)
            tuples = (
                tuple(_random_basis_rows(p, n, rng.getrandbits(62)) for _ in range(k))
                for _ in range(budget)
            )
        counter = None
        checked = 0
        for tup in tuples:
            checked += 1
            closure = _union_closure(spec, tup)
            if not is_cover(closure):
                counter = _counterexample_record(tup, closure)
                break
        levels.append(
            {
                "k": k,
                "mode": "exhaustive" if exhaustive else "sampled",
                "tuples_checked": checked,
                "counterexample": counter,
            }
        )
        if counter is None:
            result_k = k
            exact = exhaustive
            break
    return Report(
        p=p,
        n=n,
        k_max=k_max,
        budget=budget,
        levels=levels,
        result_k=result_k,
        exact=exact,
    )
