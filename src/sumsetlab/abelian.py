"""Numerical verification of sumset covering statements over Abelian groups.

Everything here measures honest cardinalities with the dense-set engine and
compares them against closed-form bounds: the Plunnecke-Ruzsa growth
inequality, the two-half covering argument (each half grows until it
exceeds |G|/2, then one pigeonhole sum finishes), explicit upper bounds for
the bases-union constant, and exact tiny-case searches for that constant.

Every verdict is an exact integer comparison; the real-valued bounds in
the reports are for display.  Only the closed-form K of the two-half
bound is rounded from a float, with a relative guard of 1e-9 so that a
value within rounding of an integer counts as that integer.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constructions import enumerate_bases, random_basis_matrix, random_cover_set, random_set
from .groups import GroupSpec, is_prime, vector_space_spec
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

REL_GUARD = 1e-9
_PLUNNECKE_KS = (2, 3, 4)  # the k that ``plunnecke_trials`` draws from


def _least_integer_at_least(value: float) -> int:
    nearest = round(value)
    if abs(value - nearest) <= REL_GUARD:
        return int(nearest)
    return math.ceil(value)


# ---------------------------------------------------------------------------
# Plunnecke-Ruzsa


@dataclass
class PlunneckeReport(Report):
    """One instance of |A+B| <= alpha*|B|  =>  |kA| <= alpha^k * |B|."""

    group: str
    k: int
    card_a: int
    card_b: int
    card_sum: int
    alpha: float
    lhs: int
    rhs: float
    passed: bool


def check_plunnecke(a: GroupSet, b: GroupSet, k: int) -> PlunneckeReport:
    """Measure alpha = |A+B|/|B| and verify |kA| <= alpha^k |B|.

    The verdict is the integer form |kA| * |B|^(k-1) <= |A+B|^k; ``alpha``
    and ``rhs`` are reported for display.  A failure would indicate an
    engine bug, not new mathematics.
    """
    _same_spec(a.group, b.group)
    if a.card == 0 or b.card == 0:
        raise ValueError("both sets must be nonempty (alpha is undefined for empty B)")
    k = int(k)
    if k < 2:
        raise ValueError(f"fold count must be > 1, got {k}")
    s = sumset(a, b)
    alpha = s.card / b.card
    lhs = m_fold(a, k).card
    rhs = alpha**k * b.card
    return PlunneckeReport(
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


def plunnecke_trials(spec: GroupSpec, trials: int, seed: int) -> list[PlunneckeReport]:
    """Seeded random nonempty (A, B, k) instances; per-trial seed is seed+i."""

    def one(rng: random.Random) -> PlunneckeReport:
        n = spec.order
        a = random_set(spec, rng.randint(1, n), rng)
        b = random_set(spec, rng.randint(1, n), rng)
        return check_plunnecke(a, b, rng.choice(_PLUNNECKE_KS))

    return map_trials(one, trials, seed)


# ---------------------------------------------------------------------------
# Two-half covering bound


def theorem1_bound_raw(m: int, order: int) -> float:
    """The raw real bound on K: log2(log2 N) for m = 2, else m*ln(log2 N)."""
    m = int(m)
    if m < 2:
        raise ValueError(f"bound is defined for m >= 2, got {m}")
    if order < 4:
        raise ValueError(f"group order must be >= 4, got {order}")
    loglike = math.log2(order)
    if m == 2:
        return math.log2(loglike)
    return m * math.log(loglike)


def theorem1_bound(m: int, order: int) -> int:
    """Smallest integer K satisfying the half-growth bound (>= counts)."""
    return max(1, _least_integer_at_least(theorem1_bound_raw(m, order)))


@dataclass
class Theorem1Report(Report):
    """End-to-end check that 2K sets with m-fold sumset G sum to G."""

    group: str
    m: int
    K: int
    lam: float
    required_K: int | None
    meets_required_K: bool | None
    family_cards: list[int]
    hypothesis_ok: list[bool]
    halves: list[dict]
    chain_ok: bool
    halves_exceed_half: list[bool]
    final_card: int
    final_cover: bool
    passed: bool

    def to_dict(self) -> dict:
        return {("lambda" if k == "lam" else k): v for k, v in super().to_dict().items()}


def verify_theorem1(family: Sequence[GroupSet], m: int) -> Theorem1Report:
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


def _theorem1_chain(
    family: Sequence[GroupSet], m: int, hypothesis_ok: list[bool] | None
) -> Theorem1Report:
    """``verify_theorem1``, taking the hypothesis verdicts when the caller
    already knows them (a trial runner whose sampler accepted each set
    only once its m-fold sumset covered G); ``None`` tests every set."""
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    family, hypothesis_ok, chain, half_sets, chain_ok = _prefix_chain(
        family,
        2,
        sumset,
        lambda a: is_cover(m_fold(a, m)),
        hypothesis_ok,
        lambda n, prev, card: (
            n ** (1.0 / m) * prev ** ((m - 1.0) / m),
            card**m >= n * prev ** (m - 1),
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
    return Theorem1Report(
        group=str(spec),
        m=m,
        K=big_k,
        lam=((m - 1) / m) ** big_k,
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
) -> list[Theorem1Report]:
    """Run verify_theorem1 on families of 2K rejection-sampled cover sets.

    ``random_cover_set`` returns a set only once its m-fold sumset covers
    G, so every hypothesis verdict is already known to hold and the chain
    does not test it again.
    """
    big_k = theorem1_bound(m, spec.order) if K is None else int(K)
    if big_k < 1:
        raise ValueError(f"K must be >= 1, got {big_k}")

    def one(rng: random.Random) -> Theorem1Report:
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
    n = int(order)
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
        "n_sets": int(len(sets)),
        "pairs_checked": pairs,
        "failures": failures,
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# Bases-union constant: explicit upper bounds and tiny exact values


@dataclass
class KpnUpper(Report):
    """Closed-form upper bounds for the bases-union covering constant."""

    p: int
    n: int
    general: float
    for_p3: float | None


def kpn_upper(p: int, n: int) -> KpnUpper:
    """Evaluate ``2(p-1) ln n + 2(p-1) ln log2 p`` and, for p = 3, the
    sharper ``2 log2 n + 2``."""
    p, n = int(p), int(n)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    general = 2 * (p - 1) * math.log(n) + 2 * (p - 1) * math.log(math.log2(p))
    for_p3 = 2 * math.log2(n) + 2 if p == 3 else None
    return KpnUpper(p=p, n=n, general=general, for_p3=for_p3)


def is_additive_basis(b: ElementMultiset) -> bool:
    """True iff the subset-sum closure of B covers the group."""
    return is_cover(subset_sums(b))


@dataclass
class KpnSearchReport(Report):
    """Search for the least k such that every union of k bases is additive."""

    p: int
    n: int
    k_max: int
    budget: int
    levels: list[dict]
    result_k: int | None
    exact: bool


_CLOSURE_WITNESS_LIMIT = 64


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
    if closure.card <= _CLOSURE_WITNESS_LIMIT:
        rec["closure"] = [list(c) for c in closure.coords()]
    return rec


def kpn_exact_small(
    p: int,
    n: int,
    k_max: int = 4,
    budget: int = 10_000,
    seed: int = 0,
) -> KpnSearchReport:
    """For k = 1..k_max, hunt for a union of k bases that is NOT an additive
    basis; report the least k with no counterexample.

    Exhaustive when all unordered k-tuples of bases fit the budget (the
    result is then exact); otherwise seeded random tuples are tried and the
    result is only empirical.  ``budget`` must be at least 1: a level that
    checked no tuple would claim its k with no evidence.
    """
    p, n, budget = int(p), int(n), int(budget)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    spec = vector_space_spec(p, n)
    bases = enumerate_bases(p, n)
    levels: list[dict] = []
    result_k: int | None = None
    exact = False
    for k in range(1, int(k_max) + 1):
        exhaustive = bases is not None and math.comb(len(bases) + k - 1, k) <= budget
        if exhaustive:
            tuples = itertools.combinations_with_replacement(bases, k)
        else:
            rng = random.Random(seed * 1_000_003 + k)
            tuples = (
                tuple(random_basis_matrix(p, n, seed=rng.getrandbits(62)).rows for _ in range(k))
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
    return KpnSearchReport(
        p=p,
        n=n,
        k_max=int(k_max),
        budget=budget,
        levels=levels,
        result_k=result_k,
        exact=exact,
    )
