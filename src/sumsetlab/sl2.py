"""SL2 over a prime field: enumeration, product sets, and covering checks.

The group is materialized as a lexicographically ordered list of matrices
(a, b, c, d) with ad - bc = 1 mod p, so element indices are deterministic.
Products go through the row action: row i of x*y is row i of x times y,
so for a set Y one (p^2, |Y|) table of r*y over every row r turns each
product x*y into two row gathers and an add, giving the packed key
row1 * p^2 + row2 with no per-product arithmetic mod p.  Product sets mark
packed keys in a p^4 bool array, a few rows of X at a time, read members
back by key, and stop once the product is all of G.  Sets are
``GroupSet`` bitmasks over these element indices, the same set type the
Abelian engine uses.

Verified statements: the Ruzsa triangle inequality (with its
representation-count proof on small instances), triple-product covering in
quasirandom groups, the three-block square-root growth chain, and the
twelve-set consequence for p >= 7.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import check_order
from .constructions import SearchBudgetError
from .groups import is_prime
from .reports import Report, map_trials
from .setops import GroupSet, _bit_indices, _bits_from_bool, _same_spec, is_cover

_CHUNK_CELLS = 1 << 16
REL_GUARD = 1e-9


class SL2Group:
    """Enumerated SL2(Z_p) with index-based multiplication and inversion."""

    table = None  # no multiplication table is stored; perfbench/ still reads this

    def __init__(self, p: int):
        p = int(p)
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        order = p**3 - p
        check_order(order, "SL2 group order")
        elements: list[tuple[int, int, int, int]] = []
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    if a == 0:
                        if (-b * c) % p == 1:
                            elements.extend((a, b, c, d) for d in range(p))
                    else:
                        d = (pow(a, -1, p) * (1 + b * c)) % p
                        elements.append((a, b, c, d))
        if len(elements) != order:
            raise RuntimeError(f"enumeration produced {len(elements)} != {order} elements")
        self.p = p
        self.order = order
        self.elements = elements
        self._E = np.array(elements, dtype=np.int64)
        # Each row (u, v) of a matrix is indexed u * p + v, so an element's
        # packed key is row1 * p^2 + row2; keys below p^4 fit the key dtype.
        self._row1 = self._E[:, 0] * p + self._E[:, 1]
        self._row2 = self._E[:, 2] * p + self._E[:, 3]
        self._key_dtype = np.int32 if p**4 <= np.iinfo(np.int32).max else np.int64
        self._keys = self._pack(self._E)
        # _reduce[x * 2p + y] = (x mod p) * p + (y mod p) for x, y < 2p.
        q = np.arange(2 * p, dtype=self._key_dtype) % p
        self._reduce = (q[:, None] * p + q).ravel()
        lut = np.full(p**4, -1, dtype=np.int32)
        lut[self._keys] = np.arange(order, dtype=np.int32)
        self._lut = lut
        adj = np.column_stack(
            [self._E[:, 3], -self._E[:, 1], -self._E[:, 2], self._E[:, 0]]
        ) % p
        self.inv = lut[self._pack(adj)]
        self.identity = int(lut[self._pack_one(1, 0, 0, 1)])

    def _pack(self, rows: np.ndarray) -> np.ndarray:
        p = self.p
        return ((rows[:, 0] * p + rows[:, 1]) * p + rows[:, 2]) * p + rows[:, 3]

    def _pack_one(self, a: int, b: int, c: int, d: int) -> int:
        p = self.p
        return ((a * p + b) * p + c) * p + d

    def _row_action(self, iy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tables of the row index of r * y, for every row r and y in iy.

        Both have shape (p^2, len(iy)); the first is scaled by p^2, so the
        key of x * y is ``hi[row1(x), j] + lo[row2(x), j]``.  Costs
        p^2 * len(iy) arithmetic, independent of the other operand.  Row
        (u, v) times (a, b, c, d) is (ua + vc, ub + vd) mod p.  Only the
        four (p, len(iy)) products are reduced mod p; both sums are then
        below 2p, so they are packed in base 2p and one gather from
        ``_reduce`` reduces the pair.
        """
        p = self.p
        ey = self._E[iy].astype(self._key_dtype)
        ua, ub, vc, vd = (ey.T[:, None, :] * np.arange(p, dtype=self._key_dtype)[:, None]) % p
        u = ua * (2 * p) + ub
        v = vc * (2 * p) + vd
        lo = np.take(self._reduce, (u[:, None] + v[None, :]).reshape(p * p, len(iy)))
        return lo * (p * p), lo

    def _product_keys(self, ix: np.ndarray, act: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Packed keys of x * y for x in ix (rows) and the y of ``act``."""
        hi, lo = act
        keys = hi[self._row1[ix]]
        keys += lo[self._row2[ix]]
        return keys

    def product_indices(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Index matrix of x*y for x in ix (rows) and y in iy (columns)."""
        return self._lut[self._product_keys(ix, self._row_action(iy))]

    def mul(self, i: int, j: int) -> int:
        return int(self.product_indices(np.array([i]), np.array([j]))[0, 0])

    def index(self, mat: Sequence[int]) -> int:
        if len(mat) != 4:
            raise ValueError(f"expected 4 matrix entries (a, b, c, d), got {len(mat)}")
        a, b, c, d = (int(v) % self.p for v in mat)
        idx = int(self._lut[self._pack_one(a, b, c, d)])
        if idx < 0:
            raise ValueError(f"matrix {tuple(mat)} has determinant != 1 mod {self.p}")
        return idx

    def element(self, i: int) -> tuple[int, int, int, int]:
        return self.elements[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SL2Group) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("SL2", self.p))

    def __repr__(self) -> str:
        return f"SL2Group(p={self.p}, order={self.order})"


@lru_cache(maxsize=32)
def _cached_group(p: int) -> SL2Group:
    return SL2Group(p)


def sl2_group(p: int) -> SL2Group:
    """Shared immutable group instance for a given p.

    The order cap is checked on every call, so a group cached under a
    higher cap is refused once the cap is lowered.
    """
    group = _cached_group(p)
    check_order(group.order, "SL2 group order")
    return group


SL2Set = GroupSet  # the one set type, under the name SL2 callers know


def _index_array(x: GroupSet) -> np.ndarray:
    return _bit_indices(x.bits, (x.group.order + 7) >> 3)


def product_set(x: GroupSet, y: GroupSet) -> GroupSet:
    """{a*b : a in X, b in Y}; not commutative in general."""
    _same_spec(x.group, y.group)
    g = x.group
    if x.card == 0 or y.card == 0:
        return GroupSet.empty(g)
    if is_cover(x) or is_cover(y):
        return GroupSet.full(g)  # G absorbs under products with nonempty sets
    ix = _index_array(x)
    iy = _index_array(y)
    step = max(1, _CHUNK_CELLS // len(iy))
    act = g._row_action(iy)
    hit = np.zeros(g.p**4, dtype=bool)
    for lo in range(0, len(ix), step):
        hit[g._product_keys(ix[lo : lo + step], act)] = True
        out = hit[g._keys]
        if out.all():
            break
    return GroupSet(g, _bits_from_bool(out))


def inverse_set(x: GroupSet) -> GroupSet:
    """{a^-1 : a in X}."""
    g = x.group
    if x.card == 0:
        return x
    out = np.zeros(g.order, dtype=bool)
    out[g.inv[_index_array(x)]] = True
    return GroupSet(g, _bits_from_bool(out))


# ---------------------------------------------------------------------------
# Ruzsa triangle inequality


@dataclass
class RuzsaReport(Report):
    """|AC^-1| <= |AB^-1| |BC^-1| / |B|, plus the proof's counting claim."""

    p: int
    card_a: int
    card_b: int
    card_c: int
    card_ac_inv: int
    card_ab_inv: int
    card_bc_inv: int
    rhs: float
    inequality_ok: bool
    count_checked: bool
    min_representations: int | None
    count_ok: bool | None
    passed: bool


_COUNT_LIMIT = 1 << 22


def check_ruzsa(a: GroupSet, b: GroupSet, c: GroupSet, count_limit: int = _COUNT_LIMIT) -> RuzsaReport:
    """Verify the triangle inequality; on small instances also verify that
    every z in AC^-1 factors as x*y (x in AB^-1, y in BC^-1) in >= |B| ways.

    The inequality itself is checked in exact integer arithmetic:
    |AC^-1| * |B| <= |AB^-1| * |BC^-1|.
    """
    _same_spec(a.group, b.group)
    _same_spec(a.group, c.group)
    if b.card == 0:
        raise ValueError("B must be nonempty")
    g = a.group
    ac = product_set(a, inverse_set(c))
    ab = product_set(a, inverse_set(b))
    bc = product_set(b, inverse_set(c))
    inequality_ok = ac.card * b.card <= ab.card * bc.card

    count_checked = False
    min_reps: int | None = None
    count_ok: bool | None = None
    if ac.card and ab.card * bc.card <= count_limit:
        count_checked = True
        counts = np.zeros(g.order, dtype=np.int64)
        ix = _index_array(ab)
        iy = _index_array(bc)
        act = g._row_action(iy)
        step = max(1, _CHUNK_CELLS // max(1, len(iy)))
        for lo in range(0, len(ix), step):
            prods = g._lut[g._product_keys(ix[lo : lo + step], act)].ravel()
            counts += np.bincount(prods, minlength=g.order)
        min_reps = int(counts[_index_array(ac)].min())
        count_ok = min_reps >= b.card
    return RuzsaReport(
        p=g.p,
        card_a=a.card,
        card_b=b.card,
        card_c=c.card,
        card_ac_inv=ac.card,
        card_ab_inv=ab.card,
        card_bc_inv=bc.card,
        rhs=ab.card * bc.card / b.card,
        inequality_ok=inequality_ok,
        count_checked=count_checked,
        min_representations=min_reps,
        count_ok=count_ok,
        passed=inequality_ok and count_ok is not False,
    )


# ---------------------------------------------------------------------------
# Quasirandomness and triple-product covering


@dataclass
class QuasirandomInfo(Report):
    """D = (p-1)/2 from the Frobenius formula; G is N^delta-quasirandom."""

    p: int
    order: int
    D: int
    delta: float


def quasirandom_info(p: int) -> QuasirandomInfo:
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p < 3:
        raise ValueError("p must be >= 3 (D = (p-1)/2 would be 0 at p=2)")
    n = p**3 - p
    d = (p - 1) // 2
    return QuasirandomInfo(p=p, order=n, D=d, delta=math.log(d) / math.log(n))


@dataclass
class GowersReport(Report):
    """|A||B||C| > N^3/D forces ABC = G; no claim below the threshold."""

    p: int
    order: int
    D: int
    card_a: int
    card_b: int
    card_c: int
    triple_product: int
    premise_met: bool
    product_card: int
    covers: bool
    passed: bool


def check_gowers(a: GroupSet, b: GroupSet, c: GroupSet) -> GowersReport:
    """Premise is evaluated in exact integers: |A||B||C| * D > N^3."""
    _same_spec(a.group, b.group)
    _same_spec(a.group, c.group)
    g = a.group
    if g.p < 5:
        raise ValueError(f"requires p >= 5, got p={g.p}")
    info = quasirandom_info(g.p)
    triple = a.card * b.card * c.card
    premise = triple * info.D > g.order**3
    abc = product_set(product_set(a, b), c)
    covers = is_cover(abc)
    return GowersReport(
        p=g.p,
        order=g.order,
        D=info.D,
        card_a=a.card,
        card_b=b.card,
        card_c=c.card,
        triple_product=triple,
        premise_met=premise,
        product_card=abc.card,
        covers=covers,
        passed=covers if premise else True,
    )


def theorem4_bound(delta: float) -> int:
    """Smallest integer strictly greater than log2(3/delta)."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    val = math.log2(3.0 / delta)
    nearest = round(val)
    if abs(val - nearest) <= REL_GUARD:
        return max(1, int(nearest) + 1)
    return max(1, math.floor(val) + 1)


# ---------------------------------------------------------------------------
# Three-block covering chain


@dataclass
class Theorem4Report(Report):
    """3K sets with A_i A_i^-1 = G multiply out to G, via three K-blocks."""

    p: int
    order: int
    D: int
    delta: float
    K: int
    family_cards: list[int]
    hypothesis_ok: list[bool]
    blocks: list[dict]
    chain_ok: bool
    gowers_premise_met: bool
    final_card: int
    final_cover: bool
    passed: bool


def verify_theorem4(family: Sequence[GroupSet]) -> Theorem4Report:
    """Check the covering chain for 3K sets, K per block.

    Per set: the hypothesis A_i A_i^-1 = G.  Per block: the first set has
    |A|^2 >= N (exact integers), each prefix step satisfies
    sqrt(N * |prev|) <= |prev * A_i| (checked as card^2 >= N * prev), and
    the block product reaches the N^(1 - delta/3) floor.  The three block
    products then cover G by the triple-product argument.
    """
    family = list(family)
    if not family:
        raise ValueError("family must be nonempty")
    if len(family) % 3:
        raise ValueError(f"family length must be divisible by 3, got {len(family)}")
    g = family[0].group
    if g.p < 5:
        raise ValueError(f"requires p >= 5, got p={g.p}")
    for a in family:
        _same_spec(g, a.group)
        if a.card == 0:
            raise ValueError("family sets must be nonempty")
    big_k = len(family) // 3
    n = g.order
    info = quasirandom_info(g.p)

    hypothesis_ok = [is_cover(product_set(a, inverse_set(a))) for a in family]
    blocks: list[dict] = []
    block_products: list[GroupSet] = []
    floor = n ** (1.0 - info.delta / 3.0)
    for j in range(3):
        part = family[j * big_k : (j + 1) * big_k]
        prefix = part[0]
        cards = [prefix.card]
        steps: list[dict] = []
        for i in range(1, big_k):
            prev = prefix.card
            prefix = product_set(prefix, part[i])
            steps.append(
                {
                    "index": j * big_k + i,
                    "bound": math.sqrt(n * prev),
                    "card": prefix.card,
                    "claimed": hypothesis_ok[j * big_k + i],
                    "holds": prefix.card**2 >= n * prev,
                }
            )
            cards.append(prefix.card)
        blocks.append(
            {
                "first_sqrt_ok": part[0].card ** 2 >= n,
                "prefix_cards": cards,
                "steps": steps,
                "final_card": prefix.card,
                "floor": floor,
                "meets_floor": prefix.card >= floor * (1.0 - REL_GUARD),
            }
        )
        block_products.append(prefix)
    triple = block_products[0].card * block_products[1].card * block_products[2].card
    premise = triple * info.D > n**3
    final = product_set(product_set(block_products[0], block_products[1]), block_products[2])
    final_cover = is_cover(final)
    return Theorem4Report(
        p=g.p,
        order=n,
        D=info.D,
        delta=info.delta,
        K=big_k,
        family_cards=[a.card for a in family],
        hypothesis_ok=hypothesis_ok,
        blocks=blocks,
        chain_ok=all(s["holds"] for b in blocks for s in b["steps"] if s["claimed"]),
        gowers_premise_met=premise,
        final_card=final.card,
        final_cover=final_cover,
        passed=all(hypothesis_ok) and final_cover,
    )


@dataclass
class Remark12Report(Report):
    """At p >= 7 the bound gives K=4, so twelve hypothesis sets suffice."""

    p: int
    order: int
    D: int
    delta: float
    K: int
    n_sets: int
    applies: bool
    trials: int
    trials_passed: list[bool]
    passed: bool


# ---------------------------------------------------------------------------
# Random sets and trial runners


def random_sl2_set(group: SL2Group, size: int, rng: random.Random) -> GroupSet:
    size = int(size)
    if not 0 <= size <= group.order:
        raise ValueError(f"size {size} out of range for order {group.order}")
    return GroupSet.from_indices(group, rng.sample(range(group.order), size))


def sample_hypothesis_set(
    group: SL2Group,
    rng: random.Random,
    density: float = 0.25,
    max_tries: int = 200,
) -> GroupSet:
    """Rejection-sample a set with A * A^-1 = G at the target density."""
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    size = min(group.order, max(1, math.ceil(density * group.order)))
    for _ in range(max_tries):
        cand = random_sl2_set(group, size, rng)
        if is_cover(product_set(cand, inverse_set(cand))):
            return cand
    raise SearchBudgetError(
        f"no hypothesis set found in {max_tries} tries "
        f"(p={group.p}, density={density})"
    )


def ruzsa_trials(p: int, trials: int, seed: int, workers: int = 1) -> list[RuzsaReport]:
    g = sl2_group(p)

    def one(i: int) -> RuzsaReport:
        rng = random.Random(seed + i)
        a = random_sl2_set(g, rng.randint(1, g.order), rng)
        b = random_sl2_set(g, rng.randint(1, g.order), rng)
        c = random_sl2_set(g, rng.randint(1, g.order), rng)
        return check_ruzsa(a, b, c)

    return map_trials(one, trials, workers)


def gowers_trials(
    p: int, size: int, trials: int, seed: int, workers: int = 1
) -> list[GowersReport]:
    g = sl2_group(p)

    def one(i: int) -> GowersReport:
        rng = random.Random(seed + i)
        sets = [random_sl2_set(g, size, rng) for _ in range(3)]
        return check_gowers(*sets)

    return map_trials(one, trials, workers)


def theorem4_trials(
    p: int,
    trials: int,
    seed: int,
    K: int | None = None,
    density: float = 0.25,
    workers: int = 1,
) -> list[Theorem4Report]:
    g = sl2_group(p)
    big_k = theorem4_bound(quasirandom_info(p).delta) if K is None else int(K)
    if big_k < 1:
        raise ValueError(f"K must be >= 1, got {big_k}")

    def one(i: int) -> Theorem4Report:
        rng = random.Random(seed + i)
        sets = [sample_hypothesis_set(g, rng, density) for _ in range(3 * big_k)]
        return verify_theorem4(sets)

    return map_trials(one, trials, workers)


def remark12(
    p: int, trials: int = 5, seed: int = 0, density: float = 0.25, workers: int = 1
) -> Remark12Report:
    """Evaluate the bound at p and, when it yields K=4, run 12-set trials.

    For p=5 the bound gives K=5, so the twelve-set statement is not implied;
    the report says so and runs nothing.
    """
    p = int(p)
    info = quasirandom_info(p)  # rejects p < 3
    if info.delta <= 0:
        raise ValueError(f"delta = 0 at p={p}: the bound is undefined")
    big_k = theorem4_bound(info.delta)
    applies = big_k == 4
    trials_passed: list[bool] = []
    if applies:
        results = theorem4_trials(p, trials, seed, K=4, density=density, workers=workers)
        trials_passed = [r.passed for r in results]
    return Remark12Report(
        p=p,
        order=info.order,
        D=info.D,
        delta=info.delta,
        K=big_k,
        n_sets=3 * big_k,
        applies=applies,
        trials=trials if applies else 0,
        trials_passed=trials_passed,
        passed=all(trials_passed) if applies else True,
    )
