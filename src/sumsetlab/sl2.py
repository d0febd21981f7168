"""SL2 over a prime field: enumeration, product sets, and covering checks.

The elements are the matrices (a, b, c, d) with ad - bc = 1 mod p, numbered
in lexicographic order.  Element indices have a closed form,
(a * p + b) * p + t - p with t = c when a != 0 and t = d when a = 0, so
indices, inverses and products map back to indices with no lookup table.
Products go through the row action: row i of x*y is row i of x times y,
so for a set Y a (p^2, |Y|) table of r*y over the rows r turns each
product x*y into two row gathers and an add, giving the packed key
row1 * p^2 + row2 with no per-product arithmetic mod p.  Product sets mark
packed keys in a p^4 bool array, a few rows of X at a time, read members
back by key, and stop once the product is all of G.  When |X| + |Y| > |G|
the product is G by pigeonhole (X meets gY^-1 for every g) and no kernel
pass runs.  Rows of the table are filled on demand: each chunk of X fills
the rows its elements use that no earlier chunk filled, so a product that
covers G after its first chunk computes only the rows that chunk used.
The Ruzsa representation count r(z) = |X ∩ zY^-1|, with X = AB^-1 and
Y = BC^-1, runs the same kernel: the row action on the inverses of Y (or
of its complement, whichever is smaller) gives the keys of z * y^-1 for
each z in AC^-1, and a p^4-byte mask of X's keys turns each r(z) into a
row sum.
Sets are ``GroupSet`` bitmasks over these element indices, the same set
type the Abelian engine uses; the SL2 entry points refuse sets over any
other group with a ``ValueError``.

Verified statements: the Ruzsa triangle inequality (with its
representation-count proof on small instances), triple-product covering in
quasirandom groups, the three-block square-root growth chain, and the
twelve-set consequence for p >= 7.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from .config import check_order
from .constructions import SearchBudgetError, random_set
from .groups import is_prime
from .reports import Report, map_trials
from .setops import GroupSet, _prefix_chain, _same_spec, is_cover

_CHUNK_CELLS = 1 << 14
_HYPOTHESIS_TRIES = 200  # draws before ``sample_hypothesis_set`` gives up
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
        self.p = p
        self.order = order
        # Element i packs its first row and t (see ``_indices``) as i + p;
        # the determinant gives the fourth entry.
        row1, t = np.divmod(np.arange(p, order + p), p)
        a, b = np.divmod(row1, p)
        unit_inv = np.array([0] + [pow(u, -1, p) for u in range(1, p)])
        c = np.where(a == 0, -unit_inv[b] % p, t)
        d = np.where(a == 0, t, unit_inv[a] * (1 + b * t) % p)
        # Each row (u, v) of a matrix is indexed u * p + v, so an element's
        # packed key is row1 * p^2 + row2; keys below p^4 fit the key dtype.
        self._row1 = row1
        self._row2 = c * p + d
        self._key_dtype = np.int32 if p**4 <= np.iinfo(np.int32).max else np.int64
        self._keys = self._row1 * (p * p) + self._row2
        # _reduce[x * 2p + y] = (x mod p) * p + (y mod p) for x, y < 2p.
        q = np.arange(2 * p, dtype=self._key_dtype) % p
        self._reduce = (q[:, None] * p + q).ravel()
        # _half[u, a * p + b] = (ua mod p) * 2p + (ub mod p): the row (a, b)
        # scaled by u, reduced mod p and packed in base 2p.
        m = np.outer(q[:p], q[:p]) % p
        self._half = (m[:, :, None] * (2 * p) + m[:, None, :]).reshape(p, p * p)
        # The inverse of (a, b, c, d) is its adjugate (d, -b, -c, a).
        self.inv = self._indices(d * p + (-b % p), (-c % p) * p + a)
        self.identity = p * p - p  # (1, 0, 0, 1): first row 1 * p + 0, t = c = 0

    def _indices(self, row1, row2):
        """Indices of the matrices with rows ``row1`` = a * p + b and
        ``row2`` = c * p + d, for ints or integer arrays.

        The matrices with a = 0 (so b != 0, c = -1/b and d free) come first,
        then those with a != 0 (b and c free, d = (1 + bc)/a), each block in
        lexicographic order.  Both blocks index as (a * p + b) * p + t - p,
        with t = d when a = 0 and t = c when a != 0.
        """
        p = self.p
        t = np.where(row1 < p, row2 % p, row2 // p)
        return row1 * p + t - p

    def _row_action(self, iy: np.ndarray) -> _RowAction:
        """Products x * y for y in iy, as packed keys; see ``_RowAction``."""
        return _RowAction(self, iy)

    def product_indices(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Index matrix of x*y for x in ix (rows) and y in iy (columns)."""
        row1, row2 = np.divmod(self._row_action(iy).keys(ix), self.p**2)
        return self._indices(row1, row2)

    def mul(self, i: int, j: int) -> int:
        return int(self.product_indices(np.array([i]), np.array([j]))[0, 0])

    def index(self, mat: Sequence[int]) -> int:
        if len(mat) != 4:
            raise ValueError(f"expected 4 matrix entries (a, b, c, d), got {len(mat)}")
        p = self.p
        a, b, c, d = (int(v) % p for v in mat)
        if (a * d - b * c) % p != 1:
            raise ValueError(f"matrix {tuple(mat)} has determinant != 1 mod {p}")
        # ``_indices`` on plain ints, without its per-call numpy overhead.
        return (a * p + b) * p + (d if a == 0 else c) - p

    @cached_property
    def elements(self) -> list[tuple[int, int, int, int]]:
        """Every element's entries (a, b, c, d) in index order, built on first use."""
        a, b = np.divmod(self._row1, self.p)
        c, d = np.divmod(self._row2, self.p)
        return list(zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()))

    def element(self, i: int) -> tuple[int, int, int, int]:
        return self.elements[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SL2Group) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("SL2", self.p))

    def __repr__(self) -> str:
        return f"SL2Group(p={self.p}, order={self.order})"


class _RowAction:
    """Packed keys of x * y for every y of a fixed right operand Y.

    Row (u, v) times y = (a, b, c, d) is (ua + vc, ub + vd) mod p.  The two
    (p, |Y|) half-tables are columns of ``SL2Group._half``: ``u[u, j]``
    packs (ua, ub) mod p in base 2p, and ``v[v, j]`` packs (vc, vd).  Both
    sums are below 2p, so the image of row (u, v) is ``u[u] + v[v]`` and
    one gather from ``_reduce``.  A filled row r sits at ``slot[r]`` of
    ``lo`` (the row index of r * y_j) and ``hi`` (the same times p^2), so
    the key of x * y_j is ``hi[slot[row1(x)], j] + lo[slot[row2(x)], j]``:
    two row gathers and an add per product.  Rows are filled when a chunk
    of X first uses them, so a product that covers G after its first chunk
    computes only the rows that chunk used, and the table's untouched
    memory is never written.
    """

    __slots__ = ("g", "u", "v", "lo", "hi", "slot", "unfilled")

    def __init__(self, g: SL2Group, iy: np.ndarray):
        self.g = g
        self.u = g._half[:, g._row1[iy]]
        self.v = g._half[:, g._row2[iy]]
        self.lo = self.hi = self.slot = None
        self.unfilled = g.p**2 - 1  # row (0, 0) is a row of no matrix in G

    def chunks(self, ix: np.ndarray) -> Iterator[np.ndarray]:
        """Keys of x * y for x in ix, at most ``_CHUNK_CELLS`` cells a chunk."""
        step = max(1, _CHUNK_CELLS // self.u.shape[1])
        if len(ix) <= step:
            self.fill()  # one chunk has no early exit to gain from
        for lo in range(0, len(ix), step):
            yield self.keys(ix[lo : lo + step])

    def fill(self) -> None:
        """Fill every row at once, without the bookkeeping of a lazy fill."""
        if self.unfilled:
            p = self.g.p
            pairs = (self.u[:, None] + self.v[None, :]).reshape(p * p, -1)
            self.lo = np.take(self.g._reduce, pairs)
            self.hi = self.lo * (p * p)
            self.slot = np.arange(p * p)
            self.unfilled = 0

    def keys(self, ix: np.ndarray) -> np.ndarray:
        """Keys of x * y for x in ix (rows), filling the rows they use."""
        r1 = self.g._row1[ix]
        r2 = self.g._row2[ix]
        if self.unfilled:
            self._fill(np.concatenate((r1, r2)))
        keys = self.hi[self.slot[r1]]
        keys += self.lo[self.slot[r2]]
        return keys

    def _fill(self, rows: np.ndarray) -> None:
        p = self.g.p
        if self.slot is None:
            self.lo = np.empty((p * p, self.u.shape[1]), dtype=self.u.dtype)
            self.hi = np.empty_like(self.lo)
            self.slot = np.full(p * p, -1)
        rows = rows[self.slot[rows] < 0]
        if len(rows) == 0:
            return
        rows = np.unique(rows)
        start = p * p - 1 - self.unfilled
        stop = start + len(rows)
        self.slot[rows] = np.arange(start, stop)
        self.unfilled -= len(rows)
        pairs = self.u[rows // p]
        pairs += self.v[rows % p]
        # Every index is below len(_reduce); mode="wrap" only spares the
        # copy that take makes of ``out`` under the default mode="raise".
        lo = np.take(self.g._reduce, pairs, out=self.lo[start:stop], mode="wrap")
        np.multiply(lo, p * p, out=self.hi[start:stop])


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


def _require_sl2(group) -> SL2Group:
    """``group`` itself, once it is known to be an SL2 group."""
    if not isinstance(group, SL2Group):
        kind = type(group).__name__
        raise ValueError(f"expected sets over SL2(Z_p), got sets over {kind} {group}")
    return group


def product_set(x: GroupSet, y: GroupSet) -> GroupSet:
    """{a*b : a in X, b in Y}; not commutative in general.

    When ``|X| + |Y| > |G|`` the result is G with no kernel pass: by
    pigeonhole, X and gY^-1 meet for every g.
    """
    _same_spec(x.group, y.group)
    g = _require_sl2(x.group)
    if x.card == 0 or y.card == 0:
        return GroupSet.empty(g)
    if x.card + y.card > g.order:
        return GroupSet.full(g)  # pigeonhole: X meets gY^-1 for every g
    hit = np.zeros(g.p**4, dtype=bool)
    for keys in g._row_action(y.index_array()).chunks(x.index_array()):
        hit[keys] = True
        out = hit[g._keys]
        if out.all():
            break
    return GroupSet.from_mask(g, out)


def inverse_set(x: GroupSet) -> GroupSet:
    """{a^-1 : a in X}."""
    g = _require_sl2(x.group)
    if x.card == 0:
        return x
    out = np.zeros(g.order, dtype=bool)
    out[g.inv[x.index_array()]] = True
    return GroupSet.from_mask(g, out)


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


def check_ruzsa(a: GroupSet, b: GroupSet, c: GroupSet) -> RuzsaReport:
    """Verify the triangle inequality; on small instances also verify that
    every z in AC^-1 factors as x*y (x in AB^-1, y in BC^-1) in >= |B| ways.

    The inequality itself is checked in exact integer arithmetic:
    |AC^-1| * |B| <= |AB^-1| * |BC^-1|.

    The count runs when |AB^-1| * |BC^-1| <= ``_COUNT_LIMIT``.  With
    X = AB^-1 and Y = BC^-1, the number of factorisations of z is
    r(z) = |X ∩ zY^-1|, and r(z) is evaluated only for z in AC^-1, the only
    elements the verdict reads.  When Y is more than half of G the count
    enumerates the complement Y^c instead, through the exact identity
    r(z) = |X| - |X ∩ z(Y^c)^-1| (zG^-1 is all of G), so the least r(z)
    is |X| minus the largest complement count; for Y = G every r(z) is |X|.
    """
    _same_spec(a.group, b.group)
    _same_spec(a.group, c.group)
    g = _require_sl2(a.group)
    if b.card == 0:
        raise ValueError("B must be nonempty")
    c_inv = inverse_set(c)
    ac = product_set(a, c_inv)
    ab = product_set(a, inverse_set(b))
    bc = product_set(b, c_inv)
    inequality_ok = ac.card * b.card <= ab.card * bc.card

    count_checked = False
    min_reps: int | None = None
    count_ok: bool | None = None
    if ac.card and ab.card * bc.card <= _COUNT_LIMIT:
        count_checked = True
        min_reps = _min_representations(ab, bc, ac)
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


def _min_representations(x: GroupSet, y: GroupSet, targets: GroupSet) -> int:
    """The least r(z) = |X ∩ zY^-1| over z in the nonempty ``targets``.

    The enumerated side S is the smaller of Y and Y^c.  The row action on
    S^-1 gives the packed keys of z * s^-1 for a few rows z of ``targets``
    at a time, and a p^4-byte mask of X's keys turns each count into a row
    sum, with no key-to-index lookup and no order-sized bins.
    """
    g = x.group
    complement = 2 * y.card > g.order
    side = GroupSet(g, y.bits ^ GroupSet.full(g).bits) if complement else y
    if side.card == 0:
        return x.card
    in_x = np.zeros(g.p**4, dtype=np.uint8)
    in_x[g._keys[x.index_array()]] = 1
    act = g._row_action(g.inv[side.index_array()])
    chunks = act.chunks(targets.index_array())
    sums = np.concatenate([np.take(in_x, keys).sum(axis=1, dtype=np.int64) for keys in chunks])
    return x.card - int(sums.max()) if complement else int(sums.min())


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
    g = _require_sl2(a.group)
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


def _meets_floor(card, n: int, d: int):
    """Whether card >= N^(1 - delta/3), in exact integers.

    N^delta = D, so N^(1 - delta/3) = N / D^(1/3) and the floor holds
    exactly when card^3 * D >= N^3.  ``card`` may be an int or an integer
    array whose cubes times D fit its dtype.
    """
    return card**3 * d >= n**3


def verify_theorem4(family: Sequence[GroupSet]) -> Theorem4Report:
    """Check the covering chain for 3K sets, K per block.

    Per set: the hypothesis A_i A_i^-1 = G.  Per block: the first set has
    |A|^2 >= N (exact integers), each prefix step satisfies
    sqrt(N * |prev|) <= |prev * A_i| (checked as card^2 >= N * prev), and
    the block product reaches the N^(1 - delta/3) floor (checked as
    card^3 * D >= N^3; ``floor`` is reported for display).  The three block
    products then cover G by the triple-product argument.
    """
    return _theorem4_chain(family, None)


def _theorem4_chain(family: Sequence[GroupSet], hypothesis_ok: list[bool] | None) -> Theorem4Report:
    """``verify_theorem4``, taking the hypothesis verdicts when the caller
    already knows them (a trial runner whose sampler accepted each set
    only once A A^-1 covered G); ``None`` tests every set."""
    if family and _require_sl2(family[0].group).p < 5:
        raise ValueError(f"requires p >= 5, got p={family[0].group.p}")
    family, hypothesis_ok, chain, block_products, chain_ok = _prefix_chain(
        family,
        3,
        product_set,
        lambda a: is_cover(product_set(a, inverse_set(a))),
        hypothesis_ok,
        lambda n, prev, card: (math.sqrt(n * prev), card**2 >= n * prev),
    )
    g = family[0].group
    n = g.order
    info = quasirandom_info(g.p)
    floor = n ** (1.0 - info.delta / 3.0)
    blocks = [
        {
            "first_sqrt_ok": block["prefix_cards"][0] ** 2 >= n,
            **block,
            "floor": floor,
            "meets_floor": _meets_floor(block["final_card"], n, info.D),
        }
        for block in chain
    ]
    triple = block_products[0].card * block_products[1].card * block_products[2].card
    premise = triple * info.D > n**3
    final = product_set(product_set(block_products[0], block_products[1]), block_products[2])
    final_cover = is_cover(final)
    return Theorem4Report(
        p=g.p,
        order=n,
        D=info.D,
        delta=info.delta,
        K=len(family) // 3,
        family_cards=[a.card for a in family],
        hypothesis_ok=hypothesis_ok,
        blocks=blocks,
        chain_ok=chain_ok,
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
    return random_set(group, size, rng)


def sample_hypothesis_set(group: SL2Group, rng: random.Random, density: float = 0.25) -> GroupSet:
    """Rejection-sample a set with A * A^-1 = G at the target density."""
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    size = min(group.order, max(1, math.ceil(density * group.order)))
    for _ in range(_HYPOTHESIS_TRIES):
        cand = random_sl2_set(group, size, rng)
        if is_cover(product_set(cand, inverse_set(cand))):
            return cand
    raise SearchBudgetError(
        f"no hypothesis set found in {_HYPOTHESIS_TRIES} tries "
        f"(p={group.p}, density={density})"
    )


def ruzsa_trials(p: int, trials: int, seed: int) -> list[RuzsaReport]:
    g = sl2_group(p)

    def one(rng: random.Random) -> RuzsaReport:
        a = random_sl2_set(g, rng.randint(1, g.order), rng)
        b = random_sl2_set(g, rng.randint(1, g.order), rng)
        c = random_sl2_set(g, rng.randint(1, g.order), rng)
        return check_ruzsa(a, b, c)

    return map_trials(one, trials, seed)


def gowers_trials(p: int, size: int, trials: int, seed: int) -> list[GowersReport]:
    g = sl2_group(p)

    def one(rng: random.Random) -> GowersReport:
        sets = [random_sl2_set(g, size, rng) for _ in range(3)]
        return check_gowers(*sets)

    return map_trials(one, trials, seed)


def theorem4_trials(
    p: int,
    trials: int,
    seed: int,
    K: int | None = None,
    density: float = 0.25,
) -> list[Theorem4Report]:
    """Run verify_theorem4 on families of 3K rejection-sampled sets.

    ``sample_hypothesis_set`` returns a set only once A A^-1 covers G, so
    every hypothesis verdict is already known to hold and the chain does
    not test it again.
    """
    g = sl2_group(p)
    big_k = theorem4_bound(quasirandom_info(p).delta) if K is None else int(K)
    if big_k < 1:
        raise ValueError(f"K must be >= 1, got {big_k}")

    def one(rng: random.Random) -> Theorem4Report:
        sets = [sample_hypothesis_set(g, rng, density) for _ in range(3 * big_k)]
        return _theorem4_chain(sets, [True] * len(sets))

    return map_trials(one, trials, seed)


def remark12(p: int, trials: int = 5, seed: int = 0, density: float = 0.25) -> Remark12Report:
    """Evaluate the bound at p and, when it yields K=4, run 12-set trials.

    For p=5 the bound gives K=5, so the twelve-set statement is not implied;
    the report says so and runs nothing.
    """
    p = int(p)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    info = quasirandom_info(p)  # rejects p < 3
    if info.delta <= 0:
        raise ValueError(f"delta = 0 at p={p}: the bound is undefined")
    big_k = theorem4_bound(info.delta)
    applies = big_k == 4
    trials_passed: list[bool] = []
    if applies:
        results = theorem4_trials(p, trials, seed, K=4, density=density)
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
