"""SL2 over a prime field: enumeration, product sets, and covering checks.

The elements are the matrices (a, b, c, d) with ad - bc = 1 mod p, numbered
in lexicographic order.  Element indices have a closed form,
(a * p + b) * p + t - p with t = c when a != 0 and t = d when a = 0, so
indices, inverses and products map back to indices with no lookup table.
Products go through the row action: row i of x*y is row i of x times y,
so for a block of columns of Y the images r*y of the rows r that X uses
turn each product x*y into two row gathers and an add, giving the packed
key row1 * p^2 + row2 with no per-product arithmetic mod p.  Every x in X
shares one such table per block, and a block holds a fixed number of
products (``_CHUNK_CELLS``, or ``_COUNT_CELLS`` in the count), so the
scratch memory of a call is bounded by the block, not by p^2 * |Y|.
Product sets key forward blocks first: X against a block of Y at a time,
marked in a p^4 bool array and read back by key.  Keys are int32 up to
p = 211, and the marks take them cast to intp, the index type numpy
scatters on without its slow casting path (see ``_forward``).  Once the
product is G,
or few enough elements are missing that keying them is cheaper than
keying X, the forward blocks stop.  The missing elements z are then keyed
as rows against the inverses of the rest of Y: z is in XY exactly when
z y^-1 is in X for some y, which a p^4 mask of X's keys answers, and each
z leaves the rows once found.
When |X| + |Y| > |G| the product is G by pigeonhole (X meets gY^-1 for
every g) and no block runs.
The Ruzsa check and Theorem 4's hypothesis A A^-1 = G multiply by
inverses gathered from ``SL2Group.inv``; neither builds an inverse set.
The Ruzsa representation count r(z) = |X ∩ zY^-1|, with X = AB^-1 and
Y = BC^-1, is |Y| for every z when X = G and |X| when Y = G.  Otherwise
it enumerates S, the smaller of Y and its complement, by one of two
kernels that a cost rule on targets per first-row fibre picks.  For
sparse targets z in AC^-1 it runs the product blocks with the targets as
the rows and S^-1 as the columns, and a p^4-byte mask of X's keys turns
each r(z) into a sum of hits.  Dense targets go by fibres: the p elements
that share a first row are l_j x0 with l_j = [[1, 0], [j, 1]], so for one
s the hits of the whole fibre are one row of a per-call line table,
(1_X(l_j x0 s^-1))_{j<p}, and the count forms (p^2 - 1)|S| indices
however many targets there are.
Sets are ``GroupSet`` bitmasks over these element indices, the same set
type the Abelian engine uses; the SL2 entry points refuse sets over any
other group with a ``ValueError`` (``setops._group_of``).

Verified statements: the Ruzsa triangle inequality (with its
representation-count proof on small instances), triple-product covering in
quasirandom groups, the three-block square-root growth chain, and the
twelve-set consequence for p >= 7.  ``quasirandom_info`` is the one record
of the constants these read: D, delta, and Theorem 4's K, found in integers.
"""

from __future__ import annotations

import math
import random
from functools import cache, cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import check_order
from .constructions import SearchBudgetError, check_density, check_size, random_set
from .groups import as_int, as_prime, at_least, check_index
from .reports import Report, map_trials
from .setops import GroupSet, _group_of, _prefix_chain, is_cover

# Product cells a forward block of Y keys in ``product_set``; its finish keys
# the missing elements against blocks of Y of the same width.
_CHUNK_CELLS = 1 << 14
_COUNT_CELLS = 1 << 16  # the same in the Ruzsa count (see _fibre_counts), which has no early exit
_HYPOTHESIS_TRIES = 200  # draws before ``sample_hypothesis_set`` gives up


def _check_p(p: int) -> int:
    """``p`` as a plain int, checked against the order cap and then for primality."""
    p = as_int(p, "p")
    check_order(p**3 - p, "SL2 group order")
    return as_prime(p)


def _group_name(p: int) -> str:
    """SL2(Z_p)'s name in messages, read from p with no group built."""
    return f"SL2Group(p={p}, order={p**3 - p})"


class SL2Group:
    """Enumerated SL2(Z_p) with index-based multiplication and inversion."""

    table = None  # no multiplication table is stored; perfbench/ still reads this

    def __init__(self, p: int):
        self.p = p = _check_p(p)
        self.order = order = p**3 - p
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
        self._unit_inv = unit_inv  # _unit_inv[k] = 1/k mod p, and 0 at k = 0

    @cached_property
    def _line_at(self) -> np.ndarray:
        """Element i's place fibre * 2p + u in the Ruzsa count's fibre table.

        The fibre i // p holds the p elements that share i's first row, and
        u = t/k with k the row's first nonzero entry.  Left multiplication by
        [[1, 0], [j, 1]] adds j times the first row to the second, so it
        moves an element from u to u + j within its fibre.
        """
        p = self.p
        fibre, t = np.divmod(np.arange(self.order), p)
        a, b = np.divmod(self._row1, p)
        return fibre * (2 * p) + t * self._unit_inv[np.where(a == 0, b, a)] % p

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

    def product_indices(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Index matrix of x*y for x in ix (rows) and y in iy (columns)."""
        blocks = [np.empty((len(ix), 0), dtype=self._key_dtype)]
        blocks += _key_blocks(self, ix, iy, _CHUNK_CELLS)
        row1, row2 = np.divmod(np.concatenate(blocks, axis=1), self.p**2)
        return self._indices(row1, row2)

    def index(self, mat: Sequence[int]) -> int:
        if len(mat) != 4:
            raise ValueError(f"expected 4 matrix entries (a, b, c, d), got {len(mat)}")
        p = self.p
        a, b, c, d = (as_int(v, "matrix entry", self) % p for v in mat)
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
        i = check_index(self, i)  # from the rows: ``elements`` builds every element's tuple
        return (*divmod(int(self._row1[i]), self.p), *divmod(int(self._row2[i]), self.p))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SL2Group) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("SL2", self.p))

    def __repr__(self) -> str:
        return _group_name(self.p)


def _key_blocks(g: SL2Group, ix: np.ndarray, iy: np.ndarray, cells: int) -> Iterator[np.ndarray]:
    """Packed keys of x * y for every x in ix (rows), against a block of
    w = max(1, cells // |ix|) columns of iy at a time.

    Row (u, v) times y = (a, b, c, d) is (ua + vc, ub + vd) mod p.  The
    block's (p, w) half-tables are columns of ``SL2Group._half``: row u of
    the first packs (ua, ub) mod p in base 2p, and row v of the second packs
    (vc, vd).  Both sums are below 2p, so the images ``lo`` of the rows X
    uses are two row gathers, an add and one gather from ``_reduce``, and
    the key of x * y is ``hi[row1(x)] + lo[row2(x)]`` with ``hi = lo * p^2``.
    X uses at most 2|X| rows; when that is below p^2, only the rows it uses
    are imaged, through a slot table, and otherwise all p^2 rows are, with
    no table.  Either way every x shares the block's images, so the images
    cost at most min(p^2, 2|X|) cells per column of Y.
    """
    p = g.p
    r1, r2 = g._row1[ix], g._row2[ix]
    if 2 * len(ix) < p * p:
        slot = np.zeros(p * p, dtype=np.intp)
        slot[r1] = slot[r2] = 1
        rows = np.flatnonzero(slot)
        slot[rows] = np.arange(len(rows))
        r1, r2 = slot[r1], slot[r2]
    else:
        rows = np.arange(p * p)
    u, v = np.divmod(rows, p)
    step = max(1, cells // max(1, len(ix)))
    for start in range(0, len(iy), step):
        cols = iy[start : start + step]
        pairs = np.take(g._half[:, g._row1[cols]], u, axis=0)
        pairs += np.take(g._half[:, g._row2[cols]], v, axis=0)
        lo = np.take(g._reduce, pairs)
        keys = np.take(lo * (p * p), r1, axis=0)
        keys += np.take(lo, r2, axis=0)
        yield keys


@lru_cache(maxsize=32)
def _cached_group(p: int) -> SL2Group:
    return SL2Group(p)


def sl2_group(p: int) -> SL2Group:
    """Shared immutable group instance for a given p.

    ``p`` and the order cap are checked on every call, before the cache is
    read: a group cached under a higher cap is refused once the cap is
    lowered, and 7.0, which hashes as 7, is refused rather than served.
    """
    return _cached_group(_check_p(p))


SL2Set = GroupSet  # the one set type, under the name SL2 callers know


def product_set(x: GroupSet, y: GroupSet) -> GroupSet:
    """{a*b : a in X, b in Y}; not commutative in general.

    When ``|X| + |Y| > |G|`` the result is G with no block: by pigeonhole,
    X and gY^-1 meet for every g.  Otherwise the products are keyed one
    block of Y at a time against all of X, until the product is G or the
    elements still missing are few enough to finish from their side (see
    ``_finish``), which gives the same set.
    """
    g = _group_of(x, y, kind=SL2Group)
    return _product(g, x.card, y.card, x.index_array, y.index_array)


def _product(g: SL2Group, x_card: int, y_card: int, rows, cols) -> GroupSet:
    """XY for sets X and Y of these cards, whose element indices the calls
    ``rows()`` and ``cols()`` return; neither is called when X or Y is
    empty or when pigeonhole decides XY."""
    if x_card == 0 or y_card == 0:
        return GroupSet.empty(g)
    if x_card + y_card > g.order:
        return GroupSet.full(g)  # pigeonhole: X meets gY^-1 for every g
    ix, iy = rows(), cols()
    out, rest = _forward(g, ix, iy)
    if len(rest):
        _finish(g, ix, rest, out)
    return GroupSet.from_mask(g, out)


def _forward(g: SL2Group, ix: np.ndarray, iy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The elements that XY holds after the first blocks of Y, as a mask
    over G, and the columns of Y left for ``_finish``: none once the mask
    covers G or Y is used up.

    Each block marks the packed keys of X times its columns in a p^4 bool
    array.  The write takes the keys cast to intp (no copy above p = 211,
    where they are int64 already): with int32 indices numpy scatters
    through its casting path, which took 42-47 µs a 2^14-cell block at
    p = 13 and 17, against 20-25 µs for the intp write plus 3.4 µs for
    the cast (numpy 2.4, 2-core x86-64 host).  The ``np.take`` readers
    keep int32 keys, since ``take`` converts them at the cost of a cast.
    A column costs min(p^2, 2|X|) + |X| cells here, and
    min(p^2, 2m) + m in ``_finish`` with m elements missing, so the loop
    stops once G is covered or the finish keys at most half as many cells
    a column.
    """
    p2 = g.p**2
    forward = min(p2, 2 * len(ix)) + len(ix)
    hit = np.zeros(g.p**4, dtype=bool)
    used = 0
    for keys in _key_blocks(g, ix, iy, _CHUNK_CELLS):
        hit[keys.astype(np.intp, copy=False)] = True
        used += keys.shape[1]
        out = hit[g._keys]
        # the elements a finish would look for; none once Y is used up
        left = g.order - int(np.count_nonzero(out)) if used < len(iy) else 0
        if 2 * (min(p2, 2 * left) + left) <= forward:
            break
    return out, iy[used:] if left else iy[:0]


def _x_mask(g: SL2Group, ix: np.ndarray) -> np.ndarray:
    """A p^4 bool mask of the packed keys of X, whose element indices are
    ``ix``: it turns the key of a product into a hit in X."""
    in_x = np.zeros(g.p**4, dtype=bool)
    in_x[g._keys[ix]] = True
    return in_x


def _finish(g: SL2Group, ix: np.ndarray, rest: np.ndarray, out: np.ndarray) -> None:
    """Mark in ``out`` the missing elements that X times ``rest`` holds.

    z is in X * rest exactly when z y^-1 is in X for some y in ``rest``, so
    the missing elements are keyed as rows against the inverses of
    ``rest``, in blocks as wide as ``_forward``'s, and ``_x_mask`` turns
    each key into a hit.  An element leaves the rows once it is found, and
    the loop stops when none is left or ``rest`` is used.
    """
    in_x = _x_mask(g, ix)
    z = np.flatnonzero(~out)
    inv = g.inv[rest]
    step = max(1, _CHUNK_CELLS // len(ix))
    for start in range(0, len(inv), step):
        keys = next(_key_blocks(g, z, inv[start : start + step], len(z) * step))
        z = z[~np.take(in_x, keys).any(axis=1)]
        if len(z) == 0:
            break
    out[:] = True
    out[z] = False


def inverse_set(x: GroupSet) -> GroupSet:
    """{a^-1 : a in X}."""
    g = _group_of(x, kind=SL2Group)
    if x.card == 0:
        return x
    out = np.zeros(g.order, dtype=bool)
    out[g.inv[x.index_array()]] = True
    return GroupSet.from_mask(g, out)


# ---------------------------------------------------------------------------
# Ruzsa triangle inequality


_COUNT_LIMIT = 1 << 22


def check_ruzsa(a: GroupSet, b: GroupSet, c: GroupSet) -> Report:
    """Verify the triangle inequality; on small instances also verify that
    every z in AC^-1 factors as x*y (x in AB^-1, y in BC^-1) in >= |B| ways.

    The inequality itself is checked in exact integer arithmetic:
    |AC^-1| * |B| <= |AB^-1| * |BC^-1|.  The three products run as in
    ``product_set``, on index arrays: A, B and C are each unpacked at most
    once, and their inverses are gathered from ``SL2Group.inv`` with no
    inverse set built.  A product that emptiness or pigeonhole decides
    unpacks nothing.

    The count runs when |AB^-1| * |BC^-1| <= ``_COUNT_LIMIT``.  With
    X = AB^-1 and Y = BC^-1, the number of factorisations of z is
    r(z) = |X ∩ zY^-1|, and r(z) is evaluated only for z in AC^-1, the only
    elements the verdict reads.  When Y is more than half of G the count
    enumerates the complement Y^c instead, through the exact identity
    r(z) = |X| - |X ∩ z(Y^c)^-1| (zG^-1 is all of G), so the least r(z)
    is |X| minus the largest complement count; for Y = G every r(z) is |X|.
    """
    g = _group_of(a, b, c, kind=SL2Group)
    if b.card == 0:
        raise ValueError("B must be nonempty")
    # Each operand is unpacked to element indices at most once, and only
    # for a product that neither emptiness nor pigeonhole decides.
    ia, ib, ic = (cache(s.index_array) for s in (a, b, c))
    ib_inv, ic_inv = cache(lambda: g.inv[ib()]), cache(lambda: g.inv[ic()])
    ac = _product(g, a.card, c.card, ia, ic_inv)
    ab = _product(g, a.card, b.card, ia, ib_inv)
    bc = _product(g, b.card, c.card, ib, ic_inv)
    inequality_ok = ac.card * b.card <= ab.card * bc.card

    count_checked = False
    min_reps: int | None = None
    count_ok: bool | None = None
    if ac.card and ab.card * bc.card <= _COUNT_LIMIT:
        count_checked = True
        min_reps = _min_representations(ab, bc, ac)
        count_ok = min_reps >= b.card
    return Report(
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

    When X = G every r(z) is |Y|, and when Y = G every r(z) is |X|; neither
    runs a kernel.  Otherwise the enumerated side S is the smaller of Y and
    Y^c, and r_S(z) = |X ∩ zS^-1| comes from the cheaper of two kernels.
    ``_target_counts`` forms |Z| * |S| keys.  ``_fibre_counts`` forms
    (p^2 - 1) * |S| line indices, whatever the number of targets.  Counted
    in keys, a line of W = ⌈p/8⌉ uint64 words costs about 1 + W, and the
    fibres' tables about 2^16 + 4|G| more, as measured in process at p = 5
    to 47.  So the fibres run once |Z| is well above (1 + W)(p^2 - 1).
    """
    g = x.group
    if is_cover(x):
        return y.card  # zY^-1 lies in X = G
    complement = 2 * y.card > g.order
    side = GroupSet(g, y.bits ^ GroupSet.full(g).bits) if complement else y
    if side.card == 0:
        return x.card
    words = -(-g.p // 8)
    saved = side.card * (targets.card - (1 + words) * (g.p**2 - 1))
    kernel = _fibre_counts if saved >= (1 << 16) + 4 * g.order else _target_counts
    counts = kernel(g, x, side, targets)
    return x.card - int(counts.max()) if complement else int(counts.min())


def _target_counts(g: SL2Group, x: GroupSet, side: GroupSet, targets: GroupSet) -> np.ndarray:
    """|X ∩ zS^-1| for every z in ``targets``, one key per (target, column).

    ``_key_blocks`` gives the packed keys of z * s^-1 for every target z
    against a block of S^-1 at a time, and ``_x_mask`` turns them into
    hits.  The hits are added up column by column across the blocks, and
    each count is one row sum at the end.
    """
    in_x = _x_mask(g, x.index_array())
    counts = None  # counts[i, j]: the hits of target i in column j of every block
    for keys in _key_blocks(g, targets.index_array(), g.inv[side.index_array()], _COUNT_CELLS):
        hits = np.take(in_x, keys)
        if counts is None:
            counts = hits.astype(g._key_dtype)  # below |S| < p^4, so they fit
        else:
            counts[:, : hits.shape[1]] += hits
    return counts.sum(axis=1)


def _fibre_counts(g: SL2Group, x: GroupSet, side: GroupSet, targets: GroupSet) -> np.ndarray:
    """|X ∩ zS^-1| for every z in ``targets``, one line per (fibre, column).

    The targets z = l_j x0 of a fibre (l_j = [[1, 0], [j, 1]], x0 its
    member with t = 0) share z s^-1 = l_j w with w = x0 s^-1, so the row
    ``lines[w] = (1_X(l_j w))_{j<p}`` holds the hits of the whole fibre
    against s.  In u coordinates (``SL2Group._line_at``) each row is a
    window of the fibre's indicator of X written out twice.  The rows are
    8⌈p/8⌉ bytes, summed as uint64 words: a block adds at most 255 rows,
    so no byte lane overflows into its neighbour, and the lanes past p are
    never read.  A block gathers at most 2 * ``_COUNT_CELLS`` bytes of
    lines.  Blocks twice that size ran about 10% faster at p = 13, but
    they raised the traced peak of ``check_ruzsa`` on 40-element sets there
    from 0.43 to 0.59 MiB, above that of every other SL2 trial in
    ``perfbench/``.
    """
    p = g.p
    at = g._line_at
    indicator = np.zeros((p * p - 1) * 2 * p + 8, dtype=np.uint8)
    ix = at[x.index_array()]
    indicator[ix] = indicator[ix + p] = 1
    width = 8 * -(-p // 8)
    lines = sliding_window_view(indicator, width)[at].view(np.uint64)
    iy = g.inv[side.index_array()]
    step = min(255, len(iy), max(1, 2 * _COUNT_CELLS // (width * (p * p - 1))))
    counts = np.zeros((p * p - 1, width), dtype=np.intp)  # counts[ℓ * (p - 1) + μ - 1, j]
    for cells in _line_blocks(g, iy, step):
        counts += np.take(lines, cells, axis=0).sum(axis=0).view(np.uint8)
    z = targets.index_array()
    # z's first row (a, b) is μℓ: μ = a and ℓ = (1, b/a), or μ = b and ℓ = (0, 1).
    a, b = np.divmod(g._row1[z], p)
    ell = np.where(a == 0, p, b * g._unit_inv[a] % p)
    return counts[ell * (p - 1) + np.where(a == 0, b, a) - 1, at[z] % (2 * p)]


def _line_blocks(g: SL2Group, iy: np.ndarray, step: int) -> Iterator[np.ndarray]:
    """Element indices of x0 * y for every fibre's x0 (columns) and every y
    in iy (rows), ``step`` rows at a time.

    Every first row is μℓ for a unit μ and one of the p + 1 lines
    ℓ = (1, m) or (0, 1), and the columns run over ℓ, then μ.  The fibre's
    x0 is D(μ) x0(ℓ), with D(μ) = diag(μ, 1/μ) and x0(ℓ) = (1, m, 0, 1) or
    (0, 1, -1, 0), so x0 * y = D(μ) w with w = x0(ℓ) y.  D(μ) multiplies
    w's first row by μ and its t (c, or d when the row starts with 0) by
    1/μ, so the index of D(μ) w is ``scaled[fibre(w), μ] + shifted[t(w), μ]``.
    Only the (p + 1) * |iy| products w are formed as products.
    """
    p = g.p
    # x0(1, m) = (1, m, 0, 1) has index p^2 + mp - p; x0(0, 1) = (0, 1, -1, 0) is element 0.
    x0 = np.append(p * p - p + p * np.arange(p), 0)
    fibre, t = np.divmod(g.product_indices(x0, iy).T, p)
    scaled = g._reduce[g._half[1:, 1:]].T.astype(np.intp) * p - p  # fibre f's row f + 1 times μ
    shifted = np.outer(np.arange(p), g._unit_inv[1:]) % p  # t/μ
    for start in range(0, len(iy), step):
        block = slice(start, start + step)
        cells = np.take(scaled, fibre[block], axis=0)
        cells += np.take(shifted, t[block], axis=0)
        yield cells.reshape(len(cells), p * p - 1)


# ---------------------------------------------------------------------------
# Quasirandomness and triple-product covering


def quasirandom_info(p: int) -> Report:
    """SL2(Z_p)'s constants, read from p with no group built: D = (p-1)/2
    from the Frobenius formula, so G is N^delta-quasirandom with N^delta = D
    (``delta`` is for display), and Theorem 4's K, the least K >= 1 with
    2^K > 3/delta, that is with D^(2^K) > N^3, found in integers (p divides
    N but not D, so the two never tie).  ``n_sets`` = 3K.  At p = 3, D = 1
    and both are null; at p = 2, D = 0 and every constant is null."""
    p = as_prime(p)
    n, d = p**3 - p, (p - 1) // 2
    k = 1 if d > 1 else None
    while k and d ** (2**k) <= n**3:
        k += 1
    delta = math.log(d) / math.log(n) if d else None
    return Report(p=p, order=n, D=d or None, delta=delta, K=k, n_sets=k and 3 * k)


def _triple_product_info(p: int) -> Report:
    """``quasirandom_info(p)``, refused below p = 5, where D = 1 and the
    triple-product step claims nothing."""
    return quasirandom_info(at_least(p, 5, "p"))


def check_gowers(a: GroupSet, b: GroupSet, c: GroupSet) -> Report:
    """|A||B||C| > N^3/D forces ABC = G; below that threshold there is no
    claim and the report passes.  The premise is evaluated in exact
    integers: |A||B||C| * D > N^3."""
    g = _group_of(a, b, c, kind=SL2Group)
    info = _triple_product_info(g.p)
    triple = a.card * b.card * c.card
    premise = triple * info.D > g.order**3
    abc = product_set(product_set(a, b), c)
    covers = is_cover(abc)
    return Report(
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
    """Smallest integer strictly greater than log2(3/delta), and at least 1."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return max(1, math.floor(math.log2(3.0 / delta)) + 1)


# ---------------------------------------------------------------------------
# Three-block covering chain


def _meets_floor(card, n: int, d: int):
    """Whether card >= N^(1 - delta/3), in exact integers.

    N^delta = D, so N^(1 - delta/3) = N / D^(1/3) and the floor holds
    exactly when card^3 * D >= N^3.  ``card`` may be an int or an integer
    array whose cubes times D fit its dtype.
    """
    return card**3 * d >= n**3


def _hypothesis_holds(a: GroupSet) -> bool:
    """Whether A A^-1 = G, Theorem 4's hypothesis.  As in ``check_ruzsa``,
    A is unpacked at most once (never when pigeonhole decides) and A^-1 is
    gathered from ``SL2Group.inv``, with no inverse set built."""
    g = _group_of(a, kind=SL2Group)
    ia = cache(a.index_array)
    return is_cover(_product(g, a.card, a.card, ia, lambda: g.inv[ia()]))


def verify_theorem4(family: Sequence[GroupSet]) -> Report:
    """Check the covering chain for 3K sets, K per block.

    Per set: the hypothesis A_i A_i^-1 = G.  Per block: the first set has
    |A|^2 >= N (exact integers), each prefix step satisfies
    sqrt(N * |prev|) <= |prev * A_i| (checked as card^2 >= N * prev), and
    the block product reaches the N^(1 - delta/3) floor (checked as
    card^3 * D >= N^3; ``floor`` is reported for display).  The three block
    products then cover G by the triple-product argument (``check_gowers``).
    """
    return _theorem4_chain(family, None)


def _theorem4_chain(family: Sequence[GroupSet], hypothesis_ok: list[bool] | None) -> Report:
    """``verify_theorem4``, taking the hypothesis verdicts when the caller
    already knows them (a trial runner whose sampler accepted each set
    only once A A^-1 covered G); ``None`` tests every set."""
    family, hypothesis_ok, chain, block_products, chain_ok = _prefix_chain(
        family,
        3,
        product_set,
        _hypothesis_holds,
        hypothesis_ok,
        lambda n, prev, card: (math.sqrt(n * prev), card**2 >= n * prev),
    )
    g = family[0].group
    n = g.order
    info = _triple_product_info(g.p)
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
    gowers = check_gowers(*block_products)
    return Report(
        p=g.p,
        order=n,
        D=info.D,
        delta=info.delta,
        K=len(family) // 3,
        family_cards=[a.card for a in family],
        hypothesis_ok=hypothesis_ok,
        blocks=blocks,
        chain_ok=chain_ok,
        gowers_premise_met=gowers.premise_met,
        final_card=gowers.product_card,
        final_cover=gowers.covers,
        passed=all(hypothesis_ok) and gowers.covers,
    )


# ---------------------------------------------------------------------------
# Random sets and trial runners


def random_sl2_set(group: SL2Group, size: int, rng: random.Random) -> GroupSet:
    return random_set(group, size, rng)


def sample_hypothesis_set(group: SL2Group, rng: random.Random, density: float = 0.25) -> GroupSet:
    """Rejection-sample a set with A * A^-1 = G at the target density."""
    size = math.ceil(check_density(density, "density") * group.order)
    for _ in range(_HYPOTHESIS_TRIES):
        cand = random_sl2_set(group, size, rng)
        if _hypothesis_holds(cand):
            return cand
    raise SearchBudgetError(
        f"no hypothesis set found in {_HYPOTHESIS_TRIES} tries "
        f"(p={group.p}, density={density})"
    )


def ruzsa_trials(p: int, trials: int, seed: int) -> list[Report]:
    """Check the Ruzsa triangle on ``trials`` triples of random sets, each
    of a uniform size in [1, |G|].  The first trial fetches the group, so
    zero trials build none."""
    p = _check_p(p)

    def one(rng: random.Random) -> Report:
        g = _cached_group(p)
        a = random_sl2_set(g, rng.randint(1, g.order), rng)
        b = random_sl2_set(g, rng.randint(1, g.order), rng)
        c = random_sl2_set(g, rng.randint(1, g.order), rng)
        return check_ruzsa(a, b, c)

    return map_trials(one, trials, seed)


def gowers_trials(p: int, size: int, trials: int, seed: int) -> list[Report]:
    """Check triple-product covering on ``trials`` triples of random sets
    of ``size`` elements, checked against p^3 - p.  The first trial
    fetches the group, so zero trials build none."""
    p = _check_p(p)
    size = check_size(size, p**3 - p, _group_name(p))

    def one(rng: random.Random) -> Report:
        g = _cached_group(p)
        sets = [random_sl2_set(g, size, rng) for _ in range(3)]
        return check_gowers(*sets)

    return map_trials(one, trials, seed)


def theorem4_trials(
    p: int,
    trials: int,
    seed: int,
    K: int | None = None,
    density: float = 0.25,
) -> list[Report]:
    """Run verify_theorem4 on families of 3K rejection-sampled sets.

    ``sample_hypothesis_set`` returns a set only once A A^-1 covers G, so
    every hypothesis verdict is already known to hold and the chain does
    not test it again.  The density is checked before any trial, and so is
    the size of the family that each trial draws, 3K * |G| elements, against
    the order cap.  The first trial fetches the group, so zero trials draw
    no family and build no group.
    """
    p = _check_p(p)
    big_k = _triple_product_info(p).K if K is None else at_least(K, 1, "K")
    check_density(density, "density")
    if trials:
        check_order(3 * big_k * (p**3 - p), f"a family of {3 * big_k} sets in SL2(Z_{p})")

    def one(rng: random.Random) -> Report:
        g = _cached_group(p)
        sets = [sample_hypothesis_set(g, rng, density) for _ in range(3 * big_k)]
        return _theorem4_chain(sets, [True] * len(sets))

    return map_trials(one, trials, seed)


def remark12(p: int, trials: int = 5, seed: int = 0, density: float = 0.25) -> Report:
    """``quasirandom_info(p)``, extended by 12-set trials when its K is 4:
    from p = 7 on D^16 > N^3, so twelve hypothesis sets suffice.

    At p = 5, K = 5, so the twelve-set statement is not implied; the
    report says so and runs nothing.  p = 2 and 3, which have no K, are
    refused.  Zero trials build no group.
    """
    p, trials = _check_p(p), at_least(trials, 0, "trials")
    check_density(density, "density")
    info = quasirandom_info(at_least(p, 3, "p"))
    if info.K is None:
        raise ValueError(f"delta = 0 at p={p}: the bound is undefined")
    applies = info.K == 4
    runs = theorem4_trials(p, trials, seed, K=4, density=density) if applies else []
    trials_passed = [r.passed for r in runs]
    return Report(
        **vars(info),
        applies=applies,
        trials=trials if applies else 0,
        trials_passed=trials_passed,
        passed=all(trials_passed) if applies else True,
    )
