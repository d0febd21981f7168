"""Set families and samplers: the half-zero product family, bases of Z_p^n,
and rejection-sampled sets whose m-fold sumset covers the group.

The half-zero family lives over ``Z_p^n`` with ``n = 2^k``: building block
``C_i`` is the set of nonzero vectors of ``Z_p^{2^i}`` in which exactly one
half of the coordinates is all zeros, ``A_0 = (Z_p \\ {0})^n``, and ``A_i``
is the ``2^(k-i)``-fold blockwise product of ``C_i``.  For p >= 3 each
``A_i`` (i >= 1) doubles to the whole group while the chain
``A_0 + ... + A_j`` stays inside ``(Z_p^{2^j} \\ {0})^{2^(k-j)}`` -- the
gap these tools measure.  For p = 2 the i = 1 block degenerates
(``C_1 + C_1`` misses half of ``Z_2^2``); the generators warn and the
report flags it rather than papering over it.  Over element indices a
blockwise product is a Kronecker product of indicator vectors, so each set
is a Kronecker power built from the indicator of ``{0}`` and packed once.

A basis of Z_p^n is a plain tuple of n rows.  Its factories check p and n
once; rows the library draws itself are not checked again.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_doubling
from .groups import GroupSpec, as_int, as_prime, at_least, vector_space_spec
from .reports import Report
from .setops import GroupSet, is_cover, m_fold, sumset

# Draws before a rejection sampler gives up, and the largest candidate pool
# that ``enumerate_bases`` walks.
_BASIS_TRIES = 1000
_COVER_TRIES = 200
_BASES_CAP = 200_000
# Keys per ``randbytes`` call in ``random_set``: one call for 2^26 keys
# would ask ``getrandbits`` for 2^31 bits, more than a C int holds.
_KEY_CHUNK = 1 << 20
# A report lists a set's elements only when it has at most this many.
_WITNESS_LIMIT = 64


class SearchBudgetError(RuntimeError):
    """A rejection sampler ran out of retries."""


# ---------------------------------------------------------------------------
# Half-zero product family


def _warn_p2(p: int) -> None:
    if p == 2:
        msg = "half-zero family degenerates for p=2: C_1 + C_1 misses half of Z_2^2"
        warnings.warn(msg, stacklevel=3)


def _zero(p: int, h: int) -> np.ndarray:
    """The indicator of ``{0}`` in ``Z_p^h``, over element indices."""
    mask = np.zeros(p**h, dtype=bool)
    mask[0] = True
    return mask


def _kron_doublings(mask: np.ndarray, times: int) -> np.ndarray:
    """The ``2^times``-fold Kronecker power: that many blocks of ``mask``."""
    for _ in range(times):
        mask = np.kron(mask, mask)
    return mask


def _half_zero_mask(p: int, i: int) -> np.ndarray:
    """The indicator of C_i: one half of the axes all zero, the other not."""
    zero = _zero(p, 2 ** (i - 1))
    return np.kron(zero, ~zero) | np.kron(~zero, zero)


def _doubled_space(p: int, level: int) -> GroupSpec:
    """``Z_p^(2^level)``, refused by the order cap before ``2 ** level`` is formed."""
    check_doubling(p, level)
    return vector_space_spec(p, 2**level)


def example_C(p: int, i: int) -> GroupSet:
    """Block set C_i over ``Z_p^{2^i}``: nonzero vectors with exactly one
    all-zero half; cardinality ``2(p^{2^(i-1)} - 1)``."""
    p, i = at_least(p, 2, "p"), at_least(i, 1, "block level")
    spec = _doubled_space(p, i)
    _warn_p2(p)
    return GroupSet.from_mask(spec, _half_zero_mask(p, i))


def example_A(p: int, k: int, i: int) -> GroupSet:
    """Family member A_i over ``Z_p^{2^k}``: the nonzero-coordinate cube for
    i = 0, else the ``2^(k-i)``-fold blockwise product of C_i."""
    p, k, i = at_least(p, 2, "p"), as_int(k, "k"), as_int(i, "family index")
    if not 0 <= i <= k:
        raise ValueError(f"family index must be in [0, {k}], got {i}")
    if i == 0:
        return _punctured_product(p, 0, k)
    spec = _doubled_space(p, k)
    _warn_p2(p)
    return GroupSet.from_mask(spec, _kron_doublings(_half_zero_mask(p, i), k - i))


@dataclass(frozen=True)
class Example1Family:
    """The sets A_0..A_k of the half-zero family over ``Z_p^{2^k}``."""

    p: int
    k: int
    n: int
    spec: GroupSpec
    sets: tuple[GroupSet, ...]


def example1_family(p: int, k: int) -> Example1Family:
    p, k = at_least(p, 2, "p"), at_least(k, 1, "k")
    sets = tuple(example_A(p, k, i) for i in range(k + 1))
    return Example1Family(p, k, 2**k, sets[0].group, sets)


def verify_example1(p: int, k: int) -> Report:
    """Materialize the family and check every claimed identity at desk scale.

    Checked per instance: the cardinality formulas, ``C_i + C_i`` covering
    ``Z_p^{2^i}``, ``A_i + A_i`` covering the group for i >= 1, the chain
    ``A_0 + ... + A_j`` equaling the punctured product set (hence its
    cardinality ``(p^{2^j} - 1)^{2^(k-j)}``), and the full chain still
    missing the group.
    """
    p, k = at_least(p, 2, "p"), at_least(k, 1, "k")
    with warnings.catch_warnings():
        if p == 2:
            warnings.simplefilter("ignore")
        fam = example1_family(p, k)
        blocks = [example_C(p, i) for i in range(1, k + 1)]
    spec = fam.spec
    n = fam.n
    notes = []
    if p == 2:
        notes.append(
            "p=2 is degenerate: C_1 + C_1 = {00, 11} misses Z_2^2, so the"
            " doubling and chain identities fail as stated"
        )

    expected_cards = [(p - 1) ** n] + [
        (2 * (p ** (2 ** (i - 1)) - 1)) ** (2 ** (k - i)) for i in range(1, k + 1)
    ]
    cards = [a.card for a in fam.sets]
    cards_ok = cards == expected_cards

    block_checks = []
    for i, c in enumerate(blocks, 1):
        csum = sumset(c, c)
        entry = {
            "i": i,
            "card": c.card,
            "expected_card": 2 * (p ** (2 ** (i - 1)) - 1),
            "self_sum_card": csum.card,
            "self_sum_covers": is_cover(csum),
        }
        if not entry["self_sum_covers"] and csum.card <= _WITNESS_LIMIT:
            entry["self_sum_witness"] = [list(cc) for cc in csum.coords()]
        block_checks.append(entry)

    self_sum_checks = []
    for i in range(1, k + 1):
        asum = sumset(fam.sets[i], fam.sets[i])
        self_sum_checks.append(
            {"i": i, "self_sum_card": asum.card, "self_sum_covers": is_cover(asum)}
        )

    chain = []
    prefix = fam.sets[0]
    for j in range(k + 1):
        if j > 0:
            prefix = sumset(prefix, fam.sets[j])
        expected_card = (p ** (2**j) - 1) ** (2 ** (k - j))
        expected_set = _punctured_product(p, j, k)
        chain.append(
            {
                "j": j,
                "card": prefix.card,
                "expected_card": expected_card,
                "card_ok": prefix.card == expected_card,
                "set_ok": prefix.bits == expected_set.bits,
            }
        )
    chain_ok = all(e["card_ok"] and e["set_ok"] for e in chain)
    final_misses_group = prefix.card != spec.order
    return Report(
        p=p,
        k=k,
        n=n,
        order=spec.order,
        p2_degenerate=p == 2,
        cards=cards,
        expected_cards=expected_cards,
        cards_ok=cards_ok,
        block_checks=block_checks,
        self_sum_checks=self_sum_checks,
        chain=chain,
        chain_ok=chain_ok,
        final_card=prefix.card,
        final_misses_group=final_misses_group,
        passed=(
            cards_ok
            and all(e["self_sum_covers"] for e in block_checks)
            and all(e["self_sum_covers"] for e in self_sum_checks)
            and chain_ok
            and final_misses_group
        ),
        notes=notes,
    )


def _punctured_product(p: int, j: int, k: int) -> GroupSet:
    """``(Z_p^{2^j} \\ {0})^{2^(k-j)}`` embedded blockwise in ``Z_p^{2^k}``."""
    spec = _doubled_space(p, k)
    return GroupSet.from_mask(spec, _kron_doublings(~_zero(p, 2**j), k - j))


# ---------------------------------------------------------------------------
# Bases of Z_p^n


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Row rank over Z_p of integer rows, by Gaussian elimination."""
    mat = [[x % p for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def standard_basis_matrix(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the identity matrix over Z_p; the cap is checked before primality."""
    n = vector_space_spec(p, n).rank
    as_prime(p)
    return tuple(tuple(int(j == i) for j in range(n)) for i in range(n))


def random_basis_matrix(p: int, n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Seeded random invertible rows over Z_p; primality is checked before the cap."""
    p = as_prime(p)
    return _random_basis_rows(p, vector_space_spec(p, n).rank, seed)


def _random_basis_rows(p: int, n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """``random_basis_matrix`` for a checked p and n: ``Random(seed)`` draws n x n
    entries with ``randrange(p)``, row by row, until a draw has rank n (expected
    O(1) draws, at most ``_BASIS_TRIES``).  Each draw is ranked once."""
    rng = random.Random(seed)
    for _ in range(_BASIS_TRIES):
        rows = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if rank_mod_p(rows, p) == n:
            return rows
    raise SearchBudgetError(f"no invertible {n}x{n} matrix mod {p} in {_BASIS_TRIES} draws")


def enumerate_bases(p: int, n: int) -> list[tuple[tuple[int, ...], ...]] | None:
    """All unordered bases of Z_p^n as sorted row tuples, or None when the
    candidate pool ``C(p^n - 1, n)`` exceeds ``_BASES_CAP``."""
    p = as_prime(p)
    n = vector_space_spec(p, n).rank  # refuses p^n above the cap
    if math.comb(p**n - 1, n) > _BASES_CAP:  # before the pool is listed
        return None
    nonzero = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    out = []
    for combo in itertools.combinations(nonzero, n):
        if rank_mod_p(combo, p) == n:
            out.append(combo)
    return out


# ---------------------------------------------------------------------------
# Random covering sets


def check_size(size: int, order: int, name: object) -> int:
    """``size`` as an int in ``[0, order]``, the sizes ``random_set`` draws.
    A refusal names ``name``: the group, or the name of one not built."""
    size = as_int(size, "size", name)
    if not 0 <= size <= order:
        raise ValueError(f"size {size} out of range [0, {order}]")
    return size


def check_density(density: float, what: str) -> float:
    """``density`` if it is in ``(0, 1]``; NaN is refused too."""
    if not 0 < density <= 1:
        raise ValueError(f"{what} must be in (0, 1], got {density}")
    return density


def random_set(spec: GroupSpec, size: int, rng: random.Random) -> GroupSet:
    """A uniformly random subset with exactly ``size`` elements, drawn from ``rng``.

    ``rng.randbytes`` gives every element a uniform 32-bit key, and the set
    is the ``size`` elements with the smallest keys.  The keys are drawn
    ``_KEY_CHUNK`` at a time: calls whose lengths are multiples of 4 bytes
    give the same bytes, and leave ``rng`` in the same state, as one call
    for every key would.  A draw with a tie at that boundary (probability
    below order / 2^32) is redrawn; the keys are exchangeable, so the
    accepted set is exactly uniform over the ``size``-subsets.  A zero key
    in front of the others is the threshold when ``size`` is 0.  One chunk
    is selected whole, in a few numpy passes; more chunks go through
    ``_nearest_keys``, which holds only the keys next to the boundary.
    Any group with an ``order`` works; ``sl2.random_sl2_set`` builds
    through here too.
    """
    size, order = check_size(size, spec.order, spec), spec.order
    while True:
        if order <= _KEY_CHUNK:
            keys = np.frombuffer(bytes(4) + rng.randbytes(4 * order), "<u4")
            mask = keys[1:] <= np.partition(keys, size)[size]
            tie = np.count_nonzero(mask) != size
        else:
            mask, tie = _nearest_keys(rng, order, size)
        if not tie:
            return GroupSet.from_mask(spec, mask)


def _nearest_keys(rng: random.Random, order: int, size: int) -> tuple[np.ndarray, bool]:
    """``random_set``'s draw over more than one chunk: the mask of the
    ``size`` smallest keys, and whether the draw tied at the boundary.

    Of the keys drawn so far, only the k + 1 nearest the boundary are kept,
    k = min(size, order - size): the smallest when ``size`` is at most half
    the order, otherwise the largest, complemented so that the nearest are
    the smallest either way.  Each is packed with its index as
    ``key << 32 | index``, so one partition orders the keys and carries
    their indices.  A buffer with room for max(``_KEY_CHUNK``, k / 8) more
    takes each chunk's keys below ``bar``, the (k+1)-th nearest at the last
    cut, and is cut back to the k + 1 nearest when a chunk would overflow
    it; the slack keeps the cuts few, so the time stays linear in the order.
    Later chunks hold larger indices, so a key equal to ``bar`` cannot
    enter.  A tie is a k-th nearest key equal to the (k+1)-th or, at size
    0, a zero key, as in one chunk.  The slack is freed before the mask is
    built, so with k at most half the order the peak is the mask, 8k bytes
    and a few chunks.
    """
    if order > 1 << 32:
        raise ValueError(f"random_set packs indices in 32 bits; order {order} is above 2^32")
    low = 2 * size <= order
    k = size if low else order - size
    buf = np.empty(k + 1 + max(_KEY_CHUNK, k // 8), dtype=np.uint64)
    fill, bar = 0, 1 << 32
    for lo in range(0, order, _KEY_CHUNK):
        keys = np.frombuffer(rng.randbytes(4 * min(_KEY_CHUNK, order - lo)), "<u4")
        keys = keys if low else ~keys
        near = np.flatnonzero(keys < bar)
        if fill + len(near) > len(buf):
            buf[:fill].partition(k)
            fill, bar = k + 1, int(buf[k] >> 32)
            near = near[keys[near] < bar]
        packed = (keys[near].astype(np.uint64) << 32) | (near + lo).astype(np.uint64)
        buf[fill : fill + len(packed)] = packed
        fill += len(packed)
    buf[:fill].partition(k)
    edge = buf[k] >> 32
    tie = bool(buf[:k].max() >> 32 == edge if k else low and edge == 0)
    buf.resize(k, refcheck=False)  # no view of buf is left
    buf &= 0xFFFFFFFF  # the indices, which read the same as int64
    mask = np.full(order, not low)
    mask[buf.view(np.int64)] = low
    return mask, tie


def random_cover_set(spec: GroupSpec, m: int, target_density: float, seed: int) -> GroupSet:
    """A seeded random set A of ``ceil(density * order)`` elements with
    ``m_fold(A, m)`` covering the group, found by rejection sampling.

    Raises SearchBudgetError when all ``_COVER_TRIES`` draws fail, which
    signals that the density is too low for the requested m on this group.
    """
    m = at_least(m, 1, "m")
    size = math.ceil(check_density(target_density, "target density") * spec.order)
    rng = random.Random(seed)
    for _ in range(_COVER_TRIES):
        a = random_set(spec, size, rng)
        if is_cover(m_fold(a, m)):
            return a
    raise SearchBudgetError(
        f"no {size}-element subset of {spec} with {m}-fold sumset covering the group "
        f"in {_COVER_TRIES} draws; density {target_density} is likely too low"
    )
