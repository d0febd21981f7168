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
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import check_order, order_cap
from .groups import GroupSpec, is_prime, vector_space_spec
from .reports import Report
from .setops import ElementMultiset, GroupSet, is_cover, m_fold, sumset

# Draws before a rejection sampler gives up, and the largest candidate pool
# that ``enumerate_bases`` walks.
_BASIS_TRIES = 1000
_COVER_TRIES = 200
_BASES_CAP = 200_000


class SearchBudgetError(RuntimeError):
    """A rejection sampler ran out of retries."""


def _guard_power(p: int, n: int) -> None:
    """Reject p^n above the cap before any n-sized object is built."""
    if n * math.log2(p) > math.log2(order_cap()) + 1e-9:
        check_order(order_cap() + 1, f"group Z{p}^{n}")


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


def example_C(p: int, i: int) -> GroupSet:
    """Block set C_i over ``Z_p^{2^i}``: nonzero vectors with exactly one
    all-zero half; cardinality ``2(p^{2^(i-1)} - 1)``."""
    p, i = int(p), int(i)
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if i < 1:
        raise ValueError(f"block level must be >= 1, got {i}")
    _warn_p2(p)
    _guard_power(p, 2**i)
    return GroupSet.from_mask(vector_space_spec(p, 2**i), _half_zero_mask(p, i))


def example_A(p: int, k: int, i: int) -> GroupSet:
    """Family member A_i over ``Z_p^{2^k}``: the nonzero-coordinate cube for
    i = 0, else the ``2^(k-i)``-fold blockwise product of C_i."""
    p, k, i = int(p), int(k), int(i)
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if not 0 <= i <= k:
        raise ValueError(f"family index must be in [0, {k}], got {i}")
    n = 2**k
    _guard_power(p, n)
    check_order(p**n, f"group Z{p}^{n}")
    if i == 0:
        return _punctured_product(p, 0, k)
    _warn_p2(p)
    mask = _kron_doublings(_half_zero_mask(p, i), k - i)
    return GroupSet.from_mask(vector_space_spec(p, n), mask)


@dataclass(frozen=True)
class Example1Family:
    """The sets A_0..A_k of the half-zero family over ``Z_p^{2^k}``."""

    p: int
    k: int
    n: int
    spec: GroupSpec
    sets: tuple[GroupSet, ...]


def example1_family(p: int, k: int) -> Example1Family:
    if int(k) < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = 2 ** int(k)
    sets = tuple(example_A(p, k, i) for i in range(int(k) + 1))
    return Example1Family(int(p), int(k), n, sets[0].group, sets)


@dataclass
class Example1Report(Report):
    """All property checks for one half-zero family instance."""

    p: int
    k: int
    n: int
    order: int
    p2_degenerate: bool
    cards: list[int] = field(default_factory=list)
    expected_cards: list[int] = field(default_factory=list)
    cards_ok: bool = True
    block_checks: list[dict] = field(default_factory=list)
    self_sum_checks: list[dict] = field(default_factory=list)
    chain: list[dict] = field(default_factory=list)
    chain_ok: bool = True
    final_card: int = 0
    final_misses_group: bool = False
    passed: bool = False
    notes: list[str] = field(default_factory=list)


_WITNESS_LIMIT = 64


def verify_example1(p: int, k: int) -> Example1Report:
    """Materialize the family and check every claimed identity at desk scale.

    Checked per instance: the cardinality formulas, ``C_i + C_i`` covering
    ``Z_p^{2^i}``, ``A_i + A_i`` covering the group for i >= 1, the chain
    ``A_0 + ... + A_j`` equaling the punctured product set (hence its
    cardinality ``(p^{2^j} - 1)^{2^(k-j)}``), and the full chain still
    missing the group.
    """
    p, k = int(p), int(k)
    with warnings.catch_warnings():
        if p == 2:
            warnings.simplefilter("ignore")
        fam = example1_family(p, k)
        blocks = [example_C(p, i) for i in range(1, k + 1)]
    spec = fam.spec
    n = fam.n
    report = Example1Report(p=p, k=k, n=n, order=spec.order, p2_degenerate=(p == 2))
    if p == 2:
        report.notes.append(
            "p=2 is degenerate: C_1 + C_1 = {00, 11} misses Z_2^2, so the"
            " doubling and chain identities fail as stated"
        )

    report.expected_cards = [(p - 1) ** n] + [
        (2 * (p ** (2 ** (i - 1)) - 1)) ** (2 ** (k - i)) for i in range(1, k + 1)
    ]
    report.cards = [a.card for a in fam.sets]
    report.cards_ok = report.cards == report.expected_cards

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
        report.block_checks.append(entry)

    for i in range(1, k + 1):
        asum = sumset(fam.sets[i], fam.sets[i])
        report.self_sum_checks.append(
            {"i": i, "self_sum_card": asum.card, "self_sum_covers": is_cover(asum)}
        )

    prefix = fam.sets[0]
    for j in range(k + 1):
        if j > 0:
            prefix = sumset(prefix, fam.sets[j])
        expected_card = (p ** (2**j) - 1) ** (2 ** (k - j))
        expected_set = _punctured_product(p, j, k)
        entry = {
            "j": j,
            "card": prefix.card,
            "expected_card": expected_card,
            "card_ok": prefix.card == expected_card,
            "set_ok": prefix.bits == expected_set.bits,
        }
        report.chain.append(entry)
    report.chain_ok = all(e["card_ok"] and e["set_ok"] for e in report.chain)
    report.final_card = prefix.card
    report.final_misses_group = prefix.card != spec.order

    report.passed = (
        report.cards_ok
        and all(e["self_sum_covers"] for e in report.block_checks)
        and all(e["self_sum_covers"] for e in report.self_sum_checks)
        and report.chain_ok
        and report.final_misses_group
    )
    return report


def _punctured_product(p: int, j: int, k: int) -> GroupSet:
    """``(Z_p^{2^j} \\ {0})^{2^(k-j)}`` embedded blockwise in ``Z_p^{2^k}``."""
    mask = _kron_doublings(~_zero(p, 2**j), k - j)
    return GroupSet.from_mask(vector_space_spec(p, 2**k), mask)


# ---------------------------------------------------------------------------
# Bases of Z_p^n


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Row rank over Z_p by Gaussian elimination."""
    mat = [list(int(x) % p for x in row) for row in rows]
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


class SingularRowsError(ValueError):
    """The rows of a would-be basis are linearly dependent over Z_p."""


@dataclass(frozen=True)
class BasisMatrix:
    """n independent row vectors over Z_p."""

    p: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        rows = tuple(tuple(int(x) % self.p for x in row) for row in self.rows)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError(f"expected {self.n} rows of length {self.n}")
        if rank_mod_p(rows, self.p) != self.n:
            raise SingularRowsError(f"rows are not linearly independent over Z_{self.p}")
        object.__setattr__(self, "rows", rows)

    def to_multiset(self) -> ElementMultiset:
        spec = vector_space_spec(self.p, self.n)
        return ElementMultiset.from_coords(spec, self.rows)


def standard_basis_matrix(p: int, n: int) -> BasisMatrix:
    """The n unit vectors of Z_p^n as the rows of the identity matrix."""
    rows = tuple(
        tuple(1 if j == i else 0 for j in range(int(n))) for i in range(int(n))
    )
    return BasisMatrix(int(p), int(n), rows)


def standard_basis(p: int, n: int) -> ElementMultiset:
    """The n unit vectors of Z_p^n."""
    return standard_basis_matrix(p, n).to_multiset()


def random_basis_matrix(p: int, n: int, seed: int) -> BasisMatrix:
    """A uniformly-ish random basis: resample the n x n matrix until it is
    invertible mod p (expected O(1) retries, at most ``_BASIS_TRIES``).  Each draw is ranked once, by
    ``BasisMatrix`` itself, which rejects a singular draw."""
    p, n = int(p), int(n)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    rng = random.Random(seed)
    for _ in range(_BASIS_TRIES):
        rows = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        try:
            return BasisMatrix(p, n, rows)
        except SingularRowsError:
            continue
    raise SearchBudgetError(f"no invertible {n}x{n} matrix mod {p} in {_BASIS_TRIES} draws")


def random_basis(p: int, n: int, seed: int) -> ElementMultiset:
    """Rows of a seeded random invertible matrix over Z_p, as a multiset."""
    return random_basis_matrix(p, n, seed).to_multiset()


def enumerate_bases(p: int, n: int) -> list[tuple[tuple[int, ...], ...]] | None:
    """All unordered bases of Z_p^n as sorted row tuples, or None when the
    candidate pool ``C(p^n - 1, n)`` exceeds ``_BASES_CAP``."""
    p, n = int(p), int(n)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    nonzero = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    if math.comb(len(nonzero), n) > _BASES_CAP:
        return None
    out = []
    for combo in itertools.combinations(nonzero, n):
        if rank_mod_p(combo, p) == n:
            out.append(combo)
    return out


# ---------------------------------------------------------------------------
# Random covering sets


def random_set(spec: GroupSpec, size: int, rng: random.Random) -> GroupSet:
    """A uniformly random subset with exactly ``size`` elements.

    The drawn indices are in range by construction, so they are marked in a
    bool array and packed, in time linear in the order, without the
    per-element validation of ``GroupSet.from_indices``.  Any group with an
    ``order`` works; ``sl2.random_sl2_set`` builds through here too.
    """
    if not 0 <= size <= spec.order:
        raise ValueError(f"size {size} out of range [0, {spec.order}]")
    mask = np.zeros(spec.order, dtype=bool)
    mask[rng.sample(range(spec.order), size)] = True
    return GroupSet.from_mask(spec, mask)


def random_cover_set(spec: GroupSpec, m: int, target_density: float, seed: int) -> GroupSet:
    """A seeded random set A of ``ceil(density * order)`` elements with
    ``m_fold(A, m)`` covering the group, found by rejection sampling.

    Raises SearchBudgetError when all ``_COVER_TRIES`` draws fail, which
    signals that the density is too low for the requested m on this group.
    """
    if int(m) < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < target_density <= 1.0:
        raise ValueError(f"target density must be in (0, 1], got {target_density}")
    size = math.ceil(target_density * spec.order)
    rng = random.Random(seed)
    for _ in range(_COVER_TRIES):
        a = random_set(spec, size, rng)
        if is_cover(m_fold(a, m)):
            return a
    raise SearchBudgetError(
        f"no {size}-element subset of {spec} with {m}-fold sumset covering the group "
        f"in {_COVER_TRIES} draws; density {target_density} is likely too low"
    )
