"""Dense subsets of a finite group, the JSON set codec, the prefix-chain
walker of both covering theorems, and the Abelian sumset kernel.

A set is an immutable Python-int bitmask over element indices (bit i set
iff element i is a member), so unions and translates run word-parallel on
CPython's big-int limbs.  Its group is a ``GroupSpec`` or an ``SL2Group``.
Only this module knows the layout: sets are packed from bool arrays over
the indices (``GroupSet.from_mask``, linear in the order) and read back as
ascending index arrays (``GroupSet.index_array``).  ``sumset`` returns G at
once when ``|A| + |B| > |G|`` (pigeonhole); otherwise it iterates the
members of the smaller operand and ORs whole-set translates of the larger
one.  A translate walks the element's index digits, least significant
first: each nonzero digit is a shift/mask pass along its axis, and the walk
stops after the last nonzero digit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .groups import GroupSpec, as_int, at_least, check_index, decode

if TYPE_CHECKING:
    from .sl2 import SL2Group

    Group = GroupSpec | SL2Group

# Per-spec translate-mask bytes kept around before falling back to
# on-the-fly construction.
_MASK_CACHE_BYTES = 32 << 20


class SpecMismatchError(ValueError):
    """Operands live over different group specs."""


def _bit_indices(bits: int, nbytes: int) -> np.ndarray:
    """Ascending indices of the set bits of an ``nbytes``-byte bitmask."""
    raw = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def _bits_from_bool(mask: np.ndarray) -> int:
    """The bitmask whose bit i is ``mask[i]``; the inverse of ``_bit_indices``."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


class _Axis:
    __slots__ = ("width", "modulus", "block", "nblocks", "replicator")

    def __init__(self, width: int, modulus: int, order: int) -> None:
        self.width = width
        self.modulus = modulus
        self.block = width * modulus
        self.nblocks = order // self.block
        # Ones at every block base; low-mask for j bits is ((1<<j)-1)*replicator.
        if self.nblocks == 1:
            self.replicator = 1
        else:
            self.replicator = ((1 << order) - 1) // ((1 << self.block) - 1)


class _Kernel:
    """Per-spec constants for the translate kernel, cached by spec."""

    __slots__ = ("order", "nbytes", "full", "axes", "_masks", "_mask_bytes")

    def __init__(self, spec: GroupSpec) -> None:
        self.order = spec.order
        self.nbytes = (spec.order + 7) >> 3
        self.full = (1 << spec.order) - 1
        self.axes = tuple(
            _Axis(w, d, spec.order) for w, d in zip(spec.weights, spec.factors)
        )
        self._masks: dict[tuple[int, int], int] = {}
        self._mask_bytes = 0

    def _rep_mask(self, axis_i: int, nbits: int) -> int:
        key = (axis_i, nbits)
        mask = self._masks.get(key)
        if mask is None:
            mask = ((1 << nbits) - 1) * self.axes[axis_i].replicator
            if self._mask_bytes + (self.order >> 3) <= _MASK_CACHE_BYTES:
                self._masks[key] = mask
                self._mask_bytes += self.order >> 3
        return mask

    def _shift(self, bits: int, i: int, t: int) -> int:
        """Rotate every block of axis ``i`` by ``t`` steps of that axis."""
        ax = self.axes[i]
        up = t * ax.width
        down = ax.block - up
        if ax.nblocks == 1:
            return ((bits & ((1 << down) - 1)) << up) | (bits >> down)
        return ((bits & self._rep_mask(i, down)) << up) | (
            (bits >> down) & self._rep_mask(i, up)
        )

    def translate(self, bits: int, g: int) -> int:
        """Rotate the bitmask by element ``g``: bit(x) moves to bit(x + g).

        ``g`` must be in ``[0, order)``; it is not validated.  Its
        little-endian mixed-radix digits are the per-axis shifts, peeled
        off one axis at a time until the rest of ``g`` is 0.
        """
        for i, ax in enumerate(self.axes):
            if not g:
                break
            g, t = divmod(g, ax.modulus)
            if t:
                bits = self._shift(bits, i, t)
        return bits

    def translate_coords(self, bits: int, coords: Sequence[int]) -> int:
        """``translate`` by the element whose coordinates are ``coords``."""
        for i, t in enumerate(coords):
            if t:
                bits = self._shift(bits, i, t)
        return bits


def _abelian(spec) -> GroupSpec:
    """``spec`` itself, once it is known to be an Abelian ``GroupSpec``."""
    if not isinstance(spec, GroupSpec):
        kind = type(spec).__name__
        raise ValueError(f"expected sets over an Abelian GroupSpec, got sets over {kind} {spec}")
    return spec


@lru_cache(maxsize=256)
def _kernel(spec: GroupSpec) -> _Kernel:
    """The translate kernel of an Abelian ``spec``; every Abelian set
    operation reaches it first, so sets over any other group are refused
    here, once per miss of the cache."""
    return _Kernel(_abelian(spec))


@dataclass(frozen=True)
class GroupSet:
    """An immutable bit-indexed subset of a finite group's elements.

    ``group`` is a ``GroupSpec`` or an ``SL2Group``: any object with
    ``order``, an ``identity`` index, ``index(coords)`` and its inverse
    ``element(i)``.  An element's coordinates are its mixed-radix digits in
    a ``GroupSpec`` and its matrix entries ``(a, b, c, d)`` in SL2.
    """

    group: Group
    bits: int
    card: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.group.order:
            raise ValueError(f"bitmask has bits outside [0, {self.group.order})")
        object.__setattr__(self, "card", self.bits.bit_count())

    @property
    def spec(self) -> Group:
        """Alias of ``group``."""
        return self.group

    @classmethod
    def empty(cls, group: Group) -> GroupSet:
        return cls(group, 0)

    @classmethod
    def full(cls, group: Group) -> GroupSet:
        return cls(group, (1 << group.order) - 1)

    @classmethod
    def identity(cls, group: Group) -> GroupSet:
        return cls(group, 1 << group.identity)

    @classmethod
    def from_mask(cls, group: Group, mask: np.ndarray) -> GroupSet:
        """The set of the i with ``mask[i]`` true; ``mask`` has length ``order``."""
        if len(mask) != group.order:
            raise ValueError(f"mask has length {len(mask)}, expected {group.order}")
        return cls(group, _bits_from_bool(mask))

    @classmethod
    def from_indices(cls, group: Group, indices: Iterable[int]) -> GroupSet:
        """The set of the given indices, each validated, in one packing pass."""
        mask = np.zeros(group.order, dtype=bool)
        mask[[check_index(group, x) for x in indices]] = True
        return cls.from_mask(group, mask)

    @classmethod
    def from_coords(cls, group: Group, coords: Iterable[Sequence[int]]) -> GroupSet:
        return cls.from_indices(group, (group.index(c) for c in coords))

    def index_array(self) -> np.ndarray:
        """The member indices as an ascending integer array."""
        return _bit_indices(self.bits, (self.group.order + 7) >> 3)

    def indices(self) -> list[int]:
        return self.index_array().tolist()

    def coords(self) -> list[tuple[int, ...]]:
        return [self.group.element(x) for x in self.indices()]

    def __contains__(self, x: int) -> bool:
        x = as_int(x, "element index", self.group)  # refuses bools, floats and strings
        return 0 <= x < self.group.order and bool((self.bits >> x) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __len__(self) -> int:
        return self.card

    def __repr__(self) -> str:
        return f"GroupSet({self.group}, card={self.card})"


@dataclass(frozen=True)
class ElementMultiset:
    """A multiset of group elements as (index, multiplicity) entries."""

    spec: GroupSpec
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _abelian(self.spec)  # subset_sums and is_additive_basis need the factors
        merged: dict[int, int] = {}
        for x, mult in self.entries:
            x = check_index(self.spec, x)
            mult = as_int(mult, "multiplicity", f"index {x}")
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult} for index {x}")
            merged[x] = merged.get(x, 0) + mult
        object.__setattr__(self, "entries", tuple(sorted(merged.items())))

    @classmethod
    def from_indices(cls, spec: GroupSpec, indices: Iterable[int]) -> ElementMultiset:
        return cls(spec, tuple((x, 1) for x in indices))

    def expand(self) -> list[int]:
        out: list[int] = []
        for x, mult in self.entries:
            out.extend([x] * mult)
        return out


def _same_spec(a: Group, b: Group) -> None:
    if a != b:
        raise SpecMismatchError(f"operands live over different groups: {a} vs {b}")


def _prefix_chain(
    family: Sequence[GroupSet],
    blocks: int,
    op: Callable[[GroupSet, GroupSet], GroupSet],
    hypothesis: Callable[[GroupSet], bool],
    hypothesis_ok: list[bool] | None,
    step: Callable[[int, int, int], tuple[float, bool]],
) -> tuple[list[GroupSet], list[bool], list[dict], list[GroupSet], bool]:
    """Walk the prefix chain that both covering theorems run.

    The family is cut into ``blocks`` blocks of equal length, and each
    block is folded left to right with ``op`` (``sumset`` or
    ``product_set``).  At every step ``step(order, prev, card)`` gives the
    display bound and whether the claimed growth from a prefix of card
    ``prev`` to one of card ``card`` holds; the growth is claimed only at
    steps whose set meets the hypothesis.  ``hypothesis_ok`` holds the
    per-set verdicts when the caller already knows them; ``None`` tests
    every set with ``hypothesis``.

    Returns the family as a list, the verdicts, one dict per block
    (``prefix_cards``, ``steps``, ``final_card``), the block products, and
    whether every claimed step holds.
    """
    family = list(family)
    if not family:
        raise ValueError("family must be nonempty")
    if len(family) % blocks:
        need = "even (2K sets)" if blocks == 2 else f"divisible by {blocks}"
        raise ValueError(f"family length must be {need}, got {len(family)}")
    group = family[0].group
    for a in family:
        _same_spec(group, a.group)
        if a.card == 0:
            raise ValueError("family sets must be nonempty")
    if hypothesis_ok is None:
        hypothesis_ok = [hypothesis(a) for a in family]
    k = len(family) // blocks
    chain: list[dict] = []
    products: list[GroupSet] = []
    for start in range(0, len(family), k):
        prefix = family[start]
        cards = [prefix.card]
        steps: list[dict] = []
        for i in range(start + 1, start + k):
            prev = prefix.card
            prefix = op(prefix, family[i])
            bound, holds = step(group.order, prev, prefix.card)
            steps.append(
                {
                    "index": i,
                    "bound": bound,
                    "card": prefix.card,
                    "claimed": hypothesis_ok[i],
                    "holds": holds,
                }
            )
            cards.append(prefix.card)
        chain.append({"prefix_cards": cards, "steps": steps, "final_card": prefix.card})
        products.append(prefix)
    chain_ok = all(s["holds"] for b in chain for s in b["steps"] if s["claimed"])
    return family, hypothesis_ok, chain, products, chain_ok


def translate(a: GroupSet, g: int) -> GroupSet:
    """The translate ``{x + g : x in A}``; cardinality is preserved."""
    return GroupSet(a.group, _kernel(a.group).translate(a.bits, check_index(a.group, g)))


def _sum_bits(spec: GroupSpec, xbits: int, ybits: int) -> int:
    if xbits == 0 or ybits == 0:
        return 0
    xcard = xbits.bit_count()
    ycard = ybits.bit_count()
    kern = _kernel(spec)
    if xcard + ycard > kern.order:
        return kern.full  # pigeonhole: A meets g - B for every g
    if xcard > ycard:
        xbits, ybits = ybits, xbits
    acc = 0
    for g in _bit_indices(xbits, kern.nbytes).tolist():
        acc |= kern.translate(ybits, g)
        if acc == kern.full:
            break
    return acc


def sumset(a: GroupSet, b: GroupSet) -> GroupSet:
    """The sumset ``{x + y : x in A, y in B}``; empty if either input is.

    When ``|A| + |B| > |G|`` the result is G with no kernel pass: by
    pigeonhole, A and g - B meet for every g.
    """
    _same_spec(a.group, b.group)
    return GroupSet(a.group, _sum_bits(a.group, a.bits, b.bits))


def m_fold(a: GroupSet, m: int) -> GroupSet:
    """The m-fold sumset ``A + ... + A`` (m copies) by binary doubling.

    ``m == 0`` gives the identity singleton; the computation exits early
    with the full group as soon as an intermediate covers it, since the
    full group is absorbing under sumsets with nonempty sets.
    """
    m = at_least(m, 0, "fold count")
    spec = a.group
    if m == 0:
        return GroupSet.identity(spec)
    if m == 1 or a.card == 0:
        return a
    full = _kernel(spec).full
    result = 0
    base = a.bits
    while True:
        if m & 1:
            result = base if result == 0 else _sum_bits(spec, result, base)
            if result == full:
                return GroupSet.full(spec)
        m >>= 1
        if not m:
            return GroupSet(spec, result)
        base = _sum_bits(spec, base, base)
        if base == full:
            # At least one doubling remains to be folded in, and G absorbs.
            return GroupSet.full(spec)


def subset_sums(b: ElementMultiset) -> GroupSet:
    """The subset-sum closure: all sums over sub-multisets of B.

    Folds ``S <- S | (S + x)`` over every copy of every entry, starting
    from the identity (the empty sum); the result is fold-order
    independent.
    """
    spec = b.spec
    return GroupSet(spec, _subset_sum_bits(spec, ((decode(spec, x), m) for x, m in b.entries)))


def _subset_sum_bits(spec: GroupSpec, steps: Iterable[tuple[Sequence[int], int]]) -> int:
    """The bitmask of the subset-sum closure of ``mult`` copies of each
    ``(coords, mult)`` step, for callers that hold coordinate tuples.

    The coordinates are not validated: each must be in range for its
    factor, as ``decode`` returns them.
    """
    kern = _kernel(spec)
    bits = 1
    for coords, mult in steps:
        for _ in range(mult):
            new = bits | kern.translate_coords(bits, coords)
            if new == bits:
                break  # fixpoint: further copies of this step cannot add elements
            bits = new
            if bits == kern.full:
                return bits
    return bits


def is_cover(a: GroupSet) -> bool:
    """True iff the set is the whole group."""
    return a.card == a.group.order


def set_to_json(a: GroupSet, form: str = "bitmask") -> dict:
    """Serialize a set to the interchange dict (see ``set_from_json``)."""
    if form == "bitmask":
        return {"bitmask_hex": a.bits.to_bytes((a.group.order + 7) >> 3, "little").hex()}
    if form == "elements":
        return {"elements": [list(c) for c in a.coords()]}
    raise ValueError(f"unknown set serialization form {form!r}")


def set_from_json(group: Group, payload: dict) -> GroupSet:
    """Parse a set from either interchange form.

    ``{"elements": [[c1,...,cr], ...]}`` lists coordinate tuples (for SL2,
    ``[a, b, c, d]`` rows); ``{"bitmask_hex": "..."}`` is the little-endian
    membership bitmask (bit i of byte i//8 <=> element index i), exactly
    ceil(order/8) bytes.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"set payload must be an object, got {type(payload).__name__}")
    has_elems = "elements" in payload
    has_mask = "bitmask_hex" in payload
    if has_elems == has_mask:
        raise ValueError("set payload needs exactly one of 'elements' or 'bitmask_hex'")
    if has_elems:
        elems = payload["elements"]
        if not isinstance(elems, list):
            raise ValueError("'elements' must be a list of coordinate tuples")
        mask = np.zeros(group.order, dtype=bool)
        for c in elems:
            try:
                x = group.index(c)
                reduced = group.element(x)
                if reduced != tuple(c):
                    raise ValueError(f"entries out of range; reduced form is {reduced}")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad element {c!r} for {group}: {exc}") from exc
            mask[x] = True
        return GroupSet.from_mask(group, mask)
    raw = payload["bitmask_hex"]
    if not isinstance(raw, str):
        raise ValueError("'bitmask_hex' must be a hex string")
    try:
        data = bytes.fromhex(raw)
    except ValueError as exc:
        raise ValueError(f"bad bitmask hex: {exc}") from exc
    nbytes = (group.order + 7) >> 3
    if len(data) != nbytes:
        raise ValueError(
            f"bitmask length mismatch: got {len(data)} bytes, expected {nbytes} for {group}"
        )
    bits = int.from_bytes(data, "little")
    if bits >> group.order:
        raise ValueError(f"bitmask has bits set beyond the group order {group.order}")
    return GroupSet(group, bits)
