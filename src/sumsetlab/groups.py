"""Finite Abelian groups as products of cyclic factors.

A group is a list of cyclic moduli ``Z_d1 x ... x Z_dr``; an element is an
integer index in ``[0, d1*...*dr)`` whose little-endian mixed-radix digits
are the coordinates (first factor least significant).  The factor list is
kept exactly as the user wrote it -- ``Z6xZ10`` is not rewritten into
invariant-factor form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .config import check_order, order_cap

_SPEC_RE = re.compile(r"[Zz]\d+(?:\^\d+)?(?:[Xx][Zz]\d+(?:\^\d+)?)*")
_TERM_RE = re.compile(r"[Zz](\d+)(?:\^(\d+))?")


def _format_factors(factors: Sequence[int]) -> str:
    parts: list[str] = []
    i = 0
    while i < len(factors):
        j = i
        while j < len(factors) and factors[j] == factors[i]:
            j += 1
        run = j - i
        parts.append(f"Z{factors[i]}" if run == 1 else f"Z{factors[i]}^{run}")
        i = j
    return "x".join(parts)


@dataclass(frozen=True)
class GroupSpec:
    """A finite Abelian group ``Z_d1 x ... x Z_dr`` with indexed elements.

    Element ``x`` in ``[0, order)`` has coordinates ``(c_1, ..., c_r)`` with
    ``x = c_1 + c_2*d_1 + c_3*d_1*d_2 + ...`` (c_1 least significant).  The
    identity is index 0.
    """

    identity = 0

    factors: tuple[int, ...]
    order: int = field(init=False, compare=False, repr=False)
    weights: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        factors = tuple(int(d) for d in self.factors)
        if not factors:
            raise ValueError("a group needs at least one cyclic factor")
        for d in factors:
            if d < 2:
                raise ValueError(f"cyclic factor must be >= 2, got {d}")
        weights = []
        order = 1
        for d in factors:
            weights.append(order)
            order *= d
        check_order(order, f"group {_format_factors(factors)}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "weights", tuple(weights))

    @property
    def rank(self) -> int:
        return len(self.factors)

    def index(self, coords: Iterable[int]) -> int:
        return encode(self, coords)

    def element(self, x: int) -> tuple[int, ...]:
        return decode(self, x)

    def __str__(self) -> str:
        return _format_factors(self.factors)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec string like ``Z5``, ``Z3^4`` or ``Z6xZ10``.

    Grammar: ``spec := term ('x' term)*``, ``term := 'Z' int ('^' int)?``,
    decimal ints, no whitespace, case-insensitive ``Z`` and ``x``.
    """
    if not isinstance(text, str) or not _SPEC_RE.fullmatch(text):
        raise ValueError(
            f"bad group spec {text!r}; expected e.g. 'Z5', 'Z3^4' or 'Z6xZ10'"
        )
    factors: list[int] = []
    log2_order = 0.0
    cap_bits = math.log2(order_cap())
    for m in _TERM_RE.finditer(text):
        d = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        if d < 2:
            raise ValueError(f"cyclic factor must be >= 2, got Z{d} in {text!r}")
        if e < 1:
            raise ValueError(f"exponent must be >= 1, got ^{e} in {text!r}")
        # Refuse absurd exponents before materializing the factor list.
        log2_order += e * math.log2(d)
        if log2_order > cap_bits + 1e-9:
            check_order(order_cap() + 1, f"group {text}")
        factors.extend([d] * e)
    return GroupSpec(tuple(factors))


def check_index(spec: GroupSpec, x: int) -> int:
    x = int(x)
    if not 0 <= x < spec.order:
        raise ValueError(f"element index {x} out of range [0, {spec.order}) for {spec}")
    return x


def encode(spec: GroupSpec, coords: Iterable[int]) -> int:
    """Map coordinates to the element index (little-endian mixed radix)."""
    coords = tuple(coords)
    if len(coords) != len(spec.factors):
        raise ValueError(
            f"expected {len(spec.factors)} coordinates for {spec}, got {len(coords)}"
        )
    x = 0
    for c, d, w in zip(coords, spec.factors, spec.weights):
        c = int(c)
        if not 0 <= c < d:
            raise ValueError(f"coordinate {c} out of range [0, {d}) in {coords}")
        x += c * w
    return x


def decode(spec: GroupSpec, x: int) -> tuple[int, ...]:
    """Map an element index to its coordinate tuple."""
    x = check_index(spec, x)
    coords = []
    for d in spec.factors:
        x, c = divmod(x, d)
        coords.append(c)
    return tuple(coords)


def add(spec: GroupSpec, x: int, y: int) -> int:
    """Coordinatewise addition modulo each factor."""
    xc = decode(spec, x)
    yc = decode(spec, y)
    return sum(((a + b) % d) * w for a, b, d, w in zip(xc, yc, spec.factors, spec.weights))


def neg(spec: GroupSpec, x: int) -> int:
    """Coordinatewise negation; ``add(spec, x, neg(spec, x)) == 0``."""
    xc = decode(spec, x)
    return sum(((-a) % d) * w for a, d, w in zip(xc, spec.factors, spec.weights))


def is_prime(n: int) -> bool:
    n = int(n)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def vector_space_spec(p: int, n: int) -> GroupSpec:
    """The group ``Z_p^n`` (p need not be prime here; callers enforce that)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return GroupSpec((int(p),) * int(n))
