"""Finite Abelian groups as products of cyclic factors.

A group is a list of cyclic moduli ``Z_d1 x ... x Z_dr``; an element is an
integer index in ``[0, d1*...*dr)`` whose little-endian mixed-radix digits
are the coordinates (first factor least significant).  The factor list is
kept exactly as the user wrote it -- ``Z6xZ10`` is not rewritten into
invariant-factor form.

Every integer parameter of the library -- counts, sizes, dimensions,
primes, indices and coordinates -- enters through ``as_int`` and the two
checkers beside it, ``at_least`` and ``as_prime``: any integer type is
taken, numpy integers included, and floats, bools and strings are refused
with a ``ValueError`` rather than truncated.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .config import check_order, check_powers

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
        factors = tuple(at_least(d, 2, "cyclic factor") for d in self.factors)
        if not factors:
            raise ValueError("a group needs at least one cyclic factor")
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
    terms = []
    for m in _TERM_RE.finditer(text):
        d = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        if d < 2:
            raise ValueError(f"cyclic factor must be >= 2, got Z{d} in {text!r}")
        if e < 1:
            raise ValueError(f"exponent must be >= 1, got ^{e} in {text!r}")
        terms.append((d, e))
    check_powers(terms, f"group {text}")  # before any factor list is built
    return GroupSpec(tuple(d for d, e in terms for _ in range(e)))


def as_int(x, what: str, where: object = None) -> int:
    """``x`` as a plain int: any integer type, numpy integers included.
    Floats, bools and strings are refused with a ``ValueError`` that names
    ``x`` (and ``where`` it was given, when that is not None)."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    at = "" if where is None else f" for {where}"
    raise ValueError(f"{what} {x!r}{at} is not an integer")


def at_least(x, lo: int, what: str) -> int:
    """``x`` under the rule of ``as_int``, refused when below ``lo``."""
    n = as_int(x, what)
    if n < lo:
        raise ValueError(f"{what} must be >= {lo}, got {n}")
    return n


def as_prime(p) -> int:
    """``p`` under the rule of ``as_int``, refused unless it is prime (and,
    through ``is_prime``, when it is at or above ``_PRIME_LIMIT``)."""
    p = as_int(p, "p")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p


def check_index(spec: GroupSpec, x: int) -> int:
    """``x`` as a plain int in ``[0, order)``, under the rule of ``as_int``."""
    index = as_int(x, "element index", spec)
    if not 0 <= index < spec.order:
        raise ValueError(f"element index {index} out of range [0, {spec.order}) for {spec}")
    return index


def encode(spec: GroupSpec, coords: Iterable[int]) -> int:
    """Map coordinates to the element index (little-endian mixed radix)."""
    coords = tuple(coords)
    if len(coords) != len(spec.factors):
        raise ValueError(
            f"expected {len(spec.factors)} coordinates for {spec}, got {len(coords)}"
        )
    x = 0
    for c, d, w in zip(coords, spec.factors, spec.weights):
        c = as_int(c, "coordinate", spec)
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


# Miller-Rabin to these bases, the first 13 primes, decides every n below
# _PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime: trial division by the bases, then a
    deterministic Miller-Rabin test.  ``n`` at or above ``_PRIME_LIMIT`` is
    refused: above it no proof covers these bases."""
    n = as_int(n, "n")
    if n >= _PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {_PRIME_LIMIT}, got {n}")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vector_space_spec(p: int, n: int) -> GroupSpec:
    """The group ``Z_p^n`` (p need not be prime here; callers enforce that).
    The order cap is checked before any factor list is built."""
    p, n = as_int(p, "cyclic factor"), at_least(n, 1, "dimension")
    check_powers([(p, n)], f"group Z{p}^{n}")
    return GroupSpec((p,) * n)
