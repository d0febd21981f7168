"""Naive reference implementations, independent of the package internals.

Everything here works on coordinate tuples and plain Python sets so the
fast bitmask engine can be checked against code with no shared machinery.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import prod


def add_coords(factors, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, factors))


def all_coords(factors):
    return [tuple(reversed(c)) for c in product(*(range(d) for d in reversed(factors)))]


def naive_sumset(factors, a, b):
    return frozenset(add_coords(factors, x, y) for x in a for y in b)


def naive_translate(factors, a, g):
    return frozenset(add_coords(factors, x, g) for x in a)


def naive_m_fold(factors, a, m):
    order = prod(factors)
    acc = frozenset([tuple(0 for _ in factors)])
    for _ in range(m):
        acc = naive_sumset(factors, acc, a)
        if len(acc) == order:
            break  # acc is all of G, so A is nonempty and G + A = G
    return acc


def naive_subset_sums(factors, elems):
    """All 2^len(elems) submultiset sums, enumerated directly."""
    zero = tuple(0 for _ in factors)
    out = set()
    for bits in range(1 << len(elems)):
        s = zero
        for i, e in enumerate(elems):
            if (bits >> i) & 1:
                s = add_coords(factors, s, e)
        out.add(s)
    return frozenset(out)


def naive_sl2_mul(p, x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        (a1 * a2 + b1 * c2) % p,
        (a1 * b2 + b1 * d2) % p,
        (c1 * a2 + d1 * c2) % p,
        (c1 * b2 + d1 * d2) % p,
    )


def naive_sl2_product_set(p, xs, ys):
    return frozenset(naive_sl2_mul(p, x, y) for x in xs for y in ys)


def naive_sl2_inverse(p, x):
    a, b, c, d = x
    return (d, -b % p, -c % p, a)


def naive_sl2_representations(p, xs, ys):
    """How many pairs (x, y) in xs x ys have x * y = z, for every z."""
    return Counter(naive_sl2_mul(p, x, y) for x in xs for y in ys)


def naive_sl2_elements(p):
    return [
        (a, b, c, d)
        for a in range(p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
        if (a * d - b * c) % p == 1
    ]


def _blocks(v, width):
    return [v[s : s + width] for s in range(0, len(v), width)]


def naive_half_zero_block(p, i):
    """C_i: the nonzero vectors of Z_p^(2^i) with one all-zero half."""
    half = 2 ** (i - 1)
    return frozenset(
        v
        for v in product(range(p), repeat=2 * half)
        if any(v) and (not any(v[:half]) or not any(v[half:]))
    )


def naive_punctured_product(p, j, k):
    """The vectors of Z_p^(2^k) whose every block of 2^j axes is nonzero."""
    return frozenset(
        v for v in product(range(p), repeat=2**k) if all(any(b) for b in _blocks(v, 2**j))
    )


def naive_half_zero_member(p, k, i):
    """A_i over Z_p^(2^k): every coordinate nonzero for i = 0, else every
    block of 2^i axes in C_i."""
    if i == 0:
        return frozenset(product(range(1, p), repeat=2**k))
    block = naive_half_zero_block(p, i)
    return frozenset(
        v for v in product(range(p), repeat=2**k) if all(b in block for b in _blocks(v, 2**i))
    )
