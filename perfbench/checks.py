"""Independent checks of the package's outputs.

Nothing here calls the kernels it checks: Abelian sums are recomputed by
numpy coordinate addition over all pairs, SL2 products by multiplying 2x2
matrices mod p, and the pigeonhole pair count from a binomial formula.
Each check returns True or False; a False marks the operation failed.
"""

from __future__ import annotations

import math
import random

import numpy as np

_PAIR_BLOCK = 1 << 21  # coordinate cells per numpy block


def _coords(factors: tuple[int, ...], idx: np.ndarray) -> np.ndarray:
    weights = np.cumprod((1,) + factors[:-1])
    return (idx[:, None] // weights) % np.array(factors)


def _index(factors: tuple[int, ...], coords: np.ndarray) -> np.ndarray:
    return coords @ np.cumprod((1,) + factors[:-1])


def members(bits: int, order: int) -> np.ndarray:
    """Indices of the set bits of a little-endian membership bitmask."""
    raw = np.frombuffer(bits.to_bytes((order + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")[:order])


def pair_sums(factors: tuple[int, ...], xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sorted distinct indices of x + y over all pairs."""
    order = math.prod(factors)
    mod = np.array(factors)
    cy = _coords(factors, ys)
    hit = np.zeros(order, dtype=bool)
    step = max(1, _PAIR_BLOCK // max(1, len(ys) * len(factors)))
    for lo in range(0, len(xs), step):
        cx = _coords(factors, xs[lo : lo + step])
        hit[_index(factors, (cx[:, None, :] + cy[None, :, :]) % mod).ravel()] = True
    return np.flatnonzero(hit)


def m_fold_oracle(factors: tuple[int, ...], xs: np.ndarray, m: int) -> np.ndarray:
    out = xs
    for _ in range(m - 1):
        out = pair_sums(factors, out, xs)
    return out


def subset_sums_oracle(factors: tuple[int, ...], elements: list[int]) -> np.ndarray:
    out = np.array([0])
    for x in elements:
        out = np.union1d(out, pair_sums(factors, out, np.array([x])))
    return out


def same_members(bits: int, order: int, expected: np.ndarray) -> bool:
    return np.array_equal(members(bits, order), expected)


def pigeonhole_pairs(n: int) -> int:
    """s(s+1)/2 with s the number of subsets of Z_n larger than n/2."""
    s = sum(math.comb(n, k) for k in range(n // 2 + 1, n + 1))
    return s * (s + 1) // 2


# ---------------------------------------------------------------------------
# SL2


def _mat_products(p: int, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """Packed keys ((a*p+b)*p+c)*p+d of every product x*y, rows by columns."""
    a1, b1, c1, d1 = (ex[:, j, None] for j in range(4))
    a2, b2, c2, d2 = (ey[None, :, j] for j in range(4))
    a = (a1 * a2 + b1 * c2) % p
    b = (a1 * b2 + b1 * d2) % p
    c = (c1 * a2 + d1 * c2) % p
    d = (c1 * b2 + d1 * d2) % p
    return ((a * p + b) * p + c) * p + d


def sl2_products_ok(group, xs: list[int], ys: list[int], result_bits: int,
                    rng: random.Random, samples: int = 2000) -> bool:
    """Recompute X*Y by matrix multiplication: the result must have the
    same size as the set of all products, and every sampled product of a
    pair must be a member."""
    p = group.p
    mats = np.array(group.elements, dtype=np.int64)
    key_to_index = {((a * p + b) * p + c) * p + d: i for i, (a, b, c, d) in enumerate(group.elements)}
    ey = mats[ys]
    keys = np.zeros(p**4, dtype=bool)
    step = max(1, _PAIR_BLOCK // max(1, len(ys)))
    for lo in range(0, len(xs), step):
        keys[_mat_products(p, mats[xs[lo : lo + step]], ey).ravel()] = True
    if int(keys.sum()) != result_bits.bit_count():
        return False
    for _ in range(samples):
        x, y = rng.choice(xs), rng.choice(ys)
        key = int(_mat_products(p, mats[[x]], mats[[y]])[0, 0])
        if key not in key_to_index or not (result_bits >> key_to_index[key]) & 1:
            return False
    return True


def ruzsa_report_ok(r) -> bool:
    """|AC^-1| |B| <= |AB^-1| |BC^-1|, and the counting claim where checked."""
    return (r.passed and r.card_ac_inv * r.card_b <= r.card_ab_inv * r.card_bc_inv
            and (not r.count_checked or r.min_representations >= r.card_b))


def gowers_report_ok(r) -> bool:
    """Above the threshold |A||B||C| D > N^3 the triple product is all of G."""
    premise = r.card_a * r.card_b * r.card_c * r.D > r.order**3
    return r.passed and premise == r.premise_met and (not premise or r.product_card == r.order)


def theorem4_report_ok(r) -> bool:
    return r.passed and all(r.hypothesis_ok) and r.final_card == r.order


# ---------------------------------------------------------------------------
# Abelian trial reports


def theorem1_report_ok(r, order: int) -> bool:
    return r.passed and all(r.hypothesis_ok) and r.final_card == order


def plunnecke_report_ok(r) -> bool:
    """|kA| |B|^(k-1) <= |A+B|^k in integers."""
    return r.passed and r.lhs * r.card_b ** (r.k - 1) <= r.card_sum**r.k
