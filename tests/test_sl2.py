import math
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    integer_theorem4_k,
    naive_sl2_elements,
    naive_sl2_inverse,
    naive_sl2_mul,
    naive_sl2_product_set,
    naive_sl2_representations,
)
from sumsetlab import sl2
from sumsetlab.sl2 import (
    SL2Group,
    SL2Set,
    check_gowers,
    check_ruzsa,
    gowers_trials,
    inverse_set,
    product_set,
    quasirandom_info,
    remark12,
    ruzsa_trials,
    sample_hypothesis_set,
    sl2_group,
    theorem4_bound,
    theorem4_trials,
    verify_theorem4,
)
from sumsetlab.config import OrderCapError
from sumsetlab.constructions import SearchBudgetError, random_set
from sumsetlab.groups import parse_group_spec
from sumsetlab.abelian import check_plunnecke, verify_theorem1
from sumsetlab.setops import (
    ElementMultiset,
    GroupSet,
    is_cover,
    m_fold,
    set_from_json,
    set_to_json,
    subset_sums,
    sumset,
    translate,
)


# ---------------------------------------------------------------------------
# Group enumeration and tables


@pytest.mark.parametrize("p,order", [(2, 6), (3, 24), (5, 120), (7, 336), (11, 1320)])
def test_enumeration_count(p, order):
    g = sl2_group(p)
    assert g.order == order == p**3 - p
    assert len(g.elements) == order


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_enumeration_matches_naive(p):
    g = sl2_group(p)
    assert g.elements == sorted(naive_sl2_elements(p))
    for i, e in enumerate(g.elements):
        assert g.index(e) == i
        assert g.inv[i] == g.index(naive_sl2_inverse(p, e))


def test_elements_lexicographic_and_unimodular():
    g = sl2_group(7)
    assert g.elements == sorted(g.elements)
    for a, b, c, d in g.elements:
        assert (a * d - b * c) % 7 == 1


def test_identity_and_inverse_table():
    for p in (2, 3, 5):
        g = sl2_group(p)
        assert g.elements[g.identity] == (1, 0, 0, 1)
        for i in range(g.order):
            assert g.mul(i, int(g.inv[i])) == g.identity
            assert g.mul(int(g.inv[i]), i) == g.identity


def test_mul_matches_naive():
    g = sl2_group(7)
    rng = random.Random(0)
    for _ in range(200):
        i, j = rng.randrange(g.order), rng.randrange(g.order)
        expect = naive_sl2_mul(7, g.elements[i], g.elements[j])
        assert g.elements[g.mul(i, j)] == expect


def test_associativity_random():
    g = sl2_group(5)
    rng = random.Random(1)
    for _ in range(200):
        i, j, k = (rng.randrange(g.order) for _ in range(3))
        assert g.mul(g.mul(i, j), k) == g.mul(i, g.mul(j, k))


@pytest.mark.parametrize("p", [5, 7])
def test_table_matches_naive_exhaustive(p):
    g = sl2_group(p)
    els = g.elements
    every = np.arange(g.order)
    got = [[els[k] for k in row] for row in g.product_indices(every, every).tolist()]
    assert got == [[naive_sl2_mul(p, x, y) for y in els] for x in els]


def test_mul_without_table_matches_naive():
    g = sl2_group(17)
    rng = random.Random(9)
    for _ in range(200):
        i, j = rng.randrange(g.order), rng.randrange(g.order)
        assert g.elements[g.mul(i, j)] == naive_sl2_mul(17, g.elements[i], g.elements[j])


def test_sl2_group_rejects_non_prime():
    with pytest.raises(ValueError):
        sl2_group(9)


def test_group_build_memory_bounded():
    """The build holds a few index arrays: no table of p^4 entries (4p
    times the order) outlives it, and at p = 47 no list of element tuples
    (about 81 bytes per element) is built until ``elements`` is read."""
    for p, peak_bytes, held_per_element in [(13, 1 << 20, 200), (47, 30 << 20, 64)]:
        tracemalloc.start()
        try:
            g = SL2Group(p)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= peak_bytes
        assert held <= held_per_element * g.order


def test_group_equality_and_index():
    g = sl2_group(5)
    assert g == sl2_group(5)
    assert g != sl2_group(7)
    assert g.index((1, 0, 0, 1)) == g.identity
    assert g.index((6, 5, 5, 6)) == g.index((1, 0, 0, 1))  # entries reduced mod p
    for mat in [(1, 0, 0, 2), (2, 1, 1, 2), (0, 0, 3, 4), (0, 0, 0, 0)]:
        with pytest.raises(ValueError, match="determinant"):
            g.index(mat)
    with pytest.raises(ValueError, match="4 matrix entries"):
        g.index((1, 0, 0))


@pytest.mark.parametrize("x", [1.5, 1.0, True, "1"], ids=repr)
def test_index_refuses_non_integer_entries(x):
    """An entry is taken as an integer or refused by name, never truncated."""
    g = sl2_group(5)
    msg = f"matrix entry {x!r} for {g!r} is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        g.index([x, 0, 0, 1])
    assert g.index([np.int64(1), 0, 0, np.int32(6)]) == g.identity


# ---------------------------------------------------------------------------
# Sets and product operations


def test_sl2_set_basics():
    g = sl2_group(3)
    s = SL2Set.from_indices(g, [0, 5, 23])
    assert s.card == len(s) == 3
    assert list(s) == [0, 5, 23]
    assert 5 in s and 6 not in s
    assert SL2Set.full(g).card == 24
    assert SL2Set.empty(g).card == 0
    assert SL2Set.identity(g).coords() == [(1, 0, 0, 1)]
    with pytest.raises(ValueError):
        SL2Set.from_indices(g, [24])
    with pytest.raises(ValueError):
        SL2Set(g, 1 << 24)
    with pytest.raises(ValueError):
        SL2Set.from_coords(g, [(1, 1, 1, 1)])


def test_product_set_examples():
    g = sl2_group(3)
    full = SL2Set.full(g)
    ident = SL2Set.identity(g)
    rng = random.Random(2)
    a = SL2Set.from_indices(g, rng.sample(range(24), 7))
    assert product_set(a, ident) == a
    assert product_set(ident, a) == a
    assert inverse_set(inverse_set(a)) == a
    assert product_set(full, full) == full and product_set(full, full).card == 24
    assert product_set(a, SL2Set.empty(g)).card == 0


def test_product_set_matches_naive():
    g = sl2_group(3)
    rng = random.Random(3)
    for _ in range(25):
        xs = SL2Set.from_indices(g, rng.sample(range(24), rng.randint(1, 12)))
        ys = SL2Set.from_indices(g, rng.sample(range(24), rng.randint(1, 12)))
        got = frozenset(product_set(xs, ys).coords())
        assert got == naive_sl2_product_set(3, xs.coords(), ys.coords())


def test_product_set_no_table_path():
    g = sl2_group(17)
    assert g.table is None
    rng = random.Random(4)
    xs = SL2Set.from_indices(g, rng.sample(range(g.order), 40))
    ys = SL2Set.from_indices(g, rng.sample(range(g.order), 40))
    got = frozenset(product_set(xs, ys).coords())
    assert got == naive_sl2_product_set(17, xs.coords(), ys.coords())
    inv = inverse_set(xs)
    assert frozenset(inv.coords()) == frozenset(
        (d, (-b) % 17, (-c) % 17, a) for a, b, c, d in xs.coords()
    )


def _sized_sl2_set(g, size, seed):
    return SL2Set.from_indices(g, random.Random(seed).sample(range(g.order), size))


def _operand(g, data, max_random):
    kind = data.draw(st.sampled_from(["empty", "singleton", "full", "random"]))
    if kind == "empty":
        return SL2Set.empty(g)
    if kind == "full":
        return SL2Set.full(g)
    if kind == "singleton":
        return SL2Set.from_indices(g, [data.draw(st.integers(0, g.order - 1))])
    size = data.draw(st.integers(2, max_random))
    return _sized_sl2_set(g, size, data.draw(st.integers(0, 2**32)))


@pytest.mark.parametrize("p,max_random", [(5, 120), (17, 40)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_product_set_differential(p, max_random, data):
    """Product sets at p=5 and p=17 against the naive oracle, with blocks
    of a few columns so that the block loop and its early exit run."""
    g = sl2_group(p)
    x = _operand(g, data, max_random)
    y = _operand(g, data, max_random)
    assume(x.card * y.card <= 200_000)  # keeps the naive oracle fast
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sl2, "_CHUNK_CELLS", data.draw(st.sampled_from([1, 64, 1000])))
        got = product_set(x, y)
    assert frozenset(got.coords()) == naive_sl2_product_set(p, x.coords(), y.coords())


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@settings(max_examples=25, deadline=None)
@given(offset=st.sampled_from([-1, 0, 1]), data=st.data())
def test_product_set_at_pigeonhole_boundary(p, offset, data):
    """|X| + |Y| is N - 1, N or N + 1: up to N the row kernel runs, above
    it the result is G without one."""
    g = sl2_group(p)
    total = g.order + offset
    card_x = data.draw(st.integers(max(1, total - g.order), min(g.order, total - 1)))
    x = _sized_sl2_set(g, card_x, data.draw(st.integers(0, 2**32)))
    y = _sized_sl2_set(g, total - card_x, data.draw(st.integers(0, 2**32)))
    got = product_set(x, y)
    assert frozenset(got.coords()) == naive_sl2_product_set(p, x.coords(), y.coords())
    if offset > 0:
        assert is_cover(got)


def test_product_set_pigeonhole_equality_not_forced():
    """|H| + |H| = |G| leaves H H = H for A3 in SL2(Z_2), which is S3."""
    g = sl2_group(2)
    h = SL2Set.from_coords(g, [(1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)])
    assert product_set(h, h) == h


def _count_blocks(monkeypatch):
    """Record the (rows, columns) shape of every block of keys that
    ``_key_blocks`` yields, and the number of kernel runs (calls)."""
    blocks, runs = [], []
    key_blocks = sl2._key_blocks

    def counted(g, ix, iy, cells):
        runs.append(cells)
        for keys in key_blocks(g, ix, iy, cells):
            blocks.append(keys.shape)
            yield keys

    monkeypatch.setattr(sl2, "_key_blocks", counted)
    return blocks, runs


def test_product_set_pigeonhole_skips_kernel(monkeypatch):
    g = sl2_group(7)
    blocks, _ = _count_blocks(monkeypatch)
    x = _sized_sl2_set(g, 168, 1)
    assert product_set(x, _sized_sl2_set(g, 169, 2)) == SL2Set.full(g)
    assert product_set(_sized_sl2_set(g, 1, 3), SL2Set.full(g)) == SL2Set.full(g)
    assert blocks == []
    product_set(x, _sized_sl2_set(g, 168, 2))
    assert blocks


def test_pigeonhole_lemma_sl2_exhaustive():
    """|X| + |Y| > |G| forces XY = G, for every pair of subsets of
    SL2(Z_2), checked with the naive oracle alone."""
    elems = naive_sl2_elements(2)
    n = len(elems)
    subsets = [[e for i, e in enumerate(elems) if mask >> i & 1] for mask in range(1 << n)]
    pairs = 0
    for xs in subsets:
        for ys in subsets:
            if len(xs) + len(ys) > n:
                assert naive_sl2_product_set(2, xs, ys) == frozenset(elems)
                pairs += 1
    # |X| + |Y| = n for comb(2n, n) pairs; half of the rest lie above n.
    assert pairs == (4**n - math.comb(2 * n, n)) // 2


def test_product_set_no_table_exits_when_full(monkeypatch):
    g = sl2_group(17)
    rng = random.Random(10)
    x = SL2Set.from_indices(g, rng.sample(range(g.order), 600))
    y = SL2Set.from_indices(g, rng.sample(range(g.order), 600))
    monkeypatch.setattr(sl2, "_CHUNK_CELLS", 600 * 10)  # 10 columns a block
    blocks, _ = _count_blocks(monkeypatch)
    assert is_cover(product_set(x, y))
    assert set(blocks) == {(600, 10)}
    assert 1 < len(blocks) < 60


def test_product_set_exits_early_at_default_chunk(monkeypatch):
    g = sl2_group(17)
    rng = random.Random(12)
    x = SL2Set.from_indices(g, rng.sample(range(g.order), 1500))
    y = SL2Set.from_indices(g, rng.sample(range(g.order), 1500))
    blocks, _ = _count_blocks(monkeypatch)
    assert is_cover(product_set(x, y))
    keyed = sum(rows * cols for rows, cols in blocks)
    assert keyed < 1500 * 1500 / 4  # the loop stops once XY = G


def test_covering_product_fills_few_rows(monkeypatch):
    """A covering product images rows only for the blocks of Y it keys.
    X uses every row here (2|X| >= p^2), so each block images all p^2 rows
    for each of its columns."""
    g = sl2_group(17)
    rng = random.Random(12)
    x = SL2Set.from_indices(g, rng.sample(range(g.order), 1500))
    y = SL2Set.from_indices(g, rng.sample(range(g.order), 1500))
    blocks, _ = _count_blocks(monkeypatch)
    assert is_cover(product_set(x, y))
    assert 2 * x.card >= g.p**2
    filled = g.p**2 * sum(cols for _, cols in blocks)
    assert filled < g.p**2 * y.card / 4


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("compact", [True, False], ids=["rows_of_x", "every_row"])
def test_product_indices_both_sides_of_compaction(p, compact, monkeypatch):
    """Products match the matrix products whether only the rows X uses are
    imaged (2|X| < p^2) or all p^2 rows are, over several blocks of Y."""
    g = sl2_group(p)
    n = (p * p - 1) // 2 if compact else (p * p + 1) // 2
    assert (2 * n < p * p) == compact
    rng = random.Random(p)
    ix = np.array(rng.sample(range(g.order), n))
    iy = np.array(rng.sample(range(g.order), 25))
    monkeypatch.setattr(sl2, "_CHUNK_CELLS", 7 * n)  # blocks of 7 columns
    els = g.elements
    got = [[els[k] for k in row] for row in g.product_indices(ix, iy).tolist()]
    assert got == [[naive_sl2_mul(p, els[i], els[j]) for j in iy] for i in ix]
    x, y = SL2Set.from_indices(g, ix.tolist()), SL2Set.from_indices(g, iy.tolist())
    assert frozenset(product_set(x, y).coords()) == naive_sl2_product_set(p, x.coords(), y.coords())


@pytest.mark.parametrize("nx,ny", [(0, 5), (5, 0), (0, 0)])
def test_product_indices_empty_operands(nx, ny):
    g = sl2_group(7)
    got = g.product_indices(np.arange(nx), np.arange(ny))
    assert got.shape == (nx, ny)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_product_and_count_memory_bounded_by_the_block():
    """Scratch memory is bounded by the block, not by p^2 * |Y|: the peak
    stays under the p^4 mark array, plus 32 bytes a block cell, plus 16
    bytes a group element."""
    g = sl2_group(17)
    rng = random.Random(12)
    x, y = (SL2Set.from_indices(g, rng.sample(range(g.order), 1500)) for _ in range(2))
    out, peak = _peak_bytes(lambda: product_set(x, y))
    assert is_cover(out)
    assert peak < g.p**4 + 32 * sl2._CHUNK_CELLS + 16 * g.order

    g = sl2_group(47)
    rng = random.Random(0)
    a, b, c = (SL2Set.from_indices(g, rng.sample(range(g.order), 45)) for _ in range(3))
    r, peak = _peak_bytes(lambda: check_ruzsa(a, b, c))
    assert r.count_checked and r.card_ab_inv * r.card_bc_inv > 3_000_000
    cells = max(sl2._CHUNK_CELLS, sl2._COUNT_CELLS)
    assert peak < g.p**4 + 32 * cells + 16 * g.order


def test_product_set_not_commutative():
    g = sl2_group(5)
    x = SL2Set.from_coords(g, [(1, 1, 0, 1)])
    y = SL2Set.from_coords(g, [(1, 0, 1, 1)])
    assert product_set(x, y) != product_set(y, x)


def test_product_set_group_mismatch():
    with pytest.raises(ValueError):
        product_set(SL2Set.full(sl2_group(3)), SL2Set.full(sl2_group(5)))


# ---------------------------------------------------------------------------
# Ruzsa triangle inequality


def test_ruzsa_full_sets_equality():
    g = sl2_group(3)
    full = SL2Set.full(g)
    r = check_ruzsa(full, full, full)
    assert r.card_ac_inv == 24 and r.rhs == pytest.approx(24.0)
    assert r.inequality_ok and r.passed
    assert r.count_checked and r.min_representations == 24 and r.count_ok


def test_ruzsa_singletons():
    g = sl2_group(5)
    rng = random.Random(5)
    sets = [SL2Set.from_indices(g, [rng.randrange(g.order)]) for _ in range(3)]
    r = check_ruzsa(*sets)
    assert r.card_ac_inv == 1 and r.rhs == pytest.approx(1.0)
    assert r.passed and r.min_representations == 1


def test_ruzsa_empty_b_rejected():
    g = sl2_group(3)
    full = SL2Set.full(g)
    with pytest.raises(ValueError):
        check_ruzsa(full, SL2Set.empty(g), full)


@pytest.mark.parametrize("p", [3, 5])
def test_ruzsa_seeded_trials(p):
    reports = ruzsa_trials(p, 200, seed=0)
    assert all(r.passed for r in reports)
    assert all(r.inequality_ok for r in reports)
    if p == 3:
        # small enough that the representation count is always verified
        assert all(r.count_checked for r in reports)
        assert all(r.count_ok for r in reports)


@pytest.mark.parametrize("chunk_cells", [1, 64, sl2._CHUNK_CELLS])
def test_ruzsa_representation_count_without_table(chunk_cells, monkeypatch):
    g = sl2_group(17)
    rng = random.Random(11)
    a, b, c = (SL2Set.from_indices(g, rng.sample(range(g.order), 12)) for _ in range(3))
    inverses = []
    inverse = sl2.inverse_set

    def counted_inverse(s):
        inverses.append(s)
        return inverse(s)

    monkeypatch.setattr(sl2, "_CHUNK_CELLS", chunk_cells)
    monkeypatch.setattr(sl2, "_COUNT_CELLS", chunk_cells)
    _, runs = _count_blocks(monkeypatch)
    monkeypatch.setattr(sl2, "inverse_set", counted_inverse)
    r = check_ruzsa(a, b, c)
    assert len(runs) == 4  # AC^-1, AB^-1, BC^-1, then once for the count
    assert inverses == [c, b]  # C^-1 is built once for AC^-1 and BC^-1

    def inv(s):
        return [(d, -bb % 17, -cc % 17, aa) for aa, bb, cc, d in s.coords()]

    ab = naive_sl2_product_set(17, a.coords(), inv(b))
    bc = naive_sl2_product_set(17, b.coords(), inv(c))
    reps = Counter(naive_sl2_mul(17, x, y) for x in ab for y in bc)
    ac = naive_sl2_product_set(17, a.coords(), inv(c))
    assert r.count_checked and r.min_representations == min(reps[z] for z in ac)


# Each branch of the count: Y at most half of G (Y enumerated), Y more than
# half (its complement enumerated), Y = G (nothing enumerated), X = G, and
# singletons.
_SIDES = {
    "single": lambda n: (1, 1),
    "sparse": lambda n: (2, n // 2),
    "dense": lambda n: (n // 2 + 1, n - 1),
    "full": lambda n: (n, n),
}
_COUNT_CASES = [
    ("sparse", "sparse"),
    ("sparse", "dense"),
    ("dense", "dense"),
    ("sparse", "full"),
    ("full", "sparse"),
    ("full", "dense"),
    ("single", "single"),
    ("dense", "single"),
]


@st.composite
def _sized(draw, g, lo, hi):
    """A random subset of ``g`` with ``lo`` to ``hi`` elements."""
    size = draw(st.integers(lo, hi))
    return _sized_sl2_set(g, size, draw(st.integers(0, 2**32)))


def _sl2_subset(g, side):
    return _sized(g, *_SIDES[side](g.order))


@pytest.mark.parametrize("x_side,y_side", _COUNT_CASES)
@pytest.mark.parametrize("p", [5, 7])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_min_representations_matches_naive(p, x_side, y_side, data):
    g = sl2_group(p)
    x = data.draw(_sl2_subset(g, x_side), label="X")
    y = data.draw(_sl2_subset(g, y_side), label="Y")
    targets = data.draw(_sl2_subset(g, data.draw(st.sampled_from(list(_SIDES)))), label="Z")
    cells = data.draw(st.sampled_from([1, 64, sl2._COUNT_CELLS]), label="block cells")
    reps = naive_sl2_representations(p, x.coords(), y.coords())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sl2, "_COUNT_CELLS", cells)
        kernels = _count_kernels(mp)
        got = sl2._min_representations(x, y, targets)
    assert got == min(reps[z] for z in targets.coords())
    if "full" in (x_side, y_side):
        assert kernels == []  # X = G or Y = G: every r(z) is |Y| or |X|


def _count_kernels(monkeypatch):
    """Record the name of every count kernel that runs."""
    runs = []
    for name in ("_fibre_counts", "_target_counts"):
        kernel = getattr(sl2, name)

        def counted(*args, kernel=kernel, name=name):
            runs.append(name)
            return kernel(*args)

        monkeypatch.setattr(sl2, name, counted)
    return runs


def _count_lines(monkeypatch):
    """Record the shape of every block of line indices that
    ``_line_blocks`` yields."""
    blocks = []
    line_blocks = sl2._line_blocks

    def counted(g, iy, step):
        for cells in line_blocks(g, iy, step):
            blocks.append(cells.shape)
            yield cells

    monkeypatch.setattr(sl2, "_line_blocks", counted)
    return blocks


def _both_counts(x, side, targets):
    """Both kernels' counts |X ∩ zS^-1|, in the order of ``targets``."""
    g = x.group
    fibre = sl2._fibre_counts(g, x, side, targets)
    target = sl2._target_counts(g, x, side, targets)
    assert fibre.tolist() == target.tolist()
    return fibre.tolist()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fibre_counts_match_naive(p, data):
    """The fibre kernel, the target kernel and the naive count agree on
    every target, at every block size, on both sides of the cost rule."""
    g = sl2_group(p)
    small = min(g.order, 60)  # keeps the naive count small at p = 11
    x = data.draw(_sized(g, 1, small), label="X")
    side = data.draw(_sized(g, 1, min(small, g.order // 2)), label="S")
    targets = data.draw(_sized(g, 1, g.order), label="Z")
    cells = data.draw(st.sampled_from([1, 64, sl2._COUNT_CELLS]), label="block cells")
    reps = naive_sl2_representations(p, x.coords(), side.coords())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sl2, "_COUNT_CELLS", cells)
        assert _both_counts(x, side, targets) == [reps[z] for z in targets.coords()]


@pytest.mark.parametrize("cells", [1, 64, sl2._COUNT_CELLS])
def test_fibre_counts_on_first_rows_starting_with_zero(cells, monkeypatch):
    """Targets whose first row is (0, b), so t = d, with an X that holds
    every such element, against a side that maps many of them back."""
    g = sl2_group(7)
    zero_first = list(range(g.p * (g.p - 1)))  # a = 0 sorts first
    assert all(g.element(i)[0] == 0 for i in zero_first)
    x = SL2Set.from_indices(g, zero_first + random.Random(1).sample(range(42, g.order), 20))
    side = _sized_sl2_set(g, 50, 2)
    targets = SL2Set.from_indices(g, zero_first)
    monkeypatch.setattr(sl2, "_COUNT_CELLS", cells)
    reps = naive_sl2_representations(7, x.coords(), side.coords())
    assert _both_counts(x, side, targets) == [reps[z] for z in targets.coords()]


@pytest.mark.parametrize("cells", [1, 64, sl2._COUNT_CELLS, 1 << 30])
def test_fibre_counts_above_a_byte(cells, monkeypatch):
    """r(z) > 255 for every target, so a byte lane that overflowed within a
    block, or carried into its neighbour, would show; 1 << 30 cells puts
    the largest block, 255 rows, into every lane."""
    g = sl2_group(11)
    e = 5
    x = SL2Set.from_indices(g, [i for i in range(g.order) if i != e])  # X = G minus e
    side = _sized_sl2_set(g, 300, 3)
    targets = SL2Set.full(g)
    monkeypatch.setattr(sl2, "_COUNT_CELLS", cells)
    missed = {naive_sl2_mul(11, g.element(e), s) for s in side.coords()}  # z with e in zS^-1
    want = [side.card - (z in missed) for z in targets.coords()]
    assert min(want) == 299 and max(want) == 300
    assert _both_counts(x, side, targets) == want


@pytest.mark.parametrize("p", [11, 13])
def test_dense_targets_run_the_fibre_kernel(p, monkeypatch):
    """Dense targets against a large side take the fibres, sparse ones the
    per-target keys, and both give the naive minimum."""
    g = sl2_group(p)
    x, y = _sized_sl2_set(g, 60, 4), _sized_sl2_set(g, 200, 5)
    reps = naive_sl2_representations(p, x.coords(), y.coords())
    runs = _count_kernels(monkeypatch)
    for size, kernel in [(g.order, "_fibre_counts"), (p * p, "_target_counts")]:
        targets = _sized_sl2_set(g, size, 6)
        assert sl2._min_representations(x, y, targets) == min(reps[z] for z in targets.coords())
        assert runs.pop() == kernel and runs == []


def test_ruzsa_count_forms_one_line_per_fibre_and_column(monkeypatch):
    """On three 40-element sets at p = 13 the count forms (p^2 - 1)|S| line
    indices and keys only the p + 1 line products, not |Z| * |S| keys."""
    g = sl2_group(13)
    rng = random.Random(0)
    a, b, c = (SL2Set.from_indices(g, rng.sample(range(g.order), 40)) for _ in range(3))
    keys, _ = _count_blocks(monkeypatch)
    lines = _count_lines(monkeypatch)
    r = check_ruzsa(a, b, c)
    assert r.count_checked
    side = min(r.card_bc_inv, g.order - r.card_bc_inv)
    assert sum(n * f for n, f in lines) == (g.p**2 - 1) * side < r.card_ac_inv * side / 6
    assert {f for _, f in lines} == {g.p**2 - 1}
    assert keys[3:] == [(g.p + 1, side)]  # after AC^-1, AB^-1 and BC^-1


def test_ruzsa_representation_count_complement_branch_p11():
    g = sl2_group(11)
    rng = random.Random(3)
    a, b, c = (SL2Set.from_indices(g, rng.sample(range(g.order), 35)) for _ in range(3))
    r = check_ruzsa(a, b, c)

    def inv(s):
        return [naive_sl2_inverse(11, x) for x in s.coords()]

    ab = naive_sl2_product_set(11, a.coords(), inv(b))
    bc = naive_sl2_product_set(11, b.coords(), inv(c))
    ac = naive_sl2_product_set(11, a.coords(), inv(c))
    assert 2 * len(bc) > g.order  # Y^c is the enumerated side
    reps = naive_sl2_representations(11, ab, bc)
    assert r.count_checked and r.min_representations == min(reps[z] for z in ac)
    assert (r.card_ab_inv, r.card_bc_inv, r.card_ac_inv) == (len(ab), len(bc), len(ac))


def test_ruzsa_representation_count_memory_bounded():
    g = sl2_group(13)
    rng = random.Random(0)
    a, b, c = (SL2Set.from_indices(g, rng.sample(range(g.order), 40)) for _ in range(3))
    tracemalloc.start()
    try:
        r = check_ruzsa(a, b, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.count_checked
    assert peak < 4 << 20


@pytest.mark.parametrize(
    "entry",
    [
        lambda s: product_set(s, s),
        inverse_set,
        lambda s: check_ruzsa(s, s, s),
        lambda s: check_gowers(s, s, s),
        lambda s: verify_theorem4([s, s, s]),
    ],
    ids=["product_set", "inverse_set", "check_ruzsa", "check_gowers", "verify_theorem4"],
)
def test_sl2_entry_points_refuse_abelian_sets(entry):
    s = GroupSet.from_indices(parse_group_spec("Z6xZ10"), [1, 2, 7])
    with pytest.raises(ValueError, match="GroupSpec"):
        entry(s)


@pytest.mark.parametrize(
    "entry",
    [
        lambda s: sumset(s, s),
        lambda s: m_fold(s, 2),
        lambda s: translate(s, 3),
        lambda s: check_plunnecke(s, s, 2),
        lambda s: verify_theorem1([s, s], 2),
        lambda s: subset_sums(ElementMultiset.from_indices(s.group, [1, 2, 7])),
    ],
    ids=["sumset", "m_fold", "translate", "check_plunnecke", "verify_theorem1", "subset_sums"],
)
def test_abelian_entry_points_refuse_sl2_sets(entry):
    s = GroupSet.from_indices(sl2_group(5), [1, 2, 7])
    with pytest.raises(ValueError, match=r"SL2Group SL2Group\(p=5"):
        entry(s)


@pytest.mark.parametrize(
    "make",
    [
        lambda g: ElementMultiset.from_indices(g, [1, 2]),
        lambda g: ElementMultiset.from_coords(g, [(1, 0, 0, 1)]),
        lambda g: ElementMultiset(g, ()),
    ],
    ids=["from_indices", "from_coords", "empty"],
)
def test_element_multiset_refuses_sl2_groups(make):
    """Multisets need an Abelian group's factors for their coordinates."""
    msg = r"expected sets over an Abelian GroupSpec, got sets over SL2Group SL2Group\(p=5"
    with pytest.raises(ValueError, match=msg):
        make(sl2_group(5))


@pytest.mark.parametrize("i", [-1, 120])
def test_element_refuses_indices_outside_the_group(i):
    g = sl2_group(5)
    with pytest.raises(ValueError, match=r"out of range \[0, 120\)"):
        g.element(i)
    assert g.element(119) == g.elements[119]


# ---------------------------------------------------------------------------
# Quasirandomness and the Gowers check


def test_quasirandom_info_values():
    info = quasirandom_info(7)
    assert info.D == 3 and info.delta == pytest.approx(0.18886, abs=1e-4)
    info5 = quasirandom_info(5)
    assert info5.D == 2 and info5.delta == pytest.approx(0.14478, abs=1e-4)
    info3 = quasirandom_info(3)
    assert info3.D == 1 and info3.delta == 0.0
    with pytest.raises(ValueError):
        quasirandom_info(2)
    with pytest.raises(ValueError):
        quasirandom_info(6)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_quasirandom_power_identity(p):
    info = quasirandom_info(p)
    assert info.order**info.delta == pytest.approx(info.D, rel=1e-9)


def test_gowers_full_sets():
    g = sl2_group(5)
    full = SL2Set.full(g)
    r = check_gowers(full, full, full)
    assert r.premise_met and r.covers and r.passed


def test_gowers_size_96_covers():
    reports = gowers_trials(5, 96, 20, seed=0)
    assert all(r.premise_met for r in reports)
    assert all(r.covers and r.passed for r in reports)


def test_gowers_size_90_no_claim():
    g = sl2_group(5)
    rng = random.Random(6)
    sets = [SL2Set.from_indices(g, rng.sample(range(120), 90)) for _ in range(3)]
    r = check_gowers(*sets)
    assert not r.premise_met  # 90^3 * 2 = 1458000 <= 120^3
    assert r.passed
    assert r.product_card > 0  # measured coverage still reported


def test_gowers_premise_boundary_is_strict():
    g = sl2_group(5)
    full = SL2Set.full(g)
    rng = random.Random(7)
    half = SL2Set.from_indices(g, rng.sample(range(120), 60))
    r = check_gowers(full, full, half)  # 120*120*60*2 == 120^3 exactly
    assert not r.premise_met


def test_gowers_requires_p5():
    g = sl2_group(3)
    full = SL2Set.full(g)
    with pytest.raises(ValueError):
        check_gowers(full, full, full)


def test_theorem4_bound_values():
    assert theorem4_bound(quasirandom_info(7).delta) == 4
    assert theorem4_bound(quasirandom_info(5).delta) == 5
    assert theorem4_bound(quasirandom_info(11).delta) == 4
    assert theorem4_bound(quasirandom_info(13).delta) == 4
    assert theorem4_bound(3.0) == 1
    with pytest.raises(ValueError):
        theorem4_bound(0.0)
    with pytest.raises(ValueError):
        theorem4_bound(-1.0)


def test_theorem4_bound_matches_integer_oracle():
    """The plain floor of log2(3/delta), plus one, is the least K with
    D^(2^K) > N^3 at every prime 5 <= p < 2000."""
    primes = [p for p in range(5, 2000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    assert len(primes) == 301
    for p in primes:
        info = quasirandom_info(p)
        assert theorem4_bound(info.delta) == integer_theorem4_k(info.D, info.order), p


_BIG_PRIME = 1_000_000_000_000_000_003


@pytest.mark.parametrize(
    "call",
    [lambda: SL2Group(_BIG_PRIME), lambda: sl2_group(_BIG_PRIME),
     lambda: remark12(_BIG_PRIME, trials=0)],
    ids=["SL2Group", "sl2_group", "remark12"],
)
def test_order_cap_checked_before_primality(call):
    """p^3 - p is tested against the cap before the primality test."""
    with pytest.raises(OrderCapError, match="SL2 group order"):
        call()


def test_small_p_errors_unchanged():
    for p in (1, 4, 6, 9):
        with pytest.raises(ValueError, match=f"^p must be prime, got {p}$"):
            SL2Group(p)
        with pytest.raises(ValueError, match=f"^p must be prime, got {p}$"):
            remark12(p, trials=0)
    with pytest.raises(ValueError, match="p must be >= 3"):
        quasirandom_info(2)


# ---------------------------------------------------------------------------
# verify_theorem4 and the twelve-set consequence


def test_meets_floor_exact_matches_guarded_float():
    """card^3 * D >= N^3 agrees with the guarded float floor N^(1 - delta/3)
    for every prime 5-59 and every block size 0..N."""
    primes = [p for p in range(5, 60) if all(p % q for q in range(2, p))]
    cases = 0
    for p in primes:
        info = quasirandom_info(p)
        n = info.order
        cards = np.arange(n + 1, dtype=np.int64)
        guarded = cards >= n ** (1.0 - info.delta / 3.0) * (1.0 - 1e-9)
        assert np.array_equal(sl2._meets_floor(cards, n, info.D), guarded)
        assert sl2._meets_floor(n, n, info.D) and not sl2._meets_floor(0, n, info.D)
        cases += len(cards)
    assert cases == 738_855


def test_theorem4_full_sets():
    g = sl2_group(5)
    rep = verify_theorem4([SL2Set.full(g)] * 3)
    assert rep.passed and rep.final_cover and rep.chain_ok
    assert rep.K == 1


def test_theorem4_seeded_families():
    reports = theorem4_trials(7, 5, seed=0)
    for rep in reports:
        assert rep.K == 4 and len(rep.family_cards) == 12
        assert all(rep.hypothesis_ok)
        assert rep.gowers_premise_met
        assert all(s["holds"] for b in rep.blocks for s in b["steps"])
        assert all(b["first_sqrt_ok"] and b["meets_floor"] for b in rep.blocks)
        assert rep.passed


@pytest.mark.parametrize("p", [7, 13])
def test_theorem4_trials_match_public_verifier(p, monkeypatch):
    """The runner hands the chain its sampler's verdicts; the reports are
    the ones the public verifier gives after testing every set itself."""
    chain = sl2._theorem4_chain
    handed = []

    def recording_chain(family, hypothesis_ok):
        if hypothesis_ok is not None:
            handed.append(list(family))
        return chain(family, hypothesis_ok)

    monkeypatch.setattr(sl2, "_theorem4_chain", recording_chain)
    reports = theorem4_trials(p, 2, seed=3)
    assert len(handed) == len(reports) == 2
    for rep, family in zip(reports, handed):
        assert rep.to_dict() == verify_theorem4(family).to_dict()
        assert rep.passed


def test_theorem4_hypothesis_gate():
    g = sl2_group(5)
    full = SL2Set.full(g)
    tiny = SL2Set.identity(g)
    rep = verify_theorem4([full, tiny, full])
    assert rep.hypothesis_ok == [True, False, True]
    assert not rep.passed


def test_theorem4_unclaimed_failing_step_ignored():
    g = sl2_group(5)
    full = SL2Set.full(g)
    almost = SL2Set.from_indices(g, range(1, g.order))
    rep = verify_theorem4([almost, SL2Set.identity(g), full, full, full, full])
    assert rep.hypothesis_ok == [True, False, True, True, True, True]
    step = rep.blocks[0]["steps"][0]
    assert not step["claimed"] and not step["holds"]
    assert not rep.passed
    # the failed-hypothesis step is not claimed, so chain_ok ignores it
    assert rep.chain_ok


def test_theorem4_claimed_failing_step_fails_chain():
    g = sl2_group(5)
    full, tiny = SL2Set.full(g), SL2Set.identity(g)
    rep = sl2._theorem4_chain([tiny, tiny, full, full, full, full], [True] * 6)
    step = rep.blocks[0]["steps"][0]
    assert step["claimed"] and not step["holds"]
    assert not rep.chain_ok


def test_theorem4_report_key_order():
    rep = verify_theorem4([SL2Set.full(sl2_group(5))] * 6).to_dict()
    for block in rep["blocks"]:
        assert list(block) == [
            "first_sqrt_ok", "prefix_cards", "steps", "final_card", "floor", "meets_floor"
        ]
        for step in block["steps"]:
            assert list(step) == ["index", "bound", "card", "claimed", "holds"]
    assert [s["index"] for block in rep["blocks"] for s in block["steps"]] == [1, 3, 5]


def test_theorem4_validation():
    g5 = sl2_group(5)
    full = SL2Set.full(g5)
    with pytest.raises(ValueError):
        verify_theorem4([full, full])  # not divisible by 3
    with pytest.raises(ValueError):
        verify_theorem4([])
    with pytest.raises(ValueError):
        verify_theorem4([SL2Set.full(sl2_group(3))] * 3)  # p < 5
    with pytest.raises(ValueError):
        verify_theorem4([full, full, SL2Set.empty(g5)])


def test_remark12_p7():
    rep = remark12(7, trials=3, seed=0)
    assert rep.applies and rep.K == 4 and rep.n_sets == 12
    assert rep.trials_passed == [True, True, True]
    assert rep.passed


def test_remark12_p11_bound_only():
    rep = remark12(11, trials=1, seed=0)
    assert rep.applies and rep.K == 4
    assert rep.delta == pytest.approx(0.2240, abs=1e-3)
    assert rep.passed


def test_remark12_rejects_negative_trials():
    """The trial count is checked whether or not the bound gives K = 4."""
    for p in (5, 7):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            remark12(p, trials=-1)


def test_remark12_p5_not_implied():
    rep = remark12(5, trials=3, seed=0)
    assert not rep.applies and rep.K == 5
    assert rep.trials == 0 and rep.trials_passed == []
    assert rep.passed


def test_remark12_small_p_rejected():
    with pytest.raises(ValueError):
        remark12(3)
    with pytest.raises(ValueError):
        remark12(2)


@pytest.mark.parametrize("p", [5, 17])
def test_random_sl2_set_matches_random_set(p):
    """SL2 sets are drawn by the one sampler, from the same generator state."""
    g = sl2_group(p)
    for seed in range(4):
        for size in (0, 1, g.order // 3, g.order):
            got = sl2.random_sl2_set(g, size, random.Random(seed))
            assert got == random_set(g, size, random.Random(seed)) and got.card == size


def test_sample_hypothesis_set():
    g = sl2_group(7)
    a = sample_hypothesis_set(g, random.Random(0))
    assert is_cover(product_set(a, inverse_set(a)))
    assert a == sample_hypothesis_set(g, random.Random(0))
    with pytest.raises(SearchBudgetError):
        sample_hypothesis_set(sl2_group(5), random.Random(0), density=0.01)


# ---------------------------------------------------------------------------
# JSON round trips


def test_sl2_json_round_trips():
    g = sl2_group(5)
    rng = random.Random(8)
    a = SL2Set.from_indices(g, rng.sample(range(120), 33))
    for form in ("elements", "bitmask"):
        assert set_from_json(g, set_to_json(a, form=form)) == a
    rows = set_to_json(a, form="elements")["elements"]
    assert set_from_json(g, {"elements": rows[::-1] + rows[:5]}) == a


def test_sl2_json_rejects_unreduced_entries():
    g = sl2_group(7)
    with pytest.raises(ValueError, match="out of range"):
        set_from_json(g, {"elements": [[8, 0, 0, 1]]})
    assert set_from_json(g, {"elements": [[1, 0, 0, 1]]}) == SL2Set.identity(g)


def test_sl2_json_errors():
    g = sl2_group(3)
    with pytest.raises(ValueError, match="exactly one"):
        set_from_json(g, {})
    with pytest.raises(ValueError, match="determinant"):
        set_from_json(g, {"elements": [[1, 1, 1, 1]]})
    with pytest.raises(ValueError, match="4 matrix entries"):
        set_from_json(g, {"elements": [[1, 0, 0]]})
    with pytest.raises(ValueError, match="length mismatch"):
        set_from_json(g, {"bitmask_hex": "00"})
