import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
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
from sumsetlab.constructions import SearchBudgetError
from sumsetlab.groups import parse_group_spec
from sumsetlab.setops import GroupSet, is_cover, set_from_json, set_to_json


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
    """Product sets at p=5 and p=17 against the naive oracle, with chunks
    of a few rows so that the chunk loop and its early exit run."""
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


def test_product_set_pigeonhole_skips_kernel(monkeypatch):
    g = sl2_group(7)
    calls = []
    row_action = SL2Group._row_action

    def counted(self, iy):
        calls.append(len(iy))
        return row_action(self, iy)

    monkeypatch.setattr(SL2Group, "_row_action", counted)
    x = _sized_sl2_set(g, 168, 1)
    assert product_set(x, _sized_sl2_set(g, 169, 2)) == SL2Set.full(g)
    assert product_set(_sized_sl2_set(g, 1, 3), SL2Set.full(g)) == SL2Set.full(g)
    assert calls == []
    product_set(x, _sized_sl2_set(g, 168, 2))
    assert calls


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


def _count_chunk_rows(monkeypatch):
    """Record the number of rows of X in each chunk that product_set keys."""
    rows = []
    chunks = sl2._RowAction.chunks

    def counted(self, ix):
        for keys in chunks(self, ix):
            rows.append(len(keys))
            yield keys

    monkeypatch.setattr(sl2._RowAction, "chunks", counted)
    return rows


def test_product_set_no_table_exits_when_full(monkeypatch):
    g = sl2_group(17)
    rng = random.Random(10)
    x = SL2Set.from_indices(g, rng.sample(range(g.order), 600))
    y = SL2Set.from_indices(g, rng.sample(range(g.order), 600))
    monkeypatch.setattr(sl2, "_CHUNK_CELLS", 600 * 10)  # 10 rows a chunk
    chunks = _count_chunk_rows(monkeypatch)
    assert is_cover(product_set(x, y))
    assert 1 < len(chunks) < 60


def test_product_set_exits_early_at_default_chunk(monkeypatch):
    g = sl2_group(17)
    rng = random.Random(12)
    x = SL2Set.from_indices(g, rng.sample(range(g.order), 1500))
    y = SL2Set.from_indices(g, rng.sample(range(g.order), 1500))
    rows = _count_chunk_rows(monkeypatch)
    assert is_cover(product_set(x, y))
    assert sum(rows) < 375  # a quarter of X: the loop stops once XY = G


def test_covering_product_fills_few_rows(monkeypatch):
    """A covering product fills the row images only of rows its chunks used."""
    g = sl2_group(17)
    rng = random.Random(12)
    x = SL2Set.from_indices(g, rng.sample(range(g.order), 1500))
    y = SL2Set.from_indices(g, rng.sample(range(g.order), 1500))
    actions = []
    row_action = SL2Group._row_action

    def kept(self, iy):
        actions.append(row_action(self, iy))
        return actions[-1]

    monkeypatch.setattr(SL2Group, "_row_action", kept)
    assert is_cover(product_set(x, y))
    (act,) = actions
    assert g.p**2 - 1 - act.unfilled < g.p**2 / 2


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
    actions = []
    row_action = SL2Group._row_action

    def counted(self, iy):
        actions.append(len(iy))
        return row_action(self, iy)

    inverses = []
    inverse = sl2.inverse_set

    def counted_inverse(s):
        inverses.append(s)
        return inverse(s)

    monkeypatch.setattr(sl2, "_CHUNK_CELLS", chunk_cells)
    monkeypatch.setattr(SL2Group, "_row_action", counted)
    monkeypatch.setattr(sl2, "inverse_set", counted_inverse)
    r = check_ruzsa(a, b, c)
    assert len(actions) == 4  # AC^-1, AB^-1, BC^-1, then once for the count
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
def _sl2_subset(draw, g, side):
    size = draw(st.integers(*_SIDES[side](g.order)))
    seed = draw(st.integers(0, 2**32))
    return SL2Set.from_indices(g, random.Random(seed).sample(range(g.order), size))


@pytest.mark.parametrize("x_side,y_side", _COUNT_CASES)
@pytest.mark.parametrize("p", [5, 7])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_min_representations_matches_naive(p, x_side, y_side, data):
    g = sl2_group(p)
    x = data.draw(_sl2_subset(g, x_side), label="X")
    y = data.draw(_sl2_subset(g, y_side), label="Y")
    targets = data.draw(_sl2_subset(g, data.draw(st.sampled_from(list(_SIDES)))), label="Z")
    reps = naive_sl2_representations(p, x.coords(), y.coords())
    assert sl2._min_representations(x, y, targets) == min(reps[z] for z in targets.coords())


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
def test_random_sl2_set_matches_sampled_indices(p):
    """The bool-array build keeps the draw, so seeded sets are unchanged."""
    g = sl2_group(p)
    for seed in range(4):
        for size in (0, 1, g.order // 3, g.order):
            got = sl2.random_sl2_set(g, size, random.Random(seed))
            want = SL2Set.from_indices(g, random.Random(seed).sample(range(g.order), size))
            assert got == want and got.card == size


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
