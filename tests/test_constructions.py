import math
import random
import re
import tracemalloc
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    naive_first_basis_draw,
    naive_half_zero_block,
    naive_half_zero_member,
    naive_punctured_product,
)
from sumsetlab import constructions
from sumsetlab.config import OrderCapError
from sumsetlab.constructions import (
    SearchBudgetError,
    enumerate_bases,
    example1_family,
    example_A,
    example_C,
    random_basis_matrix,
    random_cover_set,
    random_set,
    rank_mod_p,
    standard_basis_matrix,
    verify_example1,
)
from sumsetlab.groups import GroupSpec, parse_group_spec, vector_space_spec
from sumsetlab.setops import ElementMultiset, GroupSet, is_cover, m_fold, subset_sums, sumset
from sumsetlab.sl2 import sl2_group


# ---------------------------------------------------------------------------
# Half-zero family


def test_example_C_small_cases():
    c = example_C(3, 1)
    assert frozenset(c.coords()) == {(0, 1), (0, 2), (1, 0), (2, 0)}
    assert c.card == 4
    assert example_C(3, 2).card == 16
    with pytest.warns(UserWarning):
        c2 = example_C(2, 1)
    assert frozenset(c2.coords()) == {(0, 1), (1, 0)}


def test_example_C_validation():
    with pytest.raises(ValueError):
        example_C(3, 0)
    with pytest.raises(ValueError):
        example_C(1, 1)
    with pytest.raises(OrderCapError):
        example_C(3, 40)
    with pytest.raises(OrderCapError):
        example_C(3, 2000)  # 2^2000 * log2(3) overflows a float


def test_example_A_cards():
    assert example_A(3, 2, 0).card == 16
    assert example_A(3, 2, 1).card == 16
    assert example_A(3, 2, 2).card == 16
    assert example_A(5, 1, 0).card == 16
    assert example_A(5, 1, 1).card == 8


def test_example_A_validation():
    with pytest.raises(ValueError):
        example_A(3, 2, 3)
    with pytest.raises(ValueError):
        example_A(3, 2, -1)
    with pytest.raises(OrderCapError):
        example_A(2, 40, 0)
    for i in (0, 1, 5):
        with pytest.raises(OrderCapError, match="has at least"):
            example_A(3, 5, i)


# Every (p, k) with p^(2^k) <= 625: k = 1 up to p = 25, k = 2 up to p = 5,
# and k = 3 at p = 2.
FAMILY_CASES = [(p, k) for k in (1, 2, 3) for p in range(2, 26) if p ** (2**k) <= 625]


@pytest.mark.parametrize("p,k", FAMILY_CASES)
def test_half_zero_family_matches_oracle(p, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # p = 2 warns that the family degenerates
        for i in range(1, k + 1):
            assert frozenset(example_C(p, i).coords()) == naive_half_zero_block(p, i)
        for i in range(k + 1):
            assert frozenset(example_A(p, k, i).coords()) == naive_half_zero_member(p, k, i)
    for j in range(k + 1):
        got = constructions._punctured_product(p, j, k)
        assert frozenset(got.coords()) == naive_punctured_product(p, j, k)


def test_example_A_warns_for_p2_only_on_half_zero_members():
    with pytest.warns(UserWarning, match="degenerates for p=2"):
        example_A(2, 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        example_A(2, 2, 0)
        example_A(3, 2, 1)


@pytest.mark.parametrize("p,i", [(3, 1), (3, 2), (5, 1)])
def test_block_self_sum_covers(p, i):
    c = example_C(p, i)
    assert is_cover(sumset(c, c))


def test_family_self_sums_cover_p3():
    fam = example1_family(3, 2)
    for a in fam.sets[1:]:
        assert is_cover(sumset(a, a))


def test_chain_identity_p3_k2():
    fam = example1_family(3, 2)
    prefix = fam.sets[0]
    cards = [prefix.card]
    for a in fam.sets[1:]:
        prefix = sumset(prefix, a)
        cards.append(prefix.card)
    assert cards == [16, 64, 80]
    assert prefix.card == 80 != fam.spec.order


def test_verify_example1_p3():
    rep = verify_example1(3, 2)
    assert rep.passed
    assert rep.cards == [16, 16, 16]
    assert rep.cards_ok and rep.chain_ok and rep.final_misses_group
    assert [e["card"] for e in rep.chain] == [16, 64, 80]
    assert all(e["set_ok"] for e in rep.chain)


def test_verify_example1_p2_flags_degeneracy():
    rep = verify_example1(2, 1)
    assert not rep.passed
    assert rep.p2_degenerate
    entry = rep.block_checks[0]
    assert not entry["self_sum_covers"]
    assert entry["self_sum_witness"] == [[0, 0], [1, 1]]


def test_verify_example1_p2_k2_second_block_fine():
    rep = verify_example1(2, 2)
    assert not rep.passed  # the i=1 block still degenerates
    by_i = {e["i"]: e for e in rep.block_checks}
    assert not by_i[1]["self_sum_covers"]
    assert by_i[2]["self_sum_covers"]


def test_verify_example1_p5():
    rep = verify_example1(5, 1)
    assert rep.passed
    assert rep.cards == [16, 8]


# ---------------------------------------------------------------------------
# Bases


def test_rank_mod_p():
    assert rank_mod_p([(1, 0), (0, 1)], 3) == 2
    assert rank_mod_p([(1, 2), (2, 4)], 5) == 1
    assert rank_mod_p([(1, 2), (0, 1)], 3) == 2
    assert rank_mod_p([], 3) == 0


def test_standard_basis():
    assert standard_basis_matrix(3, 2) == ((1, 0), (0, 1))


@given(st.integers(0, 2**32))
@settings(max_examples=25)
def test_random_basis_independent_and_deterministic(seed):
    m = random_basis_matrix(2, 3, seed)
    assert rank_mod_p(m, 2) == 3
    assert random_basis_matrix(2, 3, seed) == m


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_basis_is_the_first_spanning_draw(p, n):
    """The draw stream: ``Random(seed)`` fills n x n entries row by row, and
    the first draw whose rows span Z_p^n is the basis."""
    for seed in range(20):
        assert random_basis_matrix(p, n, seed) == naive_first_basis_draw(p, n, seed)


def test_random_basis_ranks_each_draw_once(monkeypatch):
    ranked = []
    rank = constructions.rank_mod_p

    def counted(rows, p):
        ranked.append(rows)
        return rank(rows, p)

    monkeypatch.setattr(constructions, "rank_mod_p", counted)
    for seed in range(20):
        ranked.clear()
        m = random_basis_matrix(2, 3, seed)
        # Every draw before the accepted one is singular, and none is ranked twice.
        assert [rank(rows, 2) == 3 for rows in ranked] == [False] * (len(ranked) - 1) + [True]
        assert ranked[-1] == m


def test_enumerate_bases_counts():
    assert len(enumerate_bases(2, 2)) == 3
    assert len(enumerate_bases(3, 2)) == 24
    assert enumerate_bases(5, 4) is None  # pool too large
    for basis in enumerate_bases(2, 2):
        assert rank_mod_p(basis, 2) == 2


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_power_identity(p, n):
    """(p-1)-fold sumset of a basis closure is the whole space."""
    spec = vector_space_spec(p, n)
    bases = [standard_basis_matrix(p, n)] + [random_basis_matrix(p, n, seed) for seed in (0, 1)]
    for b in bases:
        closure = subset_sums(ElementMultiset.from_coords(spec, b))
        assert is_cover(m_fold(closure, p - 1))
        if p == 2:
            assert closure.card == 2**n
        else:
            assert closure.card <= 2**n


# ---------------------------------------------------------------------------
# Random covering sets


def test_random_cover_set_examples():
    import random as _random

    spec5 = parse_group_spec("Z5")
    a = random_cover_set(spec5, 4, 0.4, seed=0)
    assert a.card == 2
    assert is_cover(m_fold(a, 4))

    spec81 = parse_group_spec("Z3^4")
    b = random_cover_set(spec81, 2, 0.5, seed=0)
    assert b.card == 41
    assert is_cover(m_fold(b, 2))

    full = random_cover_set(spec5, 1, 1.0, seed=0)
    assert is_cover(full)


def test_random_cover_set_deterministic():
    spec = parse_group_spec("Z3^4")
    assert random_cover_set(spec, 2, 0.5, seed=11) == random_cover_set(spec, 2, 0.5, seed=11)


def test_random_cover_set_budget():
    spec = parse_group_spec("Z5")
    with pytest.raises(SearchBudgetError):
        random_cover_set(spec, 1, 0.4, seed=0)  # a 2-element set never covers Z5
    with pytest.raises(ValueError):
        random_cover_set(spec, 0, 0.4, seed=0)
    with pytest.raises(ValueError):
        random_cover_set(spec, 2, 0.0, seed=0)


class _StubRandom:
    """A ``random.Random`` stand-in whose ``randbytes`` replays fixed buffers."""

    def __init__(self, *buffers):
        self.buffers = list(buffers)
        self.requests = []

    def randbytes(self, n):
        self.requests.append(n)
        return self.buffers.pop(0)


def _keys(*values):
    return b"".join(v.to_bytes(4, "little") for v in values)


def test_random_set():
    spec = parse_group_spec("Z6xZ10")
    a = random_set(spec, 17, random.Random(3))
    assert a.card == 17
    assert random_set(spec, 0, random.Random(3)) == GroupSet.empty(spec)
    assert random_set(spec, 60, random.Random(3)) == GroupSet.full(spec)


@pytest.mark.parametrize("size", [-1, 61])
def test_random_set_rejects_size_out_of_range(size):
    spec = parse_group_spec("Z6xZ10")
    with pytest.raises(ValueError, match=re.escape(f"size {size} out of range [0, 60]")):
        random_set(spec, size, random.Random(0))


@pytest.mark.parametrize("group", [parse_group_spec("Z6xZ10"), sl2_group(5)], ids=str)
def test_random_set_deterministic_per_seed(group):
    """The set depends only on the generator's state, and has the asked size."""
    n = group.order
    for size in (0, 1, n // 3, n - 1, n):
        for seed in range(3):
            rng_a, rng_b = random.Random(seed), random.Random(seed)
            a, b = random_set(group, size, rng_a), random_set(group, size, rng_b)
            assert a == b and a.card == size
            assert rng_a.getstate() == rng_b.getstate()
    thirds = {random_set(group, n // 3, random.Random(seed)).bits for seed in range(3)}
    assert len(thirds) == 3


class _CoarseRandom:
    """A generator whose 32-bit keys take only eight values, so that draws
    tie at the boundary often; it serves keys in order, whatever the
    lengths of the ``randbytes`` calls."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def randbytes(self, n):
        return _keys(*(self.rng.randrange(8) << 29 for _ in range(n // 4)))


def _chunk_sizes(order):
    return sorted({0, 1, 2, order // 3, order // 2, (order + 1) // 2, order - 2, order - 1, order})


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_random_set_chunked_draw_matches_one_draw(chunk, monkeypatch):
    """Keys drawn ``chunk`` at a time give the same set, and leave the
    generator in the same state, as one ``randbytes`` call for every key:
    on either side of half the order, where the draw keeps the smallest or
    the largest keys, and at the extremes."""
    cases = [(GroupSpec((order,)), size) for order in range(2, 65) for size in _chunk_sizes(order)]
    whole = [random.Random(spec.order) for spec, _ in cases]
    expected = [random_set(spec, size, rng) for (spec, size), rng in zip(cases, whole)]
    monkeypatch.setattr(constructions, "_KEY_CHUNK", chunk)
    parts = [random.Random(spec.order) for spec, _ in cases]
    assert [random_set(spec, size, rng) for (spec, size), rng in zip(cases, parts)] == expected
    assert [rng.getstate() for rng in parts] == [rng.getstate() for rng in whole]


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_random_set_chunked_draw_redraws_ties_like_one_draw(chunk, monkeypatch):
    """With keys that tie often, drawing in chunks redraws exactly the draws
    that one call for every key redraws, and accepts the same sets."""
    cases = [(GroupSpec((order,)), size) for order in range(2, 24) for size in _chunk_sizes(order)]
    whole = [_CoarseRandom(i) for i in range(len(cases))]
    expected = [random_set(spec, size, rng) for (spec, size), rng in zip(cases, whole)]
    monkeypatch.setattr(constructions, "_KEY_CHUNK", chunk)
    parts = [_CoarseRandom(i) for i in range(len(cases))]
    assert [random_set(spec, size, rng) for (spec, size), rng in zip(cases, parts)] == expected
    assert [rng.rng.getstate() for rng in parts] == [rng.rng.getstate() for rng in whole]


@pytest.mark.parametrize("size", [10, (1 << 25) + 1])
def test_random_set_memory_bounded_at_order_2_26(size):
    """At order 2^26 (64 chunks) the traced peak stays under the bool mask
    of the order, plus 8 bytes for each of the min(size, order - size) keys
    kept next to the boundary, plus a fixed 32 bytes a chunk key."""
    spec = GroupSpec((1 << 26,))
    tracemalloc.start()
    try:
        a = random_set(spec, size, random.Random(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.card == size
    assert peak < spec.order + 8 * min(size, spec.order - size) + 32 * constructions._KEY_CHUNK


def test_random_set_refuses_orders_above_2_32():
    class Huge:
        order = (1 << 32) + 1

    with pytest.raises(ValueError, match="above 2\\^32"):
        random_set(Huge(), 1, random.Random(0))


@pytest.mark.parametrize("size", [2, 3])
def test_random_set_uniform_over_subsets(size):
    """Every size-subset of Z6 turns up within 5 binomial sigmas of its mean."""
    spec = parse_group_spec("Z6")
    seeds = 40_000
    counts = Counter(random_set(spec, size, random.Random(seed)).bits for seed in range(seeds))
    subsets = math.comb(6, size)
    assert len(counts) == subsets
    assert all(bin(bits).count("1") == size for bits in counts)
    mean = seeds / subsets
    sigma = math.sqrt(seeds * (1 / subsets) * (1 - 1 / subsets))
    assert all(abs(c - mean) <= 5 * sigma for c in counts.values()), counts


def test_random_set_redraws_on_boundary_tie():
    """Keys tied across the size boundary, or a zero key at size 0, are redrawn."""
    spec = parse_group_spec("Z6")
    rng = _StubRandom(_keys(7, 7, 7, 7, 7, 7), _keys(5, 3, 9, 1, 7, 2))
    assert random_set(spec, 3, rng).indices() == [1, 3, 5]
    assert rng.requests == [24, 24]
    rng = _StubRandom(_keys(4, 1, 4, 9, 8, 6), _keys(5, 3, 9, 1, 7, 2))
    assert random_set(spec, 2, rng).indices() == [3, 5]
    assert rng.requests == [24, 24]
    rng = _StubRandom(_keys(5, 0, 9, 1, 7, 2), _keys(5, 3, 9, 1, 7, 2))
    assert random_set(spec, 0, rng).card == 0
    assert rng.requests == [24, 24]
    rng = _StubRandom(_keys(5, 3, 9, 1, 7, 2))
    assert random_set(spec, 1, rng).indices() == [3]
    assert rng.requests == [24]
