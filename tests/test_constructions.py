import warnings

import pytest
from hypothesis import given, settings, strategies as st

from oracles import naive_half_zero_block, naive_half_zero_member, naive_punctured_product
from sumsetlab import constructions
from sumsetlab.config import OrderCapError
from sumsetlab.constructions import (
    BasisMatrix,
    SearchBudgetError,
    enumerate_bases,
    example1_family,
    example_A,
    example_C,
    random_basis,
    random_basis_matrix,
    random_cover_set,
    random_set,
    rank_mod_p,
    standard_basis,
    verify_example1,
)
from sumsetlab.groups import parse_group_spec, vector_space_spec
from sumsetlab.setops import GroupSet, is_cover, m_fold, subset_sums, sumset


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


def test_basis_matrix_validation():
    BasisMatrix(3, 2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        BasisMatrix(3, 2, ((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        BasisMatrix(4, 2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        BasisMatrix(3, 2, ((1, 0),))


def test_standard_basis():
    b = standard_basis(3, 2)
    assert frozenset(b.coords()) == {(1, 0), (0, 1)}


@given(st.integers(0, 2**32))
@settings(max_examples=25)
def test_random_basis_independent_and_deterministic(seed):
    m = random_basis_matrix(2, 3, seed)
    assert rank_mod_p(m.rows, 2) == 3
    assert random_basis(2, 3, seed) == random_basis(2, 3, seed)


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
        assert ranked[-1] == m.rows


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
    bases = [standard_basis(p, n)] + [random_basis(p, n, seed) for seed in (0, 1)]
    for b in bases:
        closure = subset_sums(b)
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


def test_random_set():
    import random as _random

    spec = parse_group_spec("Z6xZ10")
    rng = _random.Random(3)
    a = random_set(spec, 17, rng)
    assert a.card == 17
    with pytest.raises(ValueError):
        random_set(spec, 61, rng)
