import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from oracles import naive_subset_sums, naive_sumset

from sumsetlab import abelian
from sumsetlab.abelian import (
    _union_closure,
    check_plunnecke,
    is_additive_basis,
    kpn_exact_small,
    kpn_upper,
    pigeonhole_exhaustive,
    plunnecke_trials,
    theorem1_bound,
    theorem1_bound_raw,
    theorem1_trials,
    verify_theorem1,
)
from sumsetlab.constructions import enumerate_bases, random_cover_set
from sumsetlab.groups import GroupSpec, parse_group_spec, vector_space_spec
from sumsetlab.setops import ElementMultiset, GroupSet, is_cover, m_fold, sumset

Z8 = GroupSpec((8,))


def gset(spec, indices):
    return GroupSet.from_indices(spec, indices)


# ---------------------------------------------------------------------------
# Plunnecke-Ruzsa


def test_plunnecke_z8_examples():
    a = gset(Z8, [0, 1])
    r = check_plunnecke(a, a, 2)
    assert r.alpha == 1.5 and r.lhs == 3 and r.rhs == pytest.approx(4.5)
    assert r.passed
    r3 = check_plunnecke(a, a, 3)
    assert r3.lhs == 4 and r3.rhs == pytest.approx(6.75)
    assert r3.passed


def test_plunnecke_full_sets_equality():
    g = GroupSet.full(Z8)
    for k in (2, 3, 5):
        r = check_plunnecke(g, g, k)
        assert r.alpha == 1.0 and r.lhs == 8 and r.rhs == pytest.approx(8.0)
        assert r.passed


def test_plunnecke_validation():
    a = gset(Z8, [0, 1])
    with pytest.raises(ValueError):
        check_plunnecke(a, GroupSet.empty(Z8), 2)
    with pytest.raises(ValueError):
        check_plunnecke(GroupSet.empty(Z8), a, 2)
    with pytest.raises(ValueError):
        check_plunnecke(a, a, 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plunnecke_random(data):
    n = data.draw(st.integers(2, 48))
    spec = GroupSpec((n,))
    bits = st.integers(1, (1 << n) - 1)
    a = GroupSet(spec, data.draw(bits))
    b = GroupSet(spec, data.draw(bits))
    k = data.draw(st.sampled_from([2, 3, 4]))
    assert check_plunnecke(a, b, k).passed


# The float predicates the verdicts used before they became exact integer
# comparisons: a relative guard of 1e-9 in the inequality's favor.  The two
# can differ only when the measured side is within that guard of the bound.
_GUARD = 1e-9


def _off_boundary(value, bound):
    return abs(value - bound) > 10 * _GUARD * bound


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_plunnecke_exact_verdict_matches_guarded_float(data):
    factors = data.draw(st.sampled_from([(7,), (16,), (2, 2, 2), (3, 3), (2, 6), (5, 5)]))
    spec = GroupSpec(factors)
    bits = st.integers(1, (1 << spec.order) - 1)
    a = GroupSet(spec, data.draw(bits))
    b = GroupSet(spec, data.draw(bits))
    r = check_plunnecke(a, b, data.draw(st.integers(2, 5)))
    if _off_boundary(r.lhs, r.rhs):
        assert r.passed == (r.lhs <= r.rhs * (1.0 + _GUARD))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_theorem1_exact_step_matches_guarded_float(data):
    """Arbitrary nonempty families, so steps both hold and fail."""
    factors = data.draw(st.sampled_from([(7,), (16,), (2, 2, 2), (3, 3), (2, 6), (3, 3, 3)]))
    spec = GroupSpec(factors)
    bits = st.integers(1, (1 << spec.order) - 1)
    big_k = data.draw(st.integers(2, 4))
    family = [GroupSet(spec, data.draw(bits)) for _ in range(2 * big_k)]
    rep = verify_theorem1(family, data.draw(st.integers(1, 4)))
    for step in (s for h in rep.halves for s in h["steps"]):
        if _off_boundary(step["card"], step["bound"]):
            assert step["holds"] == (step["card"] >= step["bound"] * (1.0 - _GUARD))


def test_plunnecke_trials_deterministic():
    spec = parse_group_spec("Z12")
    first = plunnecke_trials(spec, 20, seed=5)
    second = plunnecke_trials(spec, 20, seed=5)
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
    assert all(r.passed for r in first)


# ---------------------------------------------------------------------------
# The K bound


def test_theorem1_bound_values():
    assert theorem1_bound(2, 16) == 2
    assert theorem1_bound(2, 81) == 3
    assert theorem1_bound(2, 2**16) == 4
    assert theorem1_bound(3, 2**64) == 13
    assert theorem1_bound_raw(3, 2**64) == pytest.approx(3 * math.log(64))
    assert theorem1_bound_raw(2, 81) == pytest.approx(2.664, abs=1e-3)


def test_theorem1_bound_validation():
    with pytest.raises(ValueError):
        theorem1_bound(2, 3)
    with pytest.raises(ValueError):
        theorem1_bound(1, 16)


# ---------------------------------------------------------------------------
# verify_theorem1


def test_verify_theorem1_full_sets():
    spec = parse_group_spec("Z3^2")
    fam = [GroupSet.full(spec)] * 4
    rep = verify_theorem1(fam, 2)
    assert rep.passed and rep.final_cover and rep.chain_ok
    assert rep.K == 2 and rep.lam == pytest.approx(0.25)
    assert all(rep.hypothesis_ok) and all(rep.halves_exceed_half)


def test_verify_theorem1_seeded_families():
    spec = parse_group_spec("Z3^4")
    reps = theorem1_trials(spec, 2, 5, seed=0)
    for rep in reps:
        assert rep.passed and rep.chain_ok
        assert rep.K == 3 and rep.required_K == 3 and rep.meets_required_K
        assert all(s["claimed"] and s["holds"] for h in rep.halves for s in h["steps"])
        assert all(h["exceeds_half"] for h in rep.halves)


def test_verify_theorem1_hypothesis_gate():
    spec = parse_group_spec("Z3^2")
    good = GroupSet.full(spec)
    bad = gset(spec, [0])  # {identity}: m_fold stays {identity}, never G
    rep = verify_theorem1([good, bad, good, good], 2)
    assert rep.hypothesis_ok == [True, False, True, True]
    assert not rep.passed
    # the failed-hypothesis step is not claimed, so chain_ok ignores it
    assert rep.chain_ok


def test_theorem1_claimed_failing_step_fails_chain():
    """A step whose set is claimed to meet the hypothesis but whose prefix
    does not grow makes chain_ok false."""
    spec = parse_group_spec("Z3^2")
    point, full = gset(spec, [0]), GroupSet.full(spec)
    rep = abelian._theorem1_chain([point, point, full, full], 2, [True] * 4)
    step = rep.halves[0]["steps"][0]
    assert step["claimed"] and not step["holds"]
    assert not rep.chain_ok
    assert rep.passed  # the verdicts were handed in, and the halves still cover


def test_theorem1_report_key_order():
    spec = parse_group_spec("Z3^2")
    rep = verify_theorem1([GroupSet.full(spec)] * 4, 2).to_dict()
    for half in rep["halves"]:
        assert list(half) == ["prefix_cards", "steps", "final_card", "exceeds_half"]
        for step in half["steps"]:
            assert list(step) == ["index", "bound", "card", "claimed", "holds"]
    assert [s["index"] for half in rep["halves"] for s in half["steps"]] == [1, 3]


@pytest.mark.parametrize("group, m", [("Z3^4", 2), ("Z3^4", 3), ("Z2^6", 3)])
def test_theorem1_trials_match_public_verifier(group, m, monkeypatch):
    """The runner hands the chain its sampler's verdicts; the reports are
    the ones the public verifier gives after testing every set itself."""
    chain = abelian._theorem1_chain
    handed: list[list[GroupSet]] = []

    def recording_chain(family, m, hypothesis_ok):
        if hypothesis_ok is not None:
            handed.append(list(family))
        return chain(family, m, hypothesis_ok)

    monkeypatch.setattr(abelian, "_theorem1_chain", recording_chain)
    reports = theorem1_trials(parse_group_spec(group), m, 3, seed=11)
    assert len(handed) == len(reports) == 3
    for rep, family in zip(reports, handed):
        assert rep.to_dict() == verify_theorem1(family, m).to_dict()
        assert rep.passed


def test_verify_theorem1_m1_short_circuit():
    spec = parse_group_spec("Z7")
    rep = verify_theorem1([GroupSet.full(spec)] * 2, 1)
    assert rep.passed


def test_verify_theorem1_validation():
    spec = parse_group_spec("Z5")
    g = GroupSet.full(spec)
    with pytest.raises(ValueError):
        verify_theorem1([g, g, g], 2)  # odd length
    with pytest.raises(ValueError):
        verify_theorem1([], 2)
    with pytest.raises(ValueError):
        verify_theorem1([g, GroupSet.empty(spec)], 2)
    with pytest.raises(ValueError):
        verify_theorem1([g, g], 0)
    other = GroupSet.full(parse_group_spec("Z7"))
    with pytest.raises(ValueError):
        verify_theorem1([g, other], 2)


def test_verify_theorem1_monotone_append():
    """Appending more hypothesis sets to a passing family keeps coverage."""
    spec = parse_group_spec("Z3^4")
    sets = [random_cover_set(spec, 2, 0.5, seed=s) for s in range(6)]
    base = verify_theorem1(sets, 2)
    assert base.passed
    extra = [random_cover_set(spec, 2, 0.5, seed=s) for s in range(6, 8)]
    grown = verify_theorem1(sets + extra, 2)
    assert grown.passed and grown.final_cover


# ---------------------------------------------------------------------------
# Pigeonhole


def test_pigeonhole_exhaustive_small():
    for n in range(1, 11):
        out = pigeonhole_exhaustive(n)
        assert out["passed"] and not out["failures"]
    with pytest.raises(ValueError):
        pigeonhole_exhaustive(25)


def test_pigeonhole_kernel_agrees_with_ops():
    """Cross-check the word-parallel sweep against the naive sumset."""
    for n in (5, 8):
        factors = (n,)
        masks = [m for m in range(1 << n) if 2 * bin(m).count("1") > n]
        members = [[(x,) for x in range(n) if m >> x & 1] for m in masks]
        pairs = 0
        for i, a in enumerate(members):
            for b in members[i:]:
                assert len(naive_sumset(factors, a, b)) == n
                pairs += 1
        out = pigeonhole_exhaustive(n)
        assert out["pairs_checked"] == pairs
        assert out["n_sets"] == len(masks)


# ---------------------------------------------------------------------------
# Bases-union constant


def test_kpn_upper_values():
    u = kpn_upper(3, 8)
    assert u.for_p3 == 8.0
    assert u.general == pytest.approx(10.16, abs=5e-3)
    u2 = kpn_upper(2, 4)
    assert u2.for_p3 is None
    assert u2.general == pytest.approx(2 * math.log(4))


def test_kpn_upper_validation():
    with pytest.raises(ValueError):
        kpn_upper(4, 8)
    with pytest.raises(ValueError):
        kpn_upper(3, 1)


def test_is_additive_basis():
    z3 = GroupSpec((3,))
    z2 = GroupSpec((2,))
    assert is_additive_basis(ElementMultiset.from_indices(z2, [1]))
    assert not is_additive_basis(ElementMultiset.from_indices(z3, [1]))
    assert is_additive_basis(ElementMultiset.from_indices(z3, [1, 1]))


def test_kpn_exact_p3_n1():
    rep = kpn_exact_small(3, 1)
    assert rep.result_k == 2 and rep.exact
    assert [lvl["mode"] for lvl in rep.levels] == ["exhaustive", "exhaustive"]
    assert rep.levels[0]["counterexample"] is not None
    assert rep.levels[1]["tuples_checked"] == 3
    assert rep.levels[1]["counterexample"] is None


def test_kpn_exact_witness_at_k1():
    rep = kpn_exact_small(3, 1, k_max=1)
    assert rep.result_k is None and not rep.exact
    witness = rep.levels[0]["counterexample"]
    assert witness["bases"] == [[[1]]]
    assert witness["closure"] == [[0], [1]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kpn_exact_p2(n):
    rep = kpn_exact_small(2, n)
    assert rep.result_k == 1 and rep.exact


def test_kpn_exact_sampled_mode():
    rep = kpn_exact_small(2, 2, k_max=1, budget=1)
    assert rep.levels[0]["mode"] == "sampled"
    assert rep.result_k == 1 and not rep.exact


@pytest.mark.parametrize("budget", [0, -1])
def test_kpn_exact_rejects_budget_below_1(budget):
    """A level that checks no tuple has no evidence for its k."""
    with pytest.raises(ValueError, match="budget must be >= 1"):
        kpn_exact_small(3, 2, budget=budget)


@pytest.mark.parametrize("p,n", [(3, 2), (2, 1), (2, 2), (2, 3)])
def test_kpn_union_closure_matches_naive(p, n):
    """Every union of k <= 2 bases: its closure equals the oracle's, and the
    search stops at the first tuple the oracle says does not cover."""
    spec = vector_space_spec(p, n)
    bases = enumerate_bases(p, n)
    rep = kpn_exact_small(p, n, k_max=2)
    for k in (1, 2):
        first_failure = None
        tuples = list(itertools.combinations_with_replacement(bases, k))
        for i, tup in enumerate(tuples, 1):
            oracle = naive_subset_sums(spec.factors, [row for basis in tup for row in basis])
            assert set(_union_closure(spec, tup).coords()) == oracle
            if first_failure is None and len(oracle) < spec.order:
                first_failure = (i, tup, len(oracle))
        if k > len(rep.levels):
            continue
        level = rep.levels[k - 1]
        assert level["mode"] == "exhaustive"
        if first_failure is None:
            assert level["tuples_checked"] == len(tuples)
            assert level["counterexample"] is None
        else:
            i, tup, card = first_failure
            assert level["tuples_checked"] == i
            assert level["counterexample"]["bases"] == [[list(r) for r in b] for b in tup]
            assert level["counterexample"]["closure_card"] == card


def test_kpn_exact_p3_n2():
    """Exhaustive over all 24 bases: pairs can fail, triples never do."""
    rep = kpn_exact_small(3, 2, k_max=3, budget=10_000)
    assert rep.result_k == 3 and rep.exact
    assert rep.levels[0]["counterexample"] is not None
    assert rep.levels[1]["counterexample"] is not None
    assert rep.levels[2]["counterexample"] is None
