import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import naive_m_fold, naive_subset_sums, naive_sumset, naive_translate
from sumsetlab import setops
from sumsetlab.groups import GroupSpec, decode, encode, parse_group_spec
from sumsetlab.setops import (
    _kernel,
    ElementMultiset,
    GroupSet,
    SpecMismatchError,
    is_cover,
    m_fold,
    set_from_json,
    set_to_json,
    subset_sums,
    sumset,
    translate,
)

Z5 = GroupSpec((5,))


def gset(spec, coords):
    return GroupSet.from_coords(spec, coords)


def specs(max_order=256):
    factors = st.lists(st.integers(2, 12), min_size=1, max_size=3).filter(
        lambda f: math.prod(f) <= max_order
    )
    return factors.map(lambda f: GroupSpec(tuple(f)))


@st.composite
def spec_with_sets(draw, n_sets=2, max_order=256):
    spec = draw(specs(max_order))
    sets = tuple(
        GroupSet(spec, draw(st.integers(0, (1 << spec.order) - 1))) for _ in range(n_sets)
    )
    return (spec, *sets)


# ---------------------------------------------------------------------------
# GroupSet basics


def test_constructors_and_views():
    spec = GroupSpec((6, 10))
    a = gset(spec, [(0, 0), (1, 2), (5, 9)])
    assert a.card == 3
    assert len(a) == 3
    assert a.coords() == [(0, 0), (1, 2), (5, 9)]
    assert list(a) == [0, 13, 59]
    assert 13 in a and 14 not in a
    assert GroupSet.from_indices(spec, [0, 13, 59]) == a
    # Duplicates, order, numpy ints and one-shot iterables do not matter.
    assert GroupSet.from_indices(spec, [59, 0, 13, 0, 59]) == a
    assert GroupSet.from_indices(spec, [np.int64(13), np.uint8(0), np.int32(59)]) == a
    assert GroupSet.from_indices(spec, (x for x in (13, 59, 0))) == a
    assert GroupSet.from_indices(spec, np.array([59, 13, 0])) == a
    assert GroupSet.from_indices(spec, []) == GroupSet.empty(spec)
    mask = np.zeros(60, dtype=bool)
    mask[[0, 13, 59]] = True
    assert GroupSet.from_mask(spec, mask) == a
    assert a.index_array().tolist() == [0, 13, 59]
    assert GroupSet.empty(spec).card == 0
    assert GroupSet.full(spec).card == 60
    assert GroupSet.identity(spec).coords() == [(0, 0)]


def test_bitmask_validation():
    spec = GroupSpec((5,))
    with pytest.raises(ValueError):
        GroupSet(spec, 1 << 5)
    with pytest.raises(ValueError):
        GroupSet(spec, -1)
    with pytest.raises(ValueError):
        GroupSet.from_indices(spec, [5])
    # The first bad index is named, in the message of ``check_index``.
    msg = "element index 7 out of range [0, 5) for Z5"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        GroupSet.from_indices(spec, [1, 3, 7, -1, 9])
    msg = "element index -1 out of range [0, 5) for Z5"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        GroupSet.from_indices(spec, (x for x in [4, -1, 7]))
    with pytest.raises(ValueError, match="mask has length 6, expected 5"):
        GroupSet.from_mask(spec, np.zeros(6, dtype=bool))


_NOT_INDICES = [2.7, 2.0, True, np.True_, "2"]


@pytest.mark.parametrize(
    "build",
    [
        lambda x: GroupSet.from_indices(Z5, [0, x]),
        lambda x: translate(GroupSet.from_indices(Z5, [1]), x),
        lambda x: ElementMultiset.from_indices(Z5, [x]),
        lambda x: ElementMultiset(Z5, ((x, 1),)),
        lambda x: decode(Z5, x),
    ],
    ids=["GroupSet.from_indices", "translate", "ElementMultiset.from_indices",
         "ElementMultiset", "decode"],
)
@pytest.mark.parametrize("x", _NOT_INDICES, ids=repr)
def test_non_integer_index_is_refused(build, x):
    """A float or bool index is refused, by name, rather than truncated."""
    msg = f"element index {x!r} for Z5 is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        build(x)


@pytest.mark.parametrize("x", _NOT_INDICES, ids=repr)
def test_membership_refuses_non_integers(x):
    """``x in s`` takes ``x`` under the index rule, as ``translate`` does:
    ``True in s`` is no test for element 1, and a float or a string is
    refused by name rather than with a bare ``TypeError``."""
    s = GroupSet.from_indices(Z5, [1, 2])
    msg = f"element index {x!r} for Z5 is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        x in s


def test_membership_of_integers():
    s = GroupSet.from_indices(Z5, [1, 4])
    assert np.int64(4) in s and np.uint8(1) in s and np.int32(2) not in s
    assert all(x not in s for x in (-1, 5, 2**70, -(2**70)))


Z5xZ5 = GroupSpec((5, 5))


@pytest.mark.parametrize("x", [2.7, 2.0, True, "2"], ids=repr)
def test_non_integer_coordinate_is_refused(x):
    """``GroupSet.from_coords`` takes each coordinate under the index rule."""
    msg = f"coordinate {x!r} for Z5^2 is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        GroupSet.from_coords(Z5xZ5, [(x, 1)])
    assert GroupSet.from_coords(Z5xZ5, [(np.int64(2), np.uint8(1))]).indices() == [7]


@pytest.mark.parametrize("mult", [1.9, 1.0, True, "1"], ids=repr)
def test_non_integer_multiplicity_is_refused(mult):
    msg = f"multiplicity {mult!r} for index 3 is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        ElementMultiset(Z5xZ5, ((3, mult),))
    assert ElementMultiset(Z5xZ5, ((3, np.int32(2)),)).entries == ((3, 2),)


@pytest.mark.parametrize("elem", [[True, 1], [2.0, 3]], ids=repr)
def test_set_file_refuses_non_integer_coordinates(elem):
    """A set file listing ``true`` or ``2.0`` is refused, not read as 1 or 2."""
    msg = f"bad element {elem!r} for Z5^2: coordinate {elem[0]!r} for Z5^2 is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        set_from_json(Z5xZ5, {"elements": [[0, 0], elem]})


def test_numpy_integer_indices_are_taken():
    a = GroupSet.from_indices(Z5, np.array([1, 3], dtype=np.int64))
    assert a.indices() == [1, 3]
    assert translate(a, np.uint8(2)).indices() == [0, 3]
    m = ElementMultiset.from_indices(Z5, np.array([4, 4], dtype=np.int32))
    assert m.entries == ((4, 2),) and type(m.entries[0][0]) is int


def test_card_tracks_population_count():
    spec = GroupSpec((3, 3))
    for bits in range(1 << 9):
        a = GroupSet(spec, bits)
        assert a.card == bin(bits).count("1")
        assert a.indices() == [i for i in range(9) if bits >> i & 1]


# ---------------------------------------------------------------------------
# translate


def test_translate_examples():
    a = gset(Z5, [(0,), (1,)])
    assert translate(a, 0) == a
    assert sorted(translate(a, 4).indices()) == [0, 4]


@settings(max_examples=60)
@given(spec_with_sets(n_sets=1), st.data())
def test_translate_matches_naive(args, data):
    spec, a = args
    g = data.draw(st.integers(0, spec.order - 1))
    got = frozenset(translate(a, g).coords())
    assert got == naive_translate(spec.factors, a.coords(), decode(spec, g))
    assert translate(a, g).card == a.card


_KERNEL_SPECS = (
    st.sampled_from(["Z64", "Z6xZ10", "Z5^2"])
    | st.integers(1, 8).map(lambda k: f"Z2^{k}")
    | st.integers(1, 5).map(lambda k: f"Z3^{k}")
)


@settings(max_examples=100)
@given(_KERNEL_SPECS, st.data())
def test_index_translate_matches_coordinate_translate(name, data):
    """The kernel's walk over an index's digits (which stops at the last
    nonzero one) agrees with its walk over the decoded coordinates, on a
    single-block axis (Z64), mixed moduli and many equal axes."""
    spec = parse_group_spec(name)
    kern = _kernel(spec)
    bits = data.draw(st.integers(0, kern.full))
    for g in (0, spec.order - 1, data.draw(st.integers(0, spec.order - 1))):
        assert kern.translate(bits, g) == kern.translate_coords(bits, decode(spec, g))


def test_translate_validates_index():
    a = gset(Z5, [(0,), (1,)])
    for g in (-1, 5):
        with pytest.raises(ValueError):
            translate(a, g)


# ---------------------------------------------------------------------------
# sumset


def test_sumset_examples():
    a = gset(Z5, [(0,), (1,)])
    b = gset(Z5, [(0,), (2,)])
    assert sorted(sumset(a, b).indices()) == [0, 1, 2, 3]
    assert sumset(a, GroupSet.identity(Z5)) == a
    assert sumset(a, GroupSet.empty(Z5)).card == 0
    assert sumset(GroupSet.empty(Z5), a).card == 0
    z4 = GroupSpec((4,))
    half = gset(z4, [(0,), (1,)])
    assert sumset(half, half).card == 3  # |A| + |B| = |G| does not force a cover


def test_sumset_spec_mismatch():
    a = GroupSet.full(GroupSpec((5,)))
    b = GroupSet.full(GroupSpec((7,)))
    with pytest.raises(SpecMismatchError):
        sumset(a, b)


@settings(max_examples=100)
@given(spec_with_sets(n_sets=2))
def test_sumset_matches_naive(args):
    spec, a, b = args
    got = frozenset(sumset(a, b).coords())
    assert got == naive_sumset(spec.factors, a.coords(), b.coords())


@settings(max_examples=60)
@given(spec_with_sets(n_sets=3))
def test_sumset_commutative_associative(args):
    spec, a, b, c = args
    assert sumset(a, b) == sumset(b, a)
    assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))


def test_sumset_laws_exhaustive_small_orders():
    """Commutativity/associativity spot-checked across every order up to 256."""
    rng = random.Random(7)
    for n in range(1, 257):
        if n == 1:
            continue  # factors must be >= 2
        spec = GroupSpec((n,))
        full = (1 << n) - 1
        a = GroupSet(spec, rng.randint(0, full))
        b = GroupSet(spec, rng.randint(0, full))
        c = GroupSet(spec, rng.randint(0, full))
        assert sumset(a, b) == sumset(b, a)
        assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))


@settings(max_examples=60)
@given(spec_with_sets(n_sets=2), st.data())
def test_sumset_monotone(args, data):
    spec, a, b = args
    sub_bits = a.bits & data.draw(st.integers(0, (1 << spec.order) - 1))
    sub = GroupSet(spec, sub_bits)
    assert sumset(sub, b).bits & sumset(a, b).bits == sumset(sub, b).bits


@settings(max_examples=60)
@given(spec_with_sets(n_sets=2))
def test_sumset_size_bounds(args):
    spec, a, b = args
    if a.card == 0 or b.card == 0:
        assert sumset(a, b).card == 0
        return
    s = sumset(a, b)
    assert max(a.card, b.card) <= s.card <= min(a.card * b.card, spec.order)


def _sized_set(spec, size, seed):
    return GroupSet.from_indices(spec, random.Random(seed).sample(range(spec.order), size))


@settings(max_examples=100)
@given(specs(), st.sampled_from([-1, 0, 1]), st.data())
def test_sumset_at_pigeonhole_boundary(spec, offset, data):
    """|A| + |B| is N - 1, N or N + 1: up to N the translate kernel runs,
    above it the result is G without one."""
    n = spec.order
    total = n + offset
    assume(total >= 2)
    card_a = data.draw(st.integers(max(1, total - n), min(n, total - 1)))
    a = _sized_set(spec, card_a, data.draw(st.integers(0, 2**32)))
    b = _sized_set(spec, total - card_a, data.draw(st.integers(0, 2**32)))
    got = sumset(a, b)
    assert frozenset(got.coords()) == naive_sumset(spec.factors, a.coords(), b.coords())
    if offset > 0:
        assert is_cover(got)


def test_sumset_pigeonhole_equality_not_forced():
    """|H| + |H| = |G| leaves H + H = H for the subgroup H = {0, 2, 4} of Z6."""
    z6 = GroupSpec((6,))
    h = GroupSet.from_indices(z6, [0, 2, 4])
    assert sumset(h, h) == h
    assert m_fold(h, 2) == h and m_fold(h, 5) == h


def test_sumset_pigeonhole_skips_kernel(monkeypatch):
    spec = GroupSpec((6, 10))
    calls = []
    translate = setops._Kernel.translate

    def counted(self, bits, g):
        calls.append(g)
        return translate(self, bits, g)

    monkeypatch.setattr(setops._Kernel, "translate", counted)
    a = _sized_set(spec, 30, 1)
    assert sumset(a, _sized_set(spec, 31, 2)) == GroupSet.full(spec)
    assert m_fold(_sized_set(spec, 31, 3), 4) == GroupSet.full(spec)
    assert calls == []
    sumset(a, _sized_set(spec, 30, 2))
    assert calls


# ---------------------------------------------------------------------------
# m_fold


def test_m_fold_examples():
    a = gset(Z5, [(0,), (1,)])
    assert is_cover(m_fold(a, 4))
    assert m_fold(a, 1) == a
    assert m_fold(a, 0) == GroupSet.identity(Z5)
    ident = GroupSet.identity(Z5)
    for m in range(5):
        assert m_fold(ident, m) == ident
    with pytest.raises(ValueError):
        m_fold(a, -1)


@settings(max_examples=80, deadline=None)
@given(spec_with_sets(n_sets=1, max_order=125), st.integers(0, 8))
def test_m_fold_matches_naive(args, m):
    spec, a = args
    got = frozenset(m_fold(a, m).coords())
    assert got == naive_m_fold(spec.factors, a.coords(), m)


@settings(max_examples=80, deadline=None)
@given(specs(max_order=125), st.integers(2, 6), st.data())
def test_m_fold_at_pigeonhole_boundary(spec, m, data):
    """2|A| lies within 2 of N, so the first doubling sits at the bound."""
    n = spec.order
    card = data.draw(st.integers(max(1, (n - 1) // 2), (n + 2) // 2))
    a = _sized_set(spec, card, data.draw(st.integers(0, 2**32)))
    got = frozenset(m_fold(a, m).coords())
    assert got == naive_m_fold(spec.factors, a.coords(), m)


# ---------------------------------------------------------------------------
# subset_sums and multisets


def test_multiset_normalization():
    spec = GroupSpec((3,))
    b = ElementMultiset(spec, ((1, 1), (1, 1), (2, 3)))
    assert b.entries == ((1, 2), (2, 3))
    assert len(b.expand()) == 5
    assert b.expand() == [1, 1, 2, 2, 2]
    with pytest.raises(ValueError):
        ElementMultiset(spec, ((0, 0),))
    with pytest.raises(ValueError):
        ElementMultiset(spec, ((7, 1),))


def test_subset_sums_examples():
    spec = GroupSpec((3,))
    b = ElementMultiset(spec, ((1, 2),))
    assert sorted(subset_sums(b).indices()) == [0, 1, 2]

    spec2 = GroupSpec((3, 3))
    b2 = ElementMultiset.from_indices(spec2, [encode(spec2, c) for c in [(1, 0), (0, 1)]])
    assert frozenset(subset_sums(b2).coords()) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    empty = ElementMultiset(spec, ())
    assert subset_sums(empty) == GroupSet.identity(spec)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subset_sums_matches_naive(data):
    factors = tuple(data.draw(st.lists(st.integers(2, 7), min_size=1, max_size=2)))
    spec = GroupSpec(factors)
    size = data.draw(st.integers(0, 9))
    idxs = data.draw(st.lists(st.integers(0, spec.order - 1), min_size=size, max_size=size))
    b = ElementMultiset.from_indices(spec, idxs)
    got = frozenset(subset_sums(b).coords())
    from sumsetlab.groups import decode

    assert got == naive_subset_sums(spec.factors, [decode(spec, x) for x in idxs])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subset_sums_decomposition(data):
    """S(B1 u B2) = S(B1) + S(B2), the closure-splitting identity."""
    spec = GroupSpec((data.draw(st.integers(2, 30)),))
    idx = st.integers(0, spec.order - 1)
    b1 = ElementMultiset.from_indices(spec, data.draw(st.lists(idx, max_size=6)))
    b2 = ElementMultiset.from_indices(spec, data.draw(st.lists(idx, max_size=6)))
    union = ElementMultiset(spec, b1.entries + b2.entries)  # multiplicities add
    assert subset_sums(union) == sumset(subset_sums(b1), subset_sums(b2))


# ---------------------------------------------------------------------------
# is_cover


def test_is_cover():
    assert is_cover(GroupSet.full(Z5))
    assert not is_cover(GroupSet.empty(Z5))
    assert is_cover(m_fold(gset(Z5, [(0,), (1,)]), 4))


# ---------------------------------------------------------------------------
# JSON round trips


def test_json_round_trips():
    spec = parse_group_spec("Z6xZ10")
    a = gset(spec, [(0, 0), (1, 2), (5, 9)])
    for form in ("bitmask", "elements"):
        payload = set_to_json(a, form=form)
        assert set_from_json(spec, payload) == a
    assert set_to_json(a, form="bitmask")["bitmask_hex"] == a.bits.to_bytes(8, "little").hex()
    # Duplicates, order and numpy ints do not matter in the elements form.
    elems = [[5, 9], [0, 0], [np.int64(1), np.uint8(2)], [5, 9], [0, 0]]
    assert set_from_json(spec, {"elements": elems}) == a
    assert set_from_json(spec, {"elements": []}) == GroupSet.empty(spec)


def test_json_both_forms_equal():
    spec = parse_group_spec("Z3^4")
    a = GroupSet(spec, random.Random(0).getrandbits(81))
    from_mask = set_from_json(spec, set_to_json(a, form="bitmask"))
    from_elems = set_from_json(spec, set_to_json(a, form="elements"))
    assert from_mask == from_elems == a


def test_json_errors():
    spec = parse_group_spec("Z5")
    with pytest.raises(ValueError, match="exactly one"):
        set_from_json(spec, {})
    with pytest.raises(ValueError, match="exactly one"):
        set_from_json(spec, {"elements": [], "bitmask_hex": "00"})
    with pytest.raises(ValueError, match=r"\[7\]"):
        set_from_json(spec, {"elements": [[0], [7]]})
    # The first bad element is named, with the reason from the group.
    msg = "bad element [7] for Z5: coordinate 7 out of range [0, 5) in (7,)"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        set_from_json(spec, {"elements": [[1], [7], [9], [-1]]})
    with pytest.raises(ValueError, match="length mismatch"):
        set_from_json(spec, {"bitmask_hex": "0000"})
    with pytest.raises(ValueError, match="hex"):
        set_from_json(spec, {"bitmask_hex": "zz"})
    with pytest.raises(ValueError, match="beyond"):
        set_from_json(spec, {"bitmask_hex": "ff"})  # bits 5..7 out of range for Z5
