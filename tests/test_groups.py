import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import add, is_prime_trial_division, neg
from sumsetlab.abelian import (
    check_plunnecke,
    kpn_exact_small,
    kpn_upper,
    pigeonhole_exhaustive,
    theorem1_bound,
    theorem1_bound_raw,
    theorem1_trials,
    verify_theorem1,
)
from sumsetlab.config import OrderCapError, order_cap, set_order_cap
from sumsetlab.constructions import (
    enumerate_bases,
    example1_family,
    example_A,
    example_C,
    random_basis_matrix,
    random_cover_set,
    random_set,
    standard_basis_matrix,
    verify_example1,
)
from sumsetlab.groups import (
    _PRIME_LIMIT,
    GroupSpec,
    as_prime,
    decode,
    encode,
    is_prime,
    parse_group_spec,
    vector_space_spec,
)
from sumsetlab.reports import map_trials
from sumsetlab.setops import GroupSet, m_fold
from sumsetlab.sl2 import SL2Group, quasirandom_info, remark12, sl2_group, theorem4_trials


def test_parse_basic_forms():
    assert parse_group_spec("Z5").factors == (5,)
    assert parse_group_spec("Z3^4").factors == (3, 3, 3, 3)
    assert parse_group_spec("Z6xZ10").factors == (6, 10)
    assert parse_group_spec("Z2^3xZ4").factors == (2, 2, 2, 4)


def test_parse_case_insensitive():
    assert parse_group_spec("z3^4") == parse_group_spec("Z3^4")
    assert parse_group_spec("Z6XZ10") == parse_group_spec("Z6xZ10")


def test_parse_orders():
    assert parse_group_spec("Z5").order == 5
    assert parse_group_spec("Z3^4").order == 81
    assert parse_group_spec("Z6xZ10").order == 60


@pytest.mark.parametrize(
    "bad",
    ["", "Z", "Z0", "Z-3", "Z3^0", "Z3x", "xZ3", "Z3 x Z5", "Z3^", "A5", "Z3^^2", "Z3xx5"],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_group_spec(bad)


def test_str_round_trip():
    for text in ("Z5", "Z3^4", "Z6xZ10", "Z2^3xZ4xZ2"):
        spec = parse_group_spec(text)
        assert parse_group_spec(str(spec)) == spec
    assert str(parse_group_spec("Z3^4")) == "Z3^4"
    assert str(parse_group_spec("Z6xZ10")) == "Z6xZ10"


def test_encode_examples():
    assert encode(GroupSpec((3, 3)), (2, 1)) == 5
    assert encode(GroupSpec((6, 10)), (5, 9)) == 59


def test_encode_rejects_out_of_range():
    spec = GroupSpec((3, 3))
    with pytest.raises(ValueError):
        encode(spec, (3, 0))
    with pytest.raises(ValueError):
        encode(spec, (0, -1))
    with pytest.raises(ValueError):
        encode(spec, (0,))
    with pytest.raises(ValueError):
        decode(spec, 9)
    with pytest.raises(ValueError):
        decode(spec, -1)


@pytest.mark.parametrize("factors", [(7,), (2, 2, 2), (6, 10), (4, 9)])
def test_encode_decode_bijection_exhaustive(factors):
    spec = GroupSpec(factors)
    seen = set()
    for x in range(spec.order):
        c = decode(spec, x)
        assert encode(spec, c) == x
        seen.add(c)
    assert len(seen) == spec.order


@pytest.mark.parametrize("factors", [(5,), (2, 3), (4, 4)])
def test_group_laws_exhaustive(factors):
    spec = GroupSpec(factors)
    zero = 0
    for x in range(spec.order):
        assert add(spec, x, neg(spec, x)) == zero
        assert add(spec, x, zero) == x
        for y in range(spec.order):
            assert add(spec, x, y) == add(spec, y, x)
    for x in range(spec.order):
        for y in range(spec.order):
            for z in range(spec.order):
                assert add(spec, add(spec, x, y), z) == add(spec, x, add(spec, y, z))


@given(st.data())
def test_group_laws_random_large(data):
    spec = GroupSpec((16, 9, 25))
    n = spec.order
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    z = data.draw(st.integers(0, n - 1))
    assert add(spec, x, y) == add(spec, y, x)
    assert add(spec, add(spec, x, y), z) == add(spec, x, add(spec, y, z))
    assert add(spec, x, neg(spec, x)) == 0


def test_order_cap_guard():
    assert order_cap() == 1 << 26
    with pytest.raises(OrderCapError):
        parse_group_spec("Z2^50")
    with pytest.raises(OrderCapError):
        parse_group_spec("Z2^999999999")
    old = order_cap()
    try:
        set_order_cap(100)
        with pytest.raises(OrderCapError):
            parse_group_spec("Z101")
        assert parse_group_spec("Z100").order == 100
        with pytest.raises(ValueError):
            set_order_cap(0)
    finally:
        set_order_cap(old)


@pytest.mark.parametrize(
    "text, least",
    [("Z2^99", 2**27), ("Z2^26xZ2", 2**27), ("Z3^17", 3**17), ("Z8193^2", 8193**2)],
)
def test_order_cap_message_states_a_true_order(text, least):
    """The refusal names a lower bound the order really meets, not cap + 1."""
    with pytest.raises(OrderCapError) as err:
        parse_group_spec(text)
    msg = str(err.value)
    assert f"group {text} has at least {least} elements" in msg
    assert str(order_cap() + 1) not in msg


def test_vector_space_spec_checks_the_cap_first():
    """A huge exponent is refused after a few multiplications, and a base
    below 2 before any."""
    with pytest.raises(OrderCapError, match=r"Z2\^1000000000000000000 has at least 134217728"):
        vector_space_spec(2, 10**18)
    with pytest.raises(OrderCapError):
        vector_space_spec(3, 2**2000)
    for p in (1, 0, -2):
        with pytest.raises(ValueError, match=f"cyclic factor must be >= 2, got {p}"):
            vector_space_spec(p, 10**18)
    assert vector_space_spec(2, 26).order == order_cap()


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 17, 97]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in [0, 1, 4, 6, 9, 15, 91, 100])


def test_is_prime_matches_trial_division():
    assert [is_prime(n) for n in range(10**5)] == [is_prime_trial_division(n) for n in range(10**5)]


def test_is_prime_is_exact_below_its_limit():
    """3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7, and the
    limit itself is one to all 13 bases, so it is refused, not judged."""
    assert not is_prime(3215031751)
    assert as_prime(2**61 - 1) == 2**61 - 1 and not is_prime(2**67 - 1)
    assert is_prime(1_000_000_000_000_000_003)
    for call in (is_prime, as_prime):
        with pytest.raises(ValueError, match=f"decided only below {_PRIME_LIMIT}, got"):
            call(_PRIME_LIMIT)


def _with_order_cap(value):
    cap = order_cap()
    try:
        set_order_cap(value)
    finally:
        set_order_cap(cap)


_Z5 = GroupSpec((5,))
_PAIR = GroupSet.from_indices(_Z5, [0, 1])
_FULL = GroupSet.full(_Z5)

# Each public entry point with an integer parameter: a call that passes x
# in that parameter's place, and a value the call accepts.
_INTEGER_PARAMETERS = {
    "check_plunnecke.k": (lambda x: check_plunnecke(_PAIR, _PAIR, x), 2),
    "theorem1_bound_raw.m": (lambda x: theorem1_bound_raw(x, 16), 2),
    "theorem1_bound_raw.order": (lambda x: theorem1_bound_raw(2, x), 16),
    "theorem1_bound.m": (lambda x: theorem1_bound(x, 16), 2),
    "theorem1_bound.order": (lambda x: theorem1_bound(2, x), 16),
    "verify_theorem1.m": (lambda x: verify_theorem1([_FULL, _FULL], x), 2),
    "theorem1_trials.m": (lambda x: theorem1_trials(_Z5, x, 1, 0), 2),
    "theorem1_trials.trials": (lambda x: theorem1_trials(_Z5, 2, x, 0), 2),
    "theorem1_trials.K": (lambda x: theorem1_trials(_Z5, 2, 1, 0, K=x), 1),
    "pigeonhole_exhaustive.order": (pigeonhole_exhaustive, 4),
    "kpn_upper.p": (lambda x: kpn_upper(x, 2), 3),
    "kpn_upper.n": (lambda x: kpn_upper(3, x), 2),
    "kpn_exact_small.p": (lambda x: kpn_exact_small(x, 2, k_max=1), 3),
    "kpn_exact_small.n": (lambda x: kpn_exact_small(3, x, k_max=1), 2),
    "kpn_exact_small.k_max": (lambda x: kpn_exact_small(3, 2, k_max=x), 2),
    "kpn_exact_small.budget": (lambda x: kpn_exact_small(3, 2, k_max=1, budget=x), 2),
    "example_C.p": (lambda x: example_C(x, 1), 3),
    "example_C.i": (lambda x: example_C(3, x), 1),
    "example_A.p": (lambda x: example_A(x, 1, 1), 3),
    "example_A.k": (lambda x: example_A(3, x, 1), 2),
    "example_A.i": (lambda x: example_A(3, 1, x), 1),
    "example1_family.p": (lambda x: example1_family(x, 1), 3),
    "example1_family.k": (lambda x: example1_family(3, x), 2),
    "verify_example1.p": (lambda x: verify_example1(x, 1), 3),
    "verify_example1.k": (lambda x: verify_example1(3, x), 2),
    "standard_basis_matrix.p": (lambda x: standard_basis_matrix(x, 2), 3),
    "standard_basis_matrix.n": (lambda x: standard_basis_matrix(3, x), 2),
    "random_basis_matrix.p": (lambda x: random_basis_matrix(x, 2, 0), 3),
    "random_basis_matrix.n": (lambda x: random_basis_matrix(3, x, 0), 2),
    "enumerate_bases.p": (lambda x: enumerate_bases(x, 2), 3),
    "enumerate_bases.n": (lambda x: enumerate_bases(3, x), 2),
    "random_set.size": (lambda x: random_set(_Z5, x, random.Random(0)), 2),
    "random_cover_set.m": (lambda x: random_cover_set(_Z5, x, 0.5, 0), 2),
    "GroupSpec.factors": (lambda x: GroupSpec((x,)), 2),
    "is_prime.n": (is_prime, 2),
    "vector_space_spec.p": (lambda x: vector_space_spec(x, 2), 3),
    "vector_space_spec.n": (lambda x: vector_space_spec(3, x), 2),
    "map_trials.trials": (lambda x: map_trials(lambda rng: rng.random(), x, 0), 2),
    "m_fold.m": (lambda x: m_fold(_PAIR, x), 2),
    "set_order_cap.value": (_with_order_cap, 100),
    "SL2Group.p": (SL2Group, 5),
    "sl2_group.p": (sl2_group, 5),
    "quasirandom_info.p": (quasirandom_info, 5),
    "theorem4_trials.p": (lambda x: theorem4_trials(x, 0, 0), 5),
    "theorem4_trials.trials": (lambda x: theorem4_trials(5, x, 0, K=1), 1),
    "theorem4_trials.K": (lambda x: theorem4_trials(5, 1, 0, K=x), 1),
    "remark12.p": (lambda x: remark12(x, trials=0), 5),
    "remark12.trials": (lambda x: remark12(5, trials=x), 2),
}


@pytest.mark.parametrize("call, valid", _INTEGER_PARAMETERS.values(), ids=_INTEGER_PARAMETERS)
def test_integer_parameters_are_refused_not_truncated(call, valid):
    """Floats, bools and strings are refused by the integer rule, before any
    range check; numpy integers are taken like the int they hold."""
    for x in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match=f" {re.escape(repr(x))}( for .+)? is not an integer$"):
            call(x)
    assert call(np.int64(valid)) == call(valid)


def test_vector_space_spec():
    assert vector_space_spec(3, 4) == parse_group_spec("Z3^4")
    assert vector_space_spec(2, 1) == parse_group_spec("Z2")
    with pytest.raises(ValueError):
        vector_space_spec(3, 0)
