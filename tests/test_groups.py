import math

import pytest
from hypothesis import given, strategies as st

from sumsetlab.config import OrderCapError, order_cap, set_order_cap
from sumsetlab.groups import (
    GroupSpec,
    add,
    decode,
    encode,
    is_prime,
    neg,
    parse_group_spec,
    vector_space_spec,
)


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


def test_vector_space_spec():
    assert vector_space_spec(3, 4) == parse_group_spec("Z3^4")
    assert vector_space_spec(2, 1) == parse_group_spec("Z2")
    with pytest.raises(ValueError):
        vector_space_spec(3, 0)
