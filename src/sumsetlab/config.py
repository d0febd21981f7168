"""Process-wide resource limits for dense group representations."""

from __future__ import annotations

import os

DEFAULT_ORDER_CAP = 1 << 26
ENV_ORDER_CAP = "SUMSETLAB_ORDER_CAP"


class OrderCapError(ValueError):
    """Requested group exceeds the configured element cap."""


def _cap_from_env() -> int:
    raw = os.environ.get(ENV_ORDER_CAP)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_ORDER_CAP} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ValueError(f"{ENV_ORDER_CAP} must be >= 2, got {value}")
    return value


_order_cap: int | None = None  # read from the environment on first use, not on import


def order_cap() -> int:
    global _order_cap
    if _order_cap is None:
        _order_cap = _cap_from_env()
    return _order_cap


def set_order_cap(value: int) -> None:
    """Override the cap on group order (element count, not bytes)."""
    from .groups import at_least  # here, since groups imports this module

    global _order_cap
    _order_cap = at_least(value, 2, "order cap")


def _refuse(what: str, count: str) -> OrderCapError:
    fix = f"raise it with set_order_cap() or ${ENV_ORDER_CAP}"
    return OrderCapError(f"{what} has {count} elements, above the cap of {order_cap()}; {fix}")


def check_order(order: int, what: str) -> None:
    if order > order_cap():
        raise _refuse(what, str(order))


def check_doubling(p: int, level: int) -> None:
    """Refuse ``Z_p^(2^level)`` without forming ``2 ** level``: its order is
    at least ``2^(2^level)``, so it is above the cap once ``2^level`` passes
    the cap's bit length.  Smaller levels are left to ``check_powers``."""
    if level >= order_cap().bit_length().bit_length():
        raise _refuse(f"Z{p}^(2^{level}) (p = {p}, level {level})", f"at least 2^(2^{level})")


def check_powers(terms: list[tuple[int, int]], what: str) -> None:
    """Refuse a product of powers ``d ** e`` above the cap without forming it:
    one exact running product stops as soon as it passes the cap, so at most
    about log2(cap) multiplications run, whatever the exponents."""
    order, cap = 1, order_cap()
    for d, e in terms:
        if d < 2:  # before the loop, which would never pass the cap
            raise ValueError(f"cyclic factor must be >= 2, got {d}")
        for _ in range(e):
            order *= d
            if order > cap:
                raise _refuse(what, f"at least {order}")
