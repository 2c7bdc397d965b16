"""Decimal reference for the generator's rounding rule.

Half-up (ties away from zero) on the shortest decimal rendering of a
float, computed one value at a time with ``decimal``.  The generator
rounds whole arrays with ``gen._round2``; the tests require it to agree
with these bit for bit.
"""

from decimal import ROUND_HALF_UP, Decimal


def round2(x: float) -> float:
    """``x`` rounded half-up to cents on ``repr(x)``."""
    return float(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def half_up_int(x: float) -> int:
    """``x`` rounded half-up to an integer on ``repr(x)``."""
    return int(Decimal(repr(x)).quantize(Decimal("1"), rounding=ROUND_HALF_UP))
