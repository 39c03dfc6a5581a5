"""Exact evaluation of the automorphism-order bounds and related quantities.

Everything here is integer or rational arithmetic on arbitrary-precision
values; results are reported exactly.  The headline quantity, the order bound
for a foliation with ample canonical bundle on a surface, is

    ((3 m^2 + 2 m) KF2) ^ ((m^2 KF2 + 2)^2 - 1)

with m = (KFKX + 4 KF2 + 1)^2 + 3 KF2, where KF2 and KFKX are the
self-intersection of the foliation's canonical bundle and its product with
the surface's canonical bundle.  The bound can run to millions of digits, so
reports carry the base, the exponent and the decimal digit count, all worked
out without forming the power; the exact integer is formed only when it is
read, and its decimal rendering stays behind an explicit request.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import ComputationError, InputError
from .poly import unlimited_digits

# log10(2) to 32 places as an exact rational; the fractional parts of
# bits*log10(2) stay far enough from integers for any feasible bit length
# that integer floors against this approximation are exact.
_LOG10_2_NUM = 30102999566398119521373889472449
_LOG10_2_DEN = 10 ** 32

# Reports refuse to materialise bounds beyond this many decimal digits; the
# base/exponent decomposition is always available and always exact.
MAX_REPORT_DIGITS = 5_000_000

# Guard digits of the logarithm in power_digit_count: its error stays below
# 1e-29, so a fractional part farther than _NEAR_INTEGER from an integer
# gives the floor exactly.
_LOG_GUARD_DIGITS = 30
_NEAR_INTEGER = decimal.Decimal("1e-20")


def decimal_digit_count(n: int) -> int:
    """Exact number of decimal digits of |n|, without rendering the decimal.

    Uses the bit length to pin the answer to at most two candidates, then
    settles any ambiguity with a single exact integer comparison.
    """
    n = abs(n)
    if n == 0:
        return 1
    bits = n.bit_length()
    low = (bits - 1) * _LOG10_2_NUM // _LOG10_2_DEN
    high = bits * _LOG10_2_NUM // _LOG10_2_DEN
    if low == high:
        return low + 1
    return high + 1 if n >= 10 ** high else low + 1


def power_digit_count(base: int, exponent: int) -> int:
    """Exact number of decimal digits of base**exponent, without forming the power.

    The count is floor(exponent * log10(|base|)) + 1, with the correctly
    rounded logarithm of :mod:`decimal` carried to enough digits that only a
    product within 1e-20 of an integer (a base that is a power of ten, say)
    is ambiguous; that case alone is settled by one exact comparison.
    """
    if exponent < 0:
        raise ValueError(f"need exponent >= 0, got {exponent}")
    base = abs(base)
    if base <= 1 or exponent == 0:
        return 1
    exponent_digits = len(str(exponent))
    # The logarithm is below base.bit_length(), so its absolute error, scaled
    # by the exponent, is under 10**(-_LOG_GUARD_DIGITS + 1) / 2.
    prec = exponent_digits + len(str(base.bit_length())) + _LOG_GUARD_DIGITS
    log = decimal.Context(prec=prec).log10(decimal.Decimal(base))
    # Wide enough that the product is exact.
    value = decimal.Context(prec=prec + exponent_digits).multiply(log, exponent)
    nearest = int(value.to_integral_value(rounding=decimal.ROUND_HALF_EVEN))
    if abs(value - nearest) < _NEAR_INTEGER:
        return nearest + 1 if base ** exponent >= 10 ** nearest else nearest
    return int(value) + 1


def check_report_size(base: int, exponent: int) -> None:
    """Refuse a bound base**exponent whose decimal may pass MAX_REPORT_DIGITS.

    The estimate comes from the bit length of the base and never forms the
    power; it is at least the true digit count.
    """
    digits_upper = exponent * base.bit_length() * _LOG10_2_NUM // _LOG10_2_DEN + 1
    if digits_upper > MAX_REPORT_DIGITS:
        raise ComputationError(
            f"the exact bound {base}^{exponent} has roughly {digits_upper} decimal "
            f"digits, past the practical cap of {MAX_REPORT_DIGITS}; "
            "use the base/exponent decomposition instead"
        )


def int_to_decimal(n: int) -> str:
    """Decimal string of an integer of any size, past the interpreter's int-string limit."""
    with unlimited_digits():
        return str(n)


def power_to_decimal(base: int, exponent: int) -> str:
    """Decimal string of base**exponent, byte-identical to str(base**exponent).

    The power is formed in :mod:`decimal`, whose multiplication of large
    operands is subquadratic and whose values print without a base
    conversion; ``str`` of a big ``int`` is quadratic in its digit count on
    Python 3.11.  The context traps ``Inexact``, so no digit is ever rounded.
    """
    context = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact]
    )
    return str(context.power(decimal.Decimal(base), exponent))


def web_bound_parts(d: int, k: int, N: int) -> tuple[int, int]:
    """Base d + 2k and exponent (N+1)^2 - 1 of the web bound, domain-checked."""
    if d < 0:
        raise InputError(f"web degree must satisfy d >= 0, got {d}")
    if k < 1:
        raise InputError(f"multidegree must satisfy k >= 1, got {k}")
    if N < 2:
        raise InputError(f"ambient dimension must satisfy N >= 2, got {N}")
    return d + 2 * k, (N + 1) ** 2 - 1


def web_aut_bound(d: int, k: int, N: int) -> int:
    """Order bound (d + 2k)^((N+1)^2 - 1) for a degree-d k-web on P^N."""
    base, exponent = web_bound_parts(d, k, N)
    return base ** exponent


def pluricanonical_multiple(kf2: int, kfkx: int) -> int:
    """The multiple m = (KFKX + 4 KF2 + 1)^2 + 3 KF2 used by the main bound."""
    if kf2 <= 0:
        raise InputError(f"need KF2 > 0 (ample canonical bundle), got {kf2}")
    return (kfkx + 4 * kf2 + 1) ** 2 + 3 * kf2


def very_ampleness_threshold(l2: int, lkx: int) -> tuple[Fraction, int]:
    """Effective very-ampleness threshold for an ample line bundle on a surface.

    Returns the exact rational k0 = ((L.KX + 4 L^2 + 1)^2 / L^2 + 3) / 2 and
    the least integer strictly above it; multiples m > k0 of the bundle are
    very ample.
    """
    if l2 <= 0:
        raise InputError(f"need L^2 > 0, got {l2}")
    k0 = (Fraction((lkx + 4 * l2 + 1) ** 2, l2) + 3) / 2
    least = math.floor(k0) + 1
    return k0, least


def section_bound(m: int, kf2: int) -> int:
    """Cap m^2 KF2 + 2 on the number of independent pluricanonical sections."""
    if m < 1:
        raise InputError(f"need m >= 1, got {m}")
    if kf2 <= 0:
        raise InputError(f"need KF2 > 0, got {kf2}")
    return m * m * kf2 + 2


def tangency_numbers(m: int, kf2: int) -> tuple[int, int]:
    """The characteristic numbers (m^2 KF2, (m^2 + m) KF2) of the embedded pair.

    The first is the degree of the embedded surface; the second counts
    tangencies with a generic hyperplane section.
    """
    if m < 1:
        raise InputError(f"need m >= 1, got {m}")
    if kf2 <= 0:
        raise InputError(f"need KF2 > 0, got {kf2}")
    return m * m * kf2, (m * m + m) * kf2


@dataclass(frozen=True)
class BoundReport:
    """Everything the main order bound produces, exactly.

    ``final_bound``, the integer base**exponent, is formed on first access.
    """

    kf2: int
    kfkx: int
    m: int
    h0_cap: int
    n_cap: int
    d_n2: int
    d_n1: int
    base: int
    exponent: int
    digit_count: int

    @cached_property
    def final_bound(self) -> int:
        return self.base ** self.exponent

    def to_json_dict(self, full_digits: bool = False) -> dict:
        doc = {
            "kf2": self.kf2,
            "kfkx": self.kfkx,
            "m": self.m,
            "h0_cap": self.h0_cap,
            "n_cap": self.n_cap,
            "d_n2": self.d_n2,
            "d_n1": self.d_n1,
            "base": self.base,
            "exponent": self.exponent,
            "digit_count": self.digit_count,
        }
        if full_digits:
            doc["final_bound"] = power_to_decimal(self.base, self.exponent)
        return doc


def foliation_aut_bound(kf2: int, kfkx: int) -> BoundReport:
    """Order bound for foliation symmetries from the two intersection numbers.

    Composes the pluricanonical multiple, the section cap, and the tangency
    numbers; the final value is base^exponent with

        base     = d_{N-2} + 2 d_{N-1} = (3 m^2 + 2 m) KF2,
        exponent = (m^2 KF2 + 2)^2 - 1.
    """
    m = pluricanonical_multiple(kf2, kfkx)
    h0_cap = section_bound(m, kf2)
    n_cap = h0_cap - 1
    d_n2, d_n1 = tangency_numbers(m, kf2)
    base = d_n2 + 2 * d_n1
    assert base == (3 * m * m + 2 * m) * kf2
    exponent = h0_cap ** 2 - 1
    check_report_size(base, exponent)
    return BoundReport(
        kf2=kf2,
        kfkx=kfkx,
        m=m,
        h0_cap=h0_cap,
        n_cap=n_cap,
        d_n2=d_n2,
        d_n1=d_n1,
        base=base,
        exponent=exponent,
        digit_count=power_digit_count(base, exponent),
    )


@dataclass(frozen=True)
class CharNumbers:
    """Characteristic numbers d_0 ... d_{N-1} of an embedded pair in P^N.

    For a k-web on P^N itself, d_0 = k and d_1 is the web degree; higher
    entries are caller-supplied bookkeeping.
    """

    values: tuple[int, ...]
    N: int

    def __post_init__(self):
        if self.N < 1 or len(self.values) != self.N:
            raise InputError(
                f"need exactly N={self.N} characteristic numbers, got {len(self.values)}"
            )
        if any(v < 0 for v in self.values):
            raise InputError("characteristic numbers are non-negative")

    @classmethod
    def for_web(cls, k: int, degree: int, N: int, higher: Sequence[int] = ()) -> "CharNumbers":
        values = (k, degree) + tuple(higher)
        return cls(values=values, N=N)


def duality_transform(numbers: CharNumbers) -> CharNumbers:
    """Characteristic numbers of the dual pair: the reversed vector."""
    return CharNumbers(values=tuple(reversed(numbers.values)), N=numbers.N)
