"""Affine-chart foliations on surfaces: blow-ups and singularity bookkeeping.

A local foliation is a saturated 1-form a(x, y) dx + b(x, y) dy on a surface
chart (saturated: a and b share no nonconstant factor).  Blowing up the
origin produces two charts,

    chart 1, coordinates (x, t) with y = t x:
        a(x, tx) dx + b(x, tx) (t dx + x dt),
    chart 2, coordinates (s, y) with x = s y:
        a(sy, y) (s dy + y ds) + b(sy, y) dy,

and the order l of vanishing of the pulled-back form along the exceptional
curve E (the common power of x, respectively y, dividing both chart
coefficients before saturation) drives the canonical-bundle transport:
blowing up changes the pair of intersection numbers (KF2, KFKX) of the
downstairs model by

    KF2  ->  KF2 - (1 - l)^2,      KFKX  ->  KFKX - (1 - l),

using E^2 = -1 and the upstairs canonical bundle gaining one copy of E.
The blow-up is dicritical when E is not invariant by the saturated lifted
foliation; for a reduced singularity l = 1 and both numbers are unchanged,
for a regular point l = 0, and for a radial-type point l = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import InputError, ValidationError
from .poly import Polynomial, Scalar, poly_gcd


class LocalFoliation:
    """Saturated affine 1-form a dx + b dy in two variables."""

    __slots__ = ("a", "b")

    def __init__(self, a: Polynomial, b: Polynomial):
        if a.nvars != 2 or b.nvars != 2:
            raise InputError("local foliation coefficients must use 2 variables")
        if a.is_zero and b.is_zero:
            raise ValidationError("empty_form", "both coefficients vanish")
        gcd = poly_gcd(a, b)
        if gcd.degree() > 0:
            raise ValidationError(
                "unsaturated",
                f"coefficients share the nonconstant factor {gcd}",
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("LocalFoliation is immutable")

    def __eq__(self, other):
        if not isinstance(other, LocalFoliation):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"LocalFoliation(({self.a}) dx + ({self.b}) dy)"

    def multiplicity_at_origin(self) -> int:
        """Algebraic multiplicity: least total degree over both coefficients."""
        degrees = [
            min(sum(e) for e, _ in p.terms())
            for p in (self.a, self.b)
            if not p.is_zero
        ]
        return min(degrees)

    def dual_field_linear_part(self) -> tuple[tuple[Fraction, ...], ...]:
        """Jacobian at the origin of the dual vector field v = b d/dx - a d/dy."""
        origin = [Fraction(0), Fraction(0)]
        vx, vy = self.b, -self.a
        return (
            (vx.partial(0).evaluate(origin), vx.partial(1).evaluate(origin)),
            (vy.partial(0).evaluate(origin), vy.partial(1).evaluate(origin)),
        )

    def to_json_dict(self) -> dict:
        return {"a": self.a.to_json_dict(), "b": self.b.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LocalFoliation":
        try:
            a = Polynomial.from_json_dict(data["a"])
            b = Polynomial.from_json_dict(data["b"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed local foliation JSON: {exc}") from exc
        return cls(a, b)


@dataclass(frozen=True)
class BlowupResult:
    """Both charts of a single blow-up at the origin.

    ``chart1`` uses coordinates (x, t), form a dx + b dt; ``chart2`` uses
    (s, y), form a ds + b dy.  ``l`` is the vanishing order of the pulled-back
    form along the exceptional curve, before saturation.
    """

    chart1: LocalFoliation
    chart2: LocalFoliation
    l: int
    dicritical: bool

    def to_json_dict(self) -> dict:
        return {
            "l": self.l,
            "dicritical": self.dicritical,
            "chart1": self.chart1.to_json_dict(),
            "chart2": self.chart2.to_json_dict(),
        }


def blowup_point(foliation: LocalFoliation) -> BlowupResult:
    """Blow up the origin of the chart and saturate both resulting forms."""
    x, y = Polynomial.variables(2)

    # Chart 1: (x, t), substitute y = t x.  Second variable plays the role of t.
    a1 = foliation.a.compose([x, y * x])
    b1 = foliation.b.compose([x, y * x])
    c1_dx = a1 + y * b1
    c1_dt = x * b1
    l1 = _common_order(c1_dx, c1_dt, 0)

    # Chart 2: (s, y), substitute x = s y.  First variable plays the role of s.
    a2 = foliation.a.compose([x * y, y])
    b2 = foliation.b.compose([x * y, y])
    c2_ds = y * a2
    c2_dy = x * a2 + b2
    l2 = _common_order(c2_ds, c2_dy, 1)

    if l1 != l2:
        raise AssertionError(f"chart orders disagree: {l1} vs {l2}")
    l = l1

    chart1 = LocalFoliation(_shift(c1_dx, 0, l), _shift(c1_dt, 0, l))
    chart2 = LocalFoliation(_shift(c2_ds, 1, l), _shift(c2_dy, 1, l))

    # E = {x = 0} in chart 1: invariant iff the saturated dt-coefficient
    # vanishes on E, i.e. is divisible by x.  Same test with y in chart 2.
    invariant1 = chart1.b.is_zero or chart1.b.x_order(0) >= 1
    invariant2 = chart2.a.is_zero or chart2.a.x_order(1) >= 1
    if invariant1 != invariant2:
        raise AssertionError("charts disagree on exceptional-curve invariance")
    return BlowupResult(chart1=chart1, chart2=chart2, l=l, dicritical=not invariant1)


def _common_order(p: Polynomial, q: Polynomial, var: int) -> int:
    orders = [poly.x_order(var) for poly in (p, q) if not poly.is_zero]
    if not orders:
        raise InputError("pulled-back form vanished identically")
    return min(orders)


def _shift(p: Polynomial, var: int, amount: int) -> Polynomial:
    if p.is_zero:
        return p
    return p.shift_down(var, amount)


# -- reducedness --------------------------------------------------------------


@dataclass(frozen=True)
class Reducedness:
    """Outcome of the reduced-singularity test on a linear part."""

    reduced: bool
    reason: Optional[str] = None
    quotient: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        doc: dict = {"reduced": self.reduced}
        if self.reason is not None:
            doc["reason"] = self.reason
        if self.quotient is not None:
            doc["quotient"] = str(self.quotient)
        return doc


BOTH_EIGENVALUES_ZERO = "both eigenvalues zero"
POSITIVE_RATIONAL_QUOTIENT = "positive rational quotient"


def reduced_check(matrix: Sequence[Sequence[Scalar]]) -> Reducedness:
    """Exact reducedness of a singularity from the linear part of its vector field.

    A singularity is reduced when the two eigenvalues are not both zero and
    their quotient, where defined, is not a positive rational.  Decided
    without leaving the rationals: the quotient u of the eigenvalues of a
    matrix with trace tr and determinant det != 0 satisfies
    det*u^2 - (tr^2 - 2 det)*u + det = 0, so it is rational exactly when that
    quadratic has a rational root, and the two roots u, 1/u share their sign.
    Complex conjugate eigenvalues never produce a positive rational quotient,
    so they land on the reduced side.
    """
    if len(matrix) != 2 or any(len(row) != 2 for row in matrix):
        raise InputError("reduced_check expects a 2x2 matrix")
    (m00, m01), (m10, m11) = (
        (Fraction(matrix[0][0]), Fraction(matrix[0][1])),
        (Fraction(matrix[1][0]), Fraction(matrix[1][1])),
    )
    trace = m00 + m11
    det = m00 * m11 - m01 * m10
    if trace == 0 and det == 0:
        return Reducedness(reduced=False, reason=BOTH_EIGENVALUES_ZERO)
    if det == 0:
        # One eigenvalue zero, the other equal to the nonzero trace; the only
        # defined quotient is 0, which is not positive.
        return Reducedness(reduced=True)
    middle = trace * trace - 2 * det
    discriminant = middle * middle - 4 * det * det
    root = _fraction_sqrt(discriminant)
    if root is None:
        return Reducedness(reduced=True)
    candidates = [(middle + root) / (2 * det), (middle - root) / (2 * det)]
    positive = [u for u in candidates if u > 0]
    if positive:
        return Reducedness(
            reduced=False,
            reason=POSITIVE_RATIONAL_QUOTIENT,
            quotient=max(positive),
        )
    return Reducedness(reduced=True)


def _fraction_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None when it is not a square."""
    if value < 0:
        return None
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


# -- intersection-number transport ---------------------------------------------


@dataclass(frozen=True)
class SurfaceNumbers:
    """The pair (KF2, KFKX) of intersection numbers carried through blow-ups."""

    kf2: int
    kfkx: int

    def to_json_dict(self) -> dict:
        return {"kf2": self.kf2, "kfkx": self.kfkx}


def canonical_transform(numbers: SurfaceNumbers, l: int) -> SurfaceNumbers:
    """Intersection numbers upstairs of a blow-up with exceptional order l.

    With the upstairs canonical bundle differing from the pullback by
    (1 - l) E and E^2 = -1:

        KF2  -> KF2 - (1 - l)^2,      KFKX -> KFKX - (1 - l).

    l = 1 (reduced singularity) changes nothing; l = 0 (regular point) drops
    both numbers by one; l = 2 (radial-type) trades one for the other.
    """
    if l < 0:
        raise InputError("exceptional order l must be non-negative")
    return SurfaceNumbers(
        kf2=numbers.kf2 - (1 - l) ** 2,
        kfkx=numbers.kfkx - (1 - l),
    )


def ampleness_necessary_check(numbers: SurfaceNumbers) -> bool:
    """Necessary (not sufficient) positivity condition for ampleness: KF2 > 0."""
    return numbers.kf2 > 0
