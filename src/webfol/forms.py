"""Twisted k-symmetric 1-forms on projective space, in homogeneous coordinates.

A form is given by its coefficient family: a map from differential
multi-indices I = (i_0, ..., i_N) with |I| = k to homogeneous polynomial
coefficients in the N+1 homogeneous coordinates,

    omega = sum_I  A_I(x) dx_0^{i_0} ... dx_N^{i_N},

and stored as its symbol W(x, y) = sum_I A_I(x) y^I, one polynomial.

``SymTensor`` is the raw container (any coefficient family, used for
intermediate results such as Lie derivatives, which may legitimately be zero
or fail the global constraints).  ``SymForm`` is the validated object: all
coefficients are nonzero, homogeneous of one common degree k + d with d >= 0,
the contraction against the radial field sum x_j d/dx_j vanishes (the descent
condition identifying forms on projective space), and the coefficients carry
no common polynomial factor (the zero set has codimension at least two, in
the constant-GCD proxy sense).

The integer d is the degree of the web: the number of tangencies with a
generic line.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import (
    InputError,
    NonGenericLineError,
    SingularPointError,
    ValidationError,
)
from .poly import Polynomial, Scalar, _join, _ratio, _relabel, _split, poly_gcd_many, read_int

MultiIndex = tuple[int, ...]


def multi_indices(nvars: int, k: int) -> list[MultiIndex]:
    """All exponent tuples of length nvars summing to k, descending lex order."""
    if nvars < 1 or k < 0:
        raise InputError("need nvars >= 1 and k >= 0")
    out: list[MultiIndex] = []

    def rec(prefix: tuple[int, ...], remaining: int) -> None:
        if len(prefix) == nvars - 1:
            out.append(prefix + (remaining,))
            return
        for head in range(remaining, -1, -1):
            rec(prefix + (head,), remaining - head)

    rec((), k)
    return out


class SymTensor:
    """Raw symmetric differential tensor: no invariants enforced.

    ``ndiff`` counts the differentials dx_0 ... dx_{ndiff-1}; coefficients may
    live in any consistent polynomial ring (usually the same ndiff variables,
    but the matrix-variable expansions in :mod:`webfol.projective` use a
    different one).  The symbol ``_w`` = sum_I A_I(x) y^I is the storage and
    every operation works on it; ``coeffs`` is split from it on first read.
    Treat instances as immutable: every operation returns a new tensor and
    nothing here mutates state after construction.
    """

    __slots__ = ("ndiff", "k", "_w", "_coeffs")

    def __init__(self, ndiff: int, k: int, coeffs: Mapping[MultiIndex, Polynomial]):
        if ndiff < 1 or k < 0:
            raise InputError("need ndiff >= 1 and k >= 0")
        clean: dict[MultiIndex, Polynomial] = {}
        nvars = None
        for dmono, poly in coeffs.items():
            dmono = tuple(int(i) for i in dmono)
            if len(dmono) != ndiff or any(i < 0 for i in dmono) or sum(dmono) != k:
                raise InputError(f"bad differential multi-index {dmono} for k={k}")
            if nvars is None:
                nvars = poly.nvars
            elif poly.nvars != nvars:
                raise InputError("coefficient polynomials disagree on variable count")
            if not poly.is_zero:
                clean[dmono] = poly
        self.ndiff = ndiff
        self.k = k
        self._w = _join(clean, nvars + ndiff if clean else 2 * ndiff)
        self._coeffs = clean

    @property
    def coeffs(self) -> dict[MultiIndex, Polynomial]:
        """The coefficients A_I by multi-index I: the symbol's terms grouped by y-exponent."""
        if self._coeffs is None:
            self._coeffs = _split(self._w, self.coeff_nvars())
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return self._w.is_zero

    def coeff_nvars(self) -> int:
        return self._w.nvars - self.ndiff

    def coefficient(self, dmono: MultiIndex) -> Polynomial:
        return self.coeffs.get(tuple(dmono), Polynomial.zero(self.coeff_nvars()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        return self.ndiff == other.ndiff and self.k == other.k and self._w == other._w

    def __hash__(self):
        return hash((self.ndiff, self.k, self._w))

    def __add__(self, other: "SymTensor") -> "SymTensor":
        if self.ndiff != other.ndiff or self.k != other.k:
            raise InputError("tensor shape mismatch in addition")
        if self.is_zero or other.is_zero:
            return _from_symbol(self.ndiff, self.k, (other if self.is_zero else self)._w)
        if self.coeff_nvars() != other.coeff_nvars():
            raise InputError("coefficient polynomials disagree on variable count")
        return _from_symbol(self.ndiff, self.k, self._w + other._w)

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        return self + other.scale(-1)

    def scale(self, factor: Union[Polynomial, Scalar]) -> "SymTensor":
        if self.is_zero:
            return _from_symbol(self.ndiff, self.k, self._w)
        m = self.coeff_nvars()
        if isinstance(factor, Polynomial) and factor.nvars != m:
            raise InputError(f"variable-count mismatch: {m} vs {factor.nvars}")
        return _from_symbol(self.ndiff, self.k, self._w * _lift(factor, self._w.nvars))

    def sym_mul(self, other: "SymTensor") -> "SymTensor":
        """Symmetric product: the product of the symbols."""
        if self.ndiff != other.ndiff:
            raise InputError("tensor shape mismatch in symmetric product")
        k = self.k + other.k
        if self.is_zero or other.is_zero:
            return _from_symbol(self.ndiff, k, (self if self.is_zero else other)._w)
        if self.coeff_nvars() != other.coeff_nvars():
            raise InputError(
                f"variable-count mismatch: {self.coeff_nvars()} vs {other.coeff_nvars()}"
            )
        return _from_symbol(self.ndiff, k, self._w * other._w)

    def euler_contraction(self) -> "SymTensor":
        """Contract against the radial field: sum_j x_j dW/dy_j on the symbol W."""
        if self.k == 0:
            raise InputError("cannot contract a 0-tensor")
        m, n = self.coeff_nvars(), self.ndiff
        slots = [self._w.partial(m + j) for j in range(n)]
        for j in range(m, n):
            if slots[j]:
                raise InputError(f"variable index {j} out of range for nvars={m}")
        return _from_symbol(n, self.k - 1, _dot(Polynomial.variables(m + n)[:n], slots, m + n))

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "coeffs": [
                {"dmono": list(dmono), "poly": self.coeffs[dmono].to_json_dict()}
                for dmono in sorted(self.coeffs, reverse=True)
            ],
        }

    def render(self) -> str:
        if self.is_zero:
            return "0"
        names = [f"dx{j}" for j in range(self.ndiff)]
        pieces = []
        for dmono in sorted(self.coeffs, reverse=True):
            mono = "*".join(
                f"{names[j]}^{e}" if e > 1 else names[j]
                for j, e in enumerate(dmono)
                if e
            )
            pieces.append(f"({self.coeffs[dmono]}) {mono}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"SymTensor(ndiff={self.ndiff}, k={self.k}, {self.render()})"


# -- the symbol of a tensor ------------------------------------------------------
#
# Sym^k of the differentials is the space of degree-k polynomials in fibre
# coordinates y, so a tensor sum_I A_I dx^I is one polynomial, its symbol
# W = sum_I A_I y^I with the y last; the tensor operations are ring operations on W.


def _from_symbol(ndiff: int, k: int, w: Polynomial) -> SymTensor:
    """A tensor from its symbol, unchecked: each term has degree k in the last ndiff.

    A zero symbol is kept in 2 * ndiff variables, so its coefficient ring is ndiff.
    """
    t = object.__new__(SymTensor)
    t.ndiff = ndiff
    t.k = k
    t._w = w if not w.is_zero else Polynomial.zero(2 * ndiff)
    t._coeffs = None
    return t


def _lift(value: Union[Polynomial, Scalar], nvars: int) -> Union[Polynomial, Scalar]:
    """A polynomial in the first variables of a ring of nvars variables; scalars stay."""
    if not isinstance(value, Polynomial):
        return value
    return _join({(0,) * (nvars - value.nvars): value}, nvars)


def _dot(row, vector, nvars: int) -> Polynomial:
    """sum_j row[j] * vector[j]; each product has a polynomial in nvars variables."""
    products = [
        a * b if isinstance(a, Polynomial) else b * a for a, b in zip(row, vector) if a and b
    ]
    return functools.reduce(operator.add, products) if products else Polynomial.zero(nvars)


def _pull(form: SymTensor, rows, xs, nvars: int) -> SymTensor:
    """The one pullback kernel: coefficients in the ring with ``nvars`` variables.

    ``rows`` is an n x r matrix and ``xs`` has r entries, each a scalar or a
    polynomial in that ring.  Substitutes x_i -> sum_j rows[i][j] * xs[j] in the
    coefficients and dx_i -> sum_m rows[i][m] * dy_m in the slots, one
    composition of the symbol; the result has r differentials dy_0 .. dy_{r-1}.
    A signed permutation acting on the ring's own variables sends x_i to
    +-x_c(i) and y_i to +-y_c(i), so the symbol is only relabelled.
    """
    if len(rows) != form.ndiff:
        raise InputError(f"matrix size {len(rows)} does not match the form ({form.ndiff})")
    if len(xs) == nvars == form.coeff_nvars() and xs == Polynomial.variables(nvars):
        signed = _signed_permutation(rows)
        if signed:
            columns, signs = signed
            images = columns + [nvars + c for c in columns]
            return _from_symbol(nvars, form.k, _relabel(form._w, images, signs + signs))
    total = nvars + len(xs)
    rows = [[_lift(v, total) for v in row] for row in rows]
    xs = [_lift(v, total) for v in xs]
    ys = [Polynomial.variable(total, nvars + m) for m in range(len(xs))]
    dx = [_dot(row, ys, total) for row in rows]
    pulled = form._w.compose([_dot(row, xs, total) for row in rows] + dx)
    return _from_symbol(len(xs), form.k, pulled)


def _signed_permutation(rows) -> Optional[tuple[list[int], list[int]]]:
    """(columns, signs) of a square number matrix with one entry +-1 per row and column, or None."""
    columns, signs = [], []
    for row in rows:
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        if len(row) != len(rows) or len(nonzero) != 1:
            return None
        j, v = nonzero[0]
        if isinstance(v, Polynomial) or abs(v) != 1:
            return None
        columns.append(j)
        signs.append(int(v))
    return (columns, signs) if len(set(columns)) == len(columns) else None


class SymForm(SymTensor):
    """Validated twisted k-symmetric 1-form on P^N.

    Raises :class:`ValidationError` with a stable reason code when a
    coefficient family cannot represent a k-web:

    - ``empty_form``: no nonzero coefficient at all;
    - ``coefficient_degree_mismatch``: some coefficient is not homogeneous or
      the coefficients do not share one degree;
    - ``coefficient_degree_below_k``: the common degree is smaller than k
      (the web degree d would be negative);
    - ``euler_contraction_nonzero``: the radial contraction does not vanish;
    - ``common_factor``: the coefficients share a nonconstant factor.
    """

    __slots__ = ()

    def __init__(self, N: int, k: int, coeffs: Mapping[MultiIndex, Polynomial]):
        if N < 1:
            raise ValidationError("bad_dimension", f"need N >= 1, got {N}")
        if k < 1:
            raise ValidationError("bad_multidegree", f"need k >= 1, got {k}")
        super().__init__(N + 1, k, coeffs)
        if self.is_zero:
            raise ValidationError("empty_form", "form has no nonzero coefficient")
        if self.coeff_nvars() != N + 1:
            raise ValidationError(
                "coefficient_variable_mismatch",
                f"coefficients must use {N + 1} variables",
            )
        degrees = set()
        for poly in self.coeffs.values():
            if not poly.is_homogeneous():
                raise ValidationError(
                    "coefficient_degree_mismatch",
                    "coefficients must be homogeneous",
                )
            degrees.add(poly.homogeneous_degree())
        if len(degrees) != 1:
            raise ValidationError(
                "coefficient_degree_mismatch",
                f"coefficients carry distinct degrees {sorted(degrees)}",
            )
        degree = degrees.pop()
        if degree < k:
            raise ValidationError(
                "coefficient_degree_below_k",
                f"coefficient degree {degree} is below the multidegree k={k}",
            )
        if not self.euler_contraction().is_zero:
            raise ValidationError(
                "euler_contraction_nonzero",
                "the radial contraction of the form does not vanish",
            )
        gcd = poly_gcd_many(self.coeffs.values())
        if gcd.degree() > 0:
            raise ValidationError(
                "common_factor",
                f"coefficients share the nonconstant factor {gcd}",
            )

    @property
    def N(self) -> int:
        return self.ndiff - 1

    @property
    def coefficient_degree(self) -> int:
        return self._w.degree() - self.k

    @property
    def degree(self) -> int:
        """Web degree d: tangency count with a generic line."""
        return self.coefficient_degree - self.k

    @classmethod
    def from_tensor(cls, tensor: SymTensor) -> "SymForm":
        return cls(tensor.ndiff - 1, tensor.k, tensor.coeffs)

    # -- serialisation ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"N": self.N, **super().to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SymForm":
        try:
            N = read_int(data["N"], "N")
            k = read_int(data["k"], "k")
            coeffs = {
                tuple([read_int(i, "dmono") for i in entry["dmono"]]):
                Polynomial.from_json_dict(entry["poly"])
                for entry in data["coeffs"]
            }
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed form JSON: {exc}") from exc
        return cls(N, k, coeffs)


# -- operations on forms ------------------------------------------------------


def web_degree(form: SymForm) -> int:
    """Degree d of the web (coefficient degree minus k)."""
    return form.degree


def kf_degree(form: SymForm) -> Optional[int]:
    """Degree of the canonical bundle, d - 1, for foliations on the plane."""
    if form.k == 1 and form.N == 2:
        return form.degree - 1
    return None


def euler_contraction(tensor: SymTensor) -> SymTensor:
    return tensor.euler_contraction()


def exterior_derivative_coeffs(form: SymTensor) -> dict[tuple[int, int], Polynomial]:
    """For a 1-form sum a_i dx_i: the 2-form coefficients c_{ij} = da_j/dx_i - da_i/dx_j."""
    if form.k != 1:
        raise InputError("exterior derivative implemented for 1-forms only")
    n = form.ndiff
    a = [form.coefficient(_unit(n, i)) for i in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            out[(i, j)] = a[j].partial(i) - a[i].partial(j)
    return out


def _unit(n: int, i: int) -> MultiIndex:
    e = [0] * n
    e[i] = 1
    return tuple(e)


def is_integrable(form: SymForm) -> bool:
    """Whether a 1-form satisfies the integrability identity omega ^ d(omega) = 0."""
    if form.k != 1:
        raise InputError("integrability check applies to k = 1 only")
    n = form.ndiff
    a = [form.coefficient(_unit(n, i)) for i in range(n)]
    c = exterior_derivative_coeffs(form)
    for p in range(n):
        for q in range(p + 1, n):
            for r in range(q + 1, n):
                triple = a[p] * c[(q, r)] - a[q] * c[(p, r)] + a[r] * c[(p, q)]
                if not triple.is_zero:
                    return False
    return True


def _field_degree(field: Sequence[Polynomial]) -> int:
    """Common homogeneous degree of the nonzero components of a vector field."""
    degrees = set()
    for component in field:
        if component.is_zero:
            continue
        if not component.is_homogeneous():
            raise InputError("vector field components must be homogeneous")
        degrees.add(component.homogeneous_degree())
    if not degrees:
        raise InputError("zero vector field")
    if len(degrees) != 1:
        raise InputError(f"vector field components carry distinct degrees {sorted(degrees)}")
    return degrees.pop()


def lie_derivative(field: Sequence[Polynomial], form: SymTensor) -> SymTensor:
    """Lie derivative of the form along a homogeneous polynomial vector field.

    On the symbol W(x, y) = sum_I A_I(x) y^I, with dv_j = sum_m (d_m v_j) y_m,

        L_v W = sum_j v_j * dW/dx_j + sum_j dv_j * dW/dy_j.
    """
    n = form.ndiff
    if len(field) != n:
        raise InputError(f"vector field needs {n} components, got {len(field)}")
    if any(v.nvars != n for v in field):
        raise InputError("vector field components must use the ambient variables")
    _field_degree(field)
    if not form.is_zero and form.coeff_nvars() != n:
        raise InputError(f"variable-count mismatch: {n} vs {form.coeff_nvars()}")
    total = 2 * n
    ys = [Polynomial.variable(total, n + m) for m in range(n)]
    velocity = [_lift(v, total) for v in field] + [
        _dot([_lift(v.partial(m), total) for m in range(n)], ys, total) for v in field
    ]
    gradient = [form._w.partial(i) for i in range(total)]
    return _from_symbol(n, form.k, _dot(velocity, gradient, total))


def proportionality_constant(reference: SymTensor, candidate: SymTensor) -> Optional[Fraction]:
    """The constant c with candidate = c * reference, or None: W' = c * W on the symbols."""
    if candidate.is_zero:
        return Fraction(0)
    if reference.is_zero or reference.ndiff != candidate.ndiff:
        return None
    return _ratio(candidate._w, reference._w)


def flow_preserves(field: Sequence[Polynomial], form: SymForm) -> bool:
    """Whether the flow of a linear vector field preserves the web.

    True exactly when the Lie derivative is a constant (possibly zero)
    multiple of the form.  Only degree-1 fields descend to projective space,
    so anything else is refused.
    """
    if _field_degree(field) != 1:
        raise InputError("flow preservation is decided for linear vector fields only")
    derivative = lie_derivative(field, form)
    return proportionality_constant(form, derivative) is not None


# -- restriction to a line ----------------------------------------------------


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous binary form B(s, t); coefficients[i] multiplies s^(degree-i) t^i."""

    degree: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.degree + 1:
            raise InputError("binary form needs degree + 1 coefficients")

    def evaluate(self, s: Scalar, t: Scalar) -> Fraction:
        s, t = Fraction(s), Fraction(t)
        total = Fraction(0)
        for i, c in enumerate(self.coefficients):
            total += c * s ** (self.degree - i) * t ** i
        return total

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "coefficients": [str(c) for c in self.coefficients],
        }


def restrict_to_line(
    form: SymForm, p: Sequence[Scalar], q: Sequence[Scalar]
) -> BinaryForm:
    """Restrict the form to the line spanned by two points.

    Substituting x = s p + t q and dx = p ds + q dt turns the form into
    B(s, t) (s dt - t ds)^k; the binary form B of degree d cuts out the
    tangency divisor.  Lines meeting the form degenerately (identically zero
    pullback) raise :class:`NonGenericLineError`.
    """
    n = form.ndiff
    p = [Fraction(v) for v in p]
    q = [Fraction(v) for v in q]
    if len(p) != n or len(q) != n:
        raise InputError(f"line points need {n} coordinates")
    if _rank2(p, q) < 2:
        raise InputError("the two points do not span a line")
    # At ds = 0 and dt = 1 the pullback B (s dt - t ds)^k is B s^k, which is
    # W(s p + t q, q): contract the symbol with q, then compose once.  The
    # Euler contraction of a SymForm vanishes, and so does that of its
    # pullback, which is therefore B (s dt - t ds)^k with B free of ds and
    # dt; dividing by (s dt - t ds)^k and looking for surviving differentials
    # could never fail, so neither is done.  By the same argument s^k always
    # divides W(s p + t q, q): the divisibility refusal below is a defensive
    # check that cannot fire, kept so that a broken invariant raises the
    # documented error rather than shift_down's InputError.
    contracted = _dot(
        list(form.coeffs.values()), [math.prod(map(pow, q, J)) for J in form.coeffs], n
    )
    s, t = Polynomial.variables(2)
    pulled = contracted.compose([_dot(pair, (s, t), 2) for pair in zip(p, q)])
    if pulled.is_zero:
        raise NonGenericLineError("the form pulls back to zero on this line")
    if pulled.x_order(0) < form.k:
        raise NonGenericLineError(
            "the pullback is not divisible by the expected tangency factor"
        )
    quotient = pulled.shift_down(0, form.k)
    d = form.degree
    if quotient.degree() != d or not quotient.is_homogeneous():
        raise NonGenericLineError(
            f"restricted form has degree {quotient.degree()}, expected {d}"
        )
    coefficients = [Fraction(0)] * (d + 1)
    for exp, c in quotient.terms():
        coefficients[exp[1]] = c
    return BinaryForm(d, tuple(coefficients))


def _rank2(p: Sequence[Fraction], q: Sequence[Fraction]) -> int:
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] * q[j] - p[j] * q[i]:
                return 2
    return 1 if any(p) or any(q) else 0


# -- pointwise square-freeness -------------------------------------------------


def specialise_at_point(form: SymTensor, point: Sequence[Scalar]) -> Polynomial:
    """Freeze the coefficients at a point: a degree-k form in the differentials."""
    n = form.ndiff
    values = [Fraction(v) for v in point]
    if len(values) != n:
        raise InputError(f"point needs {n} coordinates")
    out: dict[MultiIndex, Fraction] = {}
    for dmono, poly in form.coeffs.items():
        c = poly.evaluate(values)
        if c:
            out[dmono] = c
    return Polynomial(n, out)


def is_squarefree_at(form: SymTensor, point: Sequence[Scalar]) -> bool:
    """Square-freeness of the frozen degree-k differential form at a point.

    Exact criterion in characteristic zero: the form is square-free iff it
    has no nonconstant common factor with the family of all its partial
    derivatives in the differential variables.
    """
    frozen = specialise_at_point(form, point)
    if frozen.is_zero:
        raise SingularPointError("the point lies in the singular set of the form")
    family = [frozen] + [frozen.partial(i) for i in range(frozen.nvars)]
    return poly_gcd_many(family).degree() == 0


# -- deterministic sample points -----------------------------------------------

_SCHEDULE_TABLE = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def sample_schedule(N: int, count: int) -> list[tuple[Fraction, ...]]:
    """Documented deterministic sample points: sliding windows over 1,2,3,5,7,...
    Point i has coordinates (table[i], table[i+1], ..., table[i+N])."""
    if count < 0 or count + N > len(_SCHEDULE_TABLE):
        raise InputError("sample schedule exhausted; pass explicit points")
    return [
        tuple(Fraction(_SCHEDULE_TABLE[i + j]) for j in range(N + 1))
        for i in range(count)
    ]


def generic_sample_points(form: SymTensor, count: int) -> list[tuple[Fraction, ...]]:
    """First ``count`` schedule points outside the singular set of the form."""
    if count < 1:
        return []
    N = form.ndiff - 1
    windows = len(_SCHEDULE_TABLE) - N
    schedule = sample_schedule(N, windows) if windows > 0 else []
    chosen = list(
        itertools.islice(
            (p for p in schedule if not specialise_at_point(form, p).is_zero),
            min(count, len(schedule)),
        )
    )
    if len(chosen) < count:
        raise InputError("sample schedule exhausted before finding generic points")
    return chosen
