"""Projective linear maps acting on symmetric forms.

Covers the pullback action of PGL(N+1) on k-symmetric 1-forms, the exact
invariance test (pullback proportional to the original as polynomial
families), generation of the polynomial system in the matrix entries whose
zero locus is the symmetry group, finite-group closure from verified
generators, and the order bound check against (d + 2k)^((N+1)^2 - 1).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    CapExceededError,
    GeneratorError,
    InputError,
    SingularPointError,
    ValidationError,
)
from .forms import (
    SymForm,
    SymTensor,
    _pull,
    _signed_permutation,
    multi_indices,
    proportionality_constant,
    specialise_at_point,
)
from .poly import _PRIME, Polynomial, Scalar, load_json, read_fraction, read_int

DEFAULT_CLOSURE_CAP = 100_000


class ProjMap:
    """An element of PGL: an invertible rational matrix, fixed up to scale.

    The stored representative ``_m`` is the primitive integer matrix (gcd of
    the entries 1) whose first nonzero entry in row-major order is positive.
    It is unique per projective class, so equality and hashing use it.
    ``entries`` is the rational representative whose first nonzero entry is
    1, formed on first use.
    """

    __slots__ = ("_m", "_entries")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        n = len(rows)
        if n < 2 or any(len(row) != n for row in rows):
            raise InputError("projective map needs a square matrix of size >= 2")
        ints = _integral([[Fraction(v) for v in row] for row in rows])
        if not any(v for row in ints for v in row):
            raise ValidationError("singular_matrix", "zero matrix is not invertible")
        if _determinant(ints) == 0:
            raise ValidationError("singular_matrix", "matrix is not invertible")
        object.__setattr__(self, "_m", _normalised_matrix(ints))
        object.__setattr__(self, "_entries", None)

    def __setattr__(self, name, value):
        raise AttributeError("ProjMap is immutable")

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._entries is None:
            pivot = next(v for row in self._m for v in row if v)
            entries = tuple(tuple(Fraction(v, pivot) for v in row) for row in self._m)
            object.__setattr__(self, "_entries", entries)
        return self._entries

    @property
    def size(self) -> int:
        return len(self._m)

    @classmethod
    def identity(cls, n: int) -> "ProjMap":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def swap(cls, n: int, i: int, j: int) -> "ProjMap":
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        return cls.permutation(perm)

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "ProjMap":
        """Map sending x_i to x_{perm[i]} (row i has a 1 in column perm[i])."""
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise InputError(f"not a permutation of 0..{n - 1}: {perm}")
        return cls([[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> "ProjMap":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "ProjMap") -> "ProjMap":
        if not isinstance(other, ProjMap) or other.size != self.size:
            raise InputError("size mismatch in projective map product")
        # A product of invertible maps is invertible: no determinant.
        columns = list(zip(*other._m))
        return _trusted_map(
            _normalised_matrix([[sum(map(mul, row, col)) for col in columns] for row in self._m])
        )

    def inverse(self) -> "ProjMap":
        n = self.size
        aug = [
            [Fraction(v) for v in self._m[i]] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)
        ]
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
            assert pivot_row is not None, "projective maps are invertible"
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            pivot = aug[col][col]
            aug[col] = [v / pivot for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    factor = aug[r][col]
                    aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
        return _trusted_map(_normalised_matrix(_integral([row[n:] for row in aug])))

    def sort_key(self):
        return tuple(v for row in self.entries for v in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjMap):
            return NotImplemented
        return self._m == other._m

    def __hash__(self):
        return hash(self._m)

    def __repr__(self):
        return f"ProjMap({[[str(v) for v in row] for row in self.entries]})"

    def to_json_list(self) -> list[str]:
        return [str(v) for row in self.entries for v in row]

    @classmethod
    def from_json_list(cls, data: Sequence) -> "ProjMap":
        # A str is a Sequence too: "1234" would read as [[1, 2], [3, 4]].
        if not isinstance(data, (list, tuple)):
            raise InputError(
                f"a map is a JSON list of matrix entries, not {type(data).__name__}"
            )
        n = math.isqrt(len(data))
        if n < 2 or n * n != len(data):
            raise InputError(f"matrix entry list of length {len(data)} is not square")
        values = [read_fraction(v, "matrix entry") for v in data]
        return cls([values[i * n : (i + 1) * n] for i in range(n)])


# -- trusted construction of maps -------------------------------------------------
#
# Products and inverses of invertible maps are invertible, so they are built
# from their primitive integer matrix without a determinant.


def _trusted_map(m: tuple[tuple[int, ...], ...]) -> ProjMap:
    """A map from its primitive, sign-normalised int matrix, unchecked."""
    g = object.__new__(ProjMap)
    object.__setattr__(g, "_m", m)
    object.__setattr__(g, "_entries", None)
    return g


def _integral(rows: list[list[Fraction]]) -> list[list[int]]:
    """A rational matrix times the lcm of its denominators."""
    den = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows]


def _normalised_matrix(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """A nonzero int matrix divided by the gcd of its entries, first nonzero entry positive."""
    g = math.gcd(*(v for row in rows for v in row))
    if next(v for row in rows for v in row if v) < 0:
        g = -g
    if g == 1:
        return tuple(map(tuple, rows))
    return tuple(tuple(v // g for v in row) for row in rows)


def _determinant(matrix: list[list[int]]) -> int:
    """Determinant of a square int matrix by Bareiss's fraction-free elimination."""
    n = len(matrix)
    work = [list(row) for row in matrix]
    sign, previous = 1, 1
    for col in range(n - 1):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        pivot = work[col][col]
        for r in range(col + 1, n):
            lead = work[r][col]
            row = work[r]
            for c in range(col + 1, n):
                row[c] = (row[c] * pivot - lead * work[col][c]) // previous
        previous = pivot
    return sign * work[n - 1][n - 1]


# -- pullback ---------------------------------------------------------------------


def pullback_tensor(transform: ProjMap, form: SymTensor) -> SymTensor:
    """Raw pullback: substitute x -> T x in coefficients and dx -> T dx in slots."""
    n = form.ndiff
    return _pull(form, transform.entries, Polynomial.variables(n), n)


def pullback(transform: ProjMap, form: SymForm) -> SymForm:
    """Pullback of a validated form; stays valid for invertible maps."""
    return SymForm.from_tensor(pullback_tensor(transform, form))


def preserves(transform: ProjMap, form: SymForm) -> bool:
    """Whether the pullback defines the same web (is a constant multiple of it).

    A rescaled matrix rescales the pullback, so the integer matrix ``_m``
    decides it as well as ``entries`` does.
    """
    n = form.ndiff
    pulled = _pull(form, transform._m, Polynomial.variables(n), n)
    return proportionality_constant(form, pulled) is not None


# -- the polynomial system cutting out the symmetry group ---------------------------


@dataclass(frozen=True)
class BezoutSystem:
    """Polynomial equations in the matrix entries whose zeros preserve the web.

    One generator per pair of differential multi-indices per sample point;
    every generator is homogeneous of ``declared_degree`` = d + 2k in the
    matrix variables and vanishes on every preserving matrix.
    """

    n_matrix_vars: int
    var_names: tuple[str, ...]
    generators: tuple[Polynomial, ...]
    sample_points: tuple[tuple[Fraction, ...], ...]
    declared_degree: int
    coefficient_degree: int

    def evaluate_at_matrix(self, transform: ProjMap) -> list[Fraction]:
        flat = [v for row in transform.entries for v in row]
        return [g.evaluate(flat) for g in self.generators]

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.n_matrix_vars,
            "var_names": list(self.var_names),
            "generators": [g.to_json_dict() for g in self.generators],
            "sample_points": [[str(c) for c in point] for point in self.sample_points],
            "declared_degree": self.declared_degree,
            "coefficient_degree": self.coefficient_degree,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "BezoutSystem":
        try:
            return cls(
                n_matrix_vars=read_int(data["nvars"], "nvars"),
                var_names=tuple(str(v) for v in data["var_names"]),
                generators=tuple(
                    Polynomial.from_json_dict(g) for g in data["generators"]
                ),
                sample_points=tuple(
                    tuple(read_fraction(c, "sample point") for c in point)
                    for point in data["sample_points"]
                ),
                declared_degree=read_int(data["declared_degree"], "declared_degree"),
                coefficient_degree=read_int(data["coefficient_degree"], "coefficient_degree"),
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed system JSON: {exc}") from exc


def matrix_var_names(n: int) -> tuple[str, ...]:
    return tuple(f"a{i}{j}" for i in range(n) for j in range(n))


def _minors(pulled: SymTensor, reference, indices, nvars: int) -> list[Polynomial]:
    """B_J * A_I - B_I * A_J for every pair I < J, B the pulled coefficients."""
    zero = Polynomial.zero(nvars)
    return [
        pulled.coeffs.get(J, zero) * reference[I] - pulled.coeffs.get(I, zero) * reference[J]
        for a, I in enumerate(indices)
        for J in indices[a + 1 :]
    ]


def invariance_system(
    form: SymForm, sample_points: Sequence[Sequence[Scalar]]
) -> BezoutSystem:
    """Equations in the matrix entries forcing pullback-proportionality at points.

    For each sample point x outside the singular set and each pair I < J of
    differential multi-indices, emits

        A_I(x) * B_J^x(a) - A_J(x) * B_I^x(a)

    where B_I^x collects the dx^I coefficient of the pulled-back form at x,
    as a polynomial in the (N+1)^2 matrix entries a_ij.
    """
    n = form.ndiff
    n_vars = n * n
    indices = multi_indices(n, form.k)
    avars = Polynomial.variables(n_vars)
    rows = [avars[i * n : (i + 1) * n] for i in range(n)]
    generators: list[Polynomial] = []
    frozen_points: list[tuple[Fraction, ...]] = []
    for raw_point in sample_points:
        point = tuple(Fraction(v) for v in raw_point)
        if len(point) != n:
            raise InputError(f"sample point needs {n} coordinates")
        frozen = specialise_at_point(form, point)
        if frozen.is_zero:
            raise SingularPointError(
                f"sample point {tuple(map(str, point))} lies in the singular set"
            )
        frozen_points.append(point)
        pulled = _pull(form, rows, point, n_vars)
        values = {I: frozen.coefficient(I) for I in indices}
        generators.extend(_minors(pulled, values, indices, n_vars))
    return BezoutSystem(
        n_matrix_vars=n_vars,
        var_names=matrix_var_names(n),
        generators=tuple(generators),
        sample_points=tuple(frozen_points),
        declared_degree=form.degree + 2 * form.k,
        coefficient_degree=form.degree + form.k,
    )


def invariance_system_symbolic(form: SymForm) -> BezoutSystem:
    """Doubly symbolic variant: the point coordinates stay as variables.

    The polynomial ring is Q[x_0..x_N, a_00..a_NN]; generators are the same
    minors with x left free.  Useful for handing the full ideal to an
    external solver.
    """
    n = form.ndiff
    n_vars = n + n * n
    indices = multi_indices(n, form.k)
    variables = Polynomial.variables(n_vars)
    xvars = variables[:n]
    rows = [variables[n + i * n : n + (i + 1) * n] for i in range(n)]
    original = {I: form.coefficient(I).compose(xvars) for I in indices}
    pulled = _pull(form, rows, xvars, n_vars)
    names = tuple(f"x{j}" for j in range(n)) + matrix_var_names(n)
    return BezoutSystem(
        n_matrix_vars=n_vars,
        var_names=names,
        generators=tuple(_minors(pulled, original, indices, n_vars)),
        sample_points=(),
        declared_degree=form.degree + 2 * form.k,
        coefficient_degree=form.degree + form.k,
    )


def export_system(system: BezoutSystem, fmt: str = "json") -> str:
    """Deterministic rendering of the system; formats: ``json`` or ``text``."""
    if fmt == "json":
        return json.dumps(system.to_json_dict()) + "\n"
    if fmt == "text":
        lines = [f"ring Q[{','.join(system.var_names)}]"]
        lines.append(f"degree {system.declared_degree}")
        for point in system.sample_points:
            lines.append("point " + " ".join(str(c) for c in point))
        for g in system.generators:
            lines.append("gen " + g.render(system.var_names))
        return "\n".join(lines) + "\n"
    raise InputError(f"unknown export format {fmt!r}")


def parse_system(text: str) -> BezoutSystem:
    """Inverse of the JSON export."""
    return BezoutSystem.from_json_dict(load_json(text, "system"))


# -- finite closure and the order bound ------------------------------------------


@dataclass(frozen=True)
class FiniteGroup:
    """A finite matrix group listed by canonical representatives."""

    elements: tuple[ProjMap, ...]
    generators: tuple[ProjMap, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, item: ProjMap) -> bool:
        return item in self.elements


def group_closure(
    generators: Iterable[ProjMap],
    form: SymForm,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> FiniteGroup:
    """Close verified generators under products (breadth-first).

    Every generator must preserve the form; the closure therefore consists of
    preserving maps only.  A generator or a new element proved to have
    infinite order, and growth past ``cap`` elements, raise
    :class:`CapExceededError`, the signal for an infinite group.  By Schur's
    theorem a finitely generated torsion subgroup of PGL_n(Q) is finite, so
    an infinite closure has elements of infinite order; the test proves
    that of every one the search meets unless the prime hides it, and the
    cap stays as the backstop.
    """
    gens = []
    for g in generators:
        if not preserves(g, form):
            raise GeneratorError(f"generator does not preserve the form: {g!r}")
        if g not in gens:
            gens.append(g)
    if cap < 1:
        raise InputError("cap must be positive")
    for g in gens:
        if _certainly_infinite_order(g):
            raise CapExceededError(f"generator has infinite order: {g!r}")
    identity = ProjMap.identity(form.ndiff)
    elements = {identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for element in frontier:
            for g in gens:
                product = element @ g
                if product not in elements:
                    if _certainly_infinite_order(product):
                        raise CapExceededError(
                            f"closure element has infinite order: {product!r}"
                        )
                    if len(elements) >= cap:
                        raise CapExceededError(
                            f"closure exceeded the cap of {cap} elements"
                        )
                    elements.add(product)
                    next_frontier.append(product)
        frontier = next_frontier
    ordered = tuple(sorted(elements, key=ProjMap.sort_key))
    return FiniteGroup(elements=ordered, generators=tuple(gens))


def _totient(e: int) -> int:
    result, rest, p = e, e, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


@functools.cache
def _torsion_exponent(n: int) -> int:
    """L(n) = lcm{e : phi(e) <= n(n-1)}: 12, 2520 and 720720 for n = 2, 3, 4.

    If g in PGL_n(Q) has finite order, g is diagonalisable and every ratio
    of two eigenvalues is a root of unity of some order e in a field of
    degree at most n(n-1) over Q, so phi(e) <= n(n-1) and g^L(n) is scalar.
    As phi(e) >= sqrt(e/2), every such e is at most 2(n(n-1))^2.
    """
    bound = n * (n - 1)
    return math.lcm(*(e for e in range(1, 2 * bound * bound + 1) if _totient(e) <= bound))


def _certainly_infinite_order(g: ProjMap) -> bool:
    """Sound refusal: True only if g has infinite order in PGL_n(Q).

    If g has finite order, the power M^L(n) of its integer matrix M is an
    integer scalar matrix c*I, hence scalar modulo the prime too; so a power
    that is not scalar modulo the prime proves infinite order.  A signed
    permutation lies in a finite group, so it answers False without a power.
    """
    if _signed_permutation(g._m):
        return False
    p = _PRIME
    n = g.size
    base = [[v % p for v in row] for row in g._m]
    power = _torsion_exponent(n)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    while power:
        if power & 1:
            result = _matmul_mod(result, base, p)
        power >>= 1
        if power:
            base = _matmul_mod(base, base, p)
    scalar = result[0][0]
    return any(
        result[i][j] != (scalar if i == j else 0) for i in range(n) for j in range(n)
    )


def _matmul_mod(a, b, p: int):
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) % p for col in columns] for row in a]


def verify_bound(order: int, d: int, k: int, N: int) -> bool:
    """Whether a group order respects (d + 2k)^((N+1)^2 - 1), exactly.

    Decimal digit counts decide unless they are equal; only then is the
    power formed.
    """
    from .bounds import decimal_digit_count, power_digit_count, web_bound_parts

    if order < 1:
        raise InputError("order must be a positive integer")
    base, exponent = web_bound_parts(d, k, N)
    order_digits = decimal_digit_count(order)
    bound_digits = power_digit_count(base, exponent)
    if order_digits != bound_digits:
        return order_digits < bound_digits
    return order <= base ** exponent


def signed_permutations(n: int) -> list[ProjMap]:
    """All monomial matrices with entries +-1, as distinct projective maps.

    A convenient finite candidate pool for symmetry searches; projectively
    there are n! * 2^(n-1) of them.
    """
    seen: set[ProjMap] = set()
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            m = ProjMap(
                [
                    [signs[i] if j == perm[i] else 0 for j in range(n)]
                    for i in range(n)
                ]
            )
            seen.add(m)
    return sorted(seen, key=ProjMap.sort_key)


def preserving_candidates(
    form: SymForm, candidates: Optional[Sequence[ProjMap]] = None
) -> list[ProjMap]:
    """Filter a candidate pool down to the maps that preserve the web.

    Defaults to the signed permutation matrices.  The result is a verified
    set of generators for a subgroup of the symmetry group, certifying its
    order from below; the order bound certifies it from above.
    """
    if candidates is None:
        candidates = signed_permutations(form.ndiff)
    return [m for m in candidates if preserves(m, form)]
