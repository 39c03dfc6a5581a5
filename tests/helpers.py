"""Shared builders and independent oracles used across the test modules."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from webfol.errors import InputError, NonGenericLineError, ValidationError
from webfol.forms import BinaryForm, SymForm, SymTensor, _rank2
from webfol.poly import _ONE, Polynomial, _join, _make, _split
from webfol.projective import ProjMap

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def shipped_forms() -> dict[str, SymForm]:
    """Every form fixture in fixtures/, by file name."""
    forms = {}
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and "N" in data and "coeffs" in data:
            forms[path.name] = SymForm.from_json_dict(data)
    return forms


def minors_vanish(reference: SymTensor, candidate: SymTensor) -> bool:
    """Reference proportionality test: every 2x2 coefficient minor vanishes.

    Over the integral domain Q[x] this holds exactly when one family is a
    constant multiple of the other (or either is zero); m^2 products.
    """
    keys = sorted(set(reference.coeffs) | set(candidate.coeffs), reverse=True)
    zero = Polynomial.zero(reference.coeff_nvars())
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            lhs = reference.coeffs.get(keys[a], zero) * candidate.coeffs.get(keys[b], zero)
            rhs = reference.coeffs.get(keys[b], zero) * candidate.coeffs.get(keys[a], zero)
            if lhs != rhs:
                return False
    return True


def units(n):
    out = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        out.append(tuple(e))
    return out


def pencil_form(F: Polynomial, G: Polynomial) -> SymForm:
    """The 1-form F dG - G dF (valid whenever its invariants hold)."""
    n = F.nvars
    coeffs = {}
    for i, e in enumerate(units(n)):
        coeffs[e] = F * G.partial(i) - G * F.partial(i)
    return SymForm(n - 1, 1, coeffs)


def example_form() -> SymForm:
    """Shipped degree-2 plane foliation (parameters a = b = 1)."""
    x, y, z = Polynomial.variables(3)
    return SymForm(
        2, 1, {(1, 0, 0): -y * z * z, (0, 1, 0): x * z * z + y * y * z, (0, 0, 1): -y ** 3}
    )


def radial_form() -> SymForm:
    x, y, z = Polynomial.variables(3)
    return SymForm(2, 1, {(1, 0, 0): -y, (0, 1, 0): x})


def conic_pencil_form() -> SymForm:
    x, y, z = Polynomial.variables(3)
    return SymForm(2, 1, {(1, 0, 0): y * z, (0, 1, 0): x * z, (0, 0, 1): -2 * x * y})


def symmetric_pencil_form() -> SymForm:
    x, y, z = Polynomial.variables(3)
    return pencil_form(x ** 3 + y ** 3 + z ** 3, x * y * z)


def random_homogeneous(rng: random.Random, nvars: int, degree: int) -> Polynomial:
    from webfol.forms import multi_indices

    terms = {}
    for exp in multi_indices(nvars, degree):
        if rng.random() < 0.6:
            c = rng.randint(-4, 4)
            if c:
                terms[exp] = Fraction(c)
    return Polynomial(nvars, terms)


def build_corpus(seed: int, size: int = 50) -> list[SymForm]:
    """Deterministic corpus of valid forms: pencils and their superpositions."""
    rng = random.Random(seed)
    forms: list[SymForm] = []
    guard = 0
    while len(forms) < size:
        guard += 1
        assert guard < 50 * size, "corpus generation stalled"
        N = rng.choice([2, 2, 2, 3])
        n = N + 1
        r = rng.choice([1, 1, 2])
        F = random_homogeneous(rng, n, r)
        G = random_homogeneous(rng, n, r)
        if F.is_zero or G.is_zero:
            continue
        try:
            one_form = pencil_form(F, G)
        except ValidationError:
            continue
        if N == 2 and rng.random() < 0.3:
            F2 = random_homogeneous(rng, n, 1)
            G2 = random_homogeneous(rng, n, 1)
            if F2.is_zero or G2.is_zero:
                continue
            try:
                other = pencil_form(F2, G2)
                tensor = SymTensor(n, 1, one_form.coeffs).sym_mul(
                    SymTensor(n, 1, other.coeffs)
                )
                forms.append(SymForm.from_tensor(tensor))
                continue
            except ValidationError:
                continue
        forms.append(one_form)
    return forms


def fix_leading_variables(poly: Polynomial, values) -> Polynomial:
    """Substitute values for the first len(values) variables, term by term."""
    m = len(values)
    terms: dict[tuple[int, ...], Fraction] = {}
    for exp, c in poly.terms():
        for v, e in zip(values, exp[:m]):
            c *= Fraction(v) ** e
        rest = exp[m:]
        terms[rest] = terms.get(rest, Fraction(0)) + c
    return Polynomial(poly.nvars - m, terms)


def random_projmap(rng: random.Random, n: int) -> ProjMap:
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        try:
            return ProjMap(rows)
        except Exception:
            continue


def random_rational_projmap(rng: random.Random, n: int) -> ProjMap:
    while True:
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        try:
            return ProjMap(rows)
        except ValidationError:
            continue


def normalise_tensor(tensor: SymTensor) -> SymTensor:
    """Scale so the leading coefficient of the leading slot is 1 (for PGL comparisons)."""
    if tensor.is_zero:
        return tensor
    anchor = max(tensor.coeffs)
    _, lc = tensor.coeffs[anchor].leading_term()
    return tensor.scale(Fraction(1) / lc)


def scaled_copy(form: SymTensor, factor) -> SymTensor:
    return SymTensor(form.ndiff, form.k, {d: p * factor for d, p in form.coeffs.items()})


def cartan_lie_1form(field, form) -> SymTensor:
    """Independent Lie-derivative computation for 1-forms via d(i_v w) + i_v(dw)."""
    n = form.ndiff
    e = units(n)
    a = [form.coefficient(e[i]) for i in range(n)]
    zero = Polynomial.zero(n)
    contraction = zero
    for i in range(n):
        contraction = contraction + field[i] * a[i]
    c = {}
    for i in range(n):
        for j in range(i + 1, n):
            c[(i, j)] = a[j].partial(i) - a[i].partial(j)
    coeffs = {}
    for m in range(n):
        value = contraction.partial(m)
        for i in range(m):
            value = value + c[(i, m)] * field[i]
        for j in range(m + 1, n):
            value = value - c[(m, j)] * field[j]
        coeffs[e[m]] = value
    return SymTensor(n, 1, coeffs)


def chart_consistency_holds(result) -> bool:
    """Chart-1 form moved to chart-2 coordinates matches up to a monomial unit.

    Substitutes x = s y, t = 1/s into the saturated chart-1 form, clears
    powers of s, and compares with the saturated chart-2 form.
    """
    s, y = Polynomial.variables(2)
    a1, b1 = result.chart1.a, result.chart1.b
    a2, b2 = result.chart2.a, result.chart2.b

    # chart-1 form a1 dx + b1 dt with x = s y, t = 1/s, so dx = y ds + s dy
    # and dt = -s^{-2} ds:
    #   ds-coefficient: a1*y - b1/s^2,   dy-coefficient: a1*s.
    # Clearing s^(K+2) makes everything polynomial.
    K = max(
        max((e[1] for e, _ in a1.terms()), default=0),
        max((e[1] for e, _ in b1.terms()), default=0),
    )

    def substitute(poly: Polynomial, s_shift: int) -> Polynomial:
        out = Polynomial.zero(2)
        for exp, coeff in poly.terms():
            alpha, beta = exp
            power = alpha + (K - beta) + s_shift
            assert power >= 0
            out = out + Polynomial(2, {(power, alpha): coeff})
        return out

    P = substitute(a1, 2) * y - substitute(b1, 0)
    Q = substitute(a1, 2) * s
    if P.is_zero and Q.is_zero:
        return False
    if P * b2 != Q * a2:
        return False
    reference, image = (a2, P) if not a2.is_zero else (b2, Q)
    unit = image.try_divide(reference)
    return unit is not None and len(unit.terms()) == 1


# -- the packed monomial layout, restated apart from webfol.poly -----------------
#
# In n variables, x^e is the key sum(e) << (32 n) | e_{n-1} << (32 (n-1)) | ...
# | e_0, every field below 2^31; its integer order must be ``grlex_key``'s.

FIELD_BITS = 32
CEILING = 1 << 31


def grlex_key(exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key realising the canonical graded-lex order (larger = leading)."""
    return (sum(exponents), exponents[::-1])


def ref_pack(exponents) -> int:
    key = sum(exponents) << (FIELD_BITS * len(exponents))
    for i, e in enumerate(exponents):
        key |= e << (FIELD_BITS * i)
    return key


def ref_unpack(key: int, n: int) -> tuple[int, ...]:
    mask = (1 << FIELD_BITS) - 1
    return tuple(key >> (FIELD_BITS * i) & mask for i in range(n))


def unpacked_terms(poly: Polynomial) -> dict[tuple[int, ...], int]:
    """The primitive int terms of a polynomial keyed by exponent vectors."""
    return {ref_unpack(k, poly.nvars): v for k, v in poly._terms.items()}


# -- a plain reference kernel: polynomials as dict[exponent, Fraction] -----------
#
# Written apart from webfol.poly, term by term over Fractions, so the kernel's
# integer representation can be checked against it through ``terms()``.


def ref_terms(poly: Polynomial) -> dict[tuple[int, ...], Fraction]:
    return dict(poly.terms())


def _ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_clean(out)


def ref_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return _ref_clean(out)


def ref_partial(p, index):
    out = {}
    for e, c in p.items():
        if e[index]:
            new = list(e)
            new[index] -= 1
            out[tuple(new)] = c * e[index]
    return out


def ref_compose(p, substitutions, target_nvars):
    """Substitute term by term, expanding each power by repeated products."""
    total = {}
    for e, c in p.items():
        term = {(0,) * target_nvars: c}
        for s, k in zip(substitutions, e):
            for _ in range(k):
                term = ref_mul(term, s)
        total = ref_add(total, term)
    return total


def _ref_lead(p):
    exp = max(p, key=grlex_key)
    return exp, p[exp]


def ref_try_divide(p, d):
    """Exact quotient by grlex long division over Q, or None."""
    quotient, remainder = {}, dict(p)
    dexp, dcoeff = _ref_lead(d)
    while remainder:
        rexp, rcoeff = _ref_lead(remainder)
        step = tuple(a - b for a, b in zip(rexp, dexp))
        if min(step) < 0:
            return None
        c = rcoeff / dcoeff
        quotient[step] = c
        remainder = ref_add(remainder, ref_mul({step: -c}, d))
    return quotient


def kernel_invariants_hold(poly: Polynomial) -> bool:
    """Positive content, nonzero coprime int terms, well-formed keys, and the old hash value.

    A key is well formed when it is the packed form of its exponent fields:
    its top field is their sum, below the ceiling, and nothing lies above it.
    """
    import math

    n = poly.nvars
    if any(k != ref_pack(ref_unpack(k, n)) or k >> (FIELD_BITS * n) >= CEILING for k in poly._terms):
        return False
    values = list(poly._terms.values())
    if not isinstance(poly._c, Fraction) or poly._c <= 0:
        return False
    if not values:
        ok = poly._c == 1
    else:
        ok = all(type(v) is int and v for v in values) and math.gcd(*values) == 1
    old_hash = hash((poly.nvars, frozenset(ref_terms(poly).items())))
    return ok and hash(poly) == old_hash


# -- a plain reference for projective maps: the rational normal form -------------
#
# A map is kept as the rational matrix whose first nonzero entry (row-major)
# is 1, as ProjMap stored it before it held a primitive integer matrix.


def ref_normal_form(rows) -> tuple[tuple[Fraction, ...], ...]:
    matrix = [[Fraction(v) for v in row] for row in rows]
    pivot = next(v for row in matrix for v in row if v)
    return tuple(tuple(v / pivot for v in row) for row in matrix)


def ref_determinant(rows) -> Fraction:
    work = [[Fraction(v) for v in row] for row in rows]
    n, det = len(work), Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] / work[col][col]
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


def ref_product(a, b) -> tuple[tuple[Fraction, ...], ...]:
    n = len(a)
    return ref_normal_form(
        [[sum(a[i][m] * b[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
    )


def ref_inverse(a) -> tuple[tuple[Fraction, ...], ...]:
    n = len(a)
    aug = [
        [Fraction(v) for v in a[i]] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return ref_normal_form([row[n:] for row in aug])


def ref_map_text(entries) -> tuple[list[str], str]:
    """The JSON entry list and the repr of a map in the rational normal form."""
    as_json = [
        str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        for row in entries
        for v in row
    ]
    return as_json, f"ProjMap({[[str(v) for v in row] for row in entries]})"


def pullback_identity_holds(form: SymTensor, transform: ProjMap, pulled: SymTensor, x, v) -> bool:
    """sum_I A_I(Tx) (Tv)^I == sum_J B_J(x) v^J at one point x and one vector v.

    T is the map's rational normal form; A are the form's coefficients and B
    the pulled-back ones, evaluated with ``Polynomial.evaluate`` only.
    """
    T = transform.entries
    n = len(T)
    tx = [sum(T[i][j] * x[j] for j in range(n)) for i in range(n)]
    tv = [sum(T[i][j] * v[j] for j in range(n)) for i in range(n)]

    def monomial(values, dmono):
        out = Fraction(1)
        for value, e in zip(values, dmono):
            out *= value ** e
        return out

    lhs = sum(A.evaluate(tx) * monomial(tv, I) for I, A in form.coeffs.items())
    rhs = sum(B.evaluate(x) * monomial(v, J) for J, B in pulled.coeffs.items())
    return lhs == rhs


def tensor_invariants_hold(tensor: SymTensor) -> bool:
    """The stored symbol and the coefficient view split from it.

    The symbol keeps the kernel invariants, every term has degree k in the
    last ndiff variables, and a zero symbol lies in 2 * ndiff variables.  The
    view has valid multi-indices, no zero coefficient, one ring, the kernel
    invariants, and builds the same symbol again.
    """
    W, n = tensor._w, tensor.ndiff
    m = W.nvars - n
    if not kernel_invariants_hold(W) or not (W._terms or m == n):
        return False
    if any(sum(e[m:]) != tensor.k for e in unpacked_terms(W)):
        return False
    return {p.nvars for p in tensor.coeffs.values()} <= {m} and all(
        len(I) == n and min(I) >= 0 and sum(I) == tensor.k
        and not A.is_zero and kernel_invariants_hold(A)
        for I, A in tensor.coeffs.items()
    ) and SymTensor(n, tensor.k, tensor.coeffs) == tensor


def ref_proportionality_constant(reference: SymTensor, candidate: SymTensor):
    """The constant c with candidate = c * reference, or None.

    Decided exactly: the leading coefficient of the reference's largest
    differential multi-index fixes c, and every coefficient must then match.
    """
    if candidate.is_zero:
        return Fraction(0)
    if reference.is_zero:
        return None
    anchor = max(reference.coeffs)
    exp, lc = reference.coeffs[anchor].leading_term()
    c = candidate.coefficient(anchor).coefficient(exp) / lc
    if not c or candidate.coeffs != {I: A * c for I, A in reference.coeffs.items()}:
        return None
    return c


# -- the tensor operations as expansions over differential multi-indices ---------
#
# webfol does its tensor algebra on the symbol sum_I A_I(x) y^I.  These are
# the multi-index loops it used before, kept unchanged as references: only
# the trusted constructors became the public ones.


def ref_sym_mul(self: SymTensor, other: SymTensor) -> SymTensor:
    """Symmetric product; multi-indices add, coefficients multiply."""
    if self.ndiff != other.ndiff:
        raise InputError("tensor shape mismatch in symmetric product")
    out: dict[tuple[int, ...], Polynomial] = {}
    for da, pa in self.coeffs.items():
        for db, pb in other.coeffs.items():
            dmono = tuple(a + b for a, b in zip(da, db))
            prod = pa * pb
            if dmono in out:
                out[dmono] = out[dmono] + prod
            else:
                out[dmono] = prod
    return SymTensor(self.ndiff, self.k + other.k, {d: p for d, p in out.items() if p})


def ref_euler_contraction(self: SymTensor) -> SymTensor:
    """Contract against the radial field: dx^I picks up i_j * x_j per slot."""
    if self.k == 0:
        raise InputError("cannot contract a 0-tensor")
    out: dict[tuple[int, ...], Polynomial] = {}
    for dmono, poly in self.coeffs.items():
        for j, ij in enumerate(dmono):
            if ij == 0:
                continue
            target = list(dmono)
            target[j] -= 1
            key = tuple(target)
            contribution = poly * Polynomial.variable(poly.nvars, j) * ij
            if key in out:
                out[key] = out[key] + contribution
            else:
                out[key] = contribution
    return SymTensor(self.ndiff, self.k - 1, out)


def ref_lie_derivative(field, form: SymTensor) -> SymTensor:
    """L_v (A_I dx^I) = (v . grad A_I) dx^I + A_I * sum_j i_j dx^{I - e_j} (.) d v_j."""
    n = form.ndiff
    out: dict[tuple[int, ...], Polynomial] = {}

    def accumulate(dmono, poly: Polynomial) -> None:
        if dmono in out:
            out[dmono] = out[dmono] + poly
        else:
            out[dmono] = poly

    for dmono, poly in form.coeffs.items():
        transport = Polynomial.zero(n)
        for j in range(n):
            if not field[j].is_zero:
                transport = transport + field[j] * poly.partial(j)
        accumulate(dmono, transport)
        for j, ij in enumerate(dmono):
            if ij == 0:
                continue
            lowered = list(dmono)
            lowered[j] -= 1
            for m in range(n):
                dv = field[j].partial(m)
                if dv.is_zero:
                    continue
                raised = list(lowered)
                raised[m] += 1
                accumulate(tuple(raised), poly * dv * ij)
    return SymTensor(n, form.k, out)


def _ref_linear_differential(row, nvars: int) -> SymTensor:
    """1-tensor sum_m c_m dx_m; entries may be scalars or polynomials in nvars."""
    n = len(row)
    coeffs = {}
    for m, value in enumerate(row):
        poly = value if isinstance(value, Polynomial) else Polynomial.constant(nvars, value)
        if poly:
            dmono = [0] * n
            dmono[m] = 1
            coeffs[tuple(dmono)] = poly
    return SymTensor(n, 1, coeffs)


def ref_pull(form: SymTensor, rows, xs, nvars: int) -> SymTensor:
    """x_i -> sum_j rows[i][j] * xs[j] and dx_i -> sum_m rows[i][m] * dx_m (square rows)."""
    n = form.ndiff
    zero = Polynomial.constant(nvars, 0)
    coordinate_subs = [
        sum((rows[i][j] * xs[j] for j in range(n)), zero) for i in range(n)
    ]
    linear = [_ref_linear_differential(rows[i], nvars) for i in range(n)]
    total = SymTensor(n, form.k, {})
    one = SymTensor(n, 0, {(0,) * n: Polynomial.constant(nvars, 1)})
    for dmono, poly in form.coeffs.items():
        composed = poly.compose(coordinate_subs)
        expansion = one
        for j, ij in enumerate(dmono):
            for _ in range(ij):
                expansion = ref_sym_mul(expansion, linear[j])
        total = total + expansion.scale(composed)
    return total


def ref_restrict_to_line(form: SymForm, p, q) -> BinaryForm:
    """Substitute x = s p + t q and dx = p ds + q dt, then divide by (s dt - t ds)^k."""
    n = form.ndiff
    p = [Fraction(v) for v in p]
    q = [Fraction(v) for v in q]
    if len(p) != n or len(q) != n:
        raise InputError(f"line points need {n} coordinates")
    if _rank2(p, q) < 2:
        raise InputError("the two points do not span a line")
    # Work in Q[s, t, u, v] with u = ds and v = dt.
    s, t, u, v = Polynomial.variables(4)
    coordinate_subs = [p[i] * s + q[i] * t for i in range(n)]
    pulled = Polynomial.zero(4)
    for dmono, poly in form.coeffs.items():
        term = poly.compose(coordinate_subs)
        for j, ij in enumerate(dmono):
            if ij:
                term = term * (p[j] * u + q[j] * v) ** ij
        pulled = pulled + term
    if pulled.is_zero:
        raise NonGenericLineError("the form pulls back to zero on this line")
    divisor = (s * v - t * u) ** form.k
    quotient = pulled.try_divide(divisor)
    if quotient is None:
        raise NonGenericLineError(
            "the pullback is not divisible by the expected tangency factor"
        )
    if any(exp[2] or exp[3] for exp, _ in quotient.terms()):
        raise NonGenericLineError("unexpected differentials survive the restriction")
    d = form.degree
    if quotient.degree() != d or not quotient.is_homogeneous():
        raise NonGenericLineError(
            f"restricted form has degree {quotient.degree()}, expected {d}"
        )
    coefficients = [Fraction(0)] * (d + 1)
    for exp, c in quotient.terms():
        coefficients[exp[1]] = c
    return BinaryForm(d, tuple(coefficients))


def tensor_json(tensor: SymTensor) -> tuple:
    """Everything a tensor shows: shape, coefficient ring and its JSON."""
    return tensor.ndiff, tensor.coeff_nvars(), json.dumps(tensor.to_json_dict())


def to_sympy(poly: Polynomial, symbols):
    """The polynomial as a sympy expression in the given symbols."""
    import sympy

    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x ** e for x, e in zip(symbols, exp)))
            for exp, c in poly.terms()
        ),
        sympy.Integer(0),
    )


def symbol_to_sympy(tensor: SymTensor, xs, ys):
    """sum_I A_I(x) y^I as a sympy expression."""
    import sympy

    return sum(
        (
            to_sympy(A, xs) * sympy.Mul(*(y ** i for y, i in zip(ys, I)))
            for I, A in tensor.coeffs.items()
        ),
        sympy.Integer(0),
    )


# -- the primitive pseudo-remainder sequence: the reference GCD ------------------
#
# The exact GCD that webfol.poly used before its modular algorithm (Collins
# 1967, Brown 1971), kept here as the tests' reference.  It is exponential in
# the degree, so tests call it only on small inputs.  Its contents are its own
# GCDs (``ref_gcd_many``), so no answer rests on the code under test.


def ref_gcd_many(polys) -> Polynomial:
    """GCD of a family by folding the sequence over its members, monic (zero for an all-zero family)."""
    family = list(polys)
    nonzero = sorted((p for p in family if not p.is_zero), key=lambda p: (p.degree(), len(p._terms)))
    if not nonzero:
        return family[0]
    result = nonzero[0]
    for p in nonzero[1:]:
        result = _gcd_nonzero(result, p)
        if result.degree() == 0:
            break
    return result.monic()


def _gcd_univariate(p: Polynomial, q: Polynomial) -> Polynomial:
    """Euclid's algorithm on the primitive int parts: a GCD up to a unit.

    Each step a <- lb*a - la*x^s*b is the Fraction step a - (la/lb)*x^s*b
    times the nonzero integer lb, followed by dropping the integer content.
    """
    a, b = p._terms, q._terms
    while b:
        bexp = max(b)
        lb = b[bexp]
        while a:
            aexp = max(a)
            if aexp < bexp:
                break
            la, shift = a[aexp], aexp - bexp
            out = {e: lb * v for e, v in a.items()}
            get = out.get
            for e, v in b.items():
                e += shift
                out[e] = get(e, 0) - la * v
            a = {e: v for e, v in out.items() if v}
            if a:
                g = math.gcd(*a.values())
                if g > 1:
                    a = {e: v // g for e, v in a.items()}
        a, b = b, a
    return _make(1, a, _ONE)


def _gcd_nonzero(p: Polynomial, q: Polynomial) -> Polynomial:
    """A GCD of nonzero p and q up to a constant.

    In one variable, Euclid.  In more, p and q are lists of coefficients in
    the last variable: the GCD of their contents times the last nonzero
    member of the primitive pseudo-remainder sequence of their primitive
    parts (Collins 1967, Brown 1971).
    """
    n = p.nvars
    if n == 1:
        return _gcd_univariate(p, q)
    f, g = _coefficients_last(p), _coefficients_last(q)
    cf, cg = ref_gcd_many(f), ref_gcd_many(g)
    content = ref_gcd_many([cf, cg])
    f, g = _divided(f, cf), _divided(g, cg)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _prem(f, g)
        if r:
            r = _divided(r, ref_gcd_many(r))
        f, g = g, r
    return _join({(i,): content * c for i, c in enumerate(f)}, n)


def _coefficients_last(p: Polynomial) -> list[Polynomial]:
    """C_0 .. C_d of p = sum_i C_i x_last^i (C_d nonzero), each in the other variables."""
    parts = _split(p, p.nvars - 1)
    zero = _make(p.nvars - 1, {}, _ONE)
    return [parts.get((i,), zero) for i in range(max(parts)[0] + 1)]


def _divided(parts: list[Polynomial], d: Polynomial) -> list[Polynomial]:
    """Each entry over the monic d, which divides them all, with one rational scale making the integers coprime.

    A constant d is 1, so only a d of positive degree is divided out.  The
    scale is a unit, so no GCD changes; it keeps the integers of a
    remainder sequence from growing from one remainder to the next.
    """
    if d.degree() > 0:
        parts = [c.try_divide(d) for c in parts]
    scales = [c._c for c in parts if c._terms]
    scale = Fraction(
        math.gcd(*(c.numerator for c in scales)), math.lcm(*(c.denominator for c in scales))
    )
    return [_make(c.nvars, c._terms, c._c / scale) if c._terms else c for c in parts]


def _prem(f: list[Polynomial], g: list[Polynomial]) -> list[Polynomial]:
    """The pseudo-remainder of f by g, coefficient lists with nonzero last entries, len(f) >= len(g).

    Each step r <- lc(g)*r - lc(r)*x^s*g cancels the leading entry of r.
    """
    lg, dg = g[-1], len(g) - 1
    r = list(f)
    while len(r) > dg:
        lr = r.pop()
        s = len(r) - dg
        r = [lg * c for c in r]
        for i, c in enumerate(g[:-1], s):
            r[i] -= lr * c
        while r and not r[-1]:
            r.pop()
    return r
