"""Arithmetic the benchmark does on its own, apart from webfol.

Generation and checking both work on plain dictionaries: a polynomial is
``{exponent tuple: coefficient}`` and a form is ``{differential multi-index:
polynomial}``.  Nothing here imports webfol, so the expected answers the
benchmark compares against are never computed by the program under test.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from itertools import permutations, product

# A Mersenne prime for the modular coprimality certificate.
PRIME = (1 << 61) - 1

# The documented deterministic schedule of webfol's "generic point" checks.
SCHEDULE_TABLE = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


# -- sparse polynomials --------------------------------------------------------


def monomials(nvars, degree):
    """All exponent tuples of one total degree, in a fixed order."""
    if nvars == 1:
        return [(degree,)]
    return [
        (head,) + tail
        for head in range(degree, -1, -1)
        for tail in monomials(nvars - 1, degree - head)
    ]


def unit(nvars, i):
    e = [0] * nvars
    e[i] = 1
    return tuple(e)


def padd(p, q, scale=1):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def pscale(p, c):
    return {e: v * c for e, v in p.items()} if c else {}


def evaluate(p, point):
    total = 0
    for e, c in p.items():
        term = c
        for k, v in zip(e, point):
            if k:
                term *= v ** k
        total += term
    return total


def partial_value(p, i, point):
    """Value of the i-th partial derivative at a point."""
    total = 0
    for e, c in p.items():
        k = e[i]
        if not k:
            continue
        term = c * k
        for j, (m, v) in enumerate(zip(e, point)):
            m = m - 1 if j == i else m
            if m:
                term *= v ** m
        total += term
    return total


def total_degree(p):
    return max(sum(e) for e in p)


def low_degree(p):
    return min(sum(e) for e in p)


def homogeneous_part(p, degree):
    return {e: c for e, c in p.items() if sum(e) == degree}


# -- JSON in webfol's file formats ---------------------------------------------


def _grlex(e):
    return (sum(e), tuple(reversed(e)))


def poly_doc(p, nvars):
    return {
        "nvars": nvars,
        "terms": [
            {"exp": list(e), "num": str(Fraction(c).numerator), "den": str(Fraction(c).denominator)}
            for e, c in sorted(p.items(), key=lambda t: _grlex(t[0]), reverse=True)
        ],
    }


def poly_from_doc(doc):
    return {
        tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"])) for t in doc["terms"]
    }


def form_doc(N, k, coeffs):
    return {
        "N": N,
        "k": k,
        "coeffs": [
            {"dmono": list(d), "poly": poly_doc(coeffs[d], N + 1)}
            for d in sorted(coeffs, reverse=True)
        ],
    }


def form_from_doc(doc):
    return {tuple(c["dmono"]): poly_from_doc(c["poly"]) for c in doc["coeffs"]}


def frac_str(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# -- forms ------------------------------------------------------------------------


def koszul_form(nvars, blocks):
    """The 1-form sum_{i<j} B_ij (x_i dx_j - x_j dx_i); its radial contraction is 0."""
    coeffs = {}
    for (i, j), B in blocks.items():
        xi = {unit(nvars, i): 1}
        xj = {unit(nvars, j): 1}
        coeffs[unit(nvars, j)] = padd(coeffs.get(unit(nvars, j), {}), pmul(xi, B))
        coeffs[unit(nvars, i)] = padd(coeffs.get(unit(nvars, i), {}), pmul(xj, B), -1)
    return {d: p for d, p in coeffs.items() if p}


def cross_form(P, Q, R):
    """Plane foliation (x, y, z) x (P, Q, R) as the coefficient family of dx, dy, dz."""
    x, y, z = ({unit(3, i): 1} for i in range(3))
    coeffs = {
        (1, 0, 0): padd(pmul(y, R), pmul(z, Q), -1),
        (0, 1, 0): padd(pmul(z, P), pmul(x, R), -1),
        (0, 0, 1): padd(pmul(x, Q), pmul(y, P), -1),
    }
    return {d: p for d, p in coeffs.items() if p}


def sym_product(f, g):
    out = {}
    for da, pa in f.items():
        for db, pb in g.items():
            d = tuple(a + b for a, b in zip(da, db))
            out[d] = padd(out.get(d, {}), pmul(pa, pb))
    return {d: p for d, p in out.items() if p}


def form_add(f, g):
    out = dict(f)
    for d, p in g.items():
        out[d] = padd(out.get(d, {}), p)
    return {d: p for d, p in out.items() if p}


def form_value(coeffs, point):
    """The coefficient family evaluated at a point."""
    return {d: evaluate(p, point) for d, p in coeffs.items()}


def is_singular_point(coeffs, point):
    return not any(form_value(coeffs, point).values())


def schedule_points(N, count, coeffs=None):
    """First ``count`` schedule points, skipping singular ones when a form is given."""
    out = []
    i = 0
    while len(out) < count:
        point = tuple(SCHEDULE_TABLE[i + j] for j in range(N + 1))
        if coeffs is None or not is_singular_point(coeffs, point):
            out.append(point)
        i += 1
    return out


# -- signed permutation matrices -------------------------------------------------


def signed_permutation_matrices(n):
    """Every signed permutation matrix, as a tuple of rows."""
    return [
        tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n))
        for perm in permutations(range(n))
        for signs in product((1, -1), repeat=n)
    ]


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][m] * b[m][j] for m in range(n)) for j in range(n)) for i in range(n)
    )


def matrix_group(generators):
    """Closure of integer matrices under products (as matrices, not up to scale)."""
    n = len(generators[0])
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for e in frontier:
            for g in generators:
                p = matmul(e, g)
                if p not in elements:
                    elements.add(p)
                    fresh.append(p)
        frontier = fresh
    return sorted(elements)


def normalised(matrix):
    """webfol's projective representative: first nonzero entry (row-major) is 1."""
    pivot = next(v for row in matrix for v in row if v)
    return tuple(tuple(Fraction(v, 1) / pivot for v in row) for row in matrix)


def projective_classes(matrices):
    return sorted({normalised(m) for m in matrices})


def pullback_signed(coeffs, matrix):
    """Pullback by a signed permutation: x_i -> s_i x_pi(i), dx_i -> s_i dx_pi(i)."""
    n = len(matrix)
    target = []
    for i, row in enumerate(matrix):
        j = next(j for j, v in enumerate(row) if v)
        target.append((j, row[j]))
    out = {}
    for d, p in coeffs.items():
        nd = [0] * n
        sign_d = 1
        for i, k in enumerate(d):
            j, s = target[i]
            nd[j] = k
            if k % 2 and s < 0:
                sign_d = -sign_d
        np_ = {}
        for e, c in p.items():
            ne = [0] * n
            sign = sign_d
            for i, k in enumerate(e):
                j, s = target[i]
                ne[j] = k
                if k % 2 and s < 0:
                    sign = -sign
            np_[tuple(ne)] = sign * c
        out[tuple(nd)] = np_
    return out


def orbit_sum(coeffs, group):
    total = {}
    for g in group:
        total = form_add(total, pullback_signed(coeffs, g))
    return total


def proportional(f, g):
    """Whether g = c f for a nonzero constant c (exact)."""
    if set(f) != set(g) or not f:
        return False
    ratio = None
    for d, p in f.items():
        q = g[d]
        if set(p) != set(q):
            return False
        for e, c in p.items():
            r = Fraction(q[e]) / Fraction(c)
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return True


# -- modular coprimality certificate ------------------------------------------------


def _upoly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _upoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % PRIME
    return out


def _upoly_rem(a, b):
    a = list(a)
    inv = pow(b[-1], PRIME - 2, PRIME)
    while len(a) >= len(b):
        f = a[-1] * inv % PRIME
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - f * y) % PRIME
        _upoly_trim(a)
    return a


def _upoly_gcd_degree(polys):
    g = []
    for p in polys:
        a, b = g, list(p)
        while b:
            a, b = b, _upoly_rem(a, b)
        g = a
        if len(g) == 1:
            return 0
    return len(g) - 1


def _restrict(p, direction, offset):
    """p(direction * t + offset) mod PRIME, as coefficients low to high."""
    lines = [[o % PRIME, a % PRIME] for a, o in zip(direction, offset)]
    powers = [{0: [1]} for _ in lines]

    def power(i, k):
        if k not in powers[i]:
            powers[i][k] = _upoly_mul(power(i, k - 1), lines[i])
        return powers[i][k]

    out = [0]
    for e, c in p.items():
        c = Fraction(c)
        term = [c.numerator * pow(c.denominator, PRIME - 2, PRIME) % PRIME]
        for i, k in enumerate(e):
            if k:
                term = _upoly_mul(term, power(i, k))
        if len(term) > len(out):
            out += [0] * (len(term) - len(out))
        for i, v in enumerate(term):
            out[i] = (out[i] + v) % PRIME
    return _upoly_trim(out)


CERTIFICATE_LINES = (
    ((1, 2, 3, 5, 7, 11, 13, 17), (1, -1, 2, -3, 5, -7, 11, -13)),
    ((3, 1, 4, 1, 5, 9, 2, 6), (2, 7, -1, 8, -2, 8, 1, -8)),
    ((7, -5, 3, 11, -2, 13, 4, 1), (-3, 2, 9, -4, 6, 1, -7, 5)),
)


def certified_coprime(polys):
    """Sound certificate that homogeneous polynomials share no factor.

    Restrict to a line x = a t + b.  A common factor G of positive degree
    restricts to a polynomial of the same degree whenever some member has a
    nonzero value at a modulo the prime (its t-leading coefficient), and
    divides every restriction modulo the prime; so a constant modular GCD
    under that condition rules G out.  False means "not certified".
    """
    polys = [p for p in polys if p]
    if not polys:
        return False
    for direction, offset in CERTIFICATE_LINES:
        n = len(next(iter(polys[0])))
        a, b = direction[:n], offset[:n]
        if all(evaluate(p, a) % PRIME == 0 for p in map(_integral, polys)):
            continue
        if _upoly_gcd_degree([_restrict(p, a, b) for p in polys]) == 0:
            return True
    return False


def _integral(p):
    """Scale a rational polynomial to integer coefficients."""
    den = 1
    for c in p.values():
        den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
    return {e: int(Fraction(c) * den) for e, c in p.items()}


def homogenise(p):
    """Bivariate p(x, y) as a ternary form of its total degree."""
    D = total_degree(p)
    return {(e[0], e[1], D - e[0] - e[1]): c for e, c in p.items()}


# -- bounds -------------------------------------------------------------------------


def bound_parts(kf2, kfkx):
    """(m, h0_cap, base, exponent) of the paper's order bound."""
    m = (kfkx + 4 * kf2 + 1) ** 2 + 3 * kf2
    h0_cap = m * m * kf2 + 2
    base = (3 * m * m + 2 * m) * kf2
    exponent = h0_cap ** 2 - 1
    return m, h0_cap, base, exponent


_LOG_CONTEXT = decimal.Context(prec=60)


def digit_count(base, exponent):
    """Decimal digits of base**exponent, floor(exponent*log10(base)) + 1."""
    value = _LOG_CONTEXT.multiply(_LOG_CONTEXT.log10(decimal.Decimal(base)), exponent)
    nearest = int(value.to_integral_value(rounding=decimal.ROUND_HALF_EVEN))
    if abs(value - nearest) < decimal.Decimal("1e-30"):
        # Too close to an integer to trust 60 digits: decide exactly.
        return nearest + 1 if base ** exponent >= 10 ** nearest else nearest
    return int(value.to_integral_value(rounding=decimal.ROUND_FLOOR)) + 1


def decimal_mod(text, p):
    """A decimal string's value modulo p, without converting it whole."""
    r = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        r = (r * pow(10, len(chunk), p) + int(chunk)) % p
    return r


CHECK_PRIMES = (1_000_000_007, 998_244_353, (1 << 61) - 1)


# -- reduced singularities ------------------------------------------------------------


def rational_sqrt(v):
    v = Fraction(v)
    if v < 0:
        return None
    n, d = math.isqrt(v.numerator), math.isqrt(v.denominator)
    if n * n == v.numerator and d * d == v.denominator:
        return Fraction(n, d)
    return None


def eigen_reduced(matrix):
    """(reduced, quotient) from the eigenvalues of a rational 2x2 matrix.

    Not reduced when both eigenvalues vanish, or when both are nonzero rationals
    of one sign (their quotient is then a positive rational; irrational real
    or complex pairs never give one).
    """
    (a, b), (c, d) = [[Fraction(v) for v in row] for row in matrix]
    tr, det = a + d, a * d - b * c
    if tr == 0 and det == 0:
        return False, None
    root = rational_sqrt(tr * tr - 4 * det)
    if root is None:
        return True, None
    l1, l2 = (tr + root) / 2, (tr - root) / 2
    if l1 == 0 or l2 == 0 or (l1 > 0) != (l2 > 0):
        return True, None
    return False, max(l1 / l2, l2 / l1)
