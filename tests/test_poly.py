import ast
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from webfol.errors import InputError, ValidationError
from webfol import poly
from webfol.blowup import LocalFoliation
from webfol.forms import SymForm
from webfol.poly import (
    _PRIME,
    Polynomial,
    _gcd_degree_bounds,
    _gcd_ints,
    _primes,
    _join,
    _ratio,
    _relabel,
    _split,
    poly_gcd,
    poly_gcd_many,
)

from helpers import (
    CEILING,
    grlex_key,
    kernel_invariants_hold,
    ref_add,
    ref_compose,
    ref_gcd_many,
    ref_mul,
    ref_pack,
    ref_partial,
    ref_terms,
    ref_try_divide,
    to_sympy,
    unpacked_terms,
)


def variables3():
    return Polynomial.variables(3)


def test_binomial_square():
    x, y, z = variables3()
    assert (x + y) * (x + y) == x * x + 2 * x * y + y * y


def test_multiplication_identity():
    x, y, z = variables3()
    p = 3 * x * y - Fraction(1, 2) * z ** 3 + 1
    assert Polynomial.constant(3, 1) * p == p


def test_mul_matches_evaluation_oracle():
    # Evaluation is an independent witness of the product.
    rng = random.Random(42)
    for _ in range(5):
        p = _random_poly(rng, 3, 3)
        q = _random_poly(rng, 3, 3)
        product = p * q
        for _ in range(10):
            point = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)]
            assert product.evaluate(point) == p.evaluate(point) * q.evaluate(point)


def _random_poly(rng, nvars, max_degree):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exp = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Polynomial(nvars, terms)


def test_mul_degree_additivity():
    rng = random.Random(7)
    for _ in range(20):
        p = _random_poly(rng, 3, 2)
        q = _random_poly(rng, 3, 2)
        if p.is_zero or q.is_zero:
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_mul_variable_count_mismatch():
    with pytest.raises(InputError):
        Polynomial.variable(2, 0) * Polynomial.variable(3, 0)


def test_gcd_variable_count_mismatch():
    x, y = Polynomial.variable(1, 0), Polynomial.variable(2, 1)
    for family in ([x, y], [y, x], [x + 1, y * y + 2]):
        with pytest.raises(InputError, match="variable-count mismatch"):
            poly_gcd_many(family)
        with pytest.raises(InputError, match="variable-count mismatch"):
            poly_gcd(*family)


def test_partial_basics():
    x, y, z = variables3()
    assert (x * x * y).partial(0) == 2 * x * y
    assert Polynomial.constant(3, 5).partial(0).is_zero
    with pytest.raises(InputError):
        x.partial(3)


def test_partial_matches_symbolic_difference_quotient():
    # (p(pt + h e_i) - p(pt)) / h, expanded symbolically in h, equals the
    # partial derivative at h = 0: the first-order error is exactly O(h).
    rng = random.Random(3)
    for _ in range(5):
        p = _random_poly(rng, 3, 3)
        point = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        for i in range(3):
            h = Polynomial.variable(1, 0)
            subs = [
                Polynomial.constant(1, point[j]) + (h if j == i else 0)
                for j in range(3)
            ]
            shifted = p.compose(subs) - Polynomial.constant(1, p.evaluate(point))
            quotient = (
                Polynomial.zero(1) if shifted.is_zero else shifted.shift_down(0, 1)
            )
            assert quotient.evaluate([Fraction(0)]) == p.partial(i).evaluate(point)
        # and along the explicit sequence h = 1/2^j the error is h * (exact tail)
        for i in range(3):
            for j in (1, 3, 6):
                h = Fraction(1, 2 ** j)
                moved = list(point)
                moved[i] += h
                difference = (p.evaluate(moved) - p.evaluate(point)) / h
                error = difference - p.partial(i).evaluate(point)
                # the error vanishes at least linearly: error / h stays exact and bounded
                assert error == 0 or abs(error / h) <= _taylor_bound(p, point)


def _taylor_bound(p, point):
    # crude exact bound: sum of |coefficients| times (|pt|+1)^degree
    radius = max((abs(v) for v in point), default=Fraction(0)) + 1
    total = Fraction(0)
    for exp, c in p.terms():
        total += abs(c) * radius ** sum(exp)
    return total * (p.degree() + 1) ** 2


def test_gcd_monomials():
    x, y, z = variables3()
    assert poly_gcd(x * x * y, x * y * y) == x * y


def test_gcd_with_zero_is_normalised():
    x, y, z = variables3()
    p = 4 * x * y + 2 * y * y
    expected = p.monic()
    assert poly_gcd(p, Polynomial.zero(3)) == expected
    assert poly_gcd(Polynomial.zero(3), p) == expected


def test_gcd_common_linear_factor_divides_exactly():
    x, y, z, w = Polynomial.variables(4)
    p = (x + y) * z
    q = (x + y) * w
    g = poly_gcd(p, q)
    assert g == x + y
    assert p.try_divide(g) is not None
    assert q.try_divide(g) is not None


def test_gcd_divides_random_pairs():
    rng = random.Random(11)
    for _ in range(15):
        a = _random_poly(rng, 2, 2)
        b = _random_poly(rng, 2, 2)
        m = _random_poly(rng, 2, 2)
        p, q = a * m, b * m
        if p.is_zero or q.is_zero:
            continue
        g = poly_gcd(p, q)
        assert p.try_divide(g) is not None
        assert q.try_divide(g) is not None
        if not m.is_zero:
            assert g.try_divide(m.monic()) is not None


def test_gcd_many():
    x, y, z = variables3()
    assert poly_gcd_many([x * y, x * z, x * x]) == x
    assert poly_gcd_many([x * y + 1, y]).degree() == 0


def test_eval_examples():
    x, y, z = variables3()
    p = x * x + y
    assert p.evaluate([2, 3, 0]) == 7
    with pytest.raises(InputError):
        p.evaluate([1, 2])


def test_eval_homogeneity():
    x, y, z = variables3()
    p = x * x * y - 3 * y * z * z + z ** 3
    pt = [Fraction(2), Fraction(-1), Fraction(3)]
    scaled = [5 * v for v in pt]
    assert p.evaluate(scaled) == 5 ** 3 * p.evaluate(pt)


def test_eval_example_coefficient_at_ones():
    # dx-coefficient of the shipped plane example at (1,1,1) with a=b=1
    x, y, z = variables3()
    a_dx = -y * z * z
    assert a_dx.evaluate([1, 1, 1]) == -1


def test_homogeneous_product_degrees():
    x, y, z = variables3()
    p = x * y + z * z
    q = x ** 3 - y * z * z
    prod = p * q
    assert prod.is_homogeneous()
    assert prod.homogeneous_degree() == 5


def test_canonical_serialisation_fixpoint():
    x, y, z = variables3()
    p = Fraction(7, 3) * x * y * z - z ** 4 + x - Fraction(1, 2)
    blob = json.dumps(p.to_json_dict())
    reparsed = Polynomial.from_json_dict(json.loads(blob))
    assert reparsed == p
    assert json.dumps(reparsed.to_json_dict()) == blob


# -- numbers from outside ---------------------------------------------------------

NINES = "9" * poly.MAX_DIGITS
REFUSED_SPELLINGS = [
    True, False, 2.9, -0.5, 1e400, None, [1], {"num": 1},
    "", "-", "--1", "+1", " 1", "1 ", "1_0", "0.5", "1e2", "0x10", "\u0663", "1/2",
    NINES + "9", "-" + NINES + "9", "1" * 5000,
]


def test_read_int_accepts_exactly_the_printed_spellings():
    assert poly.read_int(7, "f") == 7
    assert poly.read_int(-(10 ** 5000), "f") == -(10 ** 5000)
    for text in ("0", "-0", "007", "-12", NINES, "-" + NINES):
        assert poly.read_int(text, "f") == int(text)
    for value in REFUSED_SPELLINGS:
        with pytest.raises(InputError, match="^f: bad integer ") as info:
            poly.read_int(value, "f")
        # The message shows at most about 40 characters of the value.
        assert len(str(info.value)) < 60


def test_read_fraction_accepts_integers_and_n_over_d():
    read = poly.read_fraction
    assert read(5, "f") == 5 and type(read(5, "f")) is Fraction
    assert read("-6/4", "f") == Fraction(-3, 2)
    assert read("-0/7", "f") == 0
    assert read(NINES + "/" + NINES, "f") == 1
    for value in [v for v in REFUSED_SPELLINGS if v != "1/2"] + ["1/", "/2", "1/2/3", "1/+2", "1/ 2", "1/" + NINES + "9"]:
        with pytest.raises(InputError, match="^f: bad integer "):
            read(value, "f")
    for value in ("1/0", "1/-2", "-3/-0", NINES + "/0"):
        with pytest.raises(InputError, match="^f: zero or negative denominator in ") as info:
            read(value, "f")
        assert len(str(info.value)) < 100


def test_the_digit_budget_does_not_depend_on_the_interpreter():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert poly.read_int("7" * 1000, "f") % 10 ** 9 == 777777777
        assert sys.get_int_max_str_digits() == 640
        with poly.unlimited_digits():
            assert sys.get_int_max_str_digits() == 0
            with pytest.raises(InputError):
                poly.read_int(NINES + "9", "f")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_load_json_reads_integer_literals_through_the_budget():
    assert poly.load_json('{"a": [1, -2, "3"], "b": 0.5}', "doc") == {"a": [1, -2, "3"], "b": 0.5}
    with pytest.raises(InputError, match="^doc: bad integer '999"):
        poly.load_json("[" + "9" * 5000 + "]", "doc")
    for text in ("{not json", "[" * 100000, "\"unterminated"):
        with pytest.raises(InputError, match="^doc: invalid JSON"):
            poly.load_json(text, "doc")


def test_json_coefficients_are_read_in_the_printed_spellings_only():
    def doc(num, den="1"):
        return {"nvars": 2, "terms": [{"exp": [1, 0], "num": num, "den": den}, {"exp": [0, 1], "num": "1", "den": "1"}]}

    x, y = Polynomial.variables(2)
    assert Polynomial.from_json_dict(doc("-1", "2")) == y - Fraction(1, 2) * x
    assert Polynomial.from_json_dict(doc(-1, 2)) == y - Fraction(1, 2) * x
    # A negative den is an integer field like any other: the value is exact.
    assert Polynomial.from_json_dict(doc("1", "-2")) == y - Fraction(1, 2) * x
    # int() read -0.5 as 0 and 2.9 as 2, and true as 1.
    for num in (-0.5, 2.9, True, "1e2", "0.5", " 1"):
        with pytest.raises(InputError, match="^num: bad integer"):
            Polynomial.from_json_dict(doc(num))
    with pytest.raises(InputError, match="^den: zero denominator"):
        Polynomial.from_json_dict(doc("1", "0"))
    for bad in ({"nvars": 2.0, "terms": []}, {"nvars": 2, "terms": [{"exp": [1, 0.0], "num": "1", "den": "1"}]}):
        with pytest.raises(InputError, match="bad integer"):
            Polynomial.from_json_dict(bad)


def test_terms_are_in_descending_grlex_order():
    x, y, z = variables3()
    p = x + y + x * x + x * y
    exponents = [e for e, _ in p.terms()]
    assert exponents == [(1, 1, 0), (2, 0, 0), (0, 1, 0), (1, 0, 0)]
    # graded first; ties broken with the later variable dominating (x0 < x1)
    assert (x + y).leading_term()[0] == (0, 1, 0)


def test_try_divide():
    x, y, z = variables3()
    p = (x + y) * (x - 2 * z)
    assert p.try_divide(x + y) == x - 2 * z
    assert p.try_divide(x + z) is None
    with pytest.raises(InputError):
        p.try_divide(Polynomial.zero(3))


def test_compose_and_pow():
    x, y, z = variables3()
    u, v = Polynomial.variables(2)
    p = x * x + y * z
    composed = p.compose([u + v, u, v])
    assert composed == (u + v) * (u + v) + u * v
    assert (x + y) ** 0 == Polynomial.constant(3, 1)
    with pytest.raises(InputError):
        (x + y) ** -1


def test_compose_builds_high_powers_without_recursion():
    # The power cache is filled in a loop: a term x0^5000 needs 5000 powers.
    x0, x1 = Polynomial.variables(2)
    composed = (x0 ** 5000).compose([2 * x1, x0])
    assert composed == Polynomial.monomial(2, (0, 5000), 2 ** 5000)


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


@st.composite
def polynomials(draw, nvars=2):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(nvars))
        terms[exp] = draw(small_fractions)
    return Polynomial(nvars, terms)


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)


@settings(max_examples=40, deadline=None)
@given(polynomials(), polynomials())
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    if g.is_zero:
        assert p.is_zero and q.is_zero
        return
    assert p.try_divide(g) is not None
    assert q.try_divide(g) is not None


# -- the integer kernel against the plain Fraction reference ---------------------


def _negated(terms):
    return {e: -c for e, c in terms.items()}


@settings(max_examples=120, deadline=None)
@given(polynomials(), polynomials(), polynomials(nvars=3), polynomials(nvars=3), small_fractions)
def test_kernel_agrees_with_the_reference(p, q, s, t, scalar):
    P, Q, S, T = (ref_terms(f) for f in (p, q, s, t))
    checks = [
        (p + q, ref_add(P, Q)),
        (p - q, ref_add(P, _negated(Q))),
        (-p, _negated(P)),
        (p * q, ref_mul(P, Q)),
        (p * scalar, {e: c * scalar for e, c in P.items() if c * scalar}),
        (p.partial(0), ref_partial(P, 0)),
        (p.partial(1), ref_partial(P, 1)),
        (p.compose([s, t]), ref_compose(P, [S, T], 3)),
        (s.compose([p, q, p - q]), ref_compose(S, [P, Q, ref_add(P, _negated(Q))], 2)),
        (p.monic(), {e: c / p.leading_term()[1] for e, c in P.items()} if P else {}),
    ]
    for poly, reference in checks:
        assert ref_terms(poly) == reference
        assert kernel_invariants_hold(poly)
    assert kernel_invariants_hold(p) and kernel_invariants_hold(s)
    assert Polynomial(2, P) == p


@settings(max_examples=120, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_try_divide_agrees_with_the_reference(p, q, r):
    if q.is_zero:
        return
    for dividend in (p, p * q, p * q + r):
        quotient = dividend.try_divide(q)
        reference = ref_try_divide(ref_terms(dividend), ref_terms(q))
        if reference is None:
            assert quotient is None
        else:
            assert ref_terms(quotient) == reference
            assert kernel_invariants_hold(quotient)
    assert (p * q).try_divide(q) == p


@settings(max_examples=150, deadline=None)
@given(polynomials(nvars=3), st.fractions(min_value=-50, max_value=50, max_denominator=60))
def test_json_terms_agree_with_the_rational_terms(p, scale):
    scaled = p * scale
    assert scaled.to_json_dict() == {
        "nvars": 3,
        "terms": [
            {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
            for exp, c in scaled.terms()
        ],
    }


def test_representation_is_content_times_primitive_ints():
    x, y = Polynomial.variables(2)
    p = Fraction(3, 2) * x * x * y - 3
    assert p._c == Fraction(3, 2)
    assert unpacked_terms(p) == {(2, 1): 1, (0, 0): -2}
    assert -p == Polynomial(2, {(2, 1): Fraction(-3, 2), (0, 0): 3})
    assert unpacked_terms(-p) == {(2, 1): -1, (0, 0): 2}
    zero = p - p
    assert zero._terms == {} and zero._c == 1
    assert (p * 0)._c == 1 and (p * Polynomial.zero(2))._c == 1
    for poly in (p, -p, zero, p * p, p.partial(0), p.monic()):
        assert kernel_invariants_hold(poly)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(polynomials(n), st.integers(min_value=1, max_value=n))
    ),
    small_fractions,
)
def test_split_and_join_are_inverse(data, scalar):
    p, m = data
    parts = _split(p, m)
    for t, part in parts.items():
        assert part.nvars == m and len(t) == p.nvars - m
        assert not part.is_zero and kernel_invariants_hold(part)
        assert ref_terms(part) == {e[:m]: c for e, c in ref_terms(p).items() if e[m:] == t}
    joined = _join(parts, p.nvars)
    assert joined == p and kernel_invariants_hold(joined)
    # A zero part is skipped.
    spare = (max((sum(t) for t in parts), default=0) + 1,) + (0,) * (p.nvars - m - 1)
    if m < p.nvars:
        assert _join({**parts, spare: Polynomial.zero(m)}, p.nvars) == p
    spike = Polynomial.monomial(p.nvars, (5,) + (0,) * (p.nvars - 1))
    assert _ratio(p * scalar, p) == (scalar if p else 0)
    assert _ratio(p + spike, p) is None
    # Key 0 is the constant of every ring; other rings are never proportional.
    assert _ratio(Polynomial.constant(p.nvars + 1, 1), Polynomial.constant(p.nvars, 1)) is None


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            polynomials(n),
            st.permutations(range(n)),
            st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
        )
    )
)
def test_relabel_is_the_signed_permutation_substitution(data):
    p, images, signs = data
    xs = Polynomial.variables(p.nvars)
    substitutions = [s * xs[j] for j, s in zip(images, signs)]
    relabelled = _relabel(p, images, signs)
    assert relabelled == p.compose(substitutions)
    assert kernel_invariants_hold(relabelled)
    assert ref_terms(relabelled) == ref_compose(
        ref_terms(p), [ref_terms(s) for s in substitutions], p.nvars
    )


# -- packed monomials: the layout against grlex_key and componentwise arithmetic --


@st.composite
def exponent_vectors(draw, n, total=None):
    """n exponents with sum at most ``total`` (default: up to the ceiling less one)."""
    if total is None:
        total = draw(
            st.one_of(
                st.integers(0, 40),
                st.integers(CEILING - 40, CEILING - 1),
                st.integers(0, CEILING - 1),
            )
        )
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n, max_size=n)))
    exps = [b - a for a, b in zip([0] + cuts, cuts)]
    return tuple(draw(st.permutations(exps)))


sized_vectors = st.integers(1, 20).flatmap(lambda n: st.tuples(st.just(n), exponent_vectors(n)))


@settings(max_examples=300, deadline=None)
@given(sized_vectors, st.data())
def test_packing_round_trips_and_orders_like_grlex(data, draw):
    n, a = data
    # A permutation of a has its degree, so the order turns on the exponents.
    b = draw.draw(st.one_of(exponent_vectors(n), st.permutations(a).map(tuple)))
    ka, kb = poly._pack(n, a), poly._pack(n, b)
    assert ka == ref_pack(a) and poly._unpack(n, ka) == a
    assert (ka < kb) == (grlex_key(a) < grlex_key(b))
    assert (ka == kb) == (a == b)


@settings(max_examples=300, deadline=None)
@given(sized_vectors, st.data())
def test_the_guard_bit_test_is_componentwise_comparison(data, draw):
    n, r = data
    # Half the time d lies below r in every field but possibly one, which is
    # pushed one past r's when the ceiling allows it.
    if draw.draw(st.booleans()):
        d = [draw.draw(st.integers(0, e)) for e in r]
        i = draw.draw(st.integers(0, n - 1))
        if draw.draw(st.booleans()) and sum(r) < CEILING - 1:
            d[i] = r[i] + 1
        d = tuple(d)
    else:
        d = draw.draw(exponent_vectors(n))
    expected = all(x >= y for x, y in zip(r, d))
    assert poly._divides(poly._pack(n, d), poly._pack(n, r), poly._guards(n)) == expected


@settings(max_examples=300, deadline=None)
@given(sized_vectors, st.data())
def test_a_key_sum_below_the_ceiling_is_the_componentwise_sum(data, draw):
    n, a = data
    b = draw.draw(exponent_vectors(n, total=CEILING - 1 - sum(a)))
    total = tuple(x + y for x, y in zip(a, b))
    assert poly._pack(n, a) + poly._pack(n, b) == poly._pack(n, total)


def _refused(action):
    with pytest.raises(ValidationError) as info:
        action()
    assert info.value.code == "degree_too_large"


def test_degrees_at_the_ceiling_are_refused_before_any_product(monkeypatch):
    top = CEILING - 1
    x, y = Polynomial.variables(2)
    # Accepted one below the ceiling.
    big = Polynomial(2, {(top, 0): 1})
    assert big == Polynomial.monomial(2, (top - 5, 0)) * Polynomial.monomial(2, (5, 0))
    assert Polynomial.monomial(2, (2 ** 30, 2 ** 30 - 1)).degree() == top
    assert Polynomial.from_json_dict(
        {"nvars": 2, "terms": [{"exp": [0, top], "num": "1", "den": "1"}]}
    ) == y ** top
    assert x ** (2 ** 30) * y ** (2 ** 30 - 1) == Polynomial.monomial(2, (2 ** 30, 2 ** 30 - 1))
    assert x.compose([y ** top, x]) == y ** top
    assert (x - 2 * y).compose([x ** top, y ** top]) == x ** top - 2 * y ** top
    # The bound is per term: deg(p) * max deg(S_i) would pass the ceiling.
    edge = Polynomial.monomial(2, (2 ** 30, 2 ** 30 - 1))
    assert (x * y).compose([x ** (2 ** 30), y ** (2 ** 30 - 1)]) == edge
    assert (x * x * y).compose([x ** (2 ** 29), y ** (2 ** 30 - 1)]) == edge
    # A power far past the cache is formed by squaring, not one product per step.
    term, far = x ** (2 ** 30) * y, y ** (2 ** 30)
    mul_ints, products = poly._mul_ints, []

    def counted(a, b):
        products.append(None)
        if len(products) > 64:
            pytest.fail("a power was formed one product per step")
        return mul_ints(a, b)

    monkeypatch.setattr(poly, "_mul_ints", counted)
    assert term.compose([Polynomial.constant(2, 1), far]) == far
    monkeypatch.setattr(poly, "_mul_ints", mul_ints)
    assert kernel_invariants_hold(big * 3)
    assert Polynomial.constant(2, -1) ** CEILING == 1
    square, half = x * x, y ** (2 ** 30)
    # Refused at the ceiling, before any product is formed.
    monkeypatch.setattr(poly, "_mul_ints", lambda a, b: pytest.fail("a product was formed"))
    _refused(lambda: Polynomial(2, {(CEILING, 0): 1}))
    _refused(lambda: Polynomial(2, {(2 ** 30, 2 ** 30): 1}))
    _refused(lambda: Polynomial.monomial(2, (0, 10 ** 10)))
    _refused(lambda: Polynomial.from_json_dict(
        {"nvars": 2, "terms": [{"exp": [CEILING, 0], "num": "1", "den": "1"}]}
    ))
    _refused(lambda: big * x)
    _refused(lambda: Polynomial.monomial(2, (2 ** 30, 0)) * Polynomial.monomial(2, (0, 2 ** 30)))
    _refused(lambda: x ** CEILING)
    _refused(lambda: (square + y + 1) ** (2 ** 30))
    _refused(lambda: square.compose([half, x]))
    _refused(lambda: big.compose([square, x]))
    _refused(lambda: _join({(CEILING - 1,): Polynomial.variable(1, 0)}, 2))
    assert Polynomial.zero(2) ** CEILING == 0


# -- the representation stays in poly.py ----------------------------------------

_PUBLIC_PRIVATES = {"_split", "_join", "_ratio", "_relabel", "_PRIME"}


def test_only_poly_reads_the_polynomial_representation():
    # Other modules go through the public API and the helpers above, so a
    # change of representation (packed exponents, say) touches poly.py only.
    src = Path(__file__).resolve().parents[1] / "src" / "webfol"
    offences = []
    for path in sorted(src.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("_terms", "_c"):
                offences.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "poly":
                offences += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name not in _PUBLIC_PRIVATES
                ]
    assert offences == []


def test_gcd_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for nvars in (1, 2, 3):
        gens = sympy.symbols(f"x0:{nvars}")
        for _ in range(12):
            a, b, m = (_random_poly(rng, nvars, 2) for _ in range(3))
            p, q = a * m, b * m
            if p.is_zero or q.is_zero:
                continue
            ours = poly_gcd(p, q)
            as_sympy = [
                sympy.Poly.from_dict(
                    {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms()},
                    *gens,
                    domain="QQ",
                )
                for f in (p, q)
            ]
            theirs = sympy.gcd(*as_sympy)
            converted = Polynomial(
                nvars, {tuple(e): Fraction(str(c)) for e, c in theirs.terms()}
            )
            assert ours == converted.monic()


# -- the modular degree bounds and the evaluation GCD ------------------------------


@st.composite
def planted_families(draw):
    """Two or three nonzero members f*g_i sharing a factor f of positive degree."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    f = draw(polynomials(nvars))
    members = draw(st.lists(polynomials(nvars), min_size=2, max_size=3))
    assume(f.degree() >= 1 and all(not g.is_zero for g in members))
    return [f * g for g in members]


@settings(max_examples=150, deadline=None)
@given(planted_families())
def test_certificate_never_passes_a_planted_common_factor(family):
    # "Coprime" is "every bound is 0"; no bound at all also falls through.
    bounds = _gcd_degree_bounds(family)
    assert bounds is None or any(bounds)


def _sympy_gcd(family):
    """The monic GCD of a family from sympy, and its degree in each variable."""
    sympy = pytest.importorskip("sympy")
    nvars = family[0].nvars
    gens = sympy.symbols(f"x0:{nvars}")
    theirs = sympy.Poly(0, *gens, domain="QQ")
    for f in family:
        theirs = sympy.gcd(theirs, sympy.Poly(to_sympy(f, gens), *gens, domain="QQ"))
    ours = Polynomial(nvars, {tuple(e): Fraction(str(c)) for e, c in theirs.terms()})
    return ours.monic(), [theirs.degree(x) for x in gens]


@settings(max_examples=150, deadline=None)
@given(planted_families())
def test_degree_bounds_bound_the_gcd_and_see_a_planted_factor(family):
    bounds = _gcd_degree_bounds(family)
    if bounds is None:
        return
    _, degrees = _sympy_gcd(family)
    assert all(b >= d for b, d in zip(bounds, degrees))
    assert any(bounds)


@settings(max_examples=150, deadline=None)
@given(planted_families())
def test_planted_families_agree_with_sympy(family):
    expected, _ = _sympy_gcd(family)
    pair = _sympy_gcd(family[:2])[0]
    assert poly_gcd_many(family) == expected
    assert poly_gcd(family[0], family[1]) == pair
    if family[0].nvars < 4:
        # The reference remainder sequence can run for minutes in 4 variables.
        assert expected == ref_gcd_many(family)


def _counting(monkeypatch, name, limit=None):
    """Record the calls of poly.<name>; past ``limit`` calls, fail instead of running on."""
    calls = []
    real = getattr(poly, name)

    def counted(*args):
        calls.append(args)
        if limit is not None and len(calls) > limit:
            raise AssertionError(f"{name} called more than {limit} times")
        return real(*args)

    monkeypatch.setattr(poly, name, counted)
    return calls


def test_a_common_factor_in_four_variables_is_found_by_evaluation(monkeypatch):
    # The exact remainder sequence ran past a minute on this pair.  The GCD
    # is x*f, not f, because the cofactors share x.
    x, y, z, w = Polynomial.variables(4)
    f = (
        2 * x * y**3 * z**2 * w**3
        - Fraction(3, 2) * x**2 * z**2 * w**3
        + 2 * x**2 * y**3 * z * w
    )
    g = (
        Fraction(1, 2) * x**3 * z**2 * w**3
        + Fraction(2, 3) * x**3 * z**3 * w
        + Fraction(2, 3) * x * y**3 * z * w
        - 4 * x * y * z**3
    )
    h = -Fraction(3, 4) * x**3 * y * w**3 - 3 * x**2 * y**2 * z * w**2 - x * z**2 * w**3
    # The CRT stops after two images at most: one prime, and one to confirm.
    images = _counting(monkeypatch, "_gcd_mod", limit=10 ** 4)
    result = poly_gcd(f * g, f * h)
    assert result == _sympy_gcd([f * g, f * h])[0] == (x * f).monic()
    assert 1 <= _primes_tried(images, 4) <= 2


def _primes_tried(calls, nvars):
    """The top-level calls among those of ``_gcd_mod``: one per prime."""
    return sum(1 for _, m, _ in calls if m == nvars)


def test_evaluation_keeps_the_integer_content_of_each_level():
    # In F_p[x][y] both members lie in the content ring F_p[y]: every image
    # is a constant, and the GCD (3y - 2 up to a unit) is the GCD of the
    # members' contents in y, which must be put back on the candidate.
    x, y = Polynomial.variables(2)
    p, q = 9 * y ** 3 - 6 * y ** 2, -6 * y + 4
    assert poly_gcd(p, q) == y - Fraction(2, 3)
    assert poly_gcd(x * p, x ** 2 * q) == x * y - Fraction(2, 3) * x


# Three variables at most: on some planted 4-variable pairs of this size the
# exact remainder sequence runs past a minute.
@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(polynomials(n), st.lists(polynomials(n), min_size=1, max_size=3))
    )
)
def test_gcd_agrees_with_the_exact_path(data):
    # Each family plain and times a random factor, so the certificate both
    # passes and falls through.
    factor, members = data
    for family in (members, [factor * m for m in members]):
        assert poly_gcd_many(family) == ref_gcd_many(family)
        if len(family) >= 2:
            assert poly_gcd(family[0], family[1]) == ref_gcd_many(family[:2])


def test_certificate_falls_through_when_a_leading_coefficient_vanishes():
    # The x-coefficient y - 3 vanishes at the fixed value y = 3, so both
    # images lose their x-degree and no image is kept: there is no bound.
    x, y = Polynomial.variables(2)
    p, q = (y - 3) * x + 1, (y - 3) * x + 2
    assert _gcd_degree_bounds([p, q]) is None
    assert poly_gcd(p, q) == 1
    assert poly_gcd_many([p, q]) == 1


def test_certificate_falls_through_when_coprime_images_coincide():
    # At y = 3 both images in x are x - 9; in y they are 2 - y^2 and 2 - 3y.
    # The bound 1 in x is not tight, so the modular GCD answers.
    x, y = Polynomial.variables(2)
    p, q = x - y ** 2, x - 3 * y
    assert _gcd_degree_bounds([p, q]) == [1, 0]
    assert _gcd_ints([p._terms, q._terms], 2) in ({0: 1}, {0: -1})
    assert poly_gcd(p, q) == 1
    assert poly_gcd_many([p, q]) == 1


def _germ(degree, a, b):
    """Coprime dense germ sum ((a*i + b*s) mod 11 - 5) x^i y^(s-i), 1 <= s <= degree."""
    return Polynomial(
        2,
        {
            (i, s - i): (a * i + b * s) % 11 - 5
            for s in range(1, degree + 1)
            for i in range(s + 1)
        },
    )


def test_coprime_inputs_never_reach_the_remainder_sequence(monkeypatch):
    # The exact PRS took past 30 s on each of these; the degree bounds, all
    # 0, answer them before any modular image.
    images = _counting(monkeypatch, "_gcd_ints")
    for degree in (20, 40):
        LocalFoliation(_germ(degree, 3, 5), _germ(degree, 7, 2))
    x, y, z = Polynomial.variables(3)
    v, w = (x, y, z), (y ** 1200, z ** 1200, x ** 1200)
    cross = [v[(i + 1) % 3] * w[(i + 2) % 3] - v[(i + 2) % 3] * w[(i + 1) % 3] for i in range(3)]
    form = SymForm(2, 1, {(1, 0, 0): cross[0], (0, 1, 0): cross[1], (0, 0, 1): cross[2]})
    assert form.degree == 1200
    assert images == []
    assert poly_gcd(x * y, x * z) == x
    assert len(images) == 1


# -- the modular GCD against the references ------------------------------------


@st.composite
def hard_planted_families(draw):
    """Planted families f*g_i in 1-4 variables, each with some of the cases the modular GCD must handle.

    - a power of the last variable on the factor and on the members, which a
      homogeneous family keeps after setting that variable to 1;
    - a leading coefficient (y - 1)(y - 2) in the last variable y, whose
      roots are the first two evaluation points;
    - a coefficient above 2^61, so that the CRT needs a second prime.
    """
    nvars = draw(st.integers(min_value=1, max_value=4))
    xs = Polynomial.variables(nvars)
    y = xs[-1]
    f = draw(polynomials(nvars))
    members = draw(st.lists(polynomials(nvars), min_size=2, max_size=3))
    assume(f.degree() >= 1 and all(not g.is_zero for g in members))
    if draw(st.booleans()):
        f = f * y ** draw(st.integers(min_value=1, max_value=3))
        members = [g * y ** draw(st.integers(min_value=0, max_value=2)) for g in members]
    if nvars > 1 and draw(st.booleans()):
        f = f * ((y - 1) * (y - 2) * xs[0] ** 4 + xs[0] + 1)
    if draw(st.booleans()):
        f = f + (2 ** 61 + draw(st.integers(min_value=1, max_value=2 ** 8))) * xs[0] ** 4
    return [f * g for g in members]


@settings(max_examples=120, deadline=None)
@given(hard_planted_families())
def test_brown_agrees_with_the_references_on_planted_families(family):
    expected, _ = _sympy_gcd(family)
    assert poly_gcd_many(family) == expected
    if family[0].nvars <= 2:
        assert expected == ref_gcd_many(family)
    if family[0].nvars <= 3:
        # Homogenised, the family is set to x_n = 1 before the modular GCD.
        homogeneous = [_homogenised(p) for p in family]
        assert poly_gcd_many(homogeneous) == _sympy_gcd(homogeneous)[0]


def _homogenised(p):
    """x_n^deg(p) * p(x_0 / x_n, ..., x_{n-1} / x_n) in one more variable."""
    d = p.degree()
    return Polynomial(p.nvars + 1, {e + (d - sum(e),): c for e, c in p.terms()})


def test_the_crt_runs_to_the_coefficient_bound(monkeypatch):
    # The GCD x + c with c above 2^61 needs two primes: after the first the
    # candidate x + (c mod p) is wrong, and only the coefficient bound tells
    # the CRT to go on rather than to give the run up.
    (x,) = Polynomial.variables(1)
    c = 2 ** 62 + 12345
    primes = _counting(monkeypatch, "_gcd_mod", limit=10)
    assert poly_gcd((x + c) * (x + 1), (x + c) * (x + 2)) == x + c
    assert len(primes) == 2


def test_a_stable_candidate_from_unlucky_primes_is_refused(monkeypatch):
    # Modulo the first two primes p1 and p2 the cofactors x + p1*p2 and
    # x + 2*p1*p2 agree, so both images are f*x: the CRT leaves that
    # candidate unchanged below the coefficient bound, and only the trial
    # division refuses it.  The next two primes give f.  The multiples of
    # p1*p2 stay off the leading terms, which would make gamma skip p1, p2.
    x, y = Polynomial.variables(2)
    primes = _primes()
    p1, p2 = next(primes), next(primes)
    f = x * y + 3 * y ** 2 - 7
    images = _counting(monkeypatch, "_gcd_mod", limit=10 ** 3)
    assert poly_gcd(f * (x + p1 * p2), f * (x + 2 * p1 * p2)) == f.monic()
    assert _primes_tried(images, 2) == 4


def test_an_unlucky_prime_is_dropped(monkeypatch):
    # Modulo 2^61 - 1 the cofactors x + (2^61 - 1) y and x agree, so the
    # first image has a larger leading monomial than the GCD f, and the
    # second prime restarts the run.  Modulo the second prime p2 the
    # cofactors x + p2 and x + 2 p2 agree: that image comes after a lucky
    # one and must be dropped, or the run never gives f.
    x, y = Polynomial.variables(2)
    f = 5 * x ** 2 - y + 2
    family = [f * (x + _PRIME * y), f * x, f * (x + 3 * _PRIME * y ** 2)]
    assert poly_gcd_many(family) == f.monic() == _sympy_gcd(family)[0]
    primes = _primes()
    p2 = (next(primes), next(primes))[1]
    images = _counting(monkeypatch, "_gcd_mod", limit=10 ** 3)
    assert poly_gcd(f * (x + p2), f * (x + 2 * p2)) == f.monic()
    assert _primes_tried(images, 2) == 3


def test_unlucky_evaluation_points_are_dropped(monkeypatch):
    # x - y^2 and x - 3y + 2 agree at y = 1 and y = 2, and x - y^2 and x - 3y
    # at y = 3: images there have a larger leading monomial than the GCD's.
    x, y = Polynomial.variables(2)
    f = x + y ** 3 + 1
    # A run that takes an unlucky image never ends; the limit stops it.
    points = _counting(monkeypatch, "_gcd_mod", limit=200)
    assert poly_gcd(f * (x - y ** 2), f * (x - 3 * y + 2)) == f.monic()
    assert poly_gcd(f * (x - y ** 2), f * (x - 3 * y)) == f.monic()
    assert poly_gcd(x - y ** 2, x - 3 * y + 2) == 1
    assert points


def test_an_interpolant_that_stops_early_is_refused_by_trial_division_mod_p(monkeypatch):
    # The images of f = x + (y - 1)(y - 2) at y = 1 and y = 2 are both x, so
    # the interpolant is unchanged at the second point; only the trial
    # division mod p refuses the candidate x and runs on to the third point.
    x, y = Polynomial.variables(2)
    f = x + (y - 1) * (y - 2)
    points = _counting(monkeypatch, "_gcd_mod", limit=200)
    assert poly_gcd(f * (x + 3), f * (x + y + 5)) == f.monic()
    assert poly_gcd(f * (x + 3) * (x - y), f * (x + y + 5) * (x - y)) == (f * (x - y)).monic()
    assert points


def test_a_vanishing_leading_coefficient_skips_its_points():
    # The leading coefficient in x is (y - 1)(y - 2)(y - 3), so the first
    # three points are skipped; ROADMAP's probe shape at a small degree.
    x, y = Polynomial.variables(2)
    lc = (y - 1) * (y - 2) * (y - 3)
    f = x * y - 2 * y ** 2 + 3
    u, v = x + lc * (y ** 2 + 2 * x * y), x + lc * (3 * x ** 2 - y)
    assert poly_gcd(u, v) == 1 == ref_gcd_many([u, v])
    assert poly_gcd(f * u, f * v) == f.monic() == ref_gcd_many([f * u, f * v])
