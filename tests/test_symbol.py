"""Tensor operations on the symbol against independent references.

``SymTensor.sym_mul``, ``euler_contraction``, ``lie_derivative``,
``restrict_to_line`` and the pullback kernel work on the symbol
sum_I A_I(x) y^I.  They are compared with the multi-index expansions in
``helpers`` (same JSON) and, where sympy is installed, with direct sympy
substitutions.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from webfol import forms
from webfol.errors import InputError, NonGenericLineError
from webfol.forms import (
    SymTensor,
    lie_derivative,
    multi_indices,
    restrict_to_line,
)
from webfol.poly import Polynomial

from helpers import (
    build_corpus,
    ref_euler_contraction,
    ref_lie_derivative,
    ref_proportionality_constant,
    ref_pull,
    ref_restrict_to_line,
    ref_sym_mul,
    shipped_forms,
    symbol_to_sympy,
    tensor_invariants_hold,
    tensor_json,
    to_sympy,
)

FORMS = list(shipped_forms().values()) + build_corpus(20261019, size=12)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def sparse_polynomials(draw, nvars, max_degree=2):
    """Up to three terms, each in at most two variables, rational coefficients."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        exp = [0] * nvars
        for _ in range(draw(st.integers(min_value=0, max_value=max_degree))):
            exp[draw(st.integers(min_value=0, max_value=nvars - 1))] += 1
        terms[tuple(exp)] = draw(small_fractions)
    return Polynomial(nvars, terms)


@st.composite
def tensors(draw, n, k, nvars):
    """Zero tensors, sparse ones, and for k = 1 Koszul ones whose contraction cancels."""
    if k == 1 and nvars >= n and draw(st.booleans()):
        # A_i = sum_j c_ij x_j with c antisymmetric: sum_i x_i A_i = 0.
        c = {(i, j): draw(small_fractions) for i in range(n) for j in range(i + 1, n)}
        xs = Polynomial.variables(nvars)
        factor = draw(sparse_polynomials(nvars, 1))
        coeffs = {}
        for i, I in enumerate(multi_indices(n, 1)):
            A = Polynomial.zero(nvars)
            for j in range(n):
                if i < j:
                    A = A + xs[j] * c[(i, j)]
                elif j < i:
                    A = A - xs[j] * c[(j, i)]
            coeffs[I] = A * factor
        return SymTensor(n, k, coeffs)
    chosen = draw(st.lists(st.sampled_from(multi_indices(n, k)), max_size=4, unique=True))
    return SymTensor(n, k, {I: draw(sparse_polynomials(nvars)) for I in chosen})


@st.composite
def tensor_pairs(draw):
    """Two tensors on the same differentials and ring: the form's or the matrix entries'."""
    n = draw(st.integers(min_value=2, max_value=4))
    nvars = draw(st.sampled_from([n, n * n]))
    a = draw(tensors(n, draw(st.integers(min_value=0, max_value=3)), nvars))
    b = draw(tensors(n, draw(st.integers(min_value=0, max_value=2)), nvars))
    if draw(st.booleans()):
        # a + b - a: every coefficient of a cancels.
        b = (a + b) - a if a.k == b.k else b
    return a, b


def _same(result, reference):
    assert tensor_json(result) == tensor_json(reference)
    assert result == reference
    assert tensor_invariants_hold(result)


@settings(max_examples=150, deadline=None)
@given(tensor_pairs())
def test_symbol_operations_match_the_multi_index_expansions(pair):
    a, b = pair
    for x, y in ((a, b), (b, a), (a, a)):
        _same(x.sym_mul(y), ref_sym_mul(x, y))
    for t in (a, b, a.sym_mul(b)):
        if t.k:
            _same(t.euler_contraction(), ref_euler_contraction(t))


@st.composite
def fields_and_tensors(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    degree = draw(st.integers(min_value=0, max_value=2))
    field = []
    for _ in range(n):
        component = Polynomial.zero(n)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            exp = [0] * n
            for _ in range(degree):
                exp[draw(st.integers(min_value=0, max_value=n - 1))] += 1
            component = component + Polynomial.monomial(n, exp, draw(small_fractions))
        field.append(component)
    assume(any(field))
    return field, draw(tensors(n, draw(st.integers(min_value=0, max_value=3)), n))


@settings(max_examples=150, deadline=None)
@given(fields_and_tensors())
def test_lie_derivative_matches_the_multi_index_expansion(case):
    field, tensor = case
    _same(lie_derivative(field, tensor), ref_lie_derivative(field, tensor))


def _outcome(function, *args):
    try:
        return json.dumps(function(*args).to_json_dict())
    except (InputError, NonGenericLineError) as exc:
        return type(exc).__name__, str(exc)


points = st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FORMS), points, st.lists(small_fractions, min_size=4, max_size=4))
def test_restriction_matches_the_multi_index_expansion(form, p, q):
    n = form.ndiff
    p, q = p[:n], q[:n]
    assert _outcome(restrict_to_line, form, p, q) == _outcome(ref_restrict_to_line, form, p, q)


def test_restriction_contracts_instead_of_pulling_back(monkeypatch):
    # The symbol is contracted with q and composed once: no full pullback,
    # and no division by (s dt - t ds)^k.
    calls = []
    pull, try_divide = forms._pull, Polynomial.try_divide
    monkeypatch.setattr(forms, "_pull", lambda *args: calls.append("_pull") or pull(*args))
    monkeypatch.setattr(
        Polynomial, "try_divide", lambda *args: calls.append("try_divide") or try_divide(*args)
    )
    for form in FORMS:
        n = form.ndiff
        p, q = [1, 2, 3, 5][:n], [2, -1, 4, 1][:n]
        calls.clear()
        restricted = _outcome(restrict_to_line, form, p, q)
        assert calls == []
        assert restricted == _outcome(ref_restrict_to_line, form, p, q)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FORMS), st.lists(small_fractions, min_size=16, max_size=16),
       st.lists(small_fractions, min_size=4, max_size=4), st.permutations(range(4)),
       st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4))
def test_pull_matches_the_multi_index_expansion(form, entries, point, perm, signs):
    n = form.ndiff
    rows = [entries[i * n : (i + 1) * n] for i in range(n)]
    xs = Polynomial.variables(n)
    _same(forms._pull(form, rows, xs, n), ref_pull(form, rows, xs, n))
    # A signed permutation, which _pull relabels.
    columns = [j for j in perm if j < n]
    rows = [[signs[i] if j == columns[i] else 0 for j in range(n)] for i in range(n)]
    _same(forms._pull(form, rows, xs, n), ref_pull(form, rows, xs, n))
    # The invariance system's rings: matrix entries, with the point fixed or free.
    avars = Polynomial.variables(n * n)
    rows = [avars[i * n : (i + 1) * n] for i in range(n)]
    _same(forms._pull(form, rows, point[:n], n * n), ref_pull(form, rows, point[:n], n * n))
    if n > 3:
        return
    both = Polynomial.variables(n + n * n)
    rows = [both[n + i * n : n + (i + 1) * n] for i in range(n)]
    _same(forms._pull(form, rows, both[:n], n + n * n), ref_pull(form, rows, both[:n], n + n * n))


@st.composite
def proportionality_cases(draw):
    """A reference tensor and a candidate: multiples, negations, zeros, strangers."""
    n = draw(st.integers(min_value=2, max_value=4))
    nvars = draw(st.sampled_from([n, n * n]))
    k = draw(st.integers(min_value=0, max_value=3))
    reference = draw(tensors(n, k, nvars))
    kind = draw(st.sampled_from(
        ["multiple", "negated", "zero", "polynomial", "stranger", "ring", "degree"]
    ))
    if kind == "multiple":
        candidate = reference.scale(draw(small_fractions))
    elif kind == "negated":
        candidate = reference.scale(-1)
    elif kind == "zero":
        candidate = SymTensor(n, k, {})
    elif kind == "polynomial":
        candidate = reference.scale(draw(sparse_polynomials(nvars, 1)))
    elif kind == "stranger":
        candidate = draw(tensors(n, k, nvars))
    elif kind == "ring":
        candidate = draw(tensors(n, k, n + n * n - nvars))
    else:
        candidate = draw(tensors(n, k + 1, nvars))
    return reference, candidate


@settings(max_examples=300, deadline=None)
@given(proportionality_cases())
def test_proportionality_on_the_symbol_matches_the_anchor_reference(case):
    reference, candidate = case
    for a, b in ((reference, candidate), (candidate, reference), (reference, reference)):
        c = forms.proportionality_constant(a, b)
        assert c == ref_proportionality_constant(a, b)
        assert c is None or type(c) is Fraction
        if c:
            assert a.scale(c) == b


def test_proportionality_constant_of_rational_and_negated_multiples():
    x, y, z = Polynomial.variables(3)
    reference = SymTensor(3, 1, {(1, 0, 0): x * Fraction(2, 3), (0, 1, 0): y * Fraction(-1, 5)})
    for c in (Fraction(7, 4), Fraction(-7, 4), Fraction(-1), Fraction(1, 30)):
        assert forms.proportionality_constant(reference, reference.scale(c)) == c
    assert forms.proportionality_constant(reference, reference.scale(x)) is None
    assert forms.proportionality_constant(reference, SymTensor(3, 1, {})) == 0
    assert forms.proportionality_constant(SymTensor(3, 1, {}), reference) is None
    # A sign flip in one coefficient is neither the multiple nor its negation.
    flipped = SymTensor(3, 1, {(1, 0, 0): x * Fraction(2, 3), (0, 1, 0): y * Fraction(1, 5)})
    assert forms.proportionality_constant(reference, flipped) is None
    # Equal terms on a different split of the same ring size are not multiples.
    u, _ = Polynomial.variables(2)
    wide = SymTensor(2, 1, {(0, 1): u})
    other = SymTensor(1, 1, {(1,): Polynomial.variable(3, 0)})
    assert wide._w._terms == other._w._terms
    assert forms.proportionality_constant(wide, other) is None


def test_cancelling_products_and_contractions_drop_their_coefficients():
    x, y, z = Polynomial.variables(3)
    plus = SymTensor(3, 1, {(1, 0, 0): x, (0, 1, 0): x})
    minus = SymTensor(3, 1, {(1, 0, 0): x, (0, 1, 0): -x})
    product = plus.sym_mul(minus)
    assert sorted(product.coeffs) == [(0, 2, 0), (2, 0, 0)]
    _same(product, ref_sym_mul(plus, minus))
    koszul = SymTensor(3, 1, {(1, 0, 0): y * Fraction(1, 3), (0, 1, 0): -x * Fraction(1, 3)})
    assert koszul.euler_contraction().is_zero
    assert koszul.euler_contraction().k == 0


def test_euler_contraction_refuses_a_ring_without_the_radial_variables():
    # Coefficients in two variables cannot carry x_2 for the slot dx_2.
    u, v = Polynomial.variables(2)
    short = SymTensor(3, 1, {(0, 0, 1): u, (1, 0, 0): v})
    message = "variable index 2 out of range for nvars=2"
    with pytest.raises(InputError, match=message):
        short.euler_contraction()
    with pytest.raises(InputError, match=message):
        ref_euler_contraction(short)
    # Without a dx_2 slot the contraction exists, as it always did.
    fine = SymTensor(3, 2, {(1, 1, 0): u * v, (0, 2, 0): u})
    _same(fine.euler_contraction(), ref_euler_contraction(fine))


def test_lie_derivative_refuses_coefficients_outside_the_ambient_ring():
    field = Polynomial.variables(3)
    for nvars in (2, 9):
        tensor = SymTensor(3, 1, {(1, 0, 0): Polynomial.variable(nvars, 0)})
        with pytest.raises(InputError, match=f"variable-count mismatch: 3 vs {nvars}"):
            lie_derivative(field, tensor)
        with pytest.raises(InputError, match=f"variable-count mismatch: 3 vs {nvars}"):
            ref_lie_derivative(field, tensor)


def test_tensor_json_is_the_form_json_without_n():
    for form in FORMS:
        doc = form.to_json_dict()
        assert list(doc) == ["N", "k", "coeffs"]
        assert {"N": form.N, **SymTensor(form.ndiff, form.k, form.coeffs).to_json_dict()} == doc
    assert SymTensor(3, 2, {}).to_json_dict() == {"k": 2, "coeffs": []}


# -- sympy oracles ----------------------------------------------------------------


def _sympy_fields(n, rng):
    xs = Polynomial.variables(n)
    linear = [xs[(i + 1) % n] * Fraction(rng.randint(-3, 3), rng.randint(1, 3)) + xs[i] for i in range(n)]
    quadratic = [xs[i] * xs[(i + 2) % n] * rng.randint(-2, 2) + xs[0] * xs[0] for i in range(n)]
    return [linear, quadratic]


def test_lie_derivative_agrees_with_sympy_on_every_fixture():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    t = sympy.Symbol("t")
    for name, form in shipped_forms().items():
        n = form.ndiff
        xs = sympy.symbols(f"x0:{n}")
        ys = sympy.symbols(f"y0:{n}")
        W = symbol_to_sympy(form, xs, ys)
        for field in _sympy_fields(n, rng):
            v = [to_sympy(c, xs) for c in field]
            dv = [sum(sympy.diff(v[j], xs[m]) * ys[m] for m in range(n)) for j in range(n)]
            moved = W.subs(
                {**{xs[j]: xs[j] + t * v[j] for j in range(n)},
                 **{ys[j]: ys[j] + t * dv[j] for j in range(n)}},
                simultaneous=True,
            )
            expected = sympy.expand(sympy.diff(moved, t).subs(t, 0))
            ours = symbol_to_sympy(lie_derivative(field, form), xs, ys)
            assert sympy.expand(ours - expected) == 0, name


def test_restriction_agrees_with_sympy_on_every_fixture():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4)
    s, t, ds, dt = sympy.symbols("s t ds dt")
    for name, form in shipped_forms().items():
        n = form.ndiff
        xs = sympy.symbols(f"x0:{n}")
        ys = sympy.symbols(f"y0:{n}")
        W = symbol_to_sympy(form, xs, ys)
        restricted = 0
        for _ in range(4):
            p = [rng.randint(-3, 3) for _ in range(n)]
            q = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            try:
                binary = restrict_to_line(form, p, q)
            except (InputError, NonGenericLineError):
                continue
            restricted += 1
            line = {xs[i]: s * p[i] + t * sympy.Rational(q[i].numerator, q[i].denominator)
                    for i in range(n)}
            line.update({ys[i]: ds * p[i] + dt * sympy.Rational(q[i].numerator, q[i].denominator)
                         for i in range(n)})
            pulled = sympy.expand(W.subs(line, simultaneous=True))
            quotient = sympy.expand(sympy.cancel(pulled / (s * dt - t * ds) ** form.k))
            expected = sum(
                sympy.Rational(c.numerator, c.denominator) * s ** (binary.degree - i) * t ** i
                for i, c in enumerate(binary.coefficients)
            )
            assert sympy.expand(quotient - expected) == 0, name
        assert restricted >= 2, name
