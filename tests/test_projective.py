import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from webfol.errors import (
    CapExceededError,
    GeneratorError,
    InputError,
    SingularPointError,
    ValidationError,
)
from webfol import forms, projective
from webfol.forms import (
    SymForm,
    SymTensor,
    generic_sample_points,
    multi_indices,
    proportionality_constant,
    restrict_to_line,
)
from webfol.bounds import foliation_aut_bound
from webfol.poly import Polynomial
from webfol.projective import (
    DEFAULT_CLOSURE_CAP,
    BezoutSystem,
    _certainly_infinite_order,
    _torsion_exponent,
    ProjMap,
    export_system,
    group_closure,
    invariance_system,
    invariance_system_symbolic,
    parse_system,
    preserves,
    pullback,
    preserving_candidates,
    pullback_tensor,
    signed_permutations,
    verify_bound,
)

from helpers import (
    FIXTURES,
    conic_pencil_form,
    example_form,
    fix_leading_variables,
    minors_vanish,
    normalise_tensor,
    pullback_identity_holds,
    radial_form,
    random_projmap,
    random_rational_projmap,
    ref_pull,
    ref_determinant,
    ref_inverse,
    ref_map_text,
    ref_normal_form,
    ref_product,
    scaled_copy,
    shipped_forms,
    symmetric_pencil_form,
    tensor_invariants_hold,
)

X, Y, Z = Polynomial.variables(3)


# -- ProjMap basics ---------------------------------------------------------------


def test_normalisation_makes_first_nonzero_entry_one():
    m = ProjMap.diagonal([2, 1, 1])
    assert m.entries[0][0] == 1
    assert m.entries[1][1] == Fraction(1, 2)


def test_scale_representatives_compare_equal():
    a = ProjMap([[2, 0], [0, 2]])
    b = ProjMap.identity(2)
    assert a == b and hash(a) == hash(b)


def test_singular_matrix_rejected():
    with pytest.raises(ValidationError) as err:
        ProjMap([[1, 1, 0], [2, 2, 0], [0, 0, 1]])
    assert err.value.code == "singular_matrix"


def test_inverse_and_product():
    rng = random.Random(1)
    for _ in range(10):
        m = random_projmap(rng, 3)
        assert m @ m.inverse() == ProjMap.identity(3)


def test_json_round_trip():
    m = ProjMap([[1, 2, 0], [0, Fraction(1, 3), 0], [5, 0, 1]])
    assert ProjMap.from_json_list(m.to_json_list()) == m
    with pytest.raises(InputError):
        ProjMap.from_json_list(["1", "0", "0"])


# -- pullback -----------------------------------------------------------------------


def test_pullback_by_identity_is_identity():
    for form in (example_form(), radial_form(), conic_pencil_form()):
        assert pullback(ProjMap.identity(3), form).coeffs == form.coeffs


def test_swap_fixes_symmetric_web():
    swap = ProjMap.swap(3, 0, 1)
    conic = conic_pencil_form()
    assert pullback(swap, conic).coeffs == conic.coeffs


def test_dilation_scales_radial_form():
    # diag(3,1,1) normalises to diag(1, 1/3, 1/3); the pullback multiplies the
    # radial form by the constant 1/3, witnessing pure rescaling either way.
    dilation = ProjMap.diagonal([3, 1, 1])
    pulled = pullback_tensor(dilation, radial_form())
    assert pulled == scaled_copy(radial_form(), Fraction(1, 3))


def test_pullback_contravariance_up_to_scale():
    rng = random.Random(23)
    form = conic_pencil_form()
    for _ in range(8):
        s = random_projmap(rng, 3)
        t = random_projmap(rng, 3)
        direct = pullback_tensor(s @ t, form)
        staged = pullback_tensor(t, SymForm.from_tensor(pullback_tensor(s, form)))
        assert normalise_tensor(direct) == normalise_tensor(staged)


def test_pullback_size_mismatch():
    with pytest.raises(InputError):
        pullback(ProjMap.identity(4), radial_form())


def test_euler_contraction_commutes_with_pullback():
    rng = random.Random(4)
    for form in (example_form(), conic_pencil_form(), symmetric_pencil_form()):
        m = random_projmap(rng, 3)
        assert pullback_tensor(m, form).euler_contraction().is_zero


# -- invariance ------------------------------------------------------------------------


def test_preserves_identity_and_swap():
    conic = conic_pencil_form()
    assert preserves(ProjMap.identity(3), conic)
    assert preserves(ProjMap.swap(3, 0, 1), conic)


def test_a_map_of_another_size_is_refused():
    cycle = ProjMap.permutation([1, 2, 3, 0])
    for operation in (preserves, pullback_tensor, pullback):
        with pytest.raises(InputError, match=r"matrix size 4 does not match the form \(3\)"):
            operation(cycle, example_form())


def test_swap_does_not_preserve_example():
    assert not preserves(ProjMap.swap(3, 0, 1), example_form())


def test_preserving_maps_compose_and_invert():
    sym = symmetric_pencil_form()
    swap = ProjMap.swap(3, 0, 1)
    cycle = ProjMap.permutation([1, 2, 0])
    assert preserves(swap, sym) and preserves(cycle, sym)
    assert preserves(swap @ cycle, sym)
    assert preserves(cycle.inverse(), sym)


def test_preserves_agrees_with_the_minors_reference_on_every_fixture():
    # preserves pulls back along the integer matrix, pullback_tensor along entries.
    dilation = ProjMap.from_json_list(json.loads((FIXTURES / "dilation_map.json").read_text()))
    rng = random.Random(11)
    verdicts = set()
    for name, form in shipped_forms().items():
        n = form.ndiff
        # Upper triangular, row i divisible by i + 2; and 6 times a permutation.
        factored = [[(i + 2) * (j in (i, i + 1)) for j in range(n)] for i in range(n)]
        candidates = signed_permutations(n) + [
            ProjMap.diagonal(range(1, n + 1)),
            ProjMap(factored),
            ProjMap([[6 * (j == (i + 1) % n) for j in range(n)] for i in range(n)]),
        ]
        candidates += [random_rational_projmap(rng, n) for _ in range(4)]
        if n == dilation.size:
            candidates.append(dilation)
        for m in candidates:
            expected = minors_vanish(form, pullback_tensor(m, form))
            assert preserves(m, form) == expected, (name, m)
            verdicts.add(expected)
    assert verdicts == {True, False}


# -- monomial maps ------------------------------------------------------------------------
#
# A signed permutation pulls the symbol back by relabelling (poly._relabel);
# every other monomial matrix takes the general composition.  ref_pull, the
# multi-index expansion, is the reference for both.

SHIPPED_FORMS = shipped_forms()


@st.composite
def monomial_rows(draw, n):
    """An invertible monomial matrix, entries in {+-1, +-2, +-3}; half are signed permutations."""
    perm = draw(st.permutations(range(n)))
    entries = [1, -1] if draw(st.booleans()) else [1, -1, 2, -2, 3, -3]
    scales = draw(st.lists(st.sampled_from(entries), min_size=n, max_size=n))
    return [[scales[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]


@st.composite
def raw_tensors(draw, n):
    """Tensors on n differentials whose coefficients need not be homogeneous."""
    k = draw(st.integers(min_value=0, max_value=2))
    coeffs = {}
    for I in draw(st.lists(st.sampled_from(multi_indices(n, k)), max_size=3, unique=True)):
        exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
        coeffs[I] = Polynomial(n, draw(st.dictionaries(exponents, small_fractions, max_size=3)))
    return SymTensor(n, k, coeffs)


def _dilations(n):
    return [
        [[(2 if i == 0 else 1) * (i == j) for j in range(n)] for i in range(n)],
        [[(-3 if i == 0 else -1) * (i == j) for j in range(n)] for i in range(n)],
    ]


def _reference_pull(form, rows):
    n = form.ndiff
    return ref_pull(form, rows, Polynomial.variables(n), n)


def _assert_pullbacks_match_the_reference(form, rows):
    n = form.ndiff
    m = ProjMap(rows)
    for matrix in (rows, m._m, m.entries):
        pulled = forms._pull(form, matrix, Polynomial.variables(n), n)
        reference = _reference_pull(form, matrix)
        assert pulled == reference and pulled.to_json_dict() == reference.to_json_dict()
        assert tensor_invariants_hold(pulled)
    reference = _reference_pull(form, m.entries)
    assert pullback_tensor(m, form).to_json_dict() == reference.to_json_dict()
    if isinstance(form, SymForm):
        expected = proportionality_constant(form, _reference_pull(form, m._m)) is not None
        assert preserves(m, form) == expected


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_monomial_pullbacks_match_the_reference_on_every_fixture(data):
    for form in SHIPPED_FORMS.values():
        n = form.ndiff
        _assert_pullbacks_match_the_reference(form, data.draw(monomial_rows(n)))
        tensor = data.draw(raw_tensors(n))
        _assert_pullbacks_match_the_reference(tensor, data.draw(monomial_rows(n)))


def test_dilations_match_the_reference_on_every_fixture():
    for form in SHIPPED_FORMS.values():
        for rows in _dilations(form.ndiff):
            _assert_pullbacks_match_the_reference(form, rows)


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_preserving_candidates_compose_nothing(monkeypatch):
    chosen = [SHIPPED_FORMS[name] for name in ("example.json", "contact_p3.json")]
    calls = _counting(monkeypatch, Polynomial, "compose")
    assert [len(preserving_candidates(form)) for form in chosen] == [2, 32]
    assert calls == []


def test_closure_of_signed_permutations_takes_no_modular_power(monkeypatch):
    form = SHIPPED_FORMS["contact_p3.json"]
    generators = preserving_candidates(form)
    calls = _counting(monkeypatch, projective, "_matmul_mod")
    assert group_closure(generators, form).order == 32
    assert calls == []


def test_the_relabelling_serves_signed_permutations_only(monkeypatch):
    form = conic_pencil_form()
    swap = ProjMap.swap(3, 0, 1)
    flip = ProjMap.diagonal([1, -1, 1])
    dilation = ProjMap.diagonal([2, 1, 1])
    shear = ProjMap([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    calls = _counting(monkeypatch, forms, "_relabel")
    used = {}
    for name, run in (
        ("preserves", lambda: preserves(swap, form)),
        ("pullback_tensor", lambda: pullback_tensor(flip, form)),
        ("group_closure", lambda: group_closure([swap], form)),
        ("dilation preserves", lambda: preserves(dilation, form)),
        ("dilation pullback_tensor", lambda: pullback_tensor(dilation, form)),
        ("shear", lambda: preserves(shear, form)),
        ("invariance_system", lambda: invariance_system(form, generic_sample_points(form, 1))),
        ("invariance_system_symbolic", lambda: invariance_system_symbolic(form)),
        ("restrict_to_line", lambda: restrict_to_line(form, [1, 0, 1], [0, 1, 1])),
    ):
        before = len(calls)
        run()
        used[name] = len(calls) - before
    assert used == {
        "preserves": 1,
        "pullback_tensor": 1,
        "group_closure": 1,
        "dilation preserves": 0,
        "dilation pullback_tensor": 0,
        "shear": 0,
        "invariance_system": 0,
        "invariance_system_symbolic": 0,
        "restrict_to_line": 0,
    }


def test_the_order_shortcut_is_taken_by_signed_permutations_only(monkeypatch):
    calls = _counting(monkeypatch, projective, "_matmul_mod")
    for n in (2, 3, 4):
        assert not any(_certainly_infinite_order(g) for g in signed_permutations(n))
    assert calls == []
    # Monomial but not +-1: order 2 in PGL_2, decided by the modular power.
    assert not _certainly_infinite_order(ProjMap([[0, 2], [1, 0]]))
    assert calls
    assert _certainly_infinite_order(ProjMap.diagonal([2, 1]))
    assert _certainly_infinite_order(ProjMap.diagonal([2, 1, 1]))


# -- the matrix-variable system ----------------------------------------------------------


def test_radial_system_shape_and_degrees():
    system = invariance_system(radial_form(), [[1, 1, 1]])
    assert system.n_matrix_vars == 9
    assert len(system.generators) == 3  # C(3, 2) pairs for k=1 on the plane
    degrees = {g.homogeneous_degree() for g in system.generators if not g.is_zero}
    assert degrees == {2}  # d + 2k = 0 + 2
    assert system.declared_degree == 2
    assert all(g.is_homogeneous() for g in system.generators)


def test_radial_system_matches_hand_expansion():
    # For the radial form, with row sums S_i = a_i0 + a_i1 + a_i2 at the
    # sample point (1,1,1):  B_dx = -S1 a00 + S0 a10, B_dy = -S1 a01 + S0 a11,
    # B_dz = -S1 a02 + S0 a12, and the three generators are
    # A_dx B_dy - A_dy B_dx, A_dx B_dz - A_dz B_dx, A_dy B_dz - A_dz B_dy
    # with (A_dx, A_dy, A_dz) = (-1, 1, 0).
    a = [[Polynomial.variable(9, 3 * i + j) for j in range(3)] for i in range(3)]
    s0 = a[0][0] + a[0][1] + a[0][2]
    s1 = a[1][0] + a[1][1] + a[1][2]
    b = [-1 * s1 * a[0][j] + s0 * a[1][j] for j in range(3)]
    expected = [
        (-1) * b[1] - 1 * b[0],
        (-1) * b[2] - 0 * b[0],
        1 * b[2] - 0 * b[1],
    ]
    system = invariance_system(radial_form(), [[1, 1, 1]])
    assert list(system.generators) == expected


def test_generator_count_scales_with_pairs_and_points():
    conic = conic_pencil_form()
    one = invariance_system(conic, [[1, 1, 1]])
    two = invariance_system(conic, [[1, 1, 1], [1, 2, 3]])
    assert len(one.generators) == 3
    assert len(two.generators) == 6
    web = SymForm.from_tensor(
        SymTensor(3, 1, {(1, 0, 0): -Y, (0, 1, 0): X}).sym_mul(
            SymTensor(3, 1, {(0, 1, 0): -Z, (0, 0, 1): Y})
        )
    )
    k2 = invariance_system(web, [[1, 1, 1]])
    assert len(k2.generators) == 15  # C(6, 2)


def test_system_vanishes_at_identity_and_at_preserving_maps():
    conic = conic_pencil_form()
    system = invariance_system(conic, [[1, 1, 1], [1, 2, 3]])
    assert all(v == 0 for v in system.evaluate_at_matrix(ProjMap.identity(3)))
    assert all(v == 0 for v in system.evaluate_at_matrix(ProjMap.swap(3, 0, 1)))
    sym = symmetric_pencil_form()
    system2 = invariance_system(sym, [[1, 2, 3], [2, 3, 5]])
    group = group_closure(
        [ProjMap.swap(3, 0, 1), ProjMap.permutation([1, 2, 0])], sym
    )
    for element in group.elements:
        assert all(v == 0 for v in system2.evaluate_at_matrix(element))


def test_system_rejects_singular_sample_point():
    with pytest.raises(SingularPointError):
        invariance_system(radial_form(), [[0, 0, 1]])


def test_symbolic_system_vanishes_at_identity_for_all_x():
    system = invariance_system_symbolic(radial_form())
    # substitute the identity matrix, keep x symbolic: all generators vanish
    n = 3
    subs = [Polynomial.variable(3, j) for j in range(3)] + [
        Polynomial.constant(3, 1 if i == j else 0)
        for i in range(n)
        for j in range(n)
    ]
    for g in system.generators:
        assert g.compose(subs).is_zero


def test_point_system_is_the_symbolic_system_at_that_point():
    for name, form in shipped_forms().items():
        symbolic = invariance_system_symbolic(form)
        for point in generic_sample_points(form, 2):
            expected = [fix_leading_variables(g, point) for g in symbolic.generators]
            assert list(invariance_system(form, [point]).generators) == expected, name


def test_export_round_trip_is_byte_identical():
    system = invariance_system(radial_form(), [[1, 1, 1]])
    blob = export_system(system, "json")
    again = parse_system(blob)
    assert export_system(again, "json") == blob


def test_parse_system_refuses_an_overflowing_number():
    # The JSON reader turns 1e400 into float infinity, which the integer reader refuses.
    blob = export_system(invariance_system(radial_form(), [[1, 1, 1]]), "json")
    for field in ('"nvars": 9', '"declared_degree": 2'):
        assert field in blob
        huge = blob.replace(field, field.split(":")[0] + ": 1e400", 1)
        with pytest.raises(InputError, match=f"^{field.split(':')[0][1:-1]}: bad integer inf$"):
            parse_system(huge)


def test_parse_system_refuses_numbers_outside_the_printed_spellings():
    # A sample point "1/0" let ZeroDivisionError out; "0.5" was read as 1/2.
    blob = export_system(invariance_system(radial_form(), [[1, 1, 1]]), "json")
    points = '"sample_points": [["1", "1", "1"]]'
    assert points in blob
    for entry, message in (("1/0", "zero or negative denominator"), ("0.5", "bad integer"), ("true", "bad integer")):
        bad = blob.replace(points, points.replace('"1"', f'"{entry}"' if entry != "true" else entry, 1))
        with pytest.raises(InputError, match=f"^sample point: {message}"):
            parse_system(bad)


def test_export_text_format():
    system = invariance_system(radial_form(), [[1, 1, 1]])
    text = export_system(system, "text")
    lines = text.splitlines()
    assert lines[0] == "ring Q[a00,a01,a02,a10,a11,a12,a20,a21,a22]"
    assert lines[1] == "degree 2"
    assert lines[2] == "point 1 1 1"
    assert sum(1 for line in lines if line.startswith("gen ")) == 3


def test_export_empty_system():
    empty = BezoutSystem(
        n_matrix_vars=9,
        var_names=tuple(f"a{i}{j}" for i in range(3) for j in range(3)),
        generators=(),
        sample_points=(),
        declared_degree=2,
        coefficient_degree=1,
    )
    blob = export_system(empty, "json")
    assert parse_system(blob).generators == ()
    assert export_system(parse_system(blob), "json") == blob


# -- group closure ---------------------------------------------------------------------


def test_closure_of_identity():
    group = group_closure([ProjMap.identity(3)], radial_form())
    assert group.order == 1


def test_closure_of_swap_has_order_two():
    group = group_closure([ProjMap.swap(3, 0, 1)], conic_pencil_form())
    assert group.order == 2


def test_closure_of_cycle_has_order_three():
    sym = symmetric_pencil_form()
    cycle = ProjMap.permutation([1, 2, 0])
    assert preserves(cycle, sym)
    group = group_closure([cycle], sym)
    assert group.order == 3


def test_closure_of_full_permutation_action():
    sym = symmetric_pencil_form()
    group = group_closure([ProjMap.swap(3, 0, 1), ProjMap.permutation([1, 2, 0])], sym)
    assert group.order == 6
    elements = set(group.elements)
    assert ProjMap.identity(3) in elements
    for a in group.elements:
        assert a.inverse() in elements
        for b in group.elements:
            assert (a @ b) in elements


def test_closure_order_is_independent_of_generator_order():
    sym = symmetric_pencil_form()
    gens = [ProjMap.swap(3, 0, 1), ProjMap.permutation([1, 2, 0])]
    orders = set()
    element_lists = set()
    for permutation in itertools.permutations(gens):
        group = group_closure(list(permutation), sym)
        orders.add(group.order)
        element_lists.add(tuple(group.elements))
    assert orders == {6}
    assert len(element_lists) == 1


def test_closure_rejects_non_preserving_generator():
    with pytest.raises(GeneratorError):
        group_closure([ProjMap.swap(3, 0, 1)], example_form())


def test_closure_cap_exceeded_for_infinite_group():
    dilation = ProjMap.diagonal([2, 1, 1])
    assert preserves(dilation, radial_form())
    with pytest.raises(CapExceededError):
        group_closure([dilation], radial_form(), cap=60)


def test_closure_refuses_a_generator_of_infinite_order():
    cases = [
        (conic_pencil_form(), ProjMap.diagonal([1, Fraction(1, 2), Fraction(1, 2)])),
        (radial_form(), ProjMap.diagonal([1, 1, 3])),
    ]
    for form, dilation in cases:
        assert preserves(dilation, form)
        with pytest.raises(CapExceededError, match="infinite order"):
            group_closure([ProjMap.identity(3), dilation], form)


def test_closure_refuses_finite_generators_of_an_infinite_group():
    # Two projective involutions fixing [0:0:1], whose product is unipotent:
    # the closure is refused at that first product, well before any cap.
    first = ProjMap([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    second = ProjMap([[-1, 2, 0], [0, 1, 0], [0, 0, 1]])
    assert (second @ second) == ProjMap.identity(3)
    assert not _certainly_infinite_order(first)
    assert not _certainly_infinite_order(second)
    assert _certainly_infinite_order(first @ second)
    for cap in (40, DEFAULT_CLOSURE_CAP):
        with pytest.raises(CapExceededError, match="closure element has infinite order"):
            group_closure([first, second], radial_form(), cap=cap)


def test_closure_cap_backstops_a_finite_group_larger_than_the_cap():
    form = shipped_forms()["conic_pencil.json"]
    generators = preserving_candidates(form)
    assert group_closure(generators, form).order == 8
    with pytest.raises(CapExceededError, match="cap of 2 elements"):
        group_closure(generators, form, cap=2)


def test_torsion_exponents():
    assert [_torsion_exponent(n) for n in (2, 3, 4)] == [12, 2520, 720720]


def test_signed_permutations_pass_the_infinite_order_test():
    for n in (2, 3, 4):
        maps = signed_permutations(n)
        assert maps and not any(_certainly_infinite_order(g) for g in maps)


def _companion(coefficients):
    """Companion matrix of the monic x^n + c_{n-1} x^{n-1} + ... + c_0."""
    n = len(coefficients)
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i, c in enumerate(coefficients):
        rows[i][n - 1] = -c
    return rows


def test_infinite_order_test_on_rational_rotations_and_shears():
    # Companion matrices of cyclotomic polynomials have finite order e.
    finite = {
        5: [1, 1, 1, 1],  # Phi_5, order 5 in PGL_4
        8: [1, 0, 0, 0],  # Phi_8 = x^4 + 1
        12: [1, 0, -1, 0],  # Phi_12 = x^4 - x^2 + 1
        6: [1, -1],  # Phi_6 in PGL_2
    }
    for order, coefficients in finite.items():
        g = ProjMap(_companion(coefficients))
        power = g
        for _ in range(order - 1):
            power = power @ g
        assert power == ProjMap.identity(g.size)
        assert not _certainly_infinite_order(g)
    for rows in ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 0, 0], [0, 3, 0], [0, 0, 3]]):
        assert _certainly_infinite_order(ProjMap(rows))
    # The test reads the primitive integer matrix, so no denominator is
    # skipped: diag(1, 1/p) is diag(p, 1), of infinite order.
    assert _certainly_infinite_order(ProjMap.diagonal([1, Fraction(1, 2**61 - 1)]))


# Orders at the parent commit of the closure of every preserving signed
# permutation, for every shipped form.
SHIPPED_CLOSURE_ORDERS = {
    "conic_pencil.json": 8,
    "contact_p3.json": 32,
    "double_pencil.json": 8,
    "example.json": 2,
    "pencil_p3.json": 32,
    "radial.json": 8,
    "symmetric_pencil.json": 6,
    "two_web.json": 8,
    "web_degree3.json": 8,
}


def test_shipped_finite_closures_keep_their_orders():
    orders = {
        name: group_closure(preserving_candidates(form), form).order
        for name, form in shipped_forms().items()
    }
    assert orders == SHIPPED_CLOSURE_ORDERS


def test_default_cap_value():
    from webfol.projective import DEFAULT_CLOSURE_CAP

    assert DEFAULT_CLOSURE_CAP == 100_000


# -- order bound ------------------------------------------------------------------------


def test_verify_bound_examples():
    assert verify_bound(2, 1, 2, 2)  # bound 5^8 = 390625
    assert verify_bound(65536, 2, 1, 2)  # boundary 4^8
    assert not verify_bound(65537, 2, 1, 2)


def test_verify_bound_decides_by_digit_counts_first():
    # The bound 1002^(1501^2 - 1) has about 6.8 million digits; it is not formed.
    assert verify_bound(2, 1000, 1, 1500)
    assert verify_bound(10 ** 50, 1000, 1, 1500)
    assert not verify_bound(10 ** 9, 2, 1, 2)  # 10 digits against 4^8 = 65536


def test_verify_bound_rejects_low_dimension():
    with pytest.raises(InputError):
        verify_bound(2, 1, 1, 1)


def test_closure_orders_respect_the_bound():
    conic = conic_pencil_form()
    group = group_closure([ProjMap.swap(3, 0, 1)], conic)
    assert verify_bound(group.order, conic.degree, conic.k, conic.N)
    sym = symmetric_pencil_form()
    full = group_closure([ProjMap.swap(3, 0, 1), ProjMap.permutation([1, 2, 0])], sym)
    assert verify_bound(full.order, sym.degree, sym.k, sym.N)


# -- the finite candidate search -----------------------------------------------------


def test_signed_permutation_pool_size():
    from webfol.projective import signed_permutations

    pool = signed_permutations(3)
    assert len(pool) == 24  # 3! * 2^2 projective classes
    assert len(set(pool)) == 24
    assert ProjMap.identity(3) in pool
    assert pool == sorted(pool, key=ProjMap.sort_key)


def test_candidate_search_certifies_groups_from_below():
    from webfol.projective import preserving_candidates

    conic = conic_pencil_form()
    found = preserving_candidates(conic)
    assert len(found) == 8  # swap times independent sign changes
    group = group_closure(found, conic)
    assert group.order == 8
    assert verify_bound(group.order, conic.degree, conic.k, conic.N)

    sym = symmetric_pencil_form()
    assert group_closure(preserving_candidates(sym), sym).order == 6

    example = example_form()
    found_example = preserving_candidates(example)
    assert ProjMap.identity(3) in found_example
    assert all(preserves(m, example) for m in found_example)


# -- the integer representation against the rational reference ---------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def invertible_matrices(draw, n=None):
    n = n or draw(st.integers(min_value=2, max_value=4))
    rows = [[draw(small_fractions) for _ in range(n)] for _ in range(n)]
    assume(ref_determinant(rows) != 0)
    return rows


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.tuples(invertible_matrices(n), invertible_matrices(n))
), small_fractions.filter(bool))
def test_projmap_agrees_with_the_rational_reference(pair, scale):
    rows_a, rows_b = pair
    a, b = ProjMap(rows_a), ProjMap(rows_b)
    ref_a, ref_b = ref_normal_form(rows_a), ref_normal_form(rows_b)
    assert a.entries == ref_a
    assert a.sort_key() == tuple(v for row in ref_a for v in row)
    as_json, text = ref_map_text(ref_a)
    assert a.to_json_list() == as_json and repr(a) == text
    assert (a == b) == (ref_a == ref_b)
    scaled = ProjMap([[scale * v for v in row] for row in rows_a])
    assert scaled == a and hash(scaled) == hash(a)
    assert (a @ b).entries == ref_product(ref_a, ref_b)
    assert a.inverse().entries == ref_inverse(ref_a)
    if all(v.denominator == 1 for row in ref_a for v in row):
        assert hash(a) == hash(ref_a)  # the hash of the rational normal form
    assert _certainly_infinite_order(a) == _certainly_infinite_order(scaled)


def test_products_in_a_closure_take_no_determinant(monkeypatch):
    form = shipped_forms()["contact_p3.json"]
    generators = preserving_candidates(form)
    calls = []
    real = projective._determinant

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(projective, "_determinant", counting)
    group = group_closure(generators, form)
    assert group.order == 32
    assert calls == [[[int(i == j) for j in range(4)] for i in range(4)]]  # the identity


def _random_rational_map(rng, n):
    while True:
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        if ref_determinant(rows):
            return ProjMap(rows)


def test_pullback_satisfies_the_substitution_identity_on_every_fixture():
    rng = random.Random(7)
    for name, form in shipped_forms().items():
        n = form.ndiff
        # dx0 -> dx0 + dx1 and dx1 -> dx0 - dx1: their product cancels in dx0*dx1.
        hadamard = ProjMap(
            [[1, 1] + [0] * (n - 2), [1, -1] + [0] * (n - 2)]
            + [[int(i == j) for j in range(n)] for i in range(2, n)]
        )
        maps = [random_projmap(rng, n), _random_rational_map(rng, n), hadamard]
        for m in maps:
            pulled = pullback_tensor(m, form)
            assert tensor_invariants_hold(pulled), name
            for _ in range(2):
                x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                v = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                assert pullback_identity_holds(form, m, pulled, x, v), (name, m)


def test_every_pull_result_keeps_the_invariants(monkeypatch):
    results = []
    real = projective._pull

    def recording(*args):
        out = real(*args)
        results.append(out)
        return out

    monkeypatch.setattr(projective, "_pull", recording)
    rng = random.Random(11)
    for name, form in shipped_forms().items():
        pullback_tensor(_random_rational_map(rng, form.ndiff), form)
        preserves(ProjMap.swap(form.ndiff, 0, 1), form)
        invariance_system(form, generic_sample_points(form, 1))
        if form.ndiff == 3:
            invariance_system_symbolic(form)
    assert len(results) > 2 * len(shipped_forms())
    assert all(tensor_invariants_hold(t) for t in results)


@pytest.mark.parametrize("name, d", [("example.json", 2), ("symmetric_pencil.json", 4)])
def test_certified_symmetries_respect_the_order_bounds(name, d):
    """The closure certifies |Aut| from below; the paper's bounds cap it from above."""
    form = shipped_forms()[name]
    assert (form.N, form.k, form.degree) == (2, 1, d)
    group = group_closure(preserving_candidates(form), form)
    assert group.order >= 2
    assert verify_bound(group.order, d, 1, 2)
    if d == 2:
        # K_F = O(d - 1) and K_X = O(-3): K_F^2 = 1 and K_F.K_X = -3.  For
        # larger d the exact bound has more digits than the report cap allows.
        assert group.order <= foliation_aut_bound(1, -3).final_bound
