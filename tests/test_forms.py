import json
import random
from fractions import Fraction

import pytest

from webfol.errors import (
    InputError,
    NonGenericLineError,
    SingularPointError,
    ValidationError,
)
from webfol.forms import (
    BinaryForm,
    SymForm,
    SymTensor,
    generic_sample_points,
    is_integrable,
    is_squarefree_at,
    kf_degree,
    lie_derivative,
    flow_preserves,
    multi_indices,
    proportionality_constant,
    restrict_to_line,
    sample_schedule,
    specialise_at_point,
    web_degree,
)
from webfol.poly import Polynomial

from helpers import (
    cartan_lie_1form,
    conic_pencil_form,
    example_form,
    pencil_form,
    radial_form,
    scaled_copy,
    shipped_forms,
    to_sympy,
)

X, Y, Z = Polynomial.variables(3)
ZERO3 = Polynomial.zero(3)


# -- validation ------------------------------------------------------------------


def test_example_form_is_valid_and_degree_two():
    form = example_form()
    assert web_degree(form) == 2
    assert kf_degree(form) == 1
    assert form.coefficient_degree == 3


def test_radial_degree_and_canonical_degree():
    form = radial_form()
    assert web_degree(form) == 0
    assert kf_degree(form) == -1


def test_degree_of_two_web_with_degree5_coefficients():
    alpha = SymTensor(3, 1, {(1, 0, 0): -Y, (0, 1, 0): X})
    gamma = SymTensor(
        3,
        1,
        {
            (1, 0, 0): Y ** 3 * Z,
            (0, 1, 0): X ** 3 * Z,
            (0, 0, 1): -X * Y * (X * X + Y * Y),
        },
    )
    web = SymForm.from_tensor(alpha.sym_mul(gamma))
    assert web.k == 2
    assert web.coefficient_degree == 5
    assert web_degree(web) == 3
    assert kf_degree(web) is None


def test_rejects_euler_contraction_nonzero():
    with pytest.raises(ValidationError) as err:
        SymForm(2, 1, {(1, 0, 0): X})  # x dx
    assert err.value.code == "euler_contraction_nonzero"


def test_rejects_degree_mismatch():
    with pytest.raises(ValidationError) as err:
        SymForm(2, 1, {(1, 0, 0): X * X, (0, 1, 0): Y})
    assert err.value.code == "coefficient_degree_mismatch"


def test_rejects_inhomogeneous_coefficient():
    with pytest.raises(ValidationError) as err:
        SymForm(2, 1, {(1, 0, 0): X + X * X, (0, 1, 0): Y})
    assert err.value.code == "coefficient_degree_mismatch"


def test_rejects_common_factor():
    with pytest.raises(ValidationError) as err:
        SymForm(2, 1, {(1, 0, 0): -Y * Z, (0, 1, 0): X * Z})
    assert err.value.code == "common_factor"


def test_rejects_empty_form():
    with pytest.raises(ValidationError) as err:
        SymForm(2, 1, {})
    assert err.value.code == "empty_form"


def test_rejects_degree_below_k():
    one = Polynomial.constant(3, 1)
    with pytest.raises(ValidationError) as err:
        SymForm(2, 2, {(2, 0, 0): one, (0, 2, 0): -one})
    assert err.value.code in ("coefficient_degree_below_k", "euler_contraction_nonzero")


def test_serialisation_round_trip():
    form = example_form()
    blob = json.dumps(form.to_json_dict())
    again = SymForm.from_json_dict(json.loads(blob))
    assert again.coeffs == form.coeffs
    assert json.dumps(again.to_json_dict()) == blob


# -- euler contraction -------------------------------------------------------------


def test_euler_contraction_of_example_cancels_pairwise():
    # x(-yz^2) + y(xz^2 + y^2 z) + z(-y^3) = 0
    assert example_form().euler_contraction().is_zero


def test_euler_contraction_radial():
    assert radial_form().euler_contraction().is_zero


def test_euler_contraction_raw_x_dx():
    raw = SymTensor(3, 1, {(1, 0, 0): X})
    contraction = raw.euler_contraction()
    assert contraction.coefficient((0, 0, 0)) == X * X


# -- integrability -----------------------------------------------------------------


def test_integrability_forced_on_the_plane():
    for form in (example_form(), radial_form(), conic_pencil_form()):
        assert is_integrable(form)


def _sympy_wedge(a, b):
    """Product of forms given as {increasing index tuple: sympy coefficient}."""
    out = {}
    for I, f in a.items():
        for J, g in b.items():
            joined = I + J
            if len(set(joined)) < len(joined):
                continue
            inversions = sum(x > y for i, x in enumerate(joined) for y in joined[i + 1 :])
            key = tuple(sorted(joined))
            out[key] = out.get(key, 0) + (-1) ** inversions * f * g
    return out


def _sympy_exterior_derivative(a, xs):
    import sympy

    out = {}
    for j, x in enumerate(xs):
        partials = {I: sympy.diff(f, x) for I, f in a.items()}
        for key, value in _sympy_wedge({(j,): 1}, partials).items():
            out[key] = out.get(key, 0) + value
    return out


def test_integrability_agrees_with_sympy_on_every_one_form_fixture():
    sympy = pytest.importorskip("sympy")
    verdicts = {}
    for name, form in shipped_forms().items():
        if form.k != 1:
            continue
        xs = sympy.symbols(f"x0:{form.ndiff}")
        omega = {(I.index(1),): to_sympy(A, xs) for I, A in form.coeffs.items()}
        three_form = _sympy_wedge(omega, _sympy_exterior_derivative(omega, xs))
        vanishes = all(sympy.expand(c) == 0 for c in three_form.values())
        assert is_integrable(form) == vanishes, name
        verdicts[name] = vanishes
    assert verdicts["contact_p3.json"] is False
    assert verdicts["pencil_p3.json"] is True


def test_contact_form_is_not_integrable():
    x, y, z, w = Polynomial.variables(4)
    contact = SymForm(
        3,
        1,
        {(1, 0, 0, 0): -y, (0, 1, 0, 0): x, (0, 0, 1, 0): -w, (0, 0, 0, 1): z},
    )
    assert not is_integrable(contact)


def test_hyperplane_pencil_is_integrable():
    x, y, z, w = Polynomial.variables(4)
    pencil = SymForm(3, 1, {(1, 0, 0, 0): -z, (0, 0, 1, 0): x})  # x dz - z dx
    assert is_integrable(pencil)


def test_integrability_rejects_higher_k():
    alpha = SymTensor(3, 1, {(1, 0, 0): -Y, (0, 1, 0): X})
    beta = SymTensor(3, 1, {(0, 1, 0): -Z, (0, 0, 1): Y})
    web = SymForm.from_tensor(alpha.sym_mul(beta))
    with pytest.raises(InputError):
        is_integrable(web)


# -- Lie derivatives ----------------------------------------------------------------


def test_shear_field_annihilates_example():
    v = [Y, ZERO3, ZERO3]  # y d/dx
    assert lie_derivative(v, example_form()).is_zero
    assert flow_preserves(v, example_form())


def test_euler_field_scales_by_degree_plus_2k():
    R = Polynomial.variables(3)
    for form in (example_form(), radial_form(), conic_pencil_form()):
        expected = scaled_copy(form, form.degree + 2 * form.k)
        assert lie_derivative(R, form) == expected
        assert flow_preserves(R, form)


def test_rotation_like_field_on_radial():
    v = [ZERO3, X, ZERO3]  # x d/dy
    assert lie_derivative(v, radial_form()).is_zero


def test_lie_derivative_matches_cartan_formula():
    rng = random.Random(5)
    fields = [
        [Y, ZERO3, ZERO3],
        [X, -Y, Z],
        [Z, X, Y],
        [X + 2 * Y, ZERO3, 3 * Z],
    ]
    for form in (example_form(), radial_form(), conic_pencil_form()):
        for v in fields:
            assert lie_derivative(v, form) == cartan_lie_1form(v, form)


def test_diagonal_field_does_not_preserve_example():
    v = [X, ZERO3, ZERO3]  # x d/dx
    assert not flow_preserves(v, example_form())


def test_flow_preserves_refuses_nonlinear_fields():
    with pytest.raises(InputError):
        flow_preserves([X * X, ZERO3, ZERO3], radial_form())


def test_lie_derivative_rejects_inhomogeneous_field():
    with pytest.raises(InputError):
        lie_derivative([X + X * X, ZERO3, ZERO3], radial_form())


def test_lie_derivative_on_two_web_euler_identity():
    alpha = SymTensor(3, 1, {(1, 0, 0): -Y, (0, 1, 0): X})
    beta = SymTensor(3, 1, {(0, 1, 0): -Z, (0, 0, 1): Y})
    web = SymForm.from_tensor(alpha.sym_mul(beta))
    R = Polynomial.variables(3)
    assert lie_derivative(R, web) == scaled_copy(web, web.degree + 2 * web.k)


def test_radial_lie_derivative_is_d_plus_2k_times_every_fixture_form():
    for name, form in shipped_forms().items():
        radial = Polynomial.variables(form.ndiff)
        derivative = lie_derivative(radial, form)
        assert proportionality_constant(form, derivative) == form.degree + 2 * form.k, name


def test_tensor_operations_drop_cancelled_coefficients():
    x, y, z = Polynomial.variables(3)
    one = Polynomial.constant(3, 1)
    plus = SymTensor(3, 1, {(1, 0, 0): one, (0, 1, 0): one})
    minus = SymTensor(3, 1, {(1, 0, 0): one, (0, 1, 0): -one})
    # (dx0 + dx1)(dx0 - dx1) = dx0^2 - dx1^2: the dx0*dx1 terms cancel.
    product = plus.sym_mul(minus)
    assert product.coeffs == {(2, 0, 0): one, (0, 2, 0): -one}
    assert (plus + minus.scale(-1)).coeffs == {(0, 1, 0): 2 * one}
    assert (plus - plus).is_zero and plus.scale(0).is_zero
    assert plus.scale(Polynomial.zero(3)).is_zero
    assert plus.scale(x - y).coeffs == {(1, 0, 0): x - y, (0, 1, 0): x - y}
    with pytest.raises(InputError):
        plus + SymTensor(3, 1, {(0, 0, 1): Polynomial.constant(2, 1)})


def test_proportionality_constant_edge_cases():
    form = example_form()
    zero = SymTensor(3, 1, {})
    assert proportionality_constant(form, zero) == 0
    assert proportionality_constant(zero, form) is None
    assert proportionality_constant(form, scaled_copy(form, Fraction(-3, 2))) == Fraction(-3, 2)
    missing = SymTensor(3, 1, {d: p for d, p in form.coeffs.items() if d != (0, 0, 1)})
    assert proportionality_constant(form, missing) is None
    assert proportionality_constant(missing, form) is None
    assert proportionality_constant(form, scaled_copy(form, X)) is None
    uneven = dict(form.coeffs)
    uneven[(0, 0, 1)] = uneven[(0, 0, 1)] * 2
    assert proportionality_constant(form, SymTensor(3, 1, uneven)) is None


# -- restriction to lines --------------------------------------------------------------


def test_radial_restricts_to_constant_on_far_line():
    binary = restrict_to_line(radial_form(), [1, 0, 0], [0, 1, 0])
    assert binary == BinaryForm(0, (Fraction(1),))


def test_example_restriction_has_degree_two_and_matches_direct_expansion():
    form = example_form()
    p = [Fraction(1), Fraction(0), Fraction(1)]
    q = [Fraction(0), Fraction(1), Fraction(1)]
    binary = restrict_to_line(form, p, q)
    assert binary.degree == 2
    # Independent check: evaluate the raw pullback numerically and compare
    # against B(s,t) * (s v - t u)^k at sample values.
    rng = random.Random(9)
    for _ in range(10):
        s0, t0, u0, v0 = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        direct = Fraction(0)
        point = [s0 * a + t0 * b for a, b in zip(p, q)]
        for dmono, poly in form.coeffs.items():
            value = poly.evaluate(point)
            for j, ij in enumerate(dmono):
                value *= (p[j] * u0 + q[j] * v0) ** ij
            direct += value
        assert direct == binary.evaluate(s0, t0) * (s0 * v0 - t0 * u0) ** form.k


def test_lines_through_radial_centre_are_non_generic():
    for q in ([1, 0, 0], [0, 1, 0], [1, 2, 0]):
        with pytest.raises(NonGenericLineError):
            restrict_to_line(radial_form(), [0, 0, 1], q)


def test_restrict_rejects_coincident_points():
    with pytest.raises(InputError):
        restrict_to_line(radial_form(), [1, 2, 3], [2, 4, 6])


def test_two_web_restriction_degree():
    alpha = SymTensor(3, 1, {(1, 0, 0): -Y, (0, 1, 0): X})
    beta = SymTensor(3, 1, {(0, 1, 0): -Z, (0, 0, 1): Y})
    web = SymForm.from_tensor(alpha.sym_mul(beta))
    binary = restrict_to_line(web, [1, 2, 3], [5, 1, 1])
    assert binary.degree == web.degree


# -- pointwise square-freeness ------------------------------------------------------------


def test_any_1form_is_squarefree_at_regular_points():
    assert is_squarefree_at(example_form(), [1, 1, 1])
    assert is_squarefree_at(radial_form(), [1, 2, 3])


def test_two_distinct_directions_are_squarefree():
    raw = SymTensor(3, 2, {(2, 0, 0): -Y * Y, (0, 2, 0): X * X})
    assert is_squarefree_at(raw, [1, 1, 1])


def test_repeated_differential_is_not_squarefree():
    one = Polynomial.constant(3, 1)
    raw = SymTensor(3, 2, {(2, 0, 0): one})
    assert not is_squarefree_at(raw, [1, 1, 1])
    assert not is_squarefree_at(raw, [2, 3, 5])


def test_squared_pencil_validates_but_is_nowhere_squarefree():
    # the symmetric square of a pencil passes every construction invariant
    # yet fails the square-freeness condition at every sample point
    alpha = SymTensor(3, 1, {(1, 0, 0): -Y, (0, 1, 0): X})
    doubled = SymForm.from_tensor(alpha.sym_mul(alpha))
    assert doubled.k == 2 and doubled.degree == 0
    for point in ([1, 1, 1], [1, 2, 3], [2, 3, 5]):
        assert not is_squarefree_at(doubled, point)


def test_squarefree_rejects_singular_point():
    with pytest.raises(SingularPointError):
        is_squarefree_at(radial_form(), [0, 0, 1])


def test_specialise_at_point():
    frozen = specialise_at_point(example_form(), [1, 1, 1])
    assert frozen.coefficient((1, 0, 0)) == -1
    assert frozen.coefficient((0, 1, 0)) == 2
    assert frozen.coefficient((0, 0, 1)) == -1


# -- multi-index bookkeeping and sampling ---------------------------------------------------


def test_multi_indices_count_and_order():
    indices = multi_indices(3, 1)
    assert indices == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(multi_indices(3, 2)) == 6
    assert len(multi_indices(4, 2)) == 10


def test_sample_schedule_documented_prefix():
    points = sample_schedule(2, 3)
    assert points == [
        (Fraction(1), Fraction(2), Fraction(3)),
        (Fraction(2), Fraction(3), Fraction(5)),
        (Fraction(3), Fraction(5), Fraction(7)),
    ]


def test_sample_schedule_uses_every_window_of_the_table():
    for N in (1, 2, 3, 14):
        points = sample_schedule(N, 15 - N)
        assert points[-1][-1] == 43
        with pytest.raises(InputError):
            sample_schedule(N, 16 - N)


def test_generic_sample_points_are_the_nonsingular_prefix_of_the_schedule():
    form = pencil_form(X + Y - Z, 2 * X - Y)  # singular at (1, 2, 3) only
    schedule = sample_schedule(2, 13)
    nonsingular = [p for p in schedule if not specialise_at_point(form, p).is_zero]
    assert len(nonsingular) == 12
    for count in range(13):
        assert generic_sample_points(form, count) == nonsingular[:count]
    with pytest.raises(InputError, match="exhausted before finding generic points"):
        generic_sample_points(form, 13)
    for name, shipped in shipped_forms().items():
        schedule = sample_schedule(shipped.N, 15 - shipped.N)
        expected = [p for p in schedule if not specialise_at_point(shipped, p).is_zero]
        assert generic_sample_points(shipped, 3) == expected[:3], name


def test_generic_sample_points_zero_count_for_any_dimension():
    big = SymTensor(20, 1, {tuple(int(i == 0) for i in range(20)): Polynomial.variable(20, 1)})
    assert generic_sample_points(big, 0) == []
    with pytest.raises(InputError, match="exhausted before finding generic points"):
        generic_sample_points(big, 1)


def test_generic_sample_points_skip_singular():
    # crafted pencil singular exactly at the first schedule point (1,2,3)
    F = X + Y - Z
    G = 2 * X - Y
    form = pencil_form(F, G)
    assert specialise_at_point(form, [1, 2, 3]).is_zero
    points = generic_sample_points(form, 3)
    assert points[0] == (Fraction(2), Fraction(3), Fraction(5))
    assert len(points) == 3
