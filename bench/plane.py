"""plane_foliations: seeded plane foliations of degree 2..5, one in five planted.

The forms are omega = (x, y, z) x (P, Q, R), so K_F is ample (d >= 2), the
case of the paper.  Valid forms take the coprimality certificate inside
``poly_gcd_many``; planted ones share a linear or quadratic factor and take
the full PRS GCD before being refused with ``common_factor``.
"""

from __future__ import annotations

import json

import oracle
from items import Item, require, round_rng, nonzero

NAME = "plane_foliations"
DEGREES = (2, 3, 4, 5)
DENSITIES = (0.25, 0.5, 0.75, 1.0)
TRACE_ROUNDS = 5
# t values at which B(1, t) is compared; more than d + 1 of them pins the form.
T_VALUES = tuple(range(-3, 5))


def _random_poly(rng, degree, density):
    ms = oracle.monomials(3, degree)
    count = max(1, round(density * len(ms)))
    return {m: nonzero(rng, 9) for m in rng.sample(ms, count)}


def valid_form(rng, degree, density, draws):
    while True:
        P, Q, R = (_random_poly(rng, degree, density) for _ in range(3))
        coeffs = oracle.cross_form(P, Q, R)
        if coeffs and oracle.certified_coprime(list(coeffs.values())):
            return coeffs
        draws.discard()


def seeded_line(rng, coeffs, draws):
    """Two integer points spanning a line on which the form restricts to B != 0."""
    while True:
        p = tuple(rng.randint(-5, 5) for _ in range(3))
        q = tuple(rng.randint(-5, 5) for _ in range(3))
        spans = any(p[i] * q[j] - p[j] * q[i] for i in range(3) for j in range(i + 1, 3))
        if spans and any(restricted_value(coeffs, p, q, t) for t in T_VALUES):
            return p, q
        draws.discard()


def restricted_value(coeffs, p, q, t):
    """B(1, t) = sum_i A_i(p + t q) q_i for a 1-form."""
    point = tuple(a + t * b for a, b in zip(p, q))
    return sum(
        oracle.evaluate(poly, point) * q[d.index(1)] for d, poly in coeffs.items()
    )


def generate(seed, round_index, draws):
    rng = round_rng(NAME, seed, round_index)
    items = []
    for degree in DEGREES:
        plan = [("valid", density) for density in DENSITIES] + [("planted", 0.5)]
        for kind, density in plan:
            while True:
                if kind == "valid":
                    coeffs = valid_form(rng, degree, density, draws)
                else:
                    factor_degree = 1 if degree <= 3 else 2
                    base = valid_form(rng, degree - factor_degree, density, draws)
                    factor = _random_poly(rng, factor_degree, 1.0)
                    coeffs = {d: oracle.pmul(p, factor) for d, p in base.items()}
                doc = json.dumps(oracle.form_doc(2, 1, coeffs))
                if draws.fresh(doc):
                    break
            expect = {"degree": degree, "planted": kind == "planted"}
            if kind == "valid":
                expect["line"] = seeded_line(rng, coeffs, draws)
                expect["points"] = oracle.schedule_points(2, 3, coeffs)
            items.append(Item(kind, doc, expect))
    rng.shuffle(items)
    return items


class Context:
    def __init__(self, webfol):
        self.forms = webfol.forms
        self.errors = webfol.errors
        self.radial = webfol.poly.Polynomial.variables(3)



def execute(ctx, item):
    forms = ctx.forms
    try:
        form = forms.SymForm.from_json_dict(json.loads(item.doc))
    except ctx.errors.ValidationError as exc:
        return {"refused": exc.code}
    p, q = item.expect["line"]
    derivative = forms.lie_derivative(ctx.radial, form)
    return {
        "degree": form.degree,
        "lie_constant": forms.proportionality_constant(form, derivative),
        "integrable": forms.is_integrable(form),
        "restriction": forms.restrict_to_line(form, p, q).coefficients,
        "squarefree": [forms.is_squarefree_at(form, pt) for pt in item.expect["points"]],
    }


def check(item, out):
    doc = json.loads(item.doc)
    coeffs = oracle.form_from_doc(doc)
    # Degree read from the document: coefficient degree minus k.
    degree = oracle.total_degree(next(iter(coeffs.values()))) - doc["k"]
    require(degree == item.expect["degree"], "generated degree drifted")
    if item.expect["planted"]:
        require(out == {"refused": "common_factor"}, f"planted form not refused: {out}")
        return
    require("refused" not in out, f"valid form refused: {out}")
    require(out["degree"] == degree, "degree")
    require(out["lie_constant"] == degree + 2, "L_R omega != (d+2) omega")
    require(out["integrable"] is True, "a plane 1-form must be integrable")
    p, q = item.expect["line"]
    B = out["restriction"]
    require(len(B) == degree + 1, "restriction degree")
    for t in T_VALUES:
        value = sum(c * t ** i for i, c in enumerate(B))
        require(value == restricted_value(coeffs, p, q, t), f"B(1,{t}) mismatch")
    require(all(v is True for v in out["squarefree"]), "k = 1 forms are square-free off the singular set")


def smoke(items):
    """A valid and a planted item."""
    valid = next(i for i in items if i.kind == "valid")
    planted = next(i for i in items if i.kind == "planted")
    return [valid, planted]
