"""symmetric_webs: seeded webs made invariant under a known group G.

Each web is an orbit sum over a matrix group G of signed permutations, so
G preserves it by construction.  Every item filters all signed permutations
with ``preserves`` (24 on P^2, 192 on P^3), closes the survivors with
``group_closure`` and builds ``invariance_system`` at three schedule points.
"""

from __future__ import annotations

import json
from math import comb

import oracle
from items import Item, require, round_rng, nonzero

NAME = "symmetric_webs"
TRACE_ROUNDS = 3
# (kind, N, k, web degree d, terms per Koszul block, items per round)
KINDS = (
    ("p2_k1_d1", 2, 1, 1, 2, 14),
    ("p2_k1_d2", 2, 1, 2, 2, 3),
    ("p2_k2_d0", 2, 2, 0, 1, 2),
    ("p3_k1_d0", 3, 1, 0, 1, 1),
)

_SIGNED = {n: oracle.signed_permutation_matrices(n) for n in (3, 4)}


def _perm(images, signs=None):
    n = len(images)
    signs = signs or (1,) * n
    return tuple(tuple(signs[i] if j == images[i] else 0 for j in range(n)) for i in range(n))


# The groups G, by generators, taken in turn by the items of a kind: every
# round holds the same groups, so item costs do not hinge on the seed.  None
# holds -I, which acts on a form by (-1)^d and would cancel odd-degree sums.
GROUPS = {
    3: (
        (_perm((1, 0, 2)),),
        (_perm((1, 2, 0)),),
        (_perm((1, 0, 2), (1, -1, 1)),),
        (_perm((0, 1, 2), (1, -1, 1)),),
        (_perm((1, 0, 2)), _perm((1, 2, 0))),
        (_perm((0, 2, 1), (1, 1, -1)),),
        (_perm((2, 1, 0)),),
    ),
    4: (
        (_perm((1, 2, 3, 0)),),
        (_perm((1, 0, 2, 3)), _perm((0, 1, 3, 2))),
        (_perm((1, 0, 3, 2), (1, 1, -1, 1)),),
    ),
}


def koszul(rng, n, degree, terms):
    blocks = {}
    for i in range(n):
        for j in range(i + 1, n):
            ms = oracle.monomials(n, degree)
            blocks[(i, j)] = {m: nonzero(rng, 5) for m in rng.sample(ms, min(terms, len(ms)))}
    return oracle.koszul_form(n, blocks)


def symmetric_web(rng, N, k, degree, terms, generators, draws):
    """(coefficients, matrix group G) with G preserving the web."""
    n = N + 1
    group = oracle.matrix_group(generators)
    while True:
        base = koszul(rng, n, degree, terms)
        if k == 2:
            base = oracle.form_add(
                oracle.sym_product(base, koszul(rng, n, 0, terms)),
                oracle.sym_product(koszul(rng, n, 0, terms), koszul(rng, n, degree, terms)),
            )
        coeffs = oracle.orbit_sum(base, group)
        if coeffs and oracle.certified_coprime(list(coeffs.values())):
            return coeffs, group
        draws.discard()


def generate(seed, round_index, draws):
    rng = round_rng(NAME, seed, round_index)
    items = []
    for kind, N, k, degree, terms, count in KINDS:
        groups = GROUPS[N + 1]
        for slot in range(count):
            while True:
                coeffs, group = symmetric_web(
                    rng, N, k, degree, terms, groups[slot % len(groups)], draws)
                doc = json.dumps(oracle.form_doc(N, k, coeffs))
                if draws.fresh(doc):
                    break
            items.append(Item(kind, doc, {
                "N": N, "k": k, "degree": degree,
                "group": oracle.projective_classes(group),
                "points": oracle.schedule_points(N, 3, coeffs),
            }))
    rng.shuffle(items)
    return items


class Context:
    def __init__(self, webfol):
        self.forms = webfol.forms
        self.projective = webfol.projective
        ProjMap = webfol.projective.ProjMap
        self.candidates = {
            n: [ProjMap(m) for m in oracle.projective_classes(_SIGNED[n])] for n in (3, 4)
        }



def execute(ctx, item):
    projective = ctx.projective
    form = ctx.forms.SymForm.from_json_dict(json.loads(item.doc))
    survivors = [m for m in ctx.candidates[form.ndiff] if projective.preserves(m, form)]
    group = projective.group_closure(survivors, form)
    system = projective.invariance_system(form, item.expect["points"])
    return {
        "survivors": [m.entries for m in survivors],
        "order": group.order,
        "elements": [m.entries for m in group.elements],
        "system": system.to_json_dict(),
    }


def preserving_classes(coeffs, n):
    """Signed permutations (projective classes) whose pullback is proportional."""
    return {
        oracle.normalised(m)
        for m in _SIGNED[n]
        if oracle.proportional(coeffs, oracle.pullback_signed(coeffs, m))
    }


def check_system(system, N, k, group, points):
    """The exported invariance system against G and the generator count."""
    m = comb(N + k, k)
    require(len(system["generators"]) == comb(m, 2) * len(points), "generator count")
    require(
        system["sample_points"] == [[oracle.frac_str(c) for c in p] for p in points],
        "sample points",
    )
    flats = [tuple(int(v) for row in g for v in row) for g in group]
    for doc in system["generators"]:
        poly = oracle.poly_from_doc(doc)
        for flat in flats:
            require(oracle.evaluate(poly, flat) == 0, "a generator does not vanish on G")


def check(item, out):
    e = item.expect
    N, k, degree = e["N"], e["k"], e["degree"]
    coeffs = oracle.form_from_doc(json.loads(item.doc))
    group = set(e["group"])
    survivors = set(out["survivors"])
    require(len(survivors) == len(out["survivors"]), "duplicate survivors")
    require(survivors == preserving_classes(coeffs, N + 1), "preserving set differs from the exact pullback test")
    require(group <= survivors, "an element of G was not found preserving")
    order = out["order"]
    require(order == len(survivors), "closure order != number of preserving signed permutations")
    require(set(out["elements"]) == survivors, "closure elements differ from the preserving set")
    require(order % len(group) == 0, "|G| does not divide the order")
    require(order <= (degree + 2 * k) ** ((N + 1) ** 2 - 1), "order above the web bound")
    check_system(out["system"], N, k, e["group"], e["points"])


def smoke(items):
    return [next(i for i in items if i.kind == "p2_k1_d1")]
