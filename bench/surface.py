"""surface_bounds: seeded queries that follow the paper, blow-up to order bound.

Each query blows up a seeded local germ at the origin, carries a
(K_F^2, K_F.K_X) pair through the blow-up with the germ's order l, and asks
for the order bound of the result, plus one web bound.  Every round sweeps
every pair whose bound has at most REPORT_CAP_DIGITS digits, and the two
pairs just past it, so a few queries raise powers with millions of digits;
the rest of the round are queries on short bounds, a seeded minority of
them with the full decimal.
"""

from __future__ import annotations

import json
import math

import oracle
from items import Item, require, round_rng, nonzero

NAME = "surface_bounds"
TRACE_ROUNDS = 1
# webfol documents that reports refuse bounds past 5,000,000 decimal digits.
REPORT_CAP_DIGITS = 5_000_000
PAST_CAP_DIGITS = REPORT_CAP_DIGITS * 5 // 4
SHORT_DIGITS = 60_000
FULL_DIGITS = 6_000
FILLERS = 65


def digits_estimate(kf2, kfkx):
    _, _, base, exponent = oracle.bound_parts(kf2, kfkx)
    return exponent * math.log10(base)


def sweep_pairs():
    """Every pair with a bound under the cap, and those just past it, by digits."""
    pairs = []
    kf2 = 1
    while digits_estimate(kf2, -4 * kf2 - 1) <= PAST_CAP_DIGITS:
        s = 0
        while digits_estimate(kf2, s - 4 * kf2 - 1) <= PAST_CAP_DIGITS:
            for shift in {s, -s}:
                kfkx = shift - 4 * kf2 - 1
                pairs.append((digits_estimate(kf2, kfkx), kf2, kfkx))
            s += 1
        kf2 += 1
    return [(kf2, kfkx) for _, kf2, kfkx in sorted(pairs)]


SWEEP = sweep_pairs()
SHORT = [p for p in SWEEP if digits_estimate(*p) <= SHORT_DIGITS]


def _term(rng, degree):
    i = rng.randint(0, degree)
    return (i, degree - i)


# Germ shapes taken in turn by the items of a round: (multiplicity nu,
# dicritical, degrees of the extra terms of a, of b).  Fixed shapes keep the
# cost of a round's blow-ups from hinging on the seed.
SHAPES = (
    (1, False, (3,), (4,)),
    (1, True, (3,), (2,)),
    (2, False, (3,), (5,)),
    (2, True, (4,), (3,)),
    (3, False, (4,), (6,)),
    (1, False, (2, 5), (4,)),
    (2, False, (4,), (3, 6)),
    (3, True, (5,), (4,)),
)


def germ(rng, draws, shape):
    """A saturated germ (a, b) of the given shape (degree at most 6)."""
    nu, dicritical, extra_a, extra_b = shape
    while True:
        if dicritical:
            # Radial tangent cone x a_nu + y b_nu = 0: a_nu = y h, b_nu = -x h.
            h = {_term(rng, nu - 1): nonzero(rng, 4)}
            a = oracle.pmul({(0, 1): 1}, h)
            b = oracle.pmul({(1, 0): -1}, h)
        else:
            a = {_term(rng, nu): nonzero(rng, 4)}
            b = {_term(rng, nu): nonzero(rng, 4)}
        for poly, extra in ((a, extra_a), (b, extra_b)):
            for degree in extra:
                e = _term(rng, degree)
                poly[e] = poly.get(e, 0) + nonzero(rng, 5)
        a = {e: c for e, c in a.items() if c}
        b = {e: c for e, c in b.items() if c}
        if a and b and oracle.certified_coprime([oracle.homogenise(a), oracle.homogenise(b)]):
            return a, b
        draws.discard()


def expected_order(a, b):
    """(multiplicity nu, order l): l = nu + 1 exactly when x a_nu + y b_nu = 0."""
    nu = min(oracle.low_degree(a), oracle.low_degree(b))
    cone = oracle.padd(
        oracle.pmul({(1, 0): 1}, oracle.homogeneous_part(a, nu)),
        oracle.pmul({(0, 1): 1}, oracle.homogeneous_part(b, nu)),
    )
    return nu, nu + 1 if not cone else nu


def generate(seed, round_index, draws):
    rng = round_rng(NAME, seed, round_index)
    targets = list(SWEEP) + [rng.choice(SHORT) for _ in range(FILLERS)]
    items = []
    for i, (kf2, kfkx) in enumerate(targets):
        while True:
            a, b = germ(rng, draws, SHAPES[i % len(SHAPES)])
            nu, l = expected_order(a, b)
            # Start from the pair that the blow-up carries onto the target.
            start = (kf2 + (1 - l) ** 2, kfkx + (1 - l))
            web = (rng.randint(0, 6), rng.randint(1, 3), rng.randint(2, 4))
            full = digits_estimate(kf2, kfkx) <= FULL_DIGITS and rng.random() < 0.4
            doc = json.dumps({
                "germ": {"a": oracle.poly_doc(a, 2), "b": oracle.poly_doc(b, 2)},
                "pair": start, "full_digits": full, "web": web,
            })
            if draws.fresh(doc):
                break
        kind = "sweep" if i < len(SWEEP) else "short"
        items.append(Item(kind, doc, {"nu": nu, "l": l}))
    rng.shuffle(items)
    return items


class Context:
    def __init__(self, webfol):
        self.blowup = webfol.blowup
        self.bounds = webfol.bounds
        self.errors = webfol.errors



def execute(ctx, item):
    blowup, bounds = ctx.blowup, ctx.bounds
    query = json.loads(item.doc)
    local = blowup.LocalFoliation.from_json_dict(query["germ"])
    result = blowup.blowup_point(local)
    numbers = blowup.canonical_transform(blowup.SurfaceNumbers(*query["pair"]), result.l)
    out = {"l": result.l, "dicritical": result.dicritical, "pair": (numbers.kf2, numbers.kfkx)}
    try:
        report = bounds.foliation_aut_bound(numbers.kf2, numbers.kfkx)
    except ctx.errors.ComputationError:
        out["refused"] = True
    else:
        out["parts"] = (report.m, report.h0_cap, report.base, report.exponent)
        out["digits"] = report.digit_count
        if query["full_digits"]:
            out["decimal"] = bounds.int_to_decimal(report.final_bound)
    web = bounds.web_aut_bound(*query["web"])
    out["web"] = (web, bounds.decimal_digit_count(web))
    return out


def check(item, out):
    query = json.loads(item.doc)
    nu, l = item.expect["nu"], item.expect["l"]
    require(out["l"] in (nu, nu + 1), f"order {out['l']} outside {{nu, nu+1}}")
    require(out["l"] == l, f"order {out['l']}, tangent cone says {l}")
    require(out["dicritical"] == (out["l"] == nu + 1), "dicritical exactly when l = nu + 1")
    kf2, kfkx = query["pair"]
    kf2, kfkx = kf2 - (1 - l) ** 2, kfkx - (1 - l)
    require(tuple(out["pair"]) == (kf2, kfkx), "transported pair")
    m, h0_cap, base, exponent = oracle.bound_parts(kf2, kfkx)
    digits = None
    if "refused" in out:
        require(digits_estimate(kf2, kfkx) > REPORT_CAP_DIGITS, "a bound under the cap was refused")
    else:
        require(tuple(out["parts"]) == (m, h0_cap, base, exponent), "m, h0_cap, base, exponent")
        digits = oracle.digit_count(base, exponent)
        require(out["digits"] == digits, f"digit count {out['digits']} != {digits}")
    if query["full_digits"]:
        text = out["decimal"]
        require(len(text) == digits, "full decimal length")
        for p in oracle.CHECK_PRIMES:
            require(oracle.decimal_mod(text, p) == pow(base, exponent, p), f"full decimal mod {p}")
    d, k, N = query["web"]
    web = (d + 2 * k) ** ((N + 1) ** 2 - 1)
    require(out["web"] == (web, len(str(web))), "web bound")


def smoke(items):
    """Short queries, one with the full decimal, and one sweep pair past the cap."""
    short = [i for i in items if i.kind == "short"]
    full = [i for i in short if json.loads(i.doc)["full_digits"]][:1]
    past = [
        i for i in items
        if i.kind == "sweep" and digits_estimate(*_target(i)) > REPORT_CAP_DIGITS
    ][:1]
    return short[:2] + full + past


def _target(item):
    kf2, kfkx = json.loads(item.doc)["pair"]
    l = item.expect["l"]
    return kf2 - (1 - l) ** 2, kfkx - (1 - l)
