"""cli_session: a scripted session of ``python -m webfol`` commands.

One child process per command, one at a time, over the shipped fixtures and
over files written for each round.  A round covers all 16 subcommands; some
have a false check (exit 1) or an input refusal (exit 2) as their documented
answer.  Start-up, import, argparse and JSON in and out dominate here.

Three commands fail in every round today: an exception that is not one of
webfol's own escapes ``cli.main`` and the command exits with 1, the code
documented for a false check, where exit 2 with a JSON error document is
documented.  They stay in the session, counted as failed (KNOWN_FAILURES).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import plane
import spans
import surface
import webs
from items import CheckFailed, Item, require, round_rng, nonzero

NAME = "cli_session"
TRACE_ROUNDS = 3
CHILD_PROCESSES = True
KNOWN_FAILURES = ("lie_bad_field", "preserves_bad_map", "duality_bad_value")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = ROOT / "fixtures"
CHILD_TIMEOUT_S = 120


def _form_fixtures():
    names = []
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and "coeffs" in data:
            names.append(path.name)
    return names


def _fixture_facts(name):
    data = json.loads((FIXTURES / name).read_text())
    coeffs = oracle.form_from_doc(data)
    d = oracle.total_degree(next(iter(coeffs.values()))) - data["k"]
    return data["N"], data["k"], d


def _round_dir(round_index):
    return BENCH / "out" / f"session-{os.getpid()}" / f"r{round_index}"


def _write(directory, name, data):
    path = directory / name
    path.write_text(json.dumps(data))
    return str(path.relative_to(ROOT))


def _copy_fixture(directory, name):
    """A shipped fixture under this round's directory, so no command repeats."""
    target = directory / f"fixture_{name}"
    shutil.copyfile(FIXTURES / name, target)
    return str(target.relative_to(ROOT))


def _map_doc(matrix):
    return [oracle.frac_str(v) for row in matrix for v in row]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _linear_field(rng):
    names = "xyz"
    terms = []
    for _ in range(2):
        sign = rng.choice(("+", "-"))
        terms.append(f"{sign} {rng.randint(1, 3)}*{rng.choice(names)} d/d{rng.choice(names)}")
    text = " ".join(terms)
    return text[2:] if text.startswith("+") else "-" + text[2:]


def _field_polys(text):
    """The shorthand the generator writes, as three coefficient dictionaries."""
    field = [{}, {}, {}]
    for chunk in text.replace("- ", "+-").replace("+ ", "+").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = -1 if chunk.startswith("-") else 1
        coef, rest = chunk.lstrip("-").split("*")
        var, dvar = rest.split(" d/d")
        e = oracle.unit(3, "xyz".index(var))
        slot = field["xyz".index(dvar)]
        slot[e] = slot.get(e, 0) + sign * int(coef)
    return [{e: c for e, c in f.items() if c} for f in field]


def generate(seed, round_index, draws):
    rng = round_rng(NAME, seed, round_index)
    directory = _round_dir(round_index)
    directory.mkdir(parents=True, exist_ok=True)
    form_fixtures = _form_fixtures()
    cmds = []

    def add(kind, args, **expect):
        item = Item(kind, json.dumps(args), expect)
        if not draws.fresh(item.doc):
            raise RuntimeError(f"command repeats within the run: {item.doc}")
        cmds.append(item)

    def add_drawn(kind, build):
        """Draw the arguments again until the command is new in this run."""
        while True:
            args, expect = build()
            item = Item(kind, json.dumps(args), expect)
            if draws.fresh(item.doc):
                cmds.append(item)
                return

    # Files written for this round.
    degree = rng.choice((2, 3))
    plane_coeffs = plane.valid_form(rng, degree, 0.5, draws)
    plane_f = _write(directory, "plane.json", oracle.form_doc(2, 1, plane_coeffs))
    factor = {oracle.unit(3, i): nonzero(rng, 5) for i in range(3)}
    planted = {d: oracle.pmul(p, factor) for d, p in plane.valid_form(rng, 1, 1.0, draws).items()}
    planted_f = _write(directory, "planted.json", oracle.form_doc(2, 1, planted))
    while True:
        matrix = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if _det3(matrix):
            break
        draws.discard()
    mat_f = _write(directory, "mat.json", _map_doc(matrix))
    singular = [matrix[0], matrix[1], [a + b for a, b in zip(matrix[0], matrix[1])]]
    singular_f = _write(directory, "singular.json", _map_doc(singular))
    a, b = surface.germ(rng, draws, rng.choice(surface.SHAPES))
    nu, l = surface.expected_order(a, b)
    germ_f = _write(directory, "germ.json", {"a": oracle.poly_doc(a, 2), "b": oracle.poly_doc(b, 2)})
    web_coeffs, group = webs.symmetric_web(
        rng, 2, 1, 1, 2, webs.GROUPS[3][round_index % len(webs.GROUPS[3])], draws)
    web_f = _write(directory, "web.json", oracle.form_doc(2, 1, web_coeffs))
    classes = oracle.projective_classes(group)
    identity = oracle.normalised(tuple(tuple(int(i == j) for j in range(3)) for i in range(3)))
    gen_fs = [
        _write(directory, f"g{i}.json", _map_doc(g))
        for i, g in enumerate(c for c in classes if c != identity)
    ]
    preserving = webs.preserving_classes(web_coeffs, 3)
    others = [m for m in oracle.projective_classes(oracle.signed_permutation_matrices(3))
              if m not in preserving]
    other = rng.choice(others)
    other_f = _write(directory, "other.json", _map_doc(other))
    while True:
        p3 = webs.koszul(rng, 4, 1, 2)
        if oracle.certified_coprime(list(p3.values())):
            break
        draws.discard()
    p3_f = _write(directory, "p3.json", oracle.form_doc(3, 1, p3))
    bad_map_f = _write(directory, "bad_map.json", round_index + 5)

    # validate
    add("validate_form", ["validate", "--form", plane_f], check="exact", code=0,
        doc={"valid": True, "kind": "form", "N": 2, "k": 1, "d": degree})
    add("validate_planted", ["validate", "--form", planted_f], check="refused", error="common_factor")
    add("validate_map", ["validate", "--map", mat_f], check="exact", code=0,
        doc={"valid": True, "kind": "map", "size": 3})
    add("validate_singular", ["validate", "--map", singular_f], check="refused", error="singular_matrix")
    add("validate_local", ["validate", "--local", germ_f], check="exact", code=0,
        doc={"valid": True, "kind": "local", "multiplicity": nu})
    # degree, euler
    add("degree", ["degree", "--form", plane_f], check="exact", code=0,
        doc={"d": degree, "k": 1, "N": 2, "KF_degree": degree - 1})
    fixture = form_fixtures[(seed + round_index) % len(form_fixtures)]
    N, k, d = _fixture_facts(fixture)
    doc = {"d": d, "k": k, "N": N}
    if (N, k) == (2, 1):
        doc["KF_degree"] = d - 1
    add("degree_fixture", ["degree", "--form", _copy_fixture(directory, fixture)], check="exact",
        code=0, doc=doc)
    add("euler", ["euler", "--form", web_f], check="exact", code=0, doc={"zero": True, "k": 0})
    fixture = form_fixtures[(seed + round_index + 4) % len(form_fixtures)]
    N, k, d = _fixture_facts(fixture)
    add("euler_fixture", ["euler", "--form", _copy_fixture(directory, fixture)], check="exact",
        code=0, doc={"zero": True, "k": k - 1})
    # integrable
    add("integrable", ["integrable", "--form", plane_f], check="integrable", expected=True, N=2)
    add("integrable_p3", ["integrable", "--form", p3_f], check="integrable",
        expected=_integrable(p3, rng), N=3)
    # lie
    add("lie_radial", ["lie", "--form", plane_f, "--field", "x d/dx + y d/dy + z d/dz"],
        check="lie_radial", path=plane_f, degree=degree)
    field = _linear_field(rng)
    while not any(_field_polys(field)):
        draws.discard()
        field = _linear_field(rng)
    add("lie_linear", ["lie", "--form", web_f, "--field", field], check="lie_linear",
        path=web_f, field=field, points=[tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3)])
    add("lie_bad_field", ["lie", "--form", "fixtures/example.json", "--field", f"[1,{round_index + 2}"],
        check="refused", error=None)
    # preserves, pullback
    add("preserves", ["preserves", "--form", web_f, "--map", gen_fs[0]], check="exact", code=0,
        doc={"preserves": True})
    add("preserves_false", ["preserves", "--form", web_f, "--map", other_f], check="exact", code=1,
        doc={"preserves": False})
    add("preserves_bad_map", ["preserves", "--form", "fixtures/example.json", "--map", bad_map_f],
        check="refused", error=None)
    add("pullback", ["pullback", "--form", web_f, "--map", other_f], check="pullback",
        path=web_f, matrix=_map_doc(other))
    # restrict, squarefree
    p, q = plane.seeded_line(rng, plane_coeffs, draws)
    line = ";".join(",".join(map(str, v)) for v in (p, q))
    # "--line=" keeps argparse from reading a leading minus sign as an option.
    add("restrict", ["restrict", "--form", plane_f, f"--line={line}"], check="restrict",
        path=plane_f, line=(p, q), degree=degree)
    collinear = ";".join(",".join(map(str, v)) for v in (p, tuple(2 * c for c in p)))
    add("restrict_collinear", ["restrict", "--form", plane_f, f"--line={collinear}"],
        check="refused", error="input_error")
    points = oracle.schedule_points(2, 8, plane_coeffs)[rng.randint(0, 5):][:2]
    add("squarefree", ["squarefree", "--form", plane_f, "--points",
                       ";".join(",".join(map(str, pt)) for pt in points)],
        check="squarefree", points=points)
    # hij, closure
    add("hij", ["hij", "--form", web_f, "--count", "3"], check="hij", path=web_f, group=classes)
    closure = ["closure", "--form", web_f]
    for f in gen_fs:
        closure += ["--map", f]
    add("closure", closure, check="closure", group=classes)
    # blow-ups and reduced singularities
    add("blowup", ["blowup", "--local", germ_f], check="blowup", nu=nu, l=l)

    def ktransform():
        kf2, kfkx, order = rng.randint(1, 9), rng.randint(-20, 20), rng.randint(0, 4)
        args = ["ktransform", "--kf2", str(kf2), "--kfkx", str(kfkx), "--l", str(order)]
        new_kf2 = kf2 - (1 - order) ** 2
        return args, dict(check="exact", code=0, doc={
            "kf2": kf2, "kfkx": kfkx, "l": order, "new_kf2": new_kf2,
            "new_kfkx": kfkx - (1 - order), "new_kf2_positive": new_kf2 > 0})

    add_drawn("ktransform", ktransform)
    add_drawn("ktransform_negative", lambda: (
        ["ktransform", "--kf2", str(rng.randint(1, 9)), "--kfkx", str(rng.randint(-20, 20)),
         "--l", str(-rng.randint(1, 5))], dict(check="refused", error="input_error")))

    def reduced():
        matrix = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        args = ["reduced", "--matrix=" + ";".join(",".join(map(str, r)) for r in matrix)]
        return args, dict(check="reduced", matrix=matrix)

    add_drawn("reduced", reduced)
    linear = [[b.get((1, 0), 0), b.get((0, 1), 0)], [-a.get((1, 0), 0), -a.get((0, 1), 0)]]
    add("reduced_local", ["reduced", "--local", germ_f], check="reduced", matrix=linear)
    # bounds, duality

    def bounds(pool, full):
        pairs = rng.sample(pool, rng.randint(1, 3))
        args = ["bounds"]
        for kf2, kfkx in pairs:
            args += ["--kf2", str(kf2), "--kfkx", str(kfkx)]
        return args + ["--full-digits"] * full, dict(check="bounds", pairs=pairs, full=full)

    add_drawn("bounds", lambda: bounds(surface.SHORT, False))
    short = [p for p in surface.SHORT if surface.digits_estimate(*p) <= surface.FULL_DIGITS]
    add_drawn("bounds_full", lambda: bounds(short, True))

    def web_bound():
        web = (rng.randint(0, 6 + round_index), rng.randint(1, 3), rng.randint(2, 4))
        args = ["bounds", "--d", str(web[0]), "--k", str(web[1]), "--n", str(web[2])]
        return args, dict(check="web_bound", web=web)

    add_drawn("bounds_web", web_bound)
    add_drawn("bounds_nonample", lambda: (
        ["bounds", "--kf2", "0", "--kfkx", str(rng.randint(-10 ** 6, 10 ** 6))],
        dict(check="refused", error="input_error")))

    def duality():
        values = [rng.randint(0, 99) for _ in range(rng.randint(2, 5))]
        doc = {"N": len(values), "values": [str(v) for v in values],
               "dual": [str(v) for v in reversed(values)]}
        return ["duality", "--values", ",".join(map(str, values))], dict(check="exact", code=0, doc=doc)

    add_drawn("duality", duality)
    add("duality_bad_value", ["duality", "--values", f"{round_index + 1},a"], check="refused", error=None)
    rng.shuffle(cmds)
    return cmds


def _integrable(coeffs, rng):
    """omega ^ d omega = 0, tested at random points (nonzero anywhere decides False).

    For the degree-1 forms written here the triple products have degree 3, so
    a nonzero one vanishes at twelve random points of [-999, 999]^4 with
    probability below (3/1999)^12.
    """
    n = 4
    for _ in range(12):
        pt = tuple(rng.randint(-999, 999) for _ in range(n))
        a = [oracle.evaluate(coeffs.get(oracle.unit(n, i), {}), pt) for i in range(n)]
        da = [[oracle.partial_value(coeffs.get(oracle.unit(n, j), {}), i, pt) for j in range(n)]
              for i in range(n)]
        c = {(i, j): da[i][j] - da[j][i] for i in range(n) for j in range(i + 1, n)}
        for p in range(n):
            for q in range(p + 1, n):
                for r in range(q + 1, n):
                    if a[p] * c[(q, r)] - a[q] * c[(p, r)] + a[r] * c[(p, q)]:
                        return False
    return True


# -- running the children -----------------------------------------------------------


class Context:
    def __init__(self, webfol):
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.tracer = None
        self.trace_file = BENCH / "out" / f"child-{os.getpid()}.json"

    def use_tracer(self, tracer):
        """Run the traced child from now on and adopt its spans."""
        self.tracer = tracer
        self.env["BENCH_TRACE_OUT"] = str(self.trace_file)

    def close(self):
        shutil.rmtree(BENCH / "out" / f"session-{os.getpid()}", ignore_errors=True)


def execute(ctx, item):
    args = json.loads(item.doc)
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "webfol", *args]
    else:
        cmd = [sys.executable, str(BENCH / "fol_child.py"), *args]
    start = time.perf_counter_ns()
    proc = subprocess.run(cmd, cwd=ROOT, env=ctx.env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    end = time.perf_counter_ns()
    if ctx.tracer is not None:
        tracer = ctx.tracer
        under = tracer.add_span(spans.PROCESS, start, end, tracer.stack[-1] if tracer.stack else -1)
        tracer.process_ns += end - start
        tracer.merge_child(json.loads(ctx.trace_file.read_text()), under)
        ctx.trace_file.unlink()
    return proc.returncode, proc.stdout


# -- checks ---------------------------------------------------------------------------


def check(item, out):
    code, stdout = out
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        raise CheckFailed(f"exit {code} without one JSON document on stdout")
    e = item.expect
    CHECKS[e["check"]](e, code, doc)


def _exact(e, code, doc):
    require(code == e["code"], f"exit {code}, expected {e['code']}")
    require(doc == e["doc"], f"document {doc} != {e['doc']}")


def _refused(e, code, doc):
    require(code == 2, f"exit {code}, expected 2")
    require("error" in doc, "error document")
    if e["error"] is not None:
        require(doc["error"] == e["error"], f"error {doc['error']} != {e['error']}")


def _integrable_check(e, code, doc):
    require(code == (0 if e["expected"] else 1), f"exit {code}")
    require(doc == {"integrable": e["expected"], "N": e["N"], "k": 1}, f"document {doc}")


def _tensor(doc):
    if doc == "0":
        return {}
    return oracle.form_from_doc(doc)


def _form(path):
    return oracle.form_from_doc(json.loads((ROOT / path).read_text()))


def _lie_radial(e, code, doc):
    require(code == 0 and doc["preserved"] is True, "radial field preserves every web")
    omega = _form(e["path"])
    expected = {d: oracle.pscale(p, e["degree"] + 2) for d, p in omega.items()}
    require(_tensor(doc["lie_derivative"]) == expected, "L_R omega != (d+2) omega")


def _lie_linear(e, code, doc):
    omega = _form(e["path"])
    field = _field_polys(e["field"])
    lie = _tensor(doc["lie_derivative"])
    for pt in e["points"]:
        for m in range(3):
            dm = oracle.unit(3, m)
            value = sum(
                oracle.evaluate(field[j], pt) * oracle.partial_value(omega.get(dm, {}), j, pt)
                + oracle.evaluate(omega.get(oracle.unit(3, j), {}), pt) * oracle.partial_value(field[j], m, pt)
                for j in range(3)
            )
            require(oracle.evaluate(lie.get(dm, {}), pt) == value, "Lie derivative at a point")
    preserved = not lie or oracle.proportional(omega, lie)
    require(doc["preserved"] is preserved, "preserved flag")
    require(code == (0 if preserved else 1), f"exit {code}")


def _pullback(e, code, doc):
    require(code == 0, f"exit {code}")
    matrix = [[Fraction(v) for v in e["matrix"][3 * i: 3 * i + 3]] for i in range(3)]
    expected = oracle.pullback_signed(_form(e["path"]), matrix)
    require(oracle.form_from_doc(doc) == expected, "pullback differs")


def _restrict(e, code, doc):
    require(code == 0 and doc["degree"] == e["degree"], f"exit {code}, {doc}")
    coeffs = _form(e["path"])
    p, q = e["line"]
    B = [Fraction(c) for c in doc["coefficients"]]
    for t in plane.T_VALUES:
        value = sum(c * t ** i for i, c in enumerate(B))
        require(value == plane.restricted_value(coeffs, p, q, t), f"B(1,{t})")


def _squarefree(e, code, doc):
    points = [[str(c) for c in pt] for pt in e["points"]]
    require(code == 0, f"exit {code}")
    require(doc == {"points": points, "results": [True] * len(points), "all_squarefree": True},
            f"document {doc}")


def _hij(e, code, doc):
    require(code == 0, f"exit {code}")
    coeffs = _form(e["path"])
    webs.check_system(doc, 2, 1, e["group"], oracle.schedule_points(2, 3, coeffs))


def _closure(e, code, doc):
    require(code == 0, f"exit {code}")
    group = {tuple(_map_doc(g)) for g in e["group"]}
    require(doc["order"] == len(group), f"order {doc['order']} != |G| = {len(group)}")
    require({tuple(m) for m in doc["elements"]} == group, "closure elements differ from G")


def _blowup(e, code, doc):
    require(code == 0, f"exit {code}")
    require(doc["l"] == e["l"], f"order {doc['l']} != {e['l']}")
    require(doc["dicritical"] == (e["l"] == e["nu"] + 1), "dicriticality")


def _reduced(e, code, doc):
    reduced, quotient = oracle.eigen_reduced(e["matrix"])
    require(code == (0 if reduced else 1), f"exit {code}")
    require(doc["reduced"] is reduced, "reducedness")
    if quotient is not None:
        require(doc["quotient"] == oracle.frac_str(quotient), "eigenvalue quotient")


def _bounds(e, code, doc):
    require(code == 0, f"exit {code}")
    reports = doc if isinstance(doc, list) else [doc]
    require(len(reports) == len(e["pairs"]), "one report per pair")
    for (kf2, kfkx), report in zip(e["pairs"], reports):
        m, h0_cap, base, exponent = oracle.bound_parts(kf2, kfkx)
        expected = {
            "kf2": kf2, "kfkx": kfkx, "m": m, "h0_cap": h0_cap, "n_cap": h0_cap - 1,
            "d_n2": m * m * kf2, "d_n1": (m * m + m) * kf2, "base": base, "exponent": exponent,
            "digit_count": oracle.digit_count(base, exponent),
        }
        text = report.pop("final_bound", None)
        require(report == expected, f"bound report {report}")
        if e["full"]:
            require(text is not None and len(text) == expected["digit_count"], "full decimal")
            for p in oracle.CHECK_PRIMES:
                require(oracle.decimal_mod(text, p) == pow(base, exponent, p), f"full decimal mod {p}")


def _web_bound(e, code, doc):
    d, k, N = e["web"]
    value = str((d + 2 * k) ** ((N + 1) ** 2 - 1))
    require(code == 0, f"exit {code}")
    require(doc == {"d": d, "k": k, "N": N, "bound": value, "digit_count": len(value)}, "web bound")


CHECKS = {
    "exact": _exact,
    "refused": _refused,
    "integrable": _integrable_check,
    "lie_radial": _lie_radial,
    "lie_linear": _lie_linear,
    "pullback": _pullback,
    "restrict": _restrict,
    "squarefree": _squarefree,
    "hij": _hij,
    "closure": _closure,
    "blowup": _blowup,
    "reduced": _reduced,
    "bounds": _bounds,
    "web_bound": _web_bound,
}


def smoke(items):
    """A command per check kind, and one of the known failures."""
    chosen, seen = [], set()
    for item in items:
        if item.expect["check"] not in seen:
            seen.add(item.expect["check"])
            chosen.append(item)
    return chosen + [next(i for i in items if i.kind == "duality_bad_value")]
