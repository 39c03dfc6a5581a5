"""Command-line front end: ``fol <command> ...``.

Every command reads JSON files in the formats of the owning modules, writes
one JSON document to stdout (or a readable table with --table), and exits
with a scriptable status:

    0   success, or a boolean check that came out true
    1   a boolean check that came out false
    2   input error (malformed JSON, invariant violation, bad parameters)
    3   computation error (closure cap exceeded, non-generic line,
        singular sample point)

Identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from .blowup import (
    LocalFoliation,
    SurfaceNumbers,
    blowup_point,
    canonical_transform,
    reduced_check,
)
from .errors import ComputationError, InputError
from .forms import (
    SymForm,
    SymTensor,
    generic_sample_points,
    is_integrable,
    is_squarefree_at,
    kf_degree,
    lie_derivative,
    proportionality_constant,
    restrict_to_line,
)
from .poly import Polynomial, load_json, read_fraction, read_int, unlimited_digits
from .projective import (
    DEFAULT_CLOSURE_CAP,
    ProjMap,
    export_system,
    group_closure,
    invariance_system,
    preserves,
    pullback,
)

EXIT_OK = 0
EXIT_FALSE = 1


# -- input parsing -------------------------------------------------------------


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return load_json(text, path)


def parse_form(path: str) -> SymForm:
    return SymForm.from_json_dict(_load_json(path))


def parse_map(path: str) -> ProjMap:
    return ProjMap.from_json_list(_load_json(path))


def parse_local(path: str) -> LocalFoliation:
    return LocalFoliation.from_json_dict(_load_json(path))


def _parse_point(text: str, n: int, option: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise InputError(f"point {text!r} needs {n} comma-separated coordinates")
    return tuple(read_fraction(p, option) for p in parts)


def _sample_points(args, form: SymForm) -> list[tuple[Fraction, ...]]:
    """The --points, else the first --count schedule points; an empty set is refused."""
    if args.points is not None:
        points = [_parse_point(c, form.ndiff, "--points") for c in args.points.split(";") if c.strip()]
        if not points:
            raise InputError(f"--points {args.points!r} gives no point")
        return points
    if args.count < 1:
        raise InputError(f"--count must be at least 1, got {args.count}")
    return generic_sample_points(form, args.count)


def _variable_index(name: str, n: int) -> int:
    index = {"x": 0, "y": 1, "z": 2, "w": 3}.get(name)
    if index is None and re.fullmatch(r"x[0-9]+", name):
        index = read_int(name[1:], "--field")
    if index is None or index >= n:
        raise InputError(f"unknown variable {name!r} for {n} coordinates")
    return index


_TERM_RE = re.compile(
    r"^\s*(?P<sign>-?)\s*(?P<coef>[0-9]+(?:/[0-9]+)?)?\s*\*?"
    r"\s*(?P<var>[A-Za-z]\w*?)?\s*d/d(?P<dvar>[A-Za-z]\w*)\s*$"
)


def parse_field_shorthand(text: str, n: int) -> list[Polynomial]:
    """Parse 'p0 d/dx0 + p1 d/dx1 ...' with monomial coefficients.

    Each term is an optional rational scalar times an optional single
    variable, applied to one d/d<var>; terms add.  Example: 'y d/dx - 2 d/dz'.
    """
    components = [Polynomial.zero(n) for _ in range(n)]
    normalised = text.replace("-", "+-")
    chunks = [c.strip() for c in normalised.split("+") if c.strip()]
    if not chunks:
        raise InputError("empty vector field expression")
    for chunk in chunks:
        match = _TERM_RE.match(chunk)
        if not match:
            raise InputError(f"cannot parse field term {chunk!r}")
        poly = Polynomial.constant(n, read_fraction(match["sign"] + (match["coef"] or "1"), "--field"))
        if match.group("var"):
            poly = poly * Polynomial.variable(n, _variable_index(match.group("var"), n))
        slot = _variable_index(match.group("dvar"), n)
        components[slot] = components[slot] + poly
    return components


def parse_field(value: str, n: int) -> list[Polynomial]:
    """Vector field from shorthand text, inline JSON, or a JSON file path."""
    if value.lstrip().startswith("["):
        data = load_json(value, "--field")
    elif os.path.isfile(value):  # False, not OSError, for a shorthand too long to be a path
        data = _load_json(value)
    else:
        return parse_field_shorthand(value, n)
    if not isinstance(data, list) or len(data) != n:
        raise InputError(f"vector field JSON must be a list of {n} polynomials")
    return [Polynomial.from_json_dict(entry) for entry in data]


def _parse_matrix_inline(text: str) -> list[list[Fraction]]:
    rows = [r for r in text.split(";") if r.strip()]
    return [[read_fraction(v.strip(), "--matrix") for v in row.split(",")] for row in rows]


# -- output ---------------------------------------------------------------------


def _emit(document, table: bool) -> None:
    if table:
        sys.stdout.write(_render_table(document))
    else:
        sys.stdout.write(json.dumps(document) + "\n")


def _render_table(document) -> str:
    rows = document if isinstance(document, list) else [document]
    if not rows:
        return "\n"
    if all(isinstance(r, dict) for r in rows) and len(rows) > 1:
        keys = list(rows[0].keys())
        widths = {
            k: max(len(str(k)), *(len(_cell(r.get(k))) for r in rows)) for k in keys
        }
        lines = ["  ".join(str(k).ljust(widths[k]) for k in keys)]
        for r in rows:
            lines.append("  ".join(_cell(r.get(k)).ljust(widths[k]) for k in keys))
        return "\n".join(lines) + "\n"
    lines = []
    for r in rows:
        for k, v in r.items():
            lines.append(f"{k}: {_cell(v)}")
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


def _tensor_doc(tensor: SymTensor):
    return "0" if tensor.is_zero else tensor.to_json_dict()


# -- command handlers ------------------------------------------------------------


def _cmd_validate(args) -> tuple[int, dict]:
    chosen = [opt for opt in (args.form, args.map, args.local) if opt]
    if len(chosen) != 1:
        raise InputError("validate needs exactly one of --form, --map, --local")
    if args.form:
        form = parse_form(args.form)
        doc = {"valid": True, "kind": "form", "N": form.N, "k": form.k, "d": form.degree}
    elif args.map:
        mapping = parse_map(args.map)
        doc = {"valid": True, "kind": "map", "size": mapping.size}
    else:
        local = parse_local(args.local)
        doc = {
            "valid": True,
            "kind": "local",
            "multiplicity": local.multiplicity_at_origin(),
        }
    return EXIT_OK, doc


def _cmd_degree(args) -> tuple[int, dict]:
    form = parse_form(args.form)
    doc = {"d": form.degree, "k": form.k, "N": form.N}
    kf = kf_degree(form)
    if kf is not None:
        doc["KF_degree"] = kf
    return EXIT_OK, doc


def _cmd_euler(args) -> tuple[int, dict]:
    form = parse_form(args.form)
    contraction = form.euler_contraction()
    return EXIT_OK, {"zero": contraction.is_zero, "k": contraction.k}


def _cmd_integrable(args) -> tuple[int, dict]:
    form = parse_form(args.form)
    result = is_integrable(form)
    return (EXIT_OK if result else EXIT_FALSE), {
        "integrable": result,
        "N": form.N,
        "k": form.k,
    }


def _cmd_lie(args) -> tuple[int, dict]:
    form = parse_form(args.form)
    field = parse_field(args.field, form.ndiff)
    derivative = lie_derivative(field, form)
    doc = {"lie_derivative": _tensor_doc(derivative)}
    linear = all(c.is_zero or c.homogeneous_degree() == 1 for c in field)
    if args.preserves and not linear:
        raise InputError("--preserves requires a linear (degree-1) vector field")
    code = EXIT_OK
    if linear:
        preserved = proportionality_constant(form, derivative) is not None
        doc["preserved"] = preserved
        if not preserved:
            code = EXIT_FALSE
    return code, doc


def _cmd_preserves(args) -> tuple[int, dict]:
    form = parse_form(args.form)
    mapping = parse_map(args.map)
    result = preserves(mapping, form)
    return (EXIT_OK if result else EXIT_FALSE), {"preserves": result}


def _cmd_pullback(args) -> tuple[int, dict]:
    form = parse_form(args.form)
    mapping = parse_map(args.map)
    return EXIT_OK, pullback(mapping, form).to_json_dict()


def _cmd_restrict(args) -> tuple[int, dict]:
    form = parse_form(args.form)
    chunks = args.line.split(";")
    if len(chunks) != 2:
        raise InputError("--line expects 'p;q' with two comma-separated points")
    p, q = (_parse_point(chunk, form.ndiff, "--line") for chunk in chunks)
    binary = restrict_to_line(form, p, q)
    return EXIT_OK, binary.to_json_dict()


def _cmd_squarefree(args) -> tuple[int, dict]:
    form = parse_form(args.form)
    points = _sample_points(args, form)
    results = [is_squarefree_at(form, point) for point in points]
    doc = {
        "points": [[str(c) for c in point] for point in points],
        "results": results,
        "all_squarefree": all(results),
    }
    return (EXIT_OK if all(results) else EXIT_FALSE), doc


def _cmd_hij(args) -> tuple[int, dict | str]:
    form = parse_form(args.form)
    points = _sample_points(args, form)
    system = invariance_system(form, points)
    if args.format == "text":
        return EXIT_OK, export_system(system, "text")
    return EXIT_OK, system.to_json_dict()


def _cmd_closure(args) -> tuple[int, dict]:
    form = parse_form(args.form)
    generators = [parse_map(path) for path in args.map]
    group = group_closure(generators, form, cap=args.cap)
    return EXIT_OK, {
        "order": group.order,
        "cap": args.cap,
        "elements": [element.to_json_list() for element in group.elements],
    }


def _cmd_blowup(args) -> tuple[int, dict]:
    local = parse_local(args.local)
    return EXIT_OK, blowup_point(local).to_json_dict()


def _cmd_ktransform(args) -> tuple[int, dict]:
    numbers = SurfaceNumbers(args.kf2, args.kfkx)
    out = canonical_transform(numbers, args.l)
    return EXIT_OK, {
        "kf2": numbers.kf2,
        "kfkx": numbers.kfkx,
        "l": args.l,
        "new_kf2": out.kf2,
        "new_kfkx": out.kfkx,
        "new_kf2_positive": out.kf2 > 0,
    }


def _cmd_reduced(args) -> tuple[int, dict]:
    if bool(args.matrix) == bool(args.local):
        raise InputError("reduced needs exactly one of --matrix, --local")
    if args.matrix:
        matrix = _parse_matrix_inline(args.matrix)
    else:
        matrix = parse_local(args.local).dual_field_linear_part()
    result = reduced_check(matrix)
    return (EXIT_OK if result.reduced else EXIT_FALSE), result.to_json_dict()


def _cmd_bounds(args) -> tuple[int, dict | list]:
    web_mode = args.d is not None or args.k is not None or args.n is not None
    pair_mode = bool(args.kf2 or args.kfkx)
    if web_mode and pair_mode:
        raise InputError("bounds takes either --d/--k/--n or --kf2/--kfkx, not both")
    if web_mode:
        if None in (args.d, args.k, args.n):
            raise InputError("web bound needs all of --d, --k, --n")
        base, exponent = bounds_mod.web_bound_parts(args.d, args.k, args.n)
        bounds_mod.check_report_size(base, exponent)
        return EXIT_OK, {
            "d": args.d,
            "k": args.k,
            "N": args.n,
            "bound": bounds_mod.power_to_decimal(base, exponent),
            "digit_count": bounds_mod.power_digit_count(base, exponent),
        }
    if not pair_mode:
        raise InputError("bounds needs --d/--k/--n or --kf2/--kfkx")
    if len(args.kf2 or []) != len(args.kfkx or []):
        raise InputError("--kf2 and --kfkx must be given the same number of times")
    reports = [
        bounds_mod.foliation_aut_bound(kf2, kfkx).to_json_dict(args.full_digits)
        for kf2, kfkx in zip(args.kf2, args.kfkx)
    ]
    return EXIT_OK, reports[0] if len(reports) == 1 else reports


def _cmd_duality(args) -> tuple[int, dict]:
    values = [read_int(v.strip(), "--values") for v in args.values.split(",") if v.strip()]
    numbers = bounds_mod.CharNumbers(values=tuple(values), N=len(values))
    dual = bounds_mod.duality_transform(numbers)
    return EXIT_OK, {
        "N": numbers.N,
        "values": [str(v) for v in numbers.values],
        "dual": [str(v) for v in dual.values],
    }


# -- argument parser ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Refusals become ``input_error`` documents, not usage text; subparsers share the class."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fol",
        description="Exact computations with webs and foliations on projective space.",
    )
    parser.add_argument("--table", action="store_true", help="readable table output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    def integer(p, option, **kwargs):
        p.add_argument(option, type=functools.partial(read_int, field=option), **kwargs)

    p = add("validate", _cmd_validate, "validate a form, map, or local foliation file")
    p.add_argument("--form")
    p.add_argument("--map")
    p.add_argument("--local")

    p = add("degree", _cmd_degree, "web degree (and canonical degree on the plane)")
    p.add_argument("--form", required=True)

    p = add("euler", _cmd_euler, "radial contraction of a validated form")
    p.add_argument("--form", required=True)

    p = add("integrable", _cmd_integrable, "integrability of a 1-form")
    p.add_argument("--form", required=True)

    p = add("lie", _cmd_lie, "Lie derivative along a vector field")
    p.add_argument("--form", required=True)
    p.add_argument("--field", required=True, help="shorthand like 'y d/dx', or JSON")
    p.add_argument("--preserves", action="store_true", help="require a linear field")

    p = add("preserves", _cmd_preserves, "does a projective map preserve the web")
    p.add_argument("--form", required=True)
    p.add_argument("--map", required=True)

    p = add("pullback", _cmd_pullback, "pullback of the form under a map")
    p.add_argument("--form", required=True)
    p.add_argument("--map", required=True)

    p = add("restrict", _cmd_restrict, "binary tangency form on a line")
    p.add_argument("--form", required=True)
    p.add_argument("--line", required=True, help="two points 'p;q', e.g. '1,0,1;0,1,1'")

    p = add("squarefree", _cmd_squarefree, "pointwise square-freeness of the web form")
    p.add_argument("--form", required=True)
    p.add_argument("--points", help="semicolon-separated points; default schedule")
    integer(p, "--count", default=3, help="schedule points to use")

    p = add("hij", _cmd_hij, "polynomial system in matrix entries cutting the symmetries")
    p.add_argument("--form", required=True)
    p.add_argument("--points", help="semicolon-separated sample points")
    integer(p, "--count", default=3, help="schedule points to use")
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = add("closure", _cmd_closure, "finite closure of verified generators")
    p.add_argument("--form", required=True)
    p.add_argument("--map", action="append", required=True, help="generator file (repeatable)")
    integer(p, "--cap", default=DEFAULT_CLOSURE_CAP)

    p = add("blowup", _cmd_blowup, "single blow-up of a plane foliation at the origin")
    p.add_argument("--local", required=True)

    p = add("ktransform", _cmd_ktransform, "intersection numbers across one blow-up")
    integer(p, "--kf2", required=True)
    integer(p, "--kfkx", required=True)
    integer(p, "--l", required=True, help="vanishing order along E")

    p = add("reduced", _cmd_reduced, "reduced-singularity test on a linear part")
    p.add_argument("--matrix", help="2x2 matrix 'a,b;c,d'")
    p.add_argument("--local", help="local foliation file (uses its linear part)")

    p = add("bounds", _cmd_bounds, "exact order bounds")
    integer(p, "--kf2", action="append")
    integer(p, "--kfkx", action="append")
    integer(p, "--d")
    integer(p, "--k")
    integer(p, "--n")
    p.add_argument("--full-digits", action="store_true", dest="full_digits")

    p = add("duality", _cmd_duality, "characteristic numbers of the dual pair")
    p.add_argument("--values", required=True, help="comma-separated d_0..d_{N-1}")

    return parser


# Options whose values may start with a minus sign ("-1,0,1;0,1,1"), which
# argparse would read as an option unless it is attached with "=".
_SIGNED_VALUE_OPTIONS = ("--line", "--matrix", "--points")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite '--line -1,...' as '--line=-1,...' for the options above."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    # The readers bound every text-to-int conversion, so any exact answer may print.
    with unlimited_digits():
        try:
            args = parser.parse_args(_attach_signed_values(argv))
            code, document = args.handler(args)
        except (InputError, ComputationError) as exc:
            # A refused command line fails inside parse_args, before ``args`` exists.
            table = args.table if args is not None else "--table" in argv
            _emit({"error": exc.code, "message": str(exc)}, table)
            return exc.exit_code
        if isinstance(document, str):
            sys.stdout.write(document)
        else:
            _emit(document, args.table)
        return code


if __name__ == "__main__":
    sys.exit(main())
