"""Fuzz of the command line in-process: ``cli.main(argv)`` on the fixtures.

The argv is built from the 16 subcommands, the fixtures (some with one
number replaced) and number spellings: small integers and n/d, floats,
``true``, ``1/0``, ``1e3000000``, 4,300- and 5,000-digit strings and JSON
literals, leading signs.  Every example must end in an exit code 0-3, with
1 only from the check commands, and print one JSON document (a table under
``--table``, the text export under ``hij --format text``); no exception may
escape.  ``--full-digits`` and closure caps above 1,000 are left out, so each
example stays well under a second.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from webfol import cli
from webfol.poly import unlimited_digits

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
CHECKS = {"integrable", "lie", "preserves", "squarefree", "reduced"}
LONG = "9" * 5000

TEXTS = {path.name: json.dumps(json.loads(path.read_text())) for path in sorted(FIXTURES.glob("*.json"))}
MAPS = sorted(name for name, text in TEXTS.items() if text.startswith("["))
FORMS = sorted(name for name, text in TEXTS.items() if '"N"' in text)
LOCALS = sorted(set(TEXTS) - set(MAPS) - set(FORMS))
# A JSON number, or a string holding one, in a fixture's compact text.
NUMBER = re.compile(r'"-?[0-9]+(?:/[0-9]+)?"|-?[0-9]+')

small = st.integers(-12, 12).map(str)
spellings = st.one_of(
    small,
    small,
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9)),
    st.sampled_from([
        "0.5", "-0.5", "1.0", "1e2", "1e3000000", "1/0", "true", "+1", " 1", "1_0", "-", "",
        "9" * 4300, "-" + "9" * 4300, LONG, "-" + LONG, LONG + "/1",
    ]),
)
json_values = st.one_of(
    st.integers(-3, 3).map(str),
    spellings.map(json.dumps),
    st.sampled_from(["-0.5", "2.9", "true", "false", "null", "1e400", "[]", "{}", LONG, "-" + LONG]),
)


@st.composite
def files(draw, names, directory):
    """A fixture of one kind, unchanged or with one number replaced."""
    name = draw(st.sampled_from(names))
    text = TEXTS[name]
    if draw(st.booleans()):
        matches = list(NUMBER.finditer(text))
        hit = matches[draw(st.integers(0, len(matches) - 1))]
        text = text[: hit.start()] + draw(json_values) + text[hit.end() :]
    path = Path(directory) / f"{len(list(Path(directory).iterdir()))}-{name}"
    path.write_text(text)
    return str(path)


def joined(draw, separator, count):
    return separator.join(draw(spellings) for _ in range(count))


@st.composite
def argvs(draw, directory):
    form = lambda: draw(files(FORMS, directory))  # noqa: E731
    map_ = lambda: draw(files(MAPS, directory))  # noqa: E731
    local = lambda: draw(files(LOCALS, directory))  # noqa: E731
    number = lambda: draw(spellings)  # noqa: E731
    point = lambda: joined(draw, ",", draw(st.integers(2, 5)))  # noqa: E731
    command = draw(st.sampled_from([
        "validate", "degree", "euler", "integrable", "lie", "preserves", "pullback", "restrict",
        "squarefree", "hij", "closure", "blowup", "ktransform", "reduced", "bounds", "duality",
    ]))
    argv = [command]
    if command == "validate":
        option, make = draw(st.sampled_from([("--form", form), ("--map", map_), ("--local", local)]))
        argv += [option, make()]
    elif command in ("degree", "euler", "integrable"):
        argv += ["--form", form()]
    elif command == "lie":
        field = draw(st.sampled_from(["number", "shorthand", "long", "json", "file"]))
        if field == "number":
            value = f"{number()} d/dx"
        elif field == "shorthand":
            value = f"{number()} y d/dx - {number()} x d/dy + z d/dz"
        elif field == "long":
            value = draw(st.sampled_from(["x" * 5000 + " d/dx", "x" + LONG + " d/dx", LONG + " d/dx"]))
        elif field == "json":
            term = '{"exp": [1, 0, 0], "num": %s, "den": "1"}' % draw(json_values)
            value = "[" + ", ".join(['{"nvars": 3, "terms": [%s]}' % term] * 3) + "]"
        else:
            value = local()
        argv += ["--form", form(), "--field", value] + draw(st.sampled_from([[], ["--preserves"]]))
    elif command in ("preserves", "pullback"):
        argv += ["--form", form(), "--map", map_()]
    elif command == "restrict":
        argv += ["--form", form(), "--line", f"{point()};{point()}"]
    elif command in ("squarefree", "hij"):
        argv += ["--form", form()]
        argv += draw(st.sampled_from([[], ["--points", ";".join(point() for _ in range(2))], ["--count", number()]]))
        if command == "hij":
            argv += draw(st.sampled_from([[], ["--format", "text"]]))
    elif command == "closure":
        argv += ["--form", form(), "--map", map_(), "--map", map_()]
        argv += draw(st.sampled_from([[], ["--cap", str(draw(st.integers(-2, 1000)))], ["--cap", number()]]))
    elif command == "blowup":
        argv += ["--local", local()]
    elif command == "ktransform":
        argv += ["--kf2", number(), "--kfkx", number(), "--l", number()]
    elif command == "reduced":
        argv += draw(st.sampled_from([["--matrix", f"{joined(draw, ',', 2)};{joined(draw, ',', 2)}"], ["--local", local()]]))
    elif command == "bounds":
        if draw(st.booleans()):
            argv += ["--kf2", number(), "--kfkx", number()]
        else:
            argv += ["--d", number(), "--k", number(), "--n", number()]
    else:
        argv += ["--values", joined(draw, ",", draw(st.integers(1, 4)))]
    return draw(st.sampled_from([[], ["--table"]])) + argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_command_line_ends_in_a_document_and_an_exit_code(data):
    with tempfile.TemporaryDirectory(prefix="webfol-fuzz-") as directory:
        argv = data.draw(argvs(directory))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    command = argv[1] if argv[0] == "--table" else argv[0]
    text = out.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert code != 1 or command in CHECKS, argv
    if argv[0] == "--table":
        assert text.endswith("\n") and text.strip(), argv
    elif code == 0 and argv[-2:] == ["--format", "text"]:
        assert text.startswith("ring Q["), argv
    else:
        with unlimited_digits():
            document = json.loads(text)
        assert (code in (2, 3)) == ("error" in document and isinstance(document, dict)), argv
