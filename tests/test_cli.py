import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "webfol.cli", *args]
    return subprocess.run(cmd, cwd=str(REPO), text=True, capture_output=True)


def fx(name: str) -> str:
    return str(FIXTURES / name)


# -- headline outputs, byte-exact -----------------------------------------------


def test_degree_of_shipped_example():
    r = run_cli("degree", "--form", fx("example.json"))
    assert r.returncode == 0, r.stderr
    assert r.stdout == '{"d": 2, "k": 1, "N": 2, "KF_degree": 1}\n'


def test_lie_shear_field_output():
    r = run_cli("lie", "--form", fx("example.json"), "--field", "y d/dx")
    assert r.returncode == 0, r.stderr
    assert r.stdout == '{"lie_derivative": "0", "preserved": true}\n'


def test_bounds_smallest_case():
    r = run_cli("bounds", "--kf2", "1", "--kfkx", "-3")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc == {
        "kf2": 1,
        "kfkx": -3,
        "m": 7,
        "h0_cap": 51,
        "n_cap": 50,
        "d_n2": 49,
        "d_n1": 56,
        "base": 161,
        "exponent": 2600,
        "digit_count": 5738,
    }


def test_bounds_full_digits_has_exact_length():
    r = run_cli("bounds", "--kf2", "1", "--kfkx", "-3", "--full-digits")
    doc = json.loads(r.stdout)
    assert len(doc["final_bound"]) == 5738


def test_radial_degree():
    r = run_cli("degree", "--form", fx("radial.json"))
    assert r.stdout == '{"d": 0, "k": 1, "N": 2, "KF_degree": -1}\n'


# -- exit-code contract ------------------------------------------------------------


def test_preserves_true_exits_zero():
    r = run_cli("preserves", "--form", fx("conic_pencil.json"), "--map", fx("swap_map.json"))
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"preserves": True}


def test_preserves_false_exits_one():
    r = run_cli("preserves", "--form", fx("example.json"), "--map", fx("swap_map.json"))
    assert r.returncode == 1
    assert json.loads(r.stdout) == {"preserves": False}


def test_non_generic_line_exits_three():
    r = run_cli("restrict", "--form", fx("radial.json"), "--line", "0,0,1;1,0,0")
    assert r.returncode == 3
    assert json.loads(r.stdout)["error"] == "non_generic_line"


def test_cap_exceeded_exits_three():
    r = run_cli(
        "closure",
        "--form", fx("radial.json"),
        "--map", fx("dilation_map.json"),
        "--cap", "40",
    )
    assert r.returncode == 3
    assert json.loads(r.stdout)["error"] == "cap_exceeded"


def test_malformed_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("degree", "--form", str(bad))
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"] == "input_error"


def test_zero_denominator_exits_two(tmp_path):
    bad = tmp_path / "zeroden.json"
    bad.write_text(json.dumps({
        "N": 2, "k": 1,
        "coeffs": [{"dmono": [1, 0, 0],
                    "poly": {"nvars": 3, "terms": [{"exp": [1, 0, 0], "num": "1", "den": "0"}]}}],
    }))
    r = run_cli("degree", "--form", str(bad))
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"] == "input_error"


def test_invariant_violations_are_named(tmp_path):
    x_dx = {
        "N": 2,
        "k": 1,
        "coeffs": [
            {
                "dmono": [1, 0, 0],
                "poly": {"nvars": 3, "terms": [{"exp": [1, 0, 0], "num": "1", "den": "1"}]},
            }
        ],
    }
    path = tmp_path / "x_dx.json"
    path.write_text(json.dumps(x_dx))
    r = run_cli("validate", "--form", str(path))
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"] == "euler_contraction_nonzero"

    mismatch = {
        "N": 2,
        "k": 1,
        "coeffs": [
            {
                "dmono": [1, 0, 0],
                "poly": {"nvars": 3, "terms": [{"exp": [2, 0, 0], "num": "1", "den": "1"}]},
            },
            {
                "dmono": [0, 1, 0],
                "poly": {"nvars": 3, "terms": [{"exp": [0, 1, 0], "num": "1", "den": "1"}]},
            },
        ],
    }
    path2 = tmp_path / "mismatch.json"
    path2.write_text(json.dumps(mismatch))
    r2 = run_cli("validate", "--form", str(path2))
    assert r2.returncode == 2
    assert json.loads(r2.stdout)["error"] == "coefficient_degree_mismatch"


def test_degrees_past_the_ceiling_exit_two_with_their_code(tmp_path):
    # An exponent of 10^10, or a differential order k of 2^31, is refused as
    # the input is read, with no traceback.
    def x_dx(e, k):
        term = {"exp": [0, e, 0], "num": "1", "den": "1"}
        return {"N": 2, "k": k, "coeffs": [{"dmono": [k, 0, 0], "poly": {"nvars": 3, "terms": [term]}}]}

    local = {
        "a": {"nvars": 2, "terms": [{"exp": [0, 10 ** 10], "num": "1", "den": "1"}]},
        "b": {"nvars": 2, "terms": [{"exp": [1, 0], "num": "1", "den": "1"}]},
    }
    cases = [("--form", x_dx(10 ** 10, 1)), ("--form", x_dx(1, 2 ** 31)), ("--local", local)]
    for i, (option, document) in enumerate(cases):
        path = tmp_path / f"huge{i}.json"
        path.write_text(json.dumps(document))
        r = run_cli("validate", option, str(path))
        assert r.returncode == 2, r.stdout
        assert json.loads(r.stdout)["error"] == "degree_too_large"
        assert r.stderr == ""


def test_singular_sample_point_exits_three():
    r = run_cli("hij", "--form", fx("radial.json"), "--points", "0,0,1")
    assert r.returncode == 3
    assert json.loads(r.stdout)["error"] == "singular_point"


# -- validation and round trips -------------------------------------------------------


def test_validate_all_shipped_fixtures():
    for name in sorted(p.name for p in FIXTURES.glob("*.json")):
        kind = (
            "--map" if name.endswith("_map.json")
            else "--local" if name.startswith("local_")
            else "--form"
        )
        r = run_cli("validate", kind, fx(name))
        assert r.returncode == 0, f"{name}: {r.stdout} {r.stderr}"
        assert json.loads(r.stdout)["valid"] is True


def test_fixture_parse_serialise_fixpoint():
    from webfol.blowup import LocalFoliation
    from webfol.forms import SymForm
    from webfol.projective import ProjMap

    for name in sorted(p.name for p in FIXTURES.glob("*.json")):
        blob = (FIXTURES / name).read_text()
        data = json.loads(blob)
        if name.endswith("_map.json"):
            assert ProjMap.from_json_list(data).to_json_list() == data
        elif name.startswith("local_"):
            assert LocalFoliation.from_json_dict(data).to_json_dict() == data
        else:
            assert SymForm.from_json_dict(data).to_json_dict() == data


def test_singular_map_file_rejected(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(["1", "1", "0", "2", "2", "0", "0", "0", "1"]))
    r = run_cli("validate", "--map", str(path))
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"] == "singular_matrix"


def test_pullback_output_is_a_valid_form_file(tmp_path):
    r = run_cli("pullback", "--form", fx("conic_pencil.json"), "--map", fx("cycle_map.json"))
    assert r.returncode == 0
    out = tmp_path / "pulled.json"
    out.write_text(r.stdout)
    r2 = run_cli("validate", "--form", str(out))
    assert r2.returncode == 0


def test_closure_of_full_symmetry_group():
    r = run_cli(
        "closure",
        "--form", fx("symmetric_pencil.json"),
        "--map", fx("swap_map.json"),
        "--map", fx("cycle_map.json"),
    )
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["order"] == 6
    assert len(doc["elements"]) == 6


def test_determinism_byte_identical_runs():
    for args in (
        ("degree", "--form", fx("example.json")),
        ("hij", "--form", fx("radial.json"), "--points", "1,1,1"),
        ("closure", "--form", fx("conic_pencil.json"), "--map", fx("swap_map.json")),
        ("bounds", "--kf2", "1", "--kfkx", "-3"),
        ("squarefree", "--form", fx("two_web.json")),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


# -- remaining commands ------------------------------------------------------------------


def test_euler_command():
    r = run_cli("euler", "--form", fx("example.json"))
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"zero": True, "k": 0}


def test_integrable_command_exit_codes():
    good = run_cli("integrable", "--form", fx("pencil_p3.json"))
    assert good.returncode == 0 and json.loads(good.stdout)["integrable"] is True
    bad = run_cli("integrable", "--form", fx("contact_p3.json"))
    assert bad.returncode == 1 and json.loads(bad.stdout)["integrable"] is False


def test_lie_with_json_field_file(tmp_path):
    field = [
        {"nvars": 3, "terms": [{"exp": [0, 1, 0], "num": "1", "den": "1"}]},
        {"nvars": 3, "terms": []},
        {"nvars": 3, "terms": []},
    ]
    path = tmp_path / "field.json"
    path.write_text(json.dumps(field))
    r = run_cli("lie", "--form", fx("example.json"), "--field", str(path))
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"lie_derivative": "0", "preserved": True}


def test_lie_preserves_flag_rejects_nonlinear():
    # a constant field does not descend to projective space
    r = run_cli(
        "lie", "--form", fx("radial.json"), "--field", "2 d/dx", "--preserves"
    )
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"] == "input_error"


def test_lie_nonpreserving_field_exits_one():
    r = run_cli("lie", "--form", fx("example.json"), "--field", "x d/dx")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["preserved"] is False
    assert doc["lie_derivative"] != "0"


def test_restrict_far_line_of_radial():
    r = run_cli("restrict", "--form", fx("radial.json"), "--line", "1,0,0;0,1,0")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"degree": 0, "coefficients": ["1"]}


def test_squarefree_default_schedule():
    r = run_cli("squarefree", "--form", fx("two_web.json"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["all_squarefree"] is True
    assert doc["points"] == [["1", "2", "3"], ["2", "3", "5"], ["3", "5", "7"]]


def test_squarefree_false_exits_one():
    r = run_cli("squarefree", "--form", fx("double_pencil.json"))
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["all_squarefree"] is False
    assert doc["results"] == [False, False, False]


def test_hij_text_format():
    r = run_cli("hij", "--form", fx("radial.json"), "--points", "1,1,1", "--format", "text")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "ring Q[a00,a01,a02,a10,a11,a12,a20,a21,a22]"
    assert sum(1 for line in lines if line.startswith("gen ")) == 3


def test_blowup_command():
    r = run_cli("blowup", "--local", fx("local_radial.json"))
    doc = json.loads(r.stdout)
    assert doc["l"] == 2 and doc["dicritical"] is True
    r2 = run_cli("blowup", "--local", fx("local_saddle.json"))
    doc2 = json.loads(r2.stdout)
    assert doc2["l"] == 1 and doc2["dicritical"] is False


def test_ktransform_command():
    r = run_cli("ktransform", "--kf2", "1", "--kfkx", "-3", "--l", "1")
    assert json.loads(r.stdout) == {
        "kf2": 1,
        "kfkx": -3,
        "l": 1,
        "new_kf2": 1,
        "new_kfkx": -3,
        "new_kf2_positive": True,
    }


def test_reduced_command_exit_codes():
    good = run_cli("reduced", "--matrix", "1,0;0,-1")
    assert good.returncode == 0 and json.loads(good.stdout) == {"reduced": True}
    bad = run_cli("reduced", "--matrix", "1,0;0,1")
    assert bad.returncode == 1
    doc = json.loads(bad.stdout)
    assert doc["reason"] == "positive rational quotient" and doc["quotient"] == "1"
    nil = run_cli("reduced", "--matrix", "0,1;0,0")
    assert nil.returncode == 1
    assert json.loads(nil.stdout)["reason"] == "both eigenvalues zero"


def test_reduced_from_local_file():
    r = run_cli("reduced", "--local", fx("local_saddle.json"))
    assert r.returncode == 0 and json.loads(r.stdout) == {"reduced": True}


def test_web_bound_mode():
    r = run_cli("bounds", "--d", "2", "--k", "1", "--n", "2")
    assert json.loads(r.stdout) == {
        "d": 2,
        "k": 1,
        "N": 2,
        "bound": "65536",
        "digit_count": 5,
    }


def test_bounds_multiple_pairs_and_table():
    r = run_cli("bounds", "--kf2", "1", "--kfkx", "-3", "--kf2", "1", "--kfkx", "-4")
    docs = json.loads(r.stdout)
    assert isinstance(docs, list) and len(docs) == 2
    assert docs[0]["m"] == 7 and docs[1]["m"] == 4
    t = run_cli("--table", "bounds", "--kf2", "1", "--kfkx", "-3", "--kf2", "1", "--kfkx", "-4")
    assert t.returncode == 0
    lines = t.stdout.splitlines()
    assert lines[0].split()[:2] == ["kf2", "kfkx"]
    assert len(lines) == 3


def test_duality_command():
    r = run_cli("duality", "--values", "1,2")
    assert json.loads(r.stdout) == {"N": 2, "values": ["1", "2"], "dual": ["2", "1"]}


def test_bounds_guard_exits_three():
    r = run_cli("bounds", "--kf2", "2", "--kfkx", "0")
    assert r.returncode == 3
    assert json.loads(r.stdout)["error"] == "computation_error"


def test_web_bound_guard_exits_three():
    # 1002^2253000: refused from its size estimate before the power is formed.
    r = run_cli("bounds", "--d", "1000", "--k", "1", "--n", "1500")
    assert r.returncode == 3
    assert json.loads(r.stdout) == {
        "error": "computation_error",
        "message": "the exact bound 1002^2253000 has roughly 6782206 decimal digits, "
        "past the practical cap of 5000000; use the base/exponent decomposition instead",
    }


def test_lie_malformed_inline_field_exits_two():
    r = run_cli("lie", "--form", fx("example.json"), "--field", "[1,2")
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stdout)["error"] == "input_error"


def test_duality_non_integer_value_exits_two():
    r = run_cli("duality", "--values", "1,a")
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stdout)["error"] == "input_error"


def test_preserves_map_file_that_is_not_a_list_exits_two(tmp_path):
    bad = tmp_path / "five.json"
    bad.write_text("5")
    r = run_cli("preserves", "--form", fx("example.json"), "--map", str(bad))
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stdout)["error"] == "input_error"


@pytest.mark.parametrize(
    "old, new",
    [
        ('"N": 2', '"N": 1e400'),
        ('"k": 1', '"k": 1e400'),
        ('"exp": [0, 1, 0]', '"exp": [0, 1e400, 0]'),
        ('"num": "-1"', '"num": 1e400'),
        ('"den": "1"', '"den": 1e400'),
    ],
)
def test_overflowing_json_number_in_a_form_exits_two(tmp_path, old, new):
    # The JSON reader turns 1e400 into float infinity, which int() refuses.
    text = json.dumps(json.loads((FIXTURES / "radial.json").read_text()))
    assert old in text
    path = tmp_path / "huge.json"
    path.write_text(text.replace(old, new, 1))
    r = run_cli("validate", "--form", str(path))
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stdout)["error"] == "input_error"
    assert "Traceback" not in r.stderr


def test_overflowing_json_number_in_an_inline_field_exits_two():
    field = json.dumps([{"nvars": 3, "terms": []}] * 3).replace("3", "1e400", 1)
    r = run_cli("lie", "--form", fx("radial.json"), "--field", field)
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stdout)["error"] == "input_error"
    assert "Traceback" not in r.stderr


def test_values_with_a_leading_minus_sign_need_no_equals_sign():
    for args in (
        ("restrict", "--form", fx("example.json"), "--line", "-1,0,1;0,1,1"),
        ("reduced", "--matrix", "-1,0;0,2"),
        ("squarefree", "--form", fx("example.json"), "--points", "-1,2,3;-2,1,5"),
    ):
        spaced = run_cli(*args)
        joined = run_cli(*args[:-2], f"{args[-2]}={args[-1]}")
        assert spaced.returncode == joined.returncode == 0, spaced.stderr
        assert spaced.stdout == joined.stdout


def test_closure_of_an_infinite_order_generator_exits_three(capsys):
    # Ran without bound (minutes, a gigabyte) before the infinite-order test.
    from webfol import cli

    code = cli.main(
        ["closure", "--form", fx("conic_pencil.json"), "--map", fx("dilation_map.json")]
    )
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "cap_exceeded"
    assert "infinite order" in doc["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("hij", "--form", "radial.json", "--count", "abc"),
        ("closure", "--form", "radial.json", "--map", "swap_map.json", "--cap", "abc"),
        ("bounds", "--kf2", "abc", "--kfkx", "0"),
        ("bounds", "--kf2", "1", "--kfkx", "abc"),
        ("ktransform", "--kf2", "1", "--kfkx", "0", "--l", "abc"),
        ("bounds", "--d", "abc", "--k", "1", "--n", "2"),
        ("bounds", "--d", "2", "--k", "abc", "--n", "2"),
        ("bounds", "--d", "2", "--k", "1", "--n", "abc"),
    ],
    ids=lambda argv: argv[-2],
)
def test_a_non_integer_option_value_is_an_input_error(capsys, argv):
    # argparse's own refusal printed usage text to stderr and nothing to stdout.
    from webfol import cli

    argv = [fx(a) if a.endswith(".json") else a for a in argv]
    message = f"{argv[argv.index('abc') - 1]}: bad integer 'abc'"
    assert cli.main(argv) == 2
    out = capsys.readouterr().out
    assert json.loads(out) == {"error": "input_error", "message": message}
    assert cli.main(["--table", *argv]) == 2
    assert capsys.readouterr().out == f"error: input_error\nmessage: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("degree",), "the following arguments are required: --form"),
        (("closure", "--form", "radial.json"), "the following arguments are required: --map"),
        ((), "the following arguments are required: command"),
        (("nocommand",), "argument command: invalid choice: 'nocommand'"),
        (("hij", "--form", "radial.json", "--format", "xml"), "argument --format: invalid choice: 'xml'"),
    ],
    ids=["missing-option", "missing-repeatable-option", "missing-command", "unknown-command", "bad-format"],
)
def test_a_refused_command_line_is_an_input_error_document(capsys, argv, message):
    # argparse's own refusal printed usage text to stderr and nothing to stdout.
    from webfol import cli

    argv = [fx(a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["error"] == "input_error" and doc["message"].startswith(message)
    assert captured.err == ""
    assert cli.main(["--table", *argv]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"error: input_error\nmessage: {message}") and out.endswith("\n")


def test_help_still_exits_zero_in_process(capsys):
    from webfol import cli

    for argv in (["--help"], ["hij", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fol")


def test_help_lists_all_commands():
    r = run_cli("--help")
    assert r.returncode == 0
    for command in (
        "validate", "degree", "euler", "integrable", "lie", "preserves",
        "pullback", "restrict", "squarefree", "hij", "closure", "blowup",
        "ktransform", "reduced", "bounds", "duality",
    ):
        assert command in r.stdout


def test_a_map_file_holding_a_string_is_an_input_error(tmp_path):
    # A str is a sequence, so "1234" read as the matrix [[1, 2], [3, 4]].
    bad = tmp_path / "string.json"
    bad.write_text('"1234"')
    for args in (("validate", "--map", str(bad)), ("preserves", "--form", fx("example.json"), "--map", str(bad))):
        r = run_cli(*args)
        assert r.returncode == 2, r.stderr
        doc = json.loads(r.stdout)
        assert doc["error"] == "input_error" and "not str" in doc["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("squarefree", "--form", "example.json", "--count", "-3"),
        ("squarefree", "--form", "example.json", "--count", "0"),
        ("hij", "--form", "radial.json", "--count", "-1"),
        ("squarefree", "--form", "example.json", "--points", ";"),
        ("hij", "--form", "radial.json", "--points", ""),
    ],
    ids=["squarefree-count-negative", "squarefree-count-zero", "hij-count", "squarefree-points", "hij-points"],
)
def test_an_empty_point_set_is_an_input_error(capsys, argv):
    # "all_squarefree": true over no point, and an empty system, exited 0.
    from webfol import cli

    argv = [fx(a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "input_error"
    assert cli.main([*argv[:-2], "--count", "1"]) in (0, 1)
    capsys.readouterr()


# -- numbers from outside: one reader, one budget ----------------------------------


@pytest.mark.parametrize(
    "old, new",
    [
        ('"num": "-1"', '"num": -0.5'),
        ('"N": 2', '"N": 2.9'),
        ('"k": 1', '"k": true'),
        ('"num": "-1"', '"num": "-1e0"'),
        ('"num": "-1"', '"num": " -1"'),
        ('"num": "-1"', '"num": "+1"'),
        ('"den": "1"', '"den": "1_0"'),
        ('"num": "-1"', '"num": ' + "9" * 5000),
        ('"num": "-1"', '"num": "' + "9" * 5000 + '"'),
    ],
    ids=["float-num", "float-N", "true-k", "exponent", "space", "plus", "underscore",
         "5000-digit-literal", "5000-digit-string"],
)
def test_a_number_outside_the_printed_spellings_is_an_input_error(tmp_path, capsys, old, new):
    # int() read -0.5 as 0 (the form then failed euler_contraction_nonzero),
    # 2.9 as 2 (valid, exit 0) and true as 1; json.loads raised a plain
    # ValueError on the 5000-digit literal.
    from webfol import cli

    text = json.dumps(json.loads((FIXTURES / "radial.json").read_text()))
    assert old in text
    path = tmp_path / "form.json"
    path.write_text(text.replace(old, new, 1))
    assert cli.main(["validate", "--form", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "input_error" and "bad integer" in doc["message"]
    assert len(doc["message"]) < len(str(path)) + 60


@pytest.mark.parametrize(
    "argv",
    [
        ("reduced", "--matrix", "1e300000,0;0,1"),
        ("reduced", "--matrix", "1/2,0;0,0.5"),
        ("lie", "--form", "radial.json", "--field", "1/0 d/dx"),
        ("lie", "--form", "radial.json", "--field", "x" * 5000 + " d/dx"),
        ("lie", "--form", "radial.json", "--field", "x" + "1" * 5000 + " d/dx"),
        ("squarefree", "--form", "example.json", "--points", "1/0,1,1"),
        ("restrict", "--form", "example.json", "--line", "1.5,0,1;0,1,1"),
        ("bounds", "--kf2", "1.0", "--kfkx", "0"),
        ("bounds", "--kf2", "9" * 4301, "--kfkx", "0"),
        ("duality", "--values", "1,2.0"),
        ("hij", "--form", "radial.json", "--count", "1e3"),
    ],
    ids=["matrix-exponent", "matrix-decimal", "field-zero-denominator", "field-long-shorthand",
         "field-long-index", "points-zero-denominator", "line-decimal", "kf2-decimal",
         "kf2-past-the-budget", "values-decimal", "count-exponent"],
)
def test_an_option_number_outside_the_printed_spellings_is_an_input_error(capsys, argv):
    # 1e300000 ran 9.4 s, then raised ValueError; 1/0 raised ZeroDivisionError;
    # the long shorthand raised OSError from Path.is_file.
    from webfol import cli

    argv = [fx(a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "input_error"


def test_exact_answers_past_the_int_string_limit_print(capsys):
    # Both exited 1 with a ValueError from str() of an answer past 4,300 digits.
    from webfol import cli
    from webfol.forms import SymForm
    from webfol.poly import unlimited_digits
    from webfol.projective import ProjMap, invariance_system

    limit = sys.get_int_max_str_digits()
    nines = "9" * 3000
    l = 10 ** 3000 - 1
    assert cli.main(["ktransform", "--kf2", "1", "--kfkx", "0", "--l", nines]) == 0
    out = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit
    with unlimited_digits():
        assert json.loads(out) == {
            "kf2": 1, "kfkx": 0, "l": l,
            "new_kf2": 1 - (1 - l) ** 2, "new_kfkx": l - 1, "new_kf2_positive": False,
        }
    assert cli.main(["hij", "--form", fx("radial.json"), "--points", f"{nines},1,1"]) == 0
    out = capsys.readouterr().out
    form = SymForm.from_json_dict(json.loads((FIXTURES / "radial.json").read_text()))
    system = invariance_system(form, [(l, 1, 1)])
    assert not any(system.evaluate_at_matrix(ProjMap.identity(3)))
    with unlimited_digits():
        assert out == json.dumps(system.to_json_dict()) + "\n"
        assert json.loads(out)["sample_points"] == [[nines, "1", "1"]]


def test_the_digit_budget_is_the_same_under_any_interpreter_limit(tmp_path):
    # Under PYTHONINTMAXSTRDIGITS=640 a 1,000-digit map entry was refused and
    # a 1,000-digit --l raised ValueError, while both ran under the default.
    big = "7" * 1000
    path = tmp_path / "map.json"
    path.write_text(json.dumps([big, "0", "0", "0", "1", "0", "0", "0", "1"]))
    commands = (
        ("validate", "--map", str(path)),
        ("ktransform", "--kf2", "1", "--kfkx", "0", "--l", big),
        ("bounds", "--d", big, "--k", "1", "--n", "2"),
    )
    for args in commands:
        runs = []
        for env in ({}, {"PYTHONINTMAXSTRDIGITS": "640"}):
            r = subprocess.run(
                [sys.executable, "-m", "webfol.cli", *args],
                cwd=str(REPO), text=True, capture_output=True,
                env={**os.environ, **env},
            )
            runs.append((r.returncode, r.stdout, r.stderr))
        assert runs[0] == runs[1], args
        assert runs[0][0] == 0 and runs[0][2] == ""


def test_a_file_that_is_not_text_is_an_input_error(tmp_path, capsys):
    # Path.read_text raised UnicodeDecodeError, which is not an OSError.
    from webfol import cli

    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00[")
    assert cli.main(["validate", "--form", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "input_error" and doc["message"].startswith(f"cannot read {path}")
