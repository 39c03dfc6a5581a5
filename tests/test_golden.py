"""Golden stdout: every command below must keep its exit code and stdout bytes.

``golden_stdout.json`` maps each command (fixture names relative to
``fixtures/``) to ``[exit code, sha256 of stdout]``.  Run this file as a
script to check the commands without pytest, or with ``--write`` to record
them afresh (only on a commit whose output is the reference):

    PYTHONPATH=src python tests/test_golden.py [--write]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from webfol import cli

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
GOLDEN = Path(__file__).with_name("golden_stdout.json")

FORM_COMMANDS = (
    ("validate",),
    ("degree",),
    ("euler",),
    ("integrable",),
    ("lie", "--field", "y d/dx"),
    ("lie", "--field", "x d/dx - y d/dy + 2 z d/dz"),
    ("squarefree",),
    ("hij",),
    ("hij", "--format", "text"),
)
MAP_COMMANDS = ("preserves", "pullback", "closure")
LOCAL_COMMANDS = (("validate", "--local"), ("blowup", "--local"), ("reduced", "--local"))
# Lines through two points given per ambient dimension (coordinates N+1).
LINES = {3: "1,0,1;0,1,1", 4: "1,0,1,2;0,1,1,3"}


def _kinds():
    forms, maps, locals_ = [], [], []
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, list):
            maps.append((path.name, data))
        elif "N" in data:
            forms.append((path.name, data))
        else:
            locals_.append(path.name)
    return forms, maps, locals_


def golden_commands() -> list[tuple[str, ...]]:
    """Commands with fixture file names in place of paths."""
    forms, maps, locals_ = _kinds()
    commands: list[tuple[str, ...]] = []
    for name, data in forms:
        for head, *rest in FORM_COMMANDS:
            commands.append((head, "--form", name, *rest))
        commands.append(("restrict", "--form", name, "--line", LINES[data["N"] + 1]))
    for map_name, entries in maps:
        for form_name, data in forms:
            if (data["N"] + 1) ** 2 != len(entries):
                continue
            for command in MAP_COMMANDS:
                # The dilation generates an infinite group: closure refuses it
                # now but ran without bound before, so it has no golden value.
                if command == "closure" and map_name == "dilation_map.json":
                    continue
                commands.append((command, "--form", form_name, "--map", map_name))
    for name in locals_:
        for head, option in LOCAL_COMMANDS:
            commands.append((head, option, name))
    return commands


def run_command(command: tuple[str, ...]) -> list:
    """Run one command in-process: [exit code, sha256 of its stdout]."""
    argv = [str(FIXTURES / token) if token.endswith(".json") else token for token in command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def key(command: tuple[str, ...]) -> str:
    return " ".join(command)


def test_golden_stdout():
    golden = json.loads(GOLDEN.read_text())
    commands = golden_commands()
    assert sorted(golden) == sorted(key(c) for c in commands)
    mismatches = [key(c) for c in commands if run_command(c) != golden[key(c)]]
    assert mismatches == []


if __name__ == "__main__":
    commands = golden_commands()
    if sys.argv[1:] == ["--write"]:
        table = {key(c): run_command(c) for c in commands}
        GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} commands to {GOLDEN.name}")
    else:
        golden = json.loads(GOLDEN.read_text())
        bad = [key(c) for c in commands if run_command(c) != golden.get(key(c))]
        for line in bad:
            print("MISMATCH", line)
        print(f"{len(commands) - len(bad)} of {len(commands)} commands match")
        sys.exit(1 if bad else 0)
