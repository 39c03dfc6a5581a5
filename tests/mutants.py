"""Mutation checks for the sound fast paths and the number readers of webfol.

Each mutant is one exact edit of one source file.  The script copies src/ to
a temporary directory, applies the edit there (the old text must occur
exactly once), and runs the mutant's tests against the copy with pytest,
under a timeout of TIMEOUT seconds per run.  The tests must fail, or run
out of time, for the mutant to count as killed.  Before each mutant, the same
tests run once against an unedited copy and must pass, so a kill is the
edit's doing.

    python tests/mutants.py

The exit code is 0 when every mutant is killed and 1 otherwise.
The script itself needs only the standard library; the tests need pytest
and hypothesis.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
POLY_TESTS = "tests/test_poly.py::"
FORMS_TESTS = "tests/test_forms.py::"
PROJECTIVE_TESTS = "tests/test_projective.py::"
CLI_TESTS = "tests/test_cli.py::"

# Seconds allowed for one pytest run (unedited or mutated).
TIMEOUT = 300.0


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "guard bits dropped from the divisibility test",
        "webfol/poly.py",
        "return ((r | guards) - d) & guards == guards",
        "return (r - d) & guards == guards",
        (
            POLY_TESTS + "test_the_guard_bit_test_is_componentwise_comparison",
            POLY_TESTS + "test_try_divide",
        ),
    ),
    Mutant(
        "ceiling check dropped in __mul__",
        "webfol/poly.py",
        "        _check_degree((max(self._terms) >> top) + (max(other._terms) >> top))\n",
        "",
        (POLY_TESTS + "test_degrees_at_the_ceiling_are_refused_before_any_product",),
    ),
    Mutant(
        "partial does not decrement the degree field",
        "webfol/poly.py",
        "step = 1 << shift | 1 << (self.nvars * _W)",
        "step = 1 << shift",
        (POLY_TESTS + "test_representation_is_content_times_primitive_ints",),
    ),
    Mutant(
        "parity mask of _relabel moved by one field",
        "webfol/poly.py",
        "parity = sum(1 << (i * _W) for",
        "parity = sum(1 << ((i + 1) * _W) for",
        (POLY_TESTS + "test_relabel_is_the_signed_permutation_substitution",),
    ),
    Mutant(
        "_gcd_degree_bounds one too low",
        "webfol/poly.py",
        "bounds.append(len(gcd) - 1)",
        "bounds.append(len(gcd) - 2)",
        (POLY_TESTS + "test_degree_bounds_bound_the_gcd_and_see_a_planted_factor",),
    ),
    Mutant(
        "kept check dropped from _gcd_degree_bounds",
        "webfol/poly.py",
        "        if not kept:\n            return None\n",
        "",
        (POLY_TESTS + "test_certificate_falls_through_when_a_leading_coefficient_vanishes",),
    ),
    Mutant(
        "trial division dropped from the modular GCD",
        "webfol/poly.py",
        "if all(_quotient(f, candidate, guards) is not None for f in family):",
        "if True:",
        (POLY_TESTS + "test_a_stable_candidate_from_unlucky_primes_is_refused",),
    ),
    Mutant(
        "CRT stopping one prime early",
        "webfol/poly.py",
        "complete = modulus > bound",
        "complete = modulus * _PRIME > bound",
        (POLY_TESTS + "test_the_crt_runs_to_the_coefficient_bound",),
    ),
    Mutant(
        "larger-leading-monomial check dropped at the points",
        "webfol/poly.py",
        "        image = _gcd_mod([f for f in images if f], m - 1, p)\n"
        "        new = max(image)\n"
        "        if ceiling is not None and new >= ceiling or lead is not None and new > lead:\n",
        "        image = _gcd_mod([f for f in images if f], m - 1, p)\n"
        "        new = max(image)\n"
        "        if ceiling is not None and new >= ceiling:\n",
        (POLY_TESTS + "test_unlucky_evaluation_points_are_dropped",),
    ),
    Mutant(
        "larger-leading-monomial check dropped at the primes",
        "webfol/poly.py",
        "        image = _gcd_mod([f for f in images if f], n, p)\n"
        "        new = max(image)\n"
        "        if ceiling is not None and new >= ceiling or lead is not None and new > lead:\n",
        "        image = _gcd_mod([f for f in images if f], n, p)\n"
        "        new = max(image)\n"
        "        if ceiling is not None and new >= ceiling:\n",
        (POLY_TESTS + "test_an_unlucky_prime_is_dropped",),
    ),
    Mutant(
        "ring check dropped from _ratio",
        "webfol/poly.py",
        "    if p.nvars != q.nvars:\n        return None\n    if not p._terms:",
        "    if not p._terms:",
        (POLY_TESTS + "test_split_and_join_are_inverse",),
    ),
    Mutant(
        "negation branch dropped from _ratio",
        "webfol/poly.py",
        "    if p._terms == _negated(q._terms):\n        return -p._c / q._c\n",
        "",
        (FORMS_TESTS + "test_proportionality_constant_edge_cases",),
    ),
    Mutant(
        "_certainly_infinite_order always False",
        "webfol/projective.py",
        "    if _signed_permutation(g._m):\n        return False\n",
        "    return False\n",
        (PROJECTIVE_TESTS + "test_closure_refuses_finite_generators_of_an_infinite_group",),
    ),
    Mutant(
        "_relabel keeping every sign",
        "webfol/poly.py",
        "        -v if (k & parity).bit_count() & 1 else v\n",
        "        v\n",
        (POLY_TESTS + "test_relabel_is_the_signed_permutation_substitution",),
    ),
    Mutant(
        "F_p trial division dropped from the modular GCD",
        "webfol/poly.py",
        "if all(_quotient(f, candidate, guards, p) is not None for f in family):",
        "if True:",
        (POLY_TESTS + "test_an_interpolant_that_stops_early_is_refused_by_trial_division_mod_p",),
    ),
    Mutant(
        "float and bool refusal dropped from read_int",
        "webfol/poly.py",
        "    if type(value) is int:  # not bool\n        return value\n",
        "    if isinstance(value, (int, float)):\n        return int(value)\n",
        (
            POLY_TESTS + "test_read_int_accepts_exactly_the_printed_spellings",
            CLI_TESTS + "test_a_number_outside_the_printed_spellings_is_an_input_error",
        ),
    ),
    Mutant(
        "digit budget dropped from read_int",
        "webfol/poly.py",
        "if not (len(digits) <= MAX_DIGITS and digits.isascii()",
        "if not (digits.isascii()",
        (
            POLY_TESTS + "test_read_int_accepts_exactly_the_printed_spellings",
            CLI_TESTS + "test_an_option_number_outside_the_printed_spellings_is_an_input_error",
        ),
    ),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> str:
    """'passed', 'failed' or 'timeout' for the tests against the package in src."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            command, cwd=REPO, env=env, capture_output=True, text=True, timeout=TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def check(mutant: Mutant) -> tuple[bool, str]:
    """(killed, outcome) of one mutant, from a fresh copy of src/."""
    with tempfile.TemporaryDirectory(prefix="webfol-mutant-") as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(REPO / "src", src)
        baseline = run_tests(src, mutant.tests)
        if baseline != "passed":
            return False, f"the unedited tests {baseline}"
        target = src / mutant.path
        text = target.read_text()
        count = text.count(mutant.old)
        if count != 1:
            return False, f"edit does not apply: old text occurs {count} times"
        target.write_text(text.replace(mutant.old, mutant.new))
        outcome = run_tests(src, mutant.tests)
        return outcome != "passed", outcome


def main() -> int:
    survivors = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        began = time.perf_counter()
        killed, outcome = check(mutant)
        survivors += not killed
        status = "killed" if killed else "SURVIVED"
        print(f"{status:8s} {time.perf_counter() - began:6.1f} s  {mutant.name} ({outcome})")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
