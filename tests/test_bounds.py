import math
import random
import sys
from fractions import Fraction

import pytest

from webfol.bounds import (
    CharNumbers,
    check_report_size,
    decimal_digit_count,
    duality_transform,
    foliation_aut_bound,
    int_to_decimal,
    pluricanonical_multiple,
    power_digit_count,
    power_to_decimal,
    section_bound,
    tangency_numbers,
    very_ampleness_threshold,
    web_aut_bound,
    web_bound_parts,
)
from webfol.errors import ComputationError, InputError


def rendered_length(value: int) -> int:
    """len(str(value)), with the interpreter's int-to-str digit limit lifted."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return len(str(value))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# -- web bound -------------------------------------------------------------------


def test_web_aut_bound_values():
    assert web_aut_bound(2, 1, 2) == 65536
    assert web_aut_bound(0, 1, 2) == 256
    assert web_aut_bound(1, 2, 2) == 5 ** 8 == 390625


def test_web_bound_specialises_to_plane_foliations():
    for d in range(2, 11):
        assert web_aut_bound(d, 1, 2) == (d + 2) ** 8


def test_web_bound_domain():
    for bad in ((-1, 1, 2), (0, 0, 2), (0, 1, 1)):
        with pytest.raises(InputError):
            web_aut_bound(*bad)


def test_web_bound_parts():
    assert web_bound_parts(2, 1, 2) == (4, 8)
    assert web_bound_parts(1000, 1, 1500) == (1002, 1501 ** 2 - 1)
    with pytest.raises(InputError):
        web_bound_parts(0, 0, 2)


def test_report_size_cap():
    check_report_size(2408, 617795)  # 2,089,171 digits: under the cap
    # 1002^2253000 has about 6.8 million digits, past the 5,000,000 cap.
    with pytest.raises(ComputationError, match=r"^the exact bound 1002\^2253000 has roughly"):
        check_report_size(1002, 2253000)


def test_web_bound_monotonicity():
    for d in range(0, 5):
        for k in range(1, 4):
            for n in range(2, 5):
                here = web_aut_bound(d, k, n)
                assert web_aut_bound(d + 1, k, n) > here
                assert web_aut_bound(d, k + 1, n) > here
                assert web_aut_bound(d, k, n + 1) > here


# -- ingredients of the main bound ---------------------------------------------------


def test_pluricanonical_multiple_values():
    assert pluricanonical_multiple(1, -3) == 7
    assert pluricanonical_multiple(2, 0) == 87
    assert pluricanonical_multiple(1, 0) == 28
    with pytest.raises(InputError):
        pluricanonical_multiple(0, 5)


def test_very_ampleness_threshold_values():
    k0, least = very_ampleness_threshold(1, -3)
    assert k0 == Fraction(7, 2) and least == 4
    k0, least = very_ampleness_threshold(1, 0)
    assert k0 == 14 and least == 15  # integral threshold: strictly above
    with pytest.raises(InputError):
        very_ampleness_threshold(0, 1)


def test_multiple_clears_threshold_on_grid():
    for kf2 in range(1, 6):
        for kfkx in range(-10, 11):
            m = pluricanonical_multiple(kf2, kfkx)
            k0, _ = very_ampleness_threshold(kf2, kfkx)
            assert m > k0


def test_section_bound_values():
    assert section_bound(7, 1) == 51
    assert section_bound(1, 1) == 3
    assert section_bound(87, 2) == 15140
    with pytest.raises(InputError):
        section_bound(0, 1)


def test_tangency_numbers_values():
    assert tangency_numbers(7, 1) == (49, 56)
    assert tangency_numbers(1, 1) == (1, 2)
    assert tangency_numbers(2, 3) == (12, 18)


def test_base_identity_on_grid():
    for m in range(1, 12):
        for kf2 in range(1, 5):
            d_n2, d_n1 = tangency_numbers(m, kf2)
            assert d_n2 + 2 * d_n1 == (3 * m * m + 2 * m) * kf2


# -- the main bound ----------------------------------------------------------------


def test_main_bound_smallest_case():
    report = foliation_aut_bound(1, -3)
    assert report.m == 7
    assert report.h0_cap == 51
    assert report.n_cap == 50
    assert (report.d_n2, report.d_n1) == (49, 56)
    assert report.base == 161
    assert report.exponent == 2600
    assert report.digit_count == 5738
    # independent big-integer oracle: plain repeated multiplication
    value = 1
    for _ in range(2600):
        value *= 161
    assert report.final_bound == value
    assert len(int_to_decimal(report.final_bound)) == 5738


def test_main_bound_larger_case_digit_count():
    report = foliation_aut_bound(1, 0)
    assert report.m == 28
    assert report.base == 2408
    assert report.exponent == 617795
    assert report.digit_count == math.ceil(617795 * math.log10(2408)) == 2089171
    # exact cross-check without rendering the decimal
    assert 10 ** (report.digit_count - 1) <= report.final_bound < 10 ** report.digit_count


def test_main_bound_decomposition_recomputed():
    for kf2, kfkx in ((1, -3), (1, -4), (1, -5), (1, -2)):
        report = foliation_aut_bound(kf2, kfkx)
        m = pluricanonical_multiple(kf2, kfkx)
        assert report.base == (3 * m * m + 2 * m) * kf2
        assert report.exponent == (m * m * kf2 + 2) ** 2 - 1
        assert report.final_bound == report.base ** report.exponent


def test_main_bound_refuses_absurd_materialisation():
    # (2, 0) gives m = 87 and an exponent past 2*10^8: around a billion
    # digits.  The decomposition stays available; the report refuses.
    with pytest.raises(ComputationError) as info:
        foliation_aut_bound(2, 0)
    assert str(info.value) == (
        "the exact bound 45762^229219599 has roughly 1104031599 decimal digits, "
        "past the practical cap of 5000000; use the base/exponent decomposition instead"
    )


def test_final_bound_is_formed_on_first_access():
    report = foliation_aut_bound(1, 0)
    assert report.digit_count == 2089171
    assert "final_bound" not in vars(report)
    small = foliation_aut_bound(1, -3)
    assert "final_bound" not in vars(small)
    assert small.final_bound == 161 ** 2600
    assert vars(small)["final_bound"] is small.final_bound


def test_main_bound_domain():
    with pytest.raises(InputError):
        foliation_aut_bound(0, 0)
    with pytest.raises(InputError):
        foliation_aut_bound(-2, 1)


def test_report_json_hides_decimal_by_default():
    report = foliation_aut_bound(1, -3)
    doc = report.to_json_dict()
    assert "final_bound" not in doc
    full = report.to_json_dict(full_digits=True)
    assert len(full["final_bound"]) == 5738
    assert full["final_bound"].endswith("1")  # 161^2600 ends in 1


# -- digit counting -----------------------------------------------------------------


def test_power_to_decimal_matches_the_int_rendering_on_seeded_pairs():
    rng = random.Random(2026)
    pairs = [(10, 3), (20, 5), (10, 25), (161, 2600), (3, 12000), (2408, 1), (7, 0)]
    for digits in (10, 300, 5_000, 40_000, 100_000):
        for base in (rng.randint(2, 9), rng.randint(11, 10**6), 10 * rng.randint(1, 500)):
            pairs.append((base, max(1, round(digits / math.log10(base)))))
    for base, exponent in pairs:
        assert power_to_decimal(base, exponent) == int_to_decimal(base ** exponent), (base, exponent)
    assert len(power_to_decimal(2408, 617795)) == 2089171


def test_decimal_digit_count_boundaries():
    assert decimal_digit_count(0) == 1
    assert decimal_digit_count(1) == 1
    assert decimal_digit_count(9) == 1
    assert decimal_digit_count(10) == 2
    assert decimal_digit_count(99) == 2
    assert decimal_digit_count(10 ** 100) == 101
    assert decimal_digit_count(10 ** 100 - 1) == 100
    assert decimal_digit_count(-1234) == 4


def test_digit_count_matches_rendering():
    for value in (7, 161 ** 26, 2 ** 333, 10 ** 50 + 1):
        assert decimal_digit_count(value) == len(str(value))


def test_power_digit_count_matches_rendering_on_seeded_pairs():
    rng = random.Random(20261018)
    for _ in range(60):
        base = rng.randint(2, 10 ** rng.randint(1, 40))
        digits = 10 ** rng.uniform(0, 5)  # at most ~10^5 digits
        exponent = int(digits / math.log10(base))
        assert power_digit_count(base, exponent) == rendered_length(base ** exponent), (
            base,
            exponent,
        )


def test_power_digit_count_on_powers_of_ten():
    # log10 of the base is an integer, so every count takes the exact fallback.
    for base, zeros in ((10, 1), (100, 2), (1000, 3)):
        for exponent in (0, 1, 2, 7, 999, 12345):
            assert power_digit_count(base, exponent) == zeros * exponent + 1


def test_power_digit_count_next_to_powers_of_ten():
    # Within 1e-20 of an integer, but on either side of it.
    assert power_digit_count(10 ** 30 + 1, 1) == 31
    assert power_digit_count(10 ** 30 - 1, 1) == 30
    assert power_digit_count(10 ** 30 - 1, 3) == rendered_length((10 ** 30 - 1) ** 3) == 90
    assert power_digit_count(10 ** 25 + 7, 2) == rendered_length((10 ** 25 + 7) ** 2) == 51


def test_power_digit_count_degenerate_cases():
    assert power_digit_count(1, 0) == 1
    assert power_digit_count(1, 10 ** 12) == 1
    assert power_digit_count(0, 5) == 1
    assert power_digit_count(7, 0) == 1
    assert power_digit_count(-10, 3) == 4
    with pytest.raises(ValueError):
        power_digit_count(2, -1)


def test_power_digit_count_of_two_across_decades():
    # 2^e crosses into a new decade at e = 4, 7, 10, 14, ...; check every
    # exponent on both sides of each crossing up to 2^4000.
    for exponent in range(4001):
        assert power_digit_count(2, exponent) == rendered_length(2 ** exponent)


# -- characteristic numbers -----------------------------------------------------------


def test_duality_reverses_web_invariants():
    numbers = CharNumbers.for_web(k=1, degree=2, N=2)
    dual = duality_transform(numbers)
    assert dual.values == (2, 1)


def test_duality_is_an_involution():
    import random

    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 7)
        values = tuple(rng.randint(0, 99) for _ in range(n))
        numbers = CharNumbers(values=values, N=n)
        assert duality_transform(duality_transform(numbers)) == numbers


def test_duality_sends_embedded_tangencies_to_web_invariants():
    # for the embedded pair: positions N-2 and N-1 land at 1 and 0
    d_n2, d_n1 = tangency_numbers(7, 1)
    values = tuple([0] * 48 + [d_n2, d_n1])
    numbers = CharNumbers(values=values, N=50)
    dual = duality_transform(numbers)
    assert dual.values[0] == d_n1  # the dual multidegree
    assert dual.values[1] == d_n2  # the dual web degree


def test_char_numbers_validation():
    with pytest.raises(InputError):
        CharNumbers(values=(1, 2, 3), N=2)
    with pytest.raises(InputError):
        CharNumbers(values=(-1,), N=1)
