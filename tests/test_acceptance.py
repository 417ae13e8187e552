"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The exhaustive checks live in the verify suites; each criterion runs the
suites that hold its checks, at bounds covering every (k, n) it names, and
compares against the paper's frozen values.  Every count is exact (big
integers), every constant check is an exact rational comparison; there are
no floating-point tolerances anywhere.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
from fractions import Fraction

from palcensus.census import Family, ProfileKind, census_family, list_profile
from palcensus.constants import (
    _functional_enclosure,
    closed_form_report,
    density_series_enclosure,
    pal_free_density,
    square_prefix_densities,
    unbordered_density,
)
from palcensus.maps import milk_shuffle, milk_shuffle_order
from palcensus.recurrences import family_counts, min_square_counts
from palcensus.verify import run_suites
from palcensus.words import format_word

T2 = [2, 4, 4, 8, 12, 24, 40, 80, 148, 296, 568, 1136]
U2 = [2, 2, 4, 6, 12, 20, 40, 74, 148, 284, 568, 1116]
S2 = [2, 2, 4, 6, 12, 20, 40, 74, 148, 286, 572, 1124]
C2 = [2, 2, 4, 6, 10, 20, 36, 72, 142, 280, 560, 1114]
D2 = [0, 2, 4, 10, 20, 44, 88, 182, 364, 738, 1476, 2972]
A3 = [3, 6, 12, 30, 78, 222, 636, 1878, 5556, 16590, 49548, 148422]

H3_DIGITS = "430377520029471213293382335121830467895548542549528870740458"
RHO3_DIGITS = "27848991988211514682647065951267812841780582980188451703816"
GAMMA2_DIGITS = "26778684021788911237667140358430255255"
GAMMA3_DIGITS = "55697983976423029365294131902535625683"

EXAMPLE_BORDER_WORDS = [
    "01000010", "01001010", "01010010", "01011010",
    "10100101", "10101101", "10110101", "10111101",
]
EXAMPLE_EVEN_PP_WORDS = [
    "00110000", "00110001", "00110010", "00110011",
    "11001100", "11001101", "11001110", "11001111",
]

# (k_max, n_max, budget) per suite, covering every (k, n) a criterion names:
# the bijection on every word for k = 2 up to n = 16 and k = 3 up to n = 12,
# the other word scans for k <= 3 up to n = 12, and the lemmas on binary
# words and on palindromes up to n = 16
BOUNDS = {
    "bijection": (3, 16, 3 ** 12),
    "g-map": (3, 12, 3 ** 12),
    "counts": (3, 12, 3 ** 12),
    "recurrences": (3, 12, 3 ** 12),
    "constants": (3, 12, 3 ** 12),
    "lemmas": (3, 16, 2 ** 16),
}


@functools.cache
def _suite(name):
    k_max, n_max, budget = BOUNDS[name]
    [result] = run_suites([name], k_max=k_max, n_max=n_max, budget=budget)
    return result


def _suite_failures(*names):
    return [f"{name}: {message}" for name in names for message in _suite(name).failures]


def _finish(name, failures):
    print(f"ACCEPTANCE {name}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{name}: " + "; ".join(failures[:5])


def test_criterion_1_table_reproduction():
    failures = []
    rows = {
        (2, Family.NO_ODD_PP): T2,
        (2, Family.NO_EVEN_PP): U2,
        (2, Family.UNBORDERED): U2,
        (2, Family.NO_SQUARE_PREFIX): S2,
        (2, Family.MIN_SQUARE): C2,
        (2, Family.HAS_SQUARE_PREFIX): D2,
        (3, Family.NO_PAL_PREFIX): A3,
    }
    for (k, family), expected in rows.items():
        brute = [census_family(k, n, family) for n in range(1, 13)]
        if brute != expected:
            failures.append(f"census {family.value} k={k}: {brute}")
        sequence = family_counts(k, 12, family)
        values = [sequence[n] for n in range(1, 13)]
        if values != expected:
            failures.append(f"recurrence {family.value} k={k}: {values}")
    _finish("1 table reproduction", failures)


def test_criterion_2_border_order_bijection():
    # word by word: the milk shuffle inverts and sends short borders to even
    # palindromic-prefix orders; profile censuses and image lists agree
    failures = _suite_failures("bijection")
    with_borders = list_profile(2, 8, ProfileKind.SHORT_BORDERS, {1, 3})
    with_orders = list_profile(2, 8, ProfileKind.EVEN_PP_ORDERS, {1, 3})
    if [format_word(w) for w in with_borders] != EXAMPLE_BORDER_WORDS:
        failures.append("border-profile word list differs")
    if [format_word(w) for w in with_orders] != EXAMPLE_EVEN_PP_WORDS:
        failures.append("even-order word list differs")
    if sorted(milk_shuffle(w).symbols for w in with_borders) != sorted(
        w.symbols for w in with_orders
    ):
        failures.append("shuffle does not map one example list onto the other")
    _finish("2 border/order bijection", failures)


def test_criterion_3_parity_laws():
    # the profile parity laws, and every family (no-odd-pp from the
    # unbordered counts among them) against the census and a naive filter
    _finish("3 parity laws", _suite_failures("counts"))


def test_criterion_4_constants():
    failures = []
    series = density_series_enclosure(3, 130)
    if series.truncation_agreed(60) != "0." + H3_DIGITS:
        failures.append("series enclosure does not certify the 60 digits")
    closed = _functional_enclosure(3, 6)
    if not (closed.lower in series and closed.upper in series):
        failures.append("functional-equation enclosure escapes the series enclosure")
    if closed_form_report(3, 6, 60).value != "0." + H3_DIGITS:
        failures.append("functional-equation digits differ at 60 digits")
    density_report = pal_free_density(3, 59)
    if density_report.value != "0." + RHO3_DIGITS:
        failures.append(f"limiting density digits differ: {density_report.value}")

    minimal = min_square_counts(2, 20)
    with_square, square_free = square_prefix_densities(2, 20, minimal)
    if not (
        Fraction(7299563, 10 ** 7) < with_square.lower
        and with_square.upper < Fraction(7299574, 10 ** 7)
    ):
        failures.append(f"square-prefix density enclosure off: {with_square}")
    if not (
        Fraction(2700426, 10 ** 7) < square_free.lower
        and square_free.upper < Fraction(2700437, 10 ** 7)
    ):
        failures.append(f"square-free density enclosure off: {square_free}")

    for k, digits in ((2, GAMMA2_DIGITS), (3, GAMMA3_DIGITS)):
        gamma = unbordered_density(k, 38)
        if gamma.value != "0." + digits:
            failures.append(f"unbordered density digits differ at k={k}: {gamma.value}")
    _finish("4 constants", failures)


def test_criterion_5_shuffle_orders():
    # the bijection suite compares the congruence with the permutation's
    # order for n = 2..200
    failures = _suite_failures("bijection")
    # first terms, frozen from iterating the permutation to the identity
    expected = [1, 2, 3, 3, 5, 6, 4, 4, 9, 6, 11, 10, 9, 14, 5, 5, 12, 18, 12]
    got = [milk_shuffle_order(n) for n in range(2, 21)]
    if got != expected:
        failures.append(f"first orders differ: {got}")
    _finish("5 milk shuffle orders", failures)


def test_criterion_6_property_suite():
    # word lemmas, the adjacent-sum map, the exact ratio identities, the
    # enclosures (nesting, functional equation, density bounds), and the
    # minimal-square convolution against the census
    failures = _suite_failures("lemmas", "g-map", "recurrences", "constants", "counts")
    _finish("6 property suite", failures)
