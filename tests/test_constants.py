"""Enclosures, certified digits, the functional-equation route, and the
density reports."""

import sys
import time
from fractions import Fraction

import pytest

from palcensus import constants
from palcensus.constants import (
    MAX_DIGITS,
    CertificationError,
    Enclosure,
    Method,
    _functional_enclosure,
    _refine,
    closed_form_report,
    decimal_string,
    density_series,
    density_series_enclosure,
    density_series_report,
    pal_free_density,
    pal_free_density_enclosure,
    square_prefix_densities,
    unbordered_density_estimate,
)
from palcensus.recurrences import MissingCountError, min_square_counts

# 60 decimal places of the series value at 1/3, and 59 of the resulting
# limiting density; both certified below by the series enclosure, the
# first also by the functional equation
H3_DIGITS = "430377520029471213293382335121830467895548542549528870740458"
RHO3_DIGITS = "27848991988211514682647065951267812841780582980188451703816"


def agreed_digits(a, b, places=2000):
    """How many of the first `places` decimals of two numbers in [0, 1) agree
    before the first difference."""
    pairs = zip(decimal_string(a, places)[2:], decimal_string(b, places)[2:])
    return next((i for i, (x, y) in enumerate(pairs) if x != y), places)


class TestDecimalRendering:
    def test_truncates(self):
        assert decimal_string(Fraction(2, 3), 5) == "0.66666"
        assert decimal_string(Fraction(1, 4), 3) == "0.250"
        assert decimal_string(Fraction(7, 2), 2) == "3.50"
        assert decimal_string(Fraction(5), 0) == "5"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            decimal_string(Fraction(-1, 2), 3)

    def test_beyond_the_int_string_limit(self):
        limit = sys.get_int_max_str_digits()
        third = Fraction(1, 3)
        assert decimal_string(third, 4400) == "0." + "3" * 4400
        assert Enclosure(third, third).truncation_agreed(4400) == "0." + "3" * 4400
        assert sys.get_int_max_str_digits() == limit


class TestEnclosure:
    def test_orientation_enforced(self):
        with pytest.raises(ValueError, match="inverted"):
            Enclosure(Fraction(1), Fraction(0))

    def test_contains(self):
        enclosure = Enclosure(Fraction(1, 3), Fraction(1, 2))
        assert Fraction(2, 5) in enclosure
        assert Fraction(3, 5) not in enclosure

    def test_truncation_agreement(self):
        assert Enclosure(Fraction(123, 1000), Fraction(124, 1000)).truncation_agreed(
            2
        ) == "0.12"
        straddling = Enclosure(Fraction(199, 1000), Fraction(201, 1000))
        assert straddling.truncation_agreed(1) is None


class TestDensitySeries:
    def test_single_term(self):
        assert density_series_enclosure(2, 1) == Enclosure(
            Fraction(1, 2), Fraction(1, 1)
        )

    def test_two_terms_at_quarter(self):
        enclosure = density_series(2, Fraction(1, 4), 2)
        assert enclosure.lower == Fraction(1, 4) + Fraction(1, 2) * Fraction(1, 16)
        assert enclosure.upper == enclosure.lower + Fraction(1, 4) ** 3 / Fraction(3, 4)

    def test_small_argument_behaves_linearly(self):
        x = Fraction(1, 10 ** 6)
        enclosure = density_series(3, x, 8)
        assert abs((enclosure.lower + enclosure.upper) / 2 - x) < x * x * 2

    def test_domain(self):
        for bad in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError, match="0 < x < 1"):
                density_series(2, bad, 4)

    @pytest.mark.parametrize("k", [2, 3])
    def test_nesting(self, k):
        previous = density_series_enclosure(k, 5)
        for terms in (10, 20, 40, 80):
            current = density_series_enclosure(k, terms)
            assert previous.lower <= current.lower
            assert current.upper <= previous.upper
            previous = current

    def test_sixty_digits_at_third(self):
        enclosure = density_series_enclosure(3, 130)
        assert enclosure.truncation_agreed(60) == "0." + H3_DIGITS

    def test_report(self):
        report = density_series_report(3, 60)
        assert report.value == "0." + H3_DIGITS
        assert report.certified_digits == 60
        assert report.method is Method.SERIES

    def test_functional_equation_balances(self):
        # the series satisfies
        #   D(x) = 2x/(1-x) + ((x+k)/(x(x-1))) * D(x^2/k)
        # so enclosures of both sides must intersect
        for k in (2, 3):
            for x in (Fraction(1, k), Fraction(1, 2 * k), Fraction(1, k * k)):
                direct = density_series(k, x, 120)
                inner = density_series(k, x * x / k, 120)
                offset = 2 * x / (1 - x)
                coefficient = (x + k) / (x * (x - 1))
                low, high = sorted(
                    (
                        offset + coefficient * inner.lower,
                        offset + coefficient * inner.upper,
                    )
                )
                assert max(direct.lower, low) <= min(direct.upper, high)


class TestClosedForm:
    @pytest.mark.parametrize(
        "k,terms_for_series",
        [(2, 220), (3, 130), (4, 120)],
    )
    def test_lands_inside_the_series_enclosure(self, k, terms_for_series):
        # the enclosures meet; they need not nest, because at k = 2 the
        # series tail lies far below the bound that widens its enclosure
        closed = _functional_enclosure(k, 6)
        series = density_series_enclosure(k, terms_for_series)
        assert max(closed.lower, series.lower) <= min(closed.upper, series.upper)

    def test_six_terms_give_sixty_digits(self):
        # six steps of the functional equation certify them on their own
        assert _functional_enclosure(3, 6).truncation_agreed(60) == "0." + H3_DIGITS

    def test_convergence_is_strict(self):
        # each step squares the width (and then some) and at least doubles
        # the digits shared with a much deeper series oracle
        oracle = density_series_enclosure(3, 2600).lower
        enclosures = [_functional_enclosure(3, j) for j in range(1, 9)]
        for shallow, deep in zip(enclosures, enclosures[1:]):
            assert deep.width < shallow.width ** 2
            assert agreed_digits(deep.lower, oracle) >= 2 * agreed_digits(
                shallow.lower, oracle
            )

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_depth_zero_is_the_starting_enclosure(self, k):
        # D(1/k) in 1/k + (1 - 1/k)/k**2 + [0, 1/(k**2 (k-1))]
        start = Fraction(1, k) + Fraction(k - 1, k ** 3)
        assert _functional_enclosure(k, 0) == Enclosure(
            start, start + Fraction(1, k * k * (k - 1))
        )

    def test_report_certifies_against_series(self):
        report = closed_form_report(3, 6, 60)
        assert report.value == "0." + H3_DIGITS
        assert report.method is Method.CLOSED_FORM

    def test_report_fails_when_terms_cannot_reach_digits(self):
        with pytest.raises(CertificationError, match="certify 60 digits"):
            closed_form_report(3, 1, 60)

    def test_terms_only_cap_the_depth(self):
        start = time.perf_counter()
        report = closed_form_report(3, 10 ** 6, 60)
        assert time.perf_counter() - start < 1
        assert report.value == "0." + H3_DIGITS

    def test_report_fails_when_the_series_disagrees(self, monkeypatch):
        # a functional-equation enclosure shifted by 10**-55 certifies
        # digits of its own, which the series cross-check refuses
        honest = constants._functional_enclosure

        def shifted(k, j):
            enclosure = honest(k, j)
            shift = Fraction(1, 10 ** 55)
            return Enclosure(enclosure.lower + shift, enclosure.upper + shift)

        monkeypatch.setattr(constants, "_functional_enclosure", shifted)
        with pytest.raises(CertificationError, match="disagree"):
            closed_form_report(3, 6, 60)

    def test_refinement_stops_on_a_negative_enclosure(self):
        # no term count certifies a negative value; the grid fallback refuses
        # it instead of doubling the terms forever
        with pytest.raises(ValueError, match="cannot render"):
            _refine(lambda N: Enclosure(Fraction(-1), Fraction(1, 2 ** N) - 1), 5)

    @pytest.mark.parametrize("digits", [0, -1, MAX_DIGITS + 1])
    def test_digit_request_checked_up_front(self, digits):
        for report in (
            lambda: density_series_report(3, digits),
            lambda: closed_form_report(3, 6, digits),
            lambda: pal_free_density(3, digits),
        ):
            with pytest.raises(ValueError, match="digits must lie in"):
                report()

    def test_argument_validation(self):
        # usage errors, not certification failures
        for k, terms in ((1, 6), (3, 0)):
            with pytest.raises(ValueError, match="needs k >= 2 and terms >= 1") as raised:
                closed_form_report(k, terms, 50)
            assert not isinstance(raised.value, CertificationError)


class TestPalFreeDensity:
    def test_ternary_digits(self):
        report = pal_free_density(3, 59)
        assert report.value == "0." + RHO3_DIGITS
        assert report.certified_digits == 59
        assert report.method is Method.ENCLOSURE

    def test_enclosure_definition(self):
        series = density_series_enclosure(3, 40)
        enclosure = pal_free_density_enclosure(3, 40)
        assert enclosure.lower == 2 - 4 * series.upper
        assert enclosure.upper == 2 - 4 * series.lower

    def test_binary_density_vanishes(self):
        # two no-prefix words per length force the limiting density to zero;
        # the enclosure straddles it and the report pins the grid point
        enclosure = pal_free_density_enclosure(2, 64)
        assert enclosure.lower < 0 < enclosure.upper
        report = pal_free_density(2, 10)
        assert report.value == "0.0000000000"

    def test_ratios_approach_the_density(self):
        from palcensus.recurrences import no_pal_prefix_ratios

        for k in (2, 3):
            ratios = no_pal_prefix_ratios(k, 64)
            limit = pal_free_density_enclosure(k, 300)
            for n in (4, 8, 16, 32):
                bound = Fraction(k + 1, k ** n * (k - 1))
                assert limit.lower - bound <= ratios[2 * n] <= limit.upper + bound


class TestSquareDensities:
    def test_single_term(self):
        minimal = min_square_counts(2, 1)
        with_square, square_free = square_prefix_densities(2, 1, minimal)
        assert with_square == Enclosure(Fraction(1, 2), Fraction(1))
        assert square_free == Enclosure(Fraction(0), Fraction(1, 2))

    def test_complement(self):
        minimal = min_square_counts(2, 10)
        with_square, square_free = square_prefix_densities(2, 10, minimal)
        assert square_free.lower == 1 - with_square.upper
        assert square_free.upper == 1 - with_square.lower

    def test_nesting(self):
        minimal = min_square_counts(2, 12)
        outer, _ = square_prefix_densities(2, 6, minimal)
        for depth in (8, 12):
            inner, _ = square_prefix_densities(2, depth, minimal)
            assert outer.lower <= inner.lower and inner.upper <= outer.upper
            outer = inner

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_square_free_density_beats_the_coarse_bound(self, k):
        minimal = min_square_counts(k, 7)
        with_square, square_free = square_prefix_densities(k, 7, minimal)
        assert square_free.lower > 1 - Fraction(1, k - 1)
        assert with_square.upper < Fraction(1, k - 1)

    def test_binary_square_free_density_is_positive(self):
        minimal = min_square_counts(2, 12)
        with_square, square_free = square_prefix_densities(2, 12, minimal)
        assert square_free.lower > 0
        assert with_square.upper < 1

    def test_missing_counts_rejected(self):
        with pytest.raises(MissingCountError):
            square_prefix_densities(2, 20, min_square_counts(2, 5))


class TestUnborderedEstimate:
    def test_small_case_is_exact(self):
        report = unbordered_density_estimate(2, 8)
        assert report.value == "0.2890625"
        assert report.certified_digits == 1
        assert report.method is Method.SERIES

    def test_deep_estimate(self):
        report = unbordered_density_estimate(2, 60)
        assert report.value.startswith("0.2677868")
        assert report.certified_digits == 9

    def test_even_ratios_decrease(self):
        from palcensus.recurrences import unbordered_counts

        u = unbordered_counts(2, 120)
        ratios = [Fraction(u[n], 2 ** n) for n in range(2, 121, 2)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            unbordered_density_estimate(2, 1)
        with pytest.raises(ValueError):
            unbordered_density_estimate(1, 10)
