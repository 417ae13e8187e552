"""Enclosures, certified digits, the functional-equation route, and the
density reports."""

import hashlib
import json
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from palcensus import census, constants, recurrences
from palcensus.constants import (
    MAX_DIGITS,
    CertificationError,
    Enclosure,
    _functional_enclosure,
    _h_enclosure,
    _nielsen_enclosure,
    _refine,
    _rendered,
    closed_form_report,
    density_series,
    density_series_enclosure,
    density_series_report,
    pal_free_density,
    square_prefix_densities,
    unbordered_density,
    unbordered_density_enclosure,
    unbordered_density_estimate,
)
from palcensus.recurrences import (
    MissingCountError,
    min_square_counts,
    unbordered_counts,
)

# 60 decimal places of the series value at 1/3, and 59 of the resulting
# limiting density; both certified below by the series enclosure, the
# first also by the functional equation
H3_DIGITS = "430377520029471213293382335121830467895548542549528870740458"
RHO3_DIGITS = "27848991988211514682647065951267812841780582980188451703816"
# the first 38 places of the limiting unbordered densities at k = 2 and 3
GAMMA2_PREFIX = "0.26778684021788911237667140358430255255"
GAMMA3_PREFIX = "0.55697983976423029365294131902535625683"


# bytes allocated at the peak of the 2**15-term series at k = 4: between
# its streaming peak and the peak of holding every count
STREAMED_PEAK_BOUND = 70 * 2 ** 20
# bytes allocated at the peak of the 10 000-digit closed-form report at
# k = 4: between reading the series once and refining it by doubling
CLOSED_FORM_PEAK_BOUND = 20 * 2 ** 20


def traced_peak(call) -> int:
    """The peak of the memory Python allocates while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def truncated(x, places):
    """floor(x * 10**places), x a Fraction, as the reports render it."""
    return _rendered(x.numerator * 10 ** places // x.denominator, places)


def agreed_digits(a, b, places=2000):
    """How many of the first `places` decimals of two numbers in [0, 1) agree
    before the first difference."""
    pairs = zip(truncated(a, places)[2:], truncated(b, places)[2:])
    return next((i for i, (x, y) in enumerate(pairs) if x != y), places)


class TestDecimalRendering:
    def test_truncates(self):
        assert truncated(Fraction(2, 3), 5) == "0.66666"
        assert _rendered(250, 3) == "0.250"
        assert _rendered(350, 2) == "3.50"
        assert _rendered(5, 1) == "0.5"
        assert _rendered(0, 2) == "0.00"

    def test_beyond_the_int_string_limit(self):
        limit = sys.get_int_max_str_digits()
        third = 10 ** 4400 // 3
        assert _rendered(third, 4400) == "0." + "3" * 4400
        assert _rendered(10 ** 4400 + third, 4400) == "1." + "3" * 4400
        assert Enclosure(1, 1, 3).truncation_agreed(4400) == third
        assert sys.get_int_max_str_digits() == limit


class TestEnclosure:
    def test_orientation_enforced(self):
        with pytest.raises(ValueError, match="inverted"):
            Enclosure(1, 0, 1)
        with pytest.raises(ValueError, match="inverted"):
            Enclosure(0, 1, 0)

    def test_equal_bounds_are_equal_records_whatever_the_denominator(self):
        assert Enclosure(1, 2, 4) == Enclosure(2, 4, 8)
        assert hash(Enclosure(1, 2, 4)) == hash(Enclosure(2, 4, 8))
        assert Enclosure(1, 2, 4) != Enclosure(1, 3, 4)
        assert Enclosure(-3, 0, 6) == Enclosure(-1, 0, 2)

    def test_contains(self):
        # an enclosure holds x when low <= x * denominator <= high
        enclosure = Enclosure(2, 3, 6)
        low, high, denominator = enclosure.low, enclosure.high, enclosure.denominator
        assert low <= Fraction(2, 5) * denominator <= high
        assert not low <= Fraction(3, 5) * denominator <= high

    def test_truncation_agreement(self):
        assert Enclosure(123, 124, 1000).truncation_agreed(2) == 12
        straddling = Enclosure(199, 201, 1000)
        assert straddling.truncation_agreed(1) is None
        # a lower bound below 0 never certifies, even where both bounds floor
        # alike; every reported constant is nonnegative
        assert Enclosure(-1, 1, 1000).truncation_agreed(2) is None
        assert Enclosure(-3, -2, 1000).truncation_agreed(1) is None

    def test_complement_with_a_divisor(self):
        # (3 - 2x) / 5 over x in [1/4, 1/2] is [2/5, 1/2]
        assert Enclosure(1, 2, 4).complement(3, 2, 5) == Enclosure(4, 5, 10)


class TestDensitySeries:
    def test_single_term(self):
        assert density_series_enclosure(2, 1) == Enclosure(1, 2, 2)

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

    def test_a_short_stream_is_refused(self):
        assert constants._series_enclosure(2, iter([2, 2]), 2) == (
            density_series_enclosure(2, 2)
        )
        with pytest.raises(MissingCountError, match="needs 3 counts, the stream held 2"):
            constants._series_enclosure(2, iter([2, 2]), 3)

    def test_no_terms_still_check_the_alphabet(self):
        # zip pulled no count at N = 0, so k = 3.0 gave a float enclosure
        for enclose in (density_series_enclosure, unbordered_density_enclosure):
            with pytest.raises(ValueError, match="alphabet size must be an integer, got 3.0"):
                enclose(3.0, 0)
            with pytest.raises(ValueError, match="sequence length must be at least 1, got 0"):
                enclose(3, 0)

    def test_ten_thousand_digits_stream_the_counts(self):
        # the reference series at 10 000 digits, k = 4, sums 2**15 counts of
        # up to 2**16 bits; streaming them (the recurrence keeps the first
        # half) peaks at about 35 MB, holding them all at about 138 MB
        assert traced_peak(lambda: density_series_enclosure(4, 32768)) < STREAMED_PEAK_BOUND

    def test_holding_every_count_exceeds_the_streaming_bound(self, monkeypatch):
        streamed = constants._doubling
        monkeypatch.setattr(
            constants, "_doubling", lambda k, N, back: iter(list(streamed(k, N, back)))
        )
        assert traced_peak(lambda: density_series_enclosure(4, 32768)) > STREAMED_PEAK_BOUND

    def test_sixty_digits_at_third(self):
        enclosure = density_series_enclosure(3, 130)
        assert enclosure.truncation_agreed(60) == int(H3_DIGITS)

    def test_report(self):
        report = density_series_report(3, 60)
        assert report.value == "0." + H3_DIGITS

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


def _former_functional_enclosure(k, j):
    # the D-only map that the shared stepper replaced, kept as its oracle
    top = k ** (2 ** (j + 1) - 1)
    denominator = k * top * top * (top - 1)
    low = (k * top + k - 1) * (top - 1)
    high = low + k
    for i in range(j - 1, -1, -1):
        power = k ** (2 ** (i + 1) - 1)
        scale = (k * power + 1) * power
        low, high = 2 * denominator - scale * high, 2 * denominator - scale * low
        denominator *= power - 1
    return Enclosure(low, high, denominator)


class TestStepper:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_h_is_the_former_map(self, k):
        for j in range(1, 9):
            assert _functional_enclosure(k, j) == _former_functional_enclosure(k, j)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_gamma_meets_the_series(self, k):
        series = unbordered_density_enclosure(k, 400)
        for j in range(1, 9):
            closed = _nielsen_enclosure(k, j)
            assert max(closed.lower, series.lower) <= min(closed.upper, series.upper)
            assert closed.width <= Fraction(k) ** (4 - 2 ** (j + 2))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_depth_zero_is_nielsens_starting_enclosure(self, k):
        # U(1/k**2) in 1 + 1/k + [0, 1/(k(k-1))], and γ = 2 - U(1/k**2)
        start = (k - 1) ** 2  # 1 - 1/k over k(k-1)
        assert _nielsen_enclosure(k, 0) == Enclosure(start - 1, start, k * (k - 1))


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
        assert _functional_enclosure(3, 6).truncation_agreed(60) == int(H3_DIGITS)

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
        start = (k * k + k - 1) * (k - 1)  # 1/k + (k-1)/k**3 over k**3 (k-1)
        assert _functional_enclosure(k, 0) == Enclosure(start, start + k, k ** 3 * (k - 1))

    def test_report_certifies_against_series(self):
        report = closed_form_report(3, 6, 60)
        assert report.value == "0." + H3_DIGITS

    def test_report_fails_when_terms_cannot_reach_digits(self):
        with pytest.raises(CertificationError, match="certify 60 digits"):
            closed_form_report(3, 1, 60)

    def test_terms_only_cap_the_depth(self):
        start = time.perf_counter()
        report = closed_form_report(3, 10 ** 6, 60)
        assert time.perf_counter() - start < 1
        assert report.value == "0." + H3_DIGITS

    def test_terms_never_step_past_the_depth_cap(self, monkeypatch):
        # a stepper whose bounds never agree: without the cap, a million
        # terms would step two million depths, each squaring its integers
        depths = []

        def never_agreeing(k, j):
            depths.append(j)
            return Enclosure(0, 1, 1)

        monkeypatch.setattr(constants, "_functional_enclosure", never_agreeing)
        with pytest.raises(CertificationError, match="depth 14 does not certify 50 digits"):
            closed_form_report(2, 10 ** 6, 50)
        assert depths == list(range(1, 15))

    def test_report_fails_when_the_series_disagrees(self, monkeypatch):
        # a functional-equation enclosure shifted by 10**-55 certifies
        # digits of its own, which the series cross-check refuses
        honest = constants._functional_enclosure

        def shifted(k, j):
            # both bounds 10**-55 higher
            enclosure = honest(k, j)
            return Enclosure(enclosure.low * 10 ** 55 + enclosure.denominator,
                             enclosure.high * 10 ** 55 + enclosure.denominator,
                             enclosure.denominator * 10 ** 55)

        monkeypatch.setattr(constants, "_functional_enclosure", shifted)
        with pytest.raises(CertificationError, match="disagree"):
            closed_form_report(3, 6, 60)

    def test_refinement_stops_on_a_negative_enclosure(self):
        # no depth certifies a negative value; the depth cap ends the search
        depths = []

        def negative(j):
            depths.append(j)
            return Enclosure(-2 ** (64 * j), 1 - 2 ** (64 * j), 2 ** (64 * j))

        with pytest.raises(CertificationError, match="depth 14 does not certify 5 digits"):
            _refine(negative, 5, 14)
        assert depths == list(range(1, 15))

    def test_depth_cap_zero_certifies_nothing(self):
        def unreached(j):
            raise AssertionError("a depth was stepped")

        with pytest.raises(CertificationError, match="depth 0 does not certify 5 digits"):
            _refine(unreached, 5, 0)

    def test_a_value_just_below_a_grid_point_keeps_its_digits(self):
        # depth 1 straddles g = 0.12346 with width 10**-14 around a value
        # 10**-20 below it; depth 2 lies below g.  Certifying at depth 1 by
        # g's digits would report a value the constant does not reach.
        grid = Fraction(12346, 10 ** 5)
        # over 2 * 10**30: the value, and the half-widths 1/(2 * 10**14), 10**-30
        value = 12346 * 2 * 10 ** 25 - 2 * 10 ** 10
        halves = {1: 10 ** 16, 2: 2}

        def stepped(j):
            return Enclosure(value - halves[j], value + halves[j], 2 * 10 ** 30)

        assert stepped(1).lower < grid < stepped(1).upper
        assert _refine(stepped, 5, 2) == (12345, 5)

    def test_the_width_gate_precedes_agreement(self):
        # bounds that agree on 5 digits certify nothing while wider than 10**-7
        wide = Enclosure(123450, 123459, 10 ** 6)
        assert wide.truncation_agreed(5) == 12345
        with pytest.raises(CertificationError):
            _refine(lambda j: wide, 5, 3)

    def test_the_width_gate_is_ten_to_the_minus_digits_plus_two(self):
        # both enclosures truncate to 0.12345; only the narrower one, exactly
        # 10**-7 wide, passes the gate
        assert _refine(lambda j: Enclosure(12345000, 12345001, 10 ** 8), 5, 1) == (12345, 5)
        with pytest.raises(CertificationError):
            _refine(lambda j: Enclosure(1234500, 1234510, 10 ** 7), 5, 1)

    def test_closed_form_reads_the_series_once(self, monkeypatch):
        # one series enclosure, at the fewest terms whose tail bound
        # 1/((k-1) k**N) is at most 10**-(digits+2)
        sizes = []
        honest = constants.density_series_enclosure

        def recorded(k, N):
            sizes.append((k, N))
            return honest(k, N)

        monkeypatch.setattr(constants, "density_series_enclosure", recorded)
        for k, digits in ((2, 1), (3, 60), (4, 1000), (10, 50)):
            sizes.clear()
            closed_form_report(k, 7, digits)
            [(_, N)] = sizes
            assert (k - 1) * k ** N >= 10 ** (digits + 2) > (k - 1) * k ** (N - 1)

    def test_ten_thousand_closed_form_digits_read_the_series_once(self):
        # one series at 16 613 terms (k = 4) peaks near 9 MB; refining it at
        # 32, 64, ..., 32 768 terms peaked near 35 MB
        report = lambda: closed_form_report(4, 7, 10000)
        assert traced_peak(report) < CLOSED_FORM_PEAK_BOUND

    def test_refining_the_series_by_doubling_exceeds_the_bound(self):
        def doubling(k, terms, digits):
            # the former cross-check: the series refined at 32, 64, 128, ...
            # terms until it certified digits of its own
            text = _refine(lambda j: _functional_enclosure(k, j), digits, 2 * terms)
            series = _refine(lambda i: density_series_enclosure(k, 16 << i), digits, 16)
            if series != text:
                raise CertificationError("the series disagrees")
            return text

        assert doubling(4, 7, 60) == (int(closed_form_report(4, 7, 60).value[2:]), 60)
        assert traced_peak(lambda: doubling(4, 7, 10000)) > CLOSED_FORM_PEAK_BOUND

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
        for k, terms, message in ((1, 6, "alphabet size must be at least 2, got 1"),
                                  (3, 0, "terms must be at least 1, got 0")):
            with pytest.raises(ValueError, match=message) as raised:
                closed_form_report(k, terms, 50)
            assert not isinstance(raised.value, CertificationError)


class TestPalFreeDensity:
    def test_ternary_digits(self):
        report = pal_free_density(3, 59)
        assert report.value == "0." + RHO3_DIGITS

    def test_enclosure_definition(self):
        series = density_series_enclosure(3, 40)
        enclosure = series.complement(2, 4)
        assert enclosure.lower == 2 - 4 * series.upper
        assert enclosure.upper == 2 - 4 * series.lower

    def test_binary_density_vanishes(self):
        # two no-prefix words per length force the limiting density to zero;
        # the series enclosure straddles it, while the report reads γ's
        # stepper through (k-1) ρ = (k-2) γ, exactly 0 at k = 2 at every depth
        enclosure = density_series_enclosure(2, 64).complement(2, 3)
        assert enclosure.lower < 0 < enclosure.upper
        for j in (1, 5):
            assert _h_enclosure(2, j).complement(2, 3) == Enclosure(0, 0, 1)
        for digits in (1, 10, 60, 1000):
            assert pal_free_density(2, digits).value == "0." + "0" * digits

    def test_binary_reports_are_exact_at_depth_one(self, monkeypatch):
        # ρ(2) = 0 and h(2) = 2/3 have enclosures of width 0, so the first
        # depth certifies any number of digits
        depths = []
        stepper = constants._nielsen_enclosure

        def counted(k, j):
            depths.append(j)
            return stepper(k, j)

        monkeypatch.setattr(constants, "_nielsen_enclosure", counted)
        for digits in (1, 60, 1000, 10000):
            depths.clear()
            assert pal_free_density(2, digits).value == "0." + "0" * digits
            assert density_series_report(2, digits).value == "0." + "6" * digits
            assert depths == [1, 1]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_reports_need_no_functional_equation(self, monkeypatch, k):
        # SHA-256 prefixes of the 10 000-digit h, ρ and γ as D's stepper
        # certified h and ρ; γ's stepper alone must reproduce them
        certified = {
            2: ("f4304be04f6514f5", "05a8dec685ce9110", "64d6efb686f409b0"),
            3: ("fe7c83ad18125a62", "d5213f3aacd6cdd1", "1dd682d301ee9818"),
            4: ("3c5bcda5e1276011", "d77144f9c427dff8", "9e72ef2bcf8ae821"),
        }

        def refused(*args):
            raise AssertionError("a decimal report stepped D's functional equation")

        monkeypatch.setattr(constants, "_functional_enclosure", refused)
        digests = tuple(
            hashlib.sha256(report(k, 10000).value.encode()).hexdigest()[:16]
            for report in (density_series_report, pal_free_density, unbordered_density)
        )
        assert digests == certified[k]

    def test_ratios_approach_the_density(self):
        from palcensus.recurrences import no_pal_prefix_ratios

        for k in (2, 3):
            ratios = no_pal_prefix_ratios(k, 64)
            limit = density_series_enclosure(k, 300).complement(2, k + 1)
            for n in (4, 8, 16, 32):
                bound = Fraction(k + 1, k ** n * (k - 1))
                assert limit.lower - bound <= ratios[2 * n] <= limit.upper + bound


class TestSquareDensities:
    def test_single_term(self):
        minimal = min_square_counts(2, 1)
        with_square, square_free = square_prefix_densities(2, 1, minimal)
        assert with_square == Enclosure(1, 2, 2)
        assert square_free == Enclosure(0, 1, 2)

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

    def test_counts_of_another_alphabet_or_family_rejected(self):
        for k, other in ((3, min_square_counts(2, 6)), (2, unbordered_counts(2, 6))):
            with pytest.raises(ValueError, match=f"need min-square counts over k={k}"):
                square_prefix_densities(k, 6, other)


class TestUnborderedDensity:
    @pytest.mark.parametrize("k,prefix", [(2, GAMMA2_PREFIX), (3, GAMMA3_PREFIX)])
    def test_thousand_certified_digits(self, k, prefix):
        value = unbordered_density(k, 1000).value
        assert len(value) == 1002
        assert value.startswith(prefix)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_enclosure_top_is_the_count_ratio(self, k):
        # u(2N) / k**(2N) = 1 - sum over m <= N of u(m) / k**(2m), exactly
        u = unbordered_counts(k, 80)
        for N in (1, 5, 17, 40):
            enclosure = unbordered_density_enclosure(k, N)
            assert enclosure.upper == Fraction(u[2 * N], k ** (2 * N))
            assert enclosure.width == Fraction(1, (k - 1) * k ** N)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ratios_approach_at_the_proved_rate(self, k):
        u = unbordered_counts(k, 200)
        gamma = unbordered_density_enclosure(k, 400)
        for n in range(1, 201):
            here = Fraction(u[n], k ** n)
            assert gamma.upper <= here
            assert here - gamma.lower <= Fraction(1, (k - 1) * k ** (n // 2))

    def test_ratio_at_sixty_agrees_to_nine_places(self):
        ratio = Fraction(unbordered_counts(2, 60)[60], 2 ** 60)
        assert truncated(ratio, 9) == unbordered_density(2, 9).value
        assert truncated(ratio, 10) != unbordered_density(2, 10).value

    def test_ten_thousand_digits_hold_no_counts(self):
        # summing the streamed counts allocated a peak of 37 MB (it keeps
        # the first half of 2**15 counts of up to 2**16 bits); the stepper's
        # few integers of about 2**17 bits peak near 0.15 MB
        assert traced_peak(lambda: unbordered_density(4, 10000)) < 4 * 2 ** 20

    @pytest.mark.parametrize("report", [density_series_report, pal_free_density])
    def test_h_and_rho_at_ten_thousand_digits_hold_no_counts(self, report):
        # like γ's: the series peaked at 35 MB (k = 4), the stepper near 0.2 MB
        assert traced_peak(lambda: report(4, 10000)) < 4 * 2 ** 20

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ten_thousand_digits_build_no_fraction(self, monkeypatch, k):
        # the stepper, the gate, the truncation and the rendering are integers
        def refused(*args):
            raise AssertionError("a certified report built a Fraction")

        monkeypatch.setattr(constants, "Fraction", refused)
        for report in (density_series_report, pal_free_density, unbordered_density):
            value = report(k, 10000).value
            assert len(value) == 10002 and value.startswith(report(k, 60).value)

    def test_reads_no_count_and_calls_no_census(self, monkeypatch):
        def refused(*args, **options):
            raise AssertionError("a decimal report read a count")

        for module, name in (
            (census, "census_family"), (recurrences, "census_family"),
            (recurrences, "_doubling"), (constants, "_doubling"),
            (constants, "no_pal_prefix_ratios"),
        ):
            monkeypatch.setattr(module, name, refused)
        assert unbordered_density(3, 50).value.startswith(GAMMA3_PREFIX)
        assert density_series_report(3, 60).value == "0." + H3_DIGITS
        assert pal_free_density(3, 59).value == "0." + RHO3_DIGITS

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            unbordered_density(1, 10)
        with pytest.raises(ValueError, match="digits must lie in"):
            unbordered_density(2, 0)


class TestUnborderedEstimate:
    """unbordered_density_estimate, uncertified, stays only for the
    benchmark's gamma op."""

    def test_small_case_is_exact(self):
        assert unbordered_density_estimate(2, 8).value == "0.2890625000000000"

    def test_deep_estimate(self):
        reference = json.loads(
            (Path(__file__).parents[1] / "bench" / "reference.json").read_text()
        )
        for k, value in ((2, "0.2677868404672904"), (3, "0.5569798397642316")):
            assert unbordered_density_estimate(k, 60).value == value
            assert value.startswith(reference["gamma"][str(k)]["estimate_known"])

    def test_even_ratios_decrease(self):
        u = unbordered_counts(2, 120)
        ratios = [Fraction(u[n], 2 ** n) for n in range(2, 121, 2)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            unbordered_density_estimate(2, 0)
        with pytest.raises(ValueError):
            unbordered_density_estimate(1, 10)
