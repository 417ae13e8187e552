"""Certified evaluation of the limiting densities.

All arithmetic is exact-rational; a real constant is only ever handled as an
enclosure, a pair of rationals bracketing it.  Decimal digits appear at the
reporting boundary, produced by long division and truncated, never rounded,
so a reported digit string is an initial segment of the true expansion.

The key series is D(X) = sum over n >= 1 of r(n) * X**n, where r(n) is the
fraction of length-n words with no nontrivial palindromic prefix.  Its value
at X = 1/k gives the limiting density of that family; the minimal-square
counts give the square-prefix densities the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .recurrences import (
    CountSeq, no_pal_prefix_counts, no_pal_prefix_ratios, unbordered_counts
)


class Method(Enum):
    SERIES = "series"
    CLOSED_FORM = "closed-form"
    ENCLOSURE = "enclosure"


class CertificationError(ValueError):
    """The requested number of digits could not be certified."""


@dataclass(frozen=True)
class Enclosure:
    """Exact rational bracket: lower <= constant <= upper."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"inverted enclosure: {self.lower} > {self.upper}")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def __contains__(self, x) -> bool:
        return self.lower <= x <= self.upper

    def truncation_agreed(self, digits: int) -> str | None:
        """The common digits-place truncation of both bounds, or None if the
        bounds straddle a decimal grid point (or a negative value)."""
        if self.lower < 0:
            return None
        low = _truncated(self.lower, digits)
        return low if low == _truncated(self.upper, digits) else None


@dataclass(frozen=True)
class DecimalReport:
    """A decimal string plus how many of its places are certified and how."""

    value: str
    certified_digits: int
    method: Method


def _truncated(x: Fraction, digits: int) -> str:
    """x >= 0 truncated to `digits` places as `whole.frac`, at any length:
    Decimal renders the integers, as int -> str stops at 4300 digits."""
    if x < 0 or digits < 0:
        raise ValueError(f"cannot render {x} to {digits} decimal places")
    whole, frac = divmod(math.floor(x * 10 ** digits), 10 ** digits)
    return f"{Decimal(whole)}.{str(Decimal(frac)).zfill(digits)}"


def decimal_string(x: Fraction, digits: int) -> str:
    """Truncated decimal expansion of a nonnegative rational; the integer
    part alone when digits <= 0."""
    text = _truncated(x, max(digits, 0))
    return text if digits > 0 else text[:-2]


# ---------------------------------------------------------------------------
# the prefix-density series


def _series_enclosure(k: int, counts: CountSeq, N: int) -> Enclosure:
    """Enclosure of the sum of counts[n] / k**(2n) over n >= 1, for counts
    in [0, k**n]: N terms as one integer over k**(2N) by Horner's rule, and
    the tail, at most k**(-N) / (k-1)."""
    numerator = 0
    for n in range(1, N + 1):
        numerator = numerator * k * k + counts[n]
    lower = Fraction(numerator, k ** (2 * N))
    return Enclosure(lower, lower + Fraction(1, (k - 1) * k ** N))


def density_series(k: int, x, N: int) -> Enclosure:
    """Enclosure of D(x) from the first N terms, one Fraction per term.

    The coefficients lie in [0, 1], so the tail after N terms is at most the
    geometric remainder x**(N+1) / (1-x); needs 0 < x < 1.  At x = 1/k this
    is the independent reference for density_series_enclosure.
    """
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError(f"series argument must satisfy 0 < x < 1, got {x}")
    ratios = no_pal_prefix_ratios(k, N)
    power = Fraction(1)
    lower = Fraction(0)
    for n in range(1, N + 1):
        power *= x
        lower += ratios[n] * power
    return Enclosure(lower, lower + power * x / (1 - x))


def density_series_enclosure(k: int, N: int) -> Enclosure:
    """Enclosure of D(1/k), the value the limiting density is built from."""
    return _series_enclosure(k, no_pal_prefix_counts(k, N), N)


def density_series_closed_form(k: int, terms: int) -> Fraction:
    """Exact-rational closed-form evaluation of D(1/k).

    Iterating the functional equation
        D(X) = 2X/(1-X) + ((X+k)/(X(X-1))) * D(X**2 / k)
    down to its fixed point collapses D(1/k) into a rapidly converging
    product limit minus twice a sum of doubly-exponentially small summands.
    The product limit is evaluated at index 2*terms, the deepest index the
    truncated sum uses; its own truncation error is far below the sum's.
    This is a cross-check only: digits are certified solely against the
    independent series enclosure.
    """
    if k < 2:
        raise ValueError(f"closed form needs an alphabet of size at least 2, got {k}")
    if terms < 1:
        raise ValueError(f"closed form needs at least 1 summand, got {terms}")
    depth = 2 * terms
    plus = [k ** (2 ** i) + 1 for i in range(1, depth + 1)]
    minus = [k ** (2 ** i - 1) - 1 for i in range(1, depth + 1)]
    value = Fraction(math.prod(plus), k ** (depth + 1) * math.prod(minus))
    for t in range(1, terms + 1):
        exponent = 2 ** (2 * t - 1)
        numerator = (
            k ** (exponent - 2 * t)
            * (k ** (exponent - 1) + 1)
            * math.prod(plus[: 2 * t - 2])
        )
        value -= 2 * Fraction(numerator, math.prod(minus[: 2 * t]))
    return value


# the largest digit request: at k = 4 it sums 2**15 counts of up to 2**16 bits
MAX_DIGITS = 10_000


def _refine(make_enclosure, digits: int, start: int = 32):
    """Double the term count until the enclosure certifies the digit request,
    which must lie in 1..MAX_DIGITS.

    Returns (enclosure, digit string, terms used).  When the bounds pin the
    value against a decimal grid point without ever agreeing on a truncation
    (as happens when the constant is exactly such a point), the grid point
    itself is reported once the width is far below one trailing-digit unit.
    """
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must lie in 1..{MAX_DIGITS}, got {digits}")
    N = start
    while True:
        enclosure = make_enclosure(N)
        if enclosure.width * 10 ** (digits + 2) <= 1:
            agreed = enclosure.truncation_agreed(digits)
            if agreed is not None:
                return enclosure, agreed, N
            if enclosure.width * 10 ** (digits + 8) <= 1:
                return enclosure, _truncated(enclosure.upper, digits), N
        N *= 2


def density_series_report(k: int, digits: int) -> DecimalReport:
    """D(1/k) as a certified decimal, from the series enclosure alone."""
    _, text, _ = _refine(lambda N: density_series_enclosure(k, N), digits)
    return DecimalReport(text, digits, Method.SERIES)


def closed_form_report(k: int, terms: int, digits: int) -> DecimalReport:
    """The closed form rendered to a digit count certified by the series.

    Fails rather than guessing if the closed-form value leaves the series
    enclosure or truncates differently at the requested precision.
    """
    enclosure, text, _ = _refine(lambda N: density_series_enclosure(k, N), digits)
    value = density_series_closed_form(k, terms)
    if value not in enclosure or decimal_string(value, digits) != text:
        raise CertificationError(
            f"closed form with {terms} terms does not certify {digits} digits "
            f"against the series enclosure"
        )
    return DecimalReport(text, digits, Method.CLOSED_FORM)


# ---------------------------------------------------------------------------
# limiting densities


def pal_free_density_enclosure(k: int, N: int) -> Enclosure:
    """Enclosure of the limiting fraction of words with no nontrivial
    palindromic prefix: 2 - (k+1) * D(1/k)."""
    series = density_series_enclosure(k, N)
    return Enclosure(2 - (k + 1) * series.upper, 2 - (k + 1) * series.lower)


def pal_free_density(k: int, digits: int) -> DecimalReport:
    """The limiting no-palindromic-prefix density, certified to the requested
    number of decimal places."""
    _, text, _ = _refine(lambda N: pal_free_density_enclosure(k, N), digits)
    return DecimalReport(text, digits, Method.ENCLOSURE)


def square_prefix_densities(
    k: int, n: int, min_square: CountSeq
) -> tuple[Enclosure, Enclosure]:
    """Enclosures for the limiting densities of words with and without a
    square prefix.

    The with-square density is the sum over i of min_square(i) / k**(2i);
    truncating after n terms undershoots by at most k**(-n) / (k-1) because
    min_square(i) never exceeds k**i.  The square-free density is its
    complement in 1.  Requires min_square to hold 1..n.
    """
    with_square = _series_enclosure(k, min_square, n)
    square_free = Enclosure(1 - with_square.upper, 1 - with_square.lower)
    return with_square, square_free


def unbordered_density_estimate(k: int, n: int) -> DecimalReport:
    """Heuristic estimate u(n) / k**n of the limiting unbordered density.

    No usable error bound is available for this ratio, so certified_digits
    is a heuristic: the number of places to which the estimate agrees with
    the one two lengths back.  This is an estimate, not an enclosure.
    """
    if k < 2 or n < 2:
        raise ValueError("need k >= 2 and n >= 2")
    u = unbordered_counts(k, n)
    ratio = Fraction(u[n], k ** n)
    # the length-0 ratio is 1: the empty word is vacuously unbordered
    previous = Fraction(u[n - 2], k ** (n - 2)) if n > 2 else Fraction(1)
    gap = abs(ratio - previous)
    digits = 0
    while digits < 60 and gap * 10 ** (digits + 1) < 1:
        digits += 1
    text = decimal_string(ratio, max(digits + 4, 16)).rstrip("0")
    if text.endswith("."):
        text += "0"
    return DecimalReport(text, digits, Method.SERIES)
