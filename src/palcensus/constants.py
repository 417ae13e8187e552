"""Certified evaluation of the limiting densities.

All arithmetic is exact-rational; a real constant is only ever handled as an
enclosure, a pair of rationals bracketing it.  Decimal digits appear at the
reporting boundary, produced by long division and truncated, never rounded,
so a reported digit string is an initial segment of the true expansion.

The key series is D(X) = sum over n >= 1 of r(n) * X**n, where r(n) is the
fraction of length-n words with no nontrivial palindromic prefix.  Its value
at X = 1/k gives the limiting density of that family; the minimal-square
counts give the square-prefix densities, and the unbordered counts the
unbordered density γ, through the same kernel.  D(1/k) has a second
certified route, its functional equation iterated down from X = 1/k.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal
from fractions import Fraction

from .census import DEFAULT_BUDGET
from .recurrences import (
    CountSeq, no_pal_prefix_counts, no_pal_prefix_ratios, unbordered_counts
)
from .words import _Record


class CertificationError(ValueError):
    """The requested number of digits could not be certified."""


class Enclosure(_Record):
    """Exact rational bracket: lower <= constant <= upper."""

    __slots__ = ("lower", "upper")
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


class DecimalReport(_Record):
    """A decimal string, truncated, every place of it certified."""

    __slots__ = ("value",)
    value: str


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


def _functional_enclosure(k: int, j: int) -> Enclosure:
    """Enclosure of D(1/k) from j steps of the functional equation
        D(X) = 2X/(1-X) + ((X+k)/(X(X-1))) * D(X**2 / k).

    At X_i = k**-e, e = 2**(i+1) - 1 (so X_0 = 1/k, X_(i+1) = X_i**2 / k), it
    reads D(X_i) = (2 - (k**(e+1) + 1) * k**e * D(X_(i+1))) / (k**e - 1).
    r(1) = 1, r(2) = 1 - 1/k and 0 <= r(n) <= 1 give the starting enclosure
    D(X_j) in X_j + (1 - 1/k) * X_j**2 + [0, X_j**3 / (1 - X_j)].  Each step
    back is a decreasing map, so it swaps the bounds, which stay integer
    numerators over one shared denominator: no Fraction and no gcd.  The
    width is about k**(1 - 2**(j+2)), so each step doubles the digits.
    """
    top = k ** (2 ** (j + 1) - 1)
    denominator = k * top * top * (top - 1)
    low = (k * top + k - 1) * (top - 1)
    high = low + k
    for i in range(j - 1, -1, -1):
        power = k ** (2 ** (i + 1) - 1)
        scale = (k * power + 1) * power
        low, high = 2 * denominator - scale * high, 2 * denominator - scale * low
        denominator *= power - 1
    return Enclosure(Fraction(low, denominator), Fraction(high, denominator))


# the largest digit request: at k = 4 it sums 2**15 counts of up to 2**16 bits
MAX_DIGITS = 10_000


def _refine(make_enclosure, digits: int, sizes=None):
    """Try the enclosure at each size in turn (by default the term counts
    32, 64, 128, ...; the depths of the functional equation may run out)
    until it certifies the digit request, which must lie in 1..MAX_DIGITS.

    Returns the digit string.  When the bounds pin the value against a
    decimal grid point without ever agreeing on a truncation (as happens
    when the constant is exactly such a point), the grid point itself is
    reported once the width is far below one trailing-digit unit.
    """
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must lie in 1..{MAX_DIGITS}, got {digits}")
    if sizes is None:
        sizes = (32 << i for i in itertools.count())
    for size in sizes:
        enclosure = make_enclosure(size)
        if enclosure.width * 10 ** (digits + 2) <= 1:
            agreed = enclosure.truncation_agreed(digits)
            if agreed is not None:
                return agreed
            if enclosure.width * 10 ** (digits + 8) <= 1:
                return _truncated(enclosure.upper, digits)
    raise CertificationError(f"depth {size} does not certify {digits} digits")


def density_series_report(k: int, digits: int) -> DecimalReport:
    """D(1/k) as a certified decimal, from the series enclosure alone."""
    return DecimalReport(_refine(lambda N: density_series_enclosure(k, N), digits))


def closed_form_report(k: int, terms: int, digits: int) -> DecimalReport:
    """D(1/k) certified by the functional equation, stepped to depths
    1, 2, ..., 2 * terms; fails rather than guessing if the depth runs out or
    the series enclosure certifies different digits."""
    if k < 2 or terms < 1:
        raise ValueError(f"closed form needs k >= 2 and terms >= 1, got {k}, {terms}")
    text = _refine(
        lambda j: _functional_enclosure(k, j), digits, range(1, 2 * terms + 1)
    )
    if text != density_series_report(k, digits).value:
        raise CertificationError(
            f"the functional equation and the series disagree at {digits} digits"
        )
    return DecimalReport(text)


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
    return DecimalReport(_refine(lambda N: pal_free_density_enclosure(k, N), digits))


def unbordered_density_enclosure(k: int, N: int, *, budget: int = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of γ, the limiting fraction of unbordered words:
    1 - sum over m >= 1 of u(m) / k**(2m).

    A bordered word's shortest border is unbordered and at most half its
    length, so the length-n words with shortest border m number
    u(m) * k**(n-2m), and u(n) / k**n = 1 - sum over m <= n/2 of
    u(m) / k**(2m).  Letting n grow gives the series.  budget bounds the
    census that checks the counts.
    """
    series = _series_enclosure(k, unbordered_counts(k, N, budget=budget), N)
    return Enclosure(1 - series.upper, 1 - series.lower)


def unbordered_density(k: int, digits: int) -> DecimalReport:
    """The limiting unbordered density γ, certified to the requested number
    of decimal places."""
    return DecimalReport(_refine(lambda N: unbordered_density_enclosure(k, N), digits))


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
    """u(n) / k**n truncated to 16 places: an uncertified approximation of
    γ, within k**-(n//2) / (k-1) above it.  Nothing in the package calls it;
    it stays only for the benchmark's gamma op until the benchmark revision
    (ROADMAP item 2).  unbordered_density certifies γ."""
    return DecimalReport(decimal_string(Fraction(unbordered_counts(k, n)[n], k ** n), 16))
