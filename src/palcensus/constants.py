"""Certified evaluation of the limiting densities.

All arithmetic is exact-rational; a real constant is only ever handled as an
enclosure, two integers over one denominator bracketing it.  Decimal digits
appear at the reporting boundary, produced by integer division and truncated,
never rounded, so a reported digit string is an initial segment of the true
expansion.

The key series is D(X) = sum over n >= 1 of r(n) * X**n, where r(n) is the
fraction of length-n words with no nontrivial palindromic prefix.  Its value
at X = 1/k gives the limiting density of that family.  Every certified decimal
report steps Nielsen's equation for γ, reading no count; ρ and h follow from γ
by an identity proved at pal_free_density.  D's functional equation and the
count series are their references; the series give the square-prefix densities.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from .census import CheckFailure
from .recurrences import (
    CountSeq, MissingCountError, _doubling, _min_square_alphabet, _no_pal_prefix_back,
    _require, _unbordered_back, no_pal_prefix_ratios, unbordered_counts,
)
from .words import _integer, _Record


class CertificationError(CheckFailure):
    """The requested number of digits could not be certified."""


class Enclosure(_Record):
    """Exact rational bracket low / denominator <= constant <= high / denominator,
    all three integers, denominator > 0: the certified routes build no Fraction."""

    __slots__ = ("low", "high", "denominator")
    low: int
    high: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0 or self.low > self.high:
            raise ValueError(f"inverted enclosure: {self.low}, {self.high} / {self.denominator}")

    @staticmethod
    def _key(e: Enclosure) -> tuple[int, int, int]:
        # records with the same bounds compare and hash as their least triple
        common = math.gcd(e.low, e.high, e.denominator)
        return e.low // common, e.high // common, e.denominator // common

    # the Fraction readers, for the reference routes and the enclosure prints
    @property
    def lower(self) -> Fraction:
        return Fraction(self.low, self.denominator)

    @property
    def upper(self) -> Fraction:
        return Fraction(self.high, self.denominator)

    @property
    def width(self) -> Fraction:
        return Fraction(self.high - self.low, self.denominator)

    def complement(self, a: int, b: int = 1, c: int = 1) -> Enclosure:
        """The enclosure of (a - b * x) / c for x in this one, b >= 0, c > 0."""
        scaled = a * self.denominator
        return Enclosure(scaled - b * self.high, scaled - b * self.low, c * self.denominator)

    def truncation_agreed(self, digits: int) -> int | None:
        """floor(10**digits * lower) if it is nonnegative and equals
        floor(10**digits * upper), else None: every constant reported is nonnegative."""
        scale = 10 ** _integer(digits, 0, "digits")
        low = self.low * scale // self.denominator
        return low if 0 <= low == self.high * scale // self.denominator else None


class DecimalReport(_Record):
    """A decimal string, truncated, every place of it certified."""

    __slots__ = ("value",)
    value: str


def _rendered(scaled: int, digits: int) -> str:
    """x >= 0 truncated to digits >= 1 places, from scaled = floor(x * 10**digits),
    as `whole.frac` at any length: Decimal renders the integers, as int -> str
    stops at 4300 digits."""
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{Decimal(whole)!s}.{str(Decimal(frac)).zfill(digits)}"


# ---------------------------------------------------------------------------
# the prefix-density series


def _series_enclosure(k: int, counts, N: int) -> Enclosure:
    """Enclosure of the sum of c(n) / k**(2n) over n >= 1 from the stream
    c(1), c(2), ... of counts in [0, k**n], which must hold N: N terms as one
    integer over k**(2N) by Horner's rule, and the tail, at most k**(-N) / (k-1)."""
    k, N = _require(k, N)
    numerator = n = 0
    for count, n in zip(counts, range(1, N + 1)):
        numerator = numerator * k * k + count
    if n < N:
        raise MissingCountError(f"the series needs {N} counts, the stream held {n}")
    low = numerator * (k - 1)
    return Enclosure(low, low + k ** N, (k - 1) * k ** (2 * N))


def density_series(k: int, x, N: int) -> Enclosure:
    """Enclosure of D(x), 0 < x < 1, from N terms, one Fraction per term, and the
    tail, at most x**(N+1) / (1-x) as the coefficients lie in [0, 1].  At x = 1/k
    it is the independent reference for density_series_enclosure."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError(f"series argument must satisfy 0 < x < 1, got {x}")
    ratios = no_pal_prefix_ratios(k, N)
    power = Fraction(1)
    lower = Fraction(0)
    for n in range(1, N + 1):
        power *= x
        lower += ratios[n] * power
    (a, b), (c, d) = lower.as_integer_ratio(), (lower + power * x / (1 - x)).as_integer_ratio()
    return Enclosure(a * d, c * b, b * d)


def density_series_enclosure(k: int, N: int) -> Enclosure:
    """Enclosure of D(1/k), the value the limiting density is built from."""
    return _series_enclosure(k, _doubling(k, N, _no_pal_prefix_back), N)


def _stepped(k: int, j: int, start, step) -> Enclosure:
    """Enclosure of A(Y_0) by j steps of A(Y_i) = (a - b * A(Y_(i+1))) / (p - 1),
    p = k**(2**(i+1) - 1), (a, b) = step(p), b > 0, from A(Y_j) in [low, low + width]
    / denominator, (low, width, denominator) = start(p).  Each step swaps the bounds,
    integer numerators over one shared denominator: no Fraction and no gcd."""
    k = _integer(k, 2, "alphabet size")
    low, width, denominator = start(k ** (2 ** (j + 1) - 1))
    high = low + width
    for p in (k ** (2 ** e - 1) for e in range(j, 0, -1)):
        a, b = step(p)
        low, high = a * denominator - b * high, a * denominator - b * low
        denominator *= p - 1
    return Enclosure(low, high, denominator)


def _functional_enclosure(k: int, j: int) -> Enclosure:
    """Enclosure of D(1/k) from j steps of D(X) = 2X/(1-X) + ((X+k)/(X(X-1))) D(X**2/k),
    at X_i = 1/p: D(X_i) = (2 - (kp + 1) p D(X_(i+1))) / (p - 1).  r(1) = 1, r(2) = 1 - 1/k
    and 0 <= r(n) <= 1 give D(X_j) in X_j + (1 - 1/k) X_j**2 + [0, X_j**3 / (1 - X_j)].
    The width is about k**(1 - 2**(j+2)), so each step doubles the digits."""
    return _stepped(k, j, lambda p: ((k * p + k - 1) * (p - 1), k, k * p * p * (p - 1)),
                    lambda p: (2, (k * p + 1) * p))


def _nielsen_enclosure(k: int, j: int) -> Enclosure:
    """Enclosure of γ = 2 - U(1/k**2), U(Y) = 1 + sum of u(m) * Y**m, from j steps of
    Nielsen's equation U(Y)(1 - kY) = 2 - U(Y**2), at Y_i = 1/(kp): U(Y_i) =
    (2p - p * U(Y_(i+1))) / (p - 1).  u(1) = k and 0 <= u(m) <= k**m give U(Y_j) in
    1 + 1/p + [0, 1/(p(p - 1))]; the width is below k**(4 - 2**(j+2)).  No count is read."""
    u = _stepped(k, j, lambda p: (p * p - 1, 1, p * (p - 1)), lambda p: (2 * p, p))
    return u.complement(2)


def _h_enclosure(k: int, j: int) -> Enclosure:
    """Enclosure of h = D(1/k) = (2(k-1) - (k-2) γ) / (k**2 - 1), exactly 2/3 at k = 2,
    from j Nielsen steps, as ρ = 2 - (k+1) h and (k-1) ρ = (k-2) γ (pal_free_density)."""
    return _nielsen_enclosure(k, j).complement(2 * (k - 1), k - 2, k * k - 1)


# the largest digit request: it bounds the closed-form report's series
# reference, about 3.32 (digits + 2) / log2(k) terms (33 226 at k = 2)
MAX_DIGITS = 10_000
# every report's depth cap: depth j is narrower than k**(4 - 2**(j+2)), at most
# 10**-(MAX_DIGITS + 2) once 2**(j+2) >= 4 * MAX_DIGITS + 12; a broken step fails
_DEPTH_CAP = (4 * MAX_DIGITS + 11).bit_length() - 2


def _refine(make_enclosure, digits: int, depth_cap: int = _DEPTH_CAP) -> tuple[int, int]:
    """(floor(10**digits * c), digits) for the int digits in 1..MAX_DIGITS, at the first
    depth 1, ..., depth_cap whose enclosure of c is at most 10**-(digits+2) wide and whose
    bounds truncate alike, the lower to a nonnegative value, else CertificationError."""
    digits = _integer(digits, 1, "digits", MAX_DIGITS)
    for depth in range(1, depth_cap + 1):
        enclosure = make_enclosure(depth)
        if (enclosure.high - enclosure.low) * 10 ** (digits + 2) <= enclosure.denominator:
            agreed = enclosure.truncation_agreed(digits)
            if agreed is not None:
                return agreed, digits
    raise CertificationError(f"depth {depth_cap} does not certify {digits} digits")


def density_series_report(k: int, digits: int) -> DecimalReport:
    """h = D(1/k), certified through γ's stepper by the identity proved at
    pal_free_density; D's functional equation and the series are its references."""
    return DecimalReport(_rendered(*_refine(lambda j: _h_enclosure(k, j), digits)))


def closed_form_report(k: int, terms: int, digits: int) -> DecimalReport:
    """D(1/k) certified by the functional equation, stepped at most 2 * terms
    (and _DEPTH_CAP) deep, then checked against the series enclosure at the
    fewest terms N whose tail 1/((k-1) k**N) is at most 10**-(digits+2): it
    fails rather than guessing if the depth runs out or that enclosure misses the digits."""
    depth_cap = min(2 * _integer(terms, 1, "terms"), _DEPTH_CAP)
    truncation, digits = _refine(lambda j: _functional_enclosure(k, j), digits, depth_cap)
    N = max(1, math.ceil((digits + 2) / math.log10(k)) - 1)
    while (k - 1) * k ** N < 10 ** (digits + 2):
        N += 1
    series, scale = density_series_enclosure(k, N), 10 ** digits
    if not series.low * scale // series.denominator <= truncation <= (
            series.high * scale // series.denominator):
        raise CertificationError(
            f"the functional equation and the series disagree at {digits} digits")
    return DecimalReport(_rendered(truncation, digits))


# ---------------------------------------------------------------------------
# limiting densities


def pal_free_density(k: int, digits: int) -> DecimalReport:
    """The limiting no-palindromic-prefix density ρ = (k-2)/(k-1) γ, certified
    through γ's stepper; at k = 2 it is exactly 0.

    Proof: with the counts p(n) = k p(n-1) - p(ceil(n/2)) (no palindromic prefix) and
    u(n) = k u(n-1) - [n even] u(n/2) (unbordered), d(n) = (k-1) p(n) - (k-2) u(n) is
    p(n//2 + 1): d(1) = k = p(1), d(2m+1) = k d(2m) - (k-1) p(m+1) = p(m+1), and d(2m) =
    k d(2m-1) - d(m) = k p(m) - p(m//2 + 1) = p(m+1), as ceil((m+1)/2) = m//2 + 1.
    Divided by k**n, p(n//2 + 1) <= k**(n//2 + 1) vanishes: (k-1) ρ = (k-2) γ."""
    return DecimalReport(
        _rendered(*_refine(lambda j: _h_enclosure(k, j).complement(2, k + 1), digits)))


def unbordered_density_enclosure(k: int, N: int) -> Enclosure:
    """Enclosure of γ, the limiting fraction of unbordered words:
    1 - sum over m >= 1 of u(m) / k**(2m), the reference for unbordered_density.

    A bordered word's shortest border is unbordered and at most half its
    length, so the length-n words with shortest border m number
    u(m) * k**(n-2m), and u(n) / k**n = 1 - sum over m <= n/2 of
    u(m) / k**(2m).  Letting n grow gives the series, and u(n) / k**n - γ =
    sum over m > n//2 of (u(m) / k**m) k**-m.  Each u(m) / k**m lies in
    [γ, γ + k**-(m//2) / (k-1)], as its excess over γ is such a sum, of
    terms in [0, k**-m'] since u(m') <= k**m'.  So, with q = k**-(n//2) / (k-1),
        γq <= u(n) / k**n - γ <= γq + sum over m > n//2 of k**(-m - m//2) / (k-1).
    """
    return _series_enclosure(k, _doubling(k, N, _unbordered_back), N).complement(1)


def unbordered_density(k: int, digits: int) -> DecimalReport:
    """The limiting unbordered density γ, certified by Nielsen's equation alone."""
    return DecimalReport(_rendered(*_refine(lambda j: _nielsen_enclosure(k, j), digits)))


def square_prefix_densities(k: int, n: int, min_square: CountSeq) -> tuple[Enclosure, Enclosure]:
    """Enclosures for the limiting densities of words with and without a square
    prefix, from min_square at 1..n: the with-square density is the sum over i of
    min_square(i) / k**(2i), and its n terms undershoot by at most k**(-n) / (k-1),
    as min_square(i) <= k**i.  The square-free density is its complement in 1."""
    k, n = _min_square_alphabet(k, n, min_square)
    with_square = _series_enclosure(k, (min_square[i] for i in range(1, n + 1)), n)
    return with_square, with_square.complement(1)


def unbordered_density_estimate(k: int, n: int) -> DecimalReport:
    """u(n) / k**n truncated to 16 places: an uncertified approximation of
    γ, within k**-(n//2) / (k-1) above it, kept only for the benchmark's gamma
    op until the benchmark revision.  unbordered_density certifies γ."""
    return DecimalReport(_rendered(unbordered_counts(k, n)[n] * 10 ** 16 // k ** n, 16))
