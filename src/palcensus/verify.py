"""Cross-checking suites that wire each module against an independent route.

Every suite runs its checks exhaustively up to the given bounds (silently
clipped to the enumeration budget), collects failure descriptions, and
reports how many individual checks ran.  The CLI prints one line per suite
and exits nonzero if anything failed.

The reference route lives here, beside the checks that read it: the naive
border, palindromic-prefix and square-prefix scans, one slice comparison per
candidate, and the generator of one word per letter-renaming class they run
on.  Neither the census engine nor ``words.word_profile`` calls them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from .census import (
    Family,
    ProfileKind,
    _longest,
    _profile_counter,
    census_family,
    list_profile,
)
from .constants import (
    _functional_enclosure,
    _h_enclosure,
    _nielsen_enclosure,
    density_series,
    density_series_enclosure,
    square_prefix_densities,
    unbordered_density_enclosure,
)
from .maps import (
    _adjacent_sum_preimages,
    _adjacent_sums,
    _milk_shuffle,
    _milk_unshuffle,
    milk_shuffle_order,
    milk_shuffle_permutation,
    permutation_order,
)
from .recurrences import family_counts, min_square_counts, no_pal_prefix_ratios
from .words import _integer, _shuffle, _unshuffle

_MAX_REPORTED_FAILURES = 5
# the suites' default budget: their naive word scans run about a thousand
# times slower per word than the census
VERIFY_BUDGET = 1 << 16
# the largest k_max: the constants and recurrences suites work at every k whatever
# the budget; `verify --suite all --n-max 12` took 7.8 s at k_max 30, 16 s at 120
# and 21-24 s at 150 on a 2-CPU box
MAX_VERIFY_K = 120


class SuiteResult:
    """One suite's check count and failures: at most five, in the order they
    happened, each check's first (a check is its message up to " at ") and
    then as many others as fit."""

    __slots__ = ("name", "checks", "_count", "_firsts", "_repeats")

    def __init__(self, name: str) -> None:
        self.name, self.checks, self._count = name, 0, 0  # _count: every failure
        # (index, message) of each check's first failure, and of the others
        self._firsts: dict[str, tuple[int, str]] = {}
        self._repeats: list[tuple[int, str]] = []

    @property
    def failures(self) -> list[str]:
        room = _MAX_REPORTED_FAILURES - len(self._firsts)
        shown = sorted([*self._firsts.values(), *self._repeats[:room]])
        messages = [message for _, message in shown]
        if len(messages) < self._count:
            messages.append("... further failures suppressed")
        return messages

    @property
    def passed(self) -> bool:
        # a suite that ran no check proves nothing
        return self.checks > 0 and not self._count

    def fail(self, message: str) -> None:
        check = message.split(" at ", 1)[0]
        if check not in self._firsts and len(self._firsts) < _MAX_REPORTED_FAILURES:
            self._firsts[check] = (self._count, message)
        elif len(self._repeats) < _MAX_REPORTED_FAILURES:
            self._repeats.append((self._count, message))
        self._count += 1


# ---------------------------------------------------------------------------
# the reference route, naive on purpose: obvious correctness matters more than
# speed for the ground truth


def _border_set(w: tuple[int, ...]) -> frozenset[int]:
    n = len(w)
    return frozenset(i for i in range(1, n) if w[:i] == w[n - i:])


def _short_border_set(w: tuple[int, ...]) -> frozenset[int]:
    n = len(w)
    return frozenset(i for i in range(1, n // 2 + 1) if w[:i] == w[n - i:])


def _even_pp_set(w: tuple[int, ...]) -> frozenset[int]:
    # w[2i-1::-1] is the reversed prefix of length 2i
    return frozenset(
        i for i in range(1, len(w) // 2 + 1) if w[:2 * i] == w[2 * i - 1::-1]
    )


def _odd_pp_set(w: tuple[int, ...]) -> frozenset[int]:
    return frozenset(
        i for i in range(1, (len(w) - 1) // 2 + 1) if w[:2 * i + 1] == w[2 * i::-1]
    )


def _square_half_set(w: tuple[int, ...]) -> frozenset[int]:
    return frozenset(
        j for j in range(1, len(w) // 2 + 1) if w[:j] == w[j:2 * j]
    )


def _words_up_to_renaming(k: int, n: int):
    """The length-n words whose letters first appear in the order 0, 1, 2,
    ..., each with the number of words that rename its letters, perm(k, d)
    for d distinct letters: one representative per renaming class, in
    lexicographic order."""
    stack = [((), 0)]
    while stack:
        w, used = stack.pop()
        if len(w) == n:
            yield w, math.perm(k, used)
        else:
            for a in range(min(used + 1, k) - 1, -1, -1):
                stack.append((w + (a,), max(used, a + 1)))


# ---------------------------------------------------------------------------
# the suites


def _lengths(k: int, n_max: int, budget: int) -> range:
    return range(1, min(n_max, _longest(k, budget)) + 1)


def _classes(result: SuiteResult, k: int, n: int):
    """One word per letter-renaming class of length n, for checks about positions;
    then checks that the class sizes add up to k**n, so dropped words fail."""
    total = 0
    for w, size in _words_up_to_renaming(k, n):
        total += size
        yield w
    if total != k ** n:
        result.fail(f"renaming classes cover {total} of the {k ** n} words at k={k}, n={n}")
    result.checks += 1


def suite_bijection(k_max: int, n_max: int, budget: int) -> SuiteResult:
    """Milk shuffle is an involution pair, maps border sets to even-order
    sets word by word (one word per renaming class), and its permutation
    order matches the power-of-two congruence."""
    result = SuiteResult("bijection")
    for k in range(2, k_max + 1):
        for n in _lengths(k, n_max, budget):
            for w in _classes(result, k, n):
                image = _milk_shuffle(w)
                if _milk_unshuffle(image) != w:
                    result.fail(f"round trip failed at k={k}, w={w}")
                if _short_border_set(w) != _even_pp_set(image):
                    result.fail(
                        f"border set != even-order set of image at k={k}, w={w}"
                    )
                result.checks += 2
            borders = _profile_counter(k, n, ProfileKind.SHORT_BORDERS, budget=budget)
            if borders != _profile_counter(k, n, ProfileKind.EVEN_PP_ORDERS, budget=budget):
                result.fail(f"profile censuses disagree at k={k}, n={n}")
            result.checks += 1
        # image lists coincide set-wise, not just in count; a listed word holds
        # about 300 bytes, so they run at the longest n <= 8 with k**n <= 3**8
        n = min(8, n_max, _longest(k, min(budget, 3 ** 8)))
        if n >= 1:
            borders = _profile_counter(k, n, ProfileKind.SHORT_BORDERS, budget=budget)
            for wanted in sorted(borders, key=sorted):
                with_borders = list_profile(
                    k, n, ProfileKind.SHORT_BORDERS, wanted, budget=budget
                )
                with_orders = list_profile(
                    k, n, ProfileKind.EVEN_PP_ORDERS, wanted, budget=budget
                )
                mapped = sorted(_milk_shuffle(w.symbols) for w in with_borders)
                if mapped != sorted(w.symbols for w in with_orders):
                    result.fail(f"image list mismatch at k={k}, n={n}, set={wanted}")
                result.checks += 1
    for n in range(2, 201):
        if permutation_order(milk_shuffle_permutation(n)) != milk_shuffle_order(n):
            result.fail(f"shuffle order mismatch at n={n}")
        result.checks += 1
    return result


def suite_g_map(k_max: int, n_max: int, budget: int) -> SuiteResult:
    """On every word (sums mod k do not commute with renaming): adjacent sums
    are exactly k-to-1, turn odd orders into even ones, and not the reverse."""
    result = SuiteResult("g-map")
    for k in range(2, k_max + 1):
        for n in _lengths(k, n_max, budget):
            for w in itertools.product(range(k), repeat=n):
                if _odd_pp_set(w) != _even_pp_set(_adjacent_sums(w, k)):
                    result.fail(f"order correspondence failed at k={k}, w={w}")
                result.checks += 1
        for n in _lengths(k, min(n_max, 8), budget):
            for x in itertools.product(range(k), repeat=n - 1):
                preimages = set(_adjacent_sum_preimages(x, k))
                if any(_adjacent_sums(w, k) != x for w in preimages):
                    result.fail(f"preimage does not map back at k={k}, x={x}")
                if len(preimages) != k:
                    result.fail(f"expected {k} distinct preimages at k={k}, x={x}")
                result.checks += 1
    # the even-to-odd analogue must fail somewhere: the middle letter breaks it
    if all(
        _even_pp_set(w) == _odd_pp_set(_adjacent_sums(w, 2))
        for n in range(1, 9)
        for w in itertools.product(range(2), repeat=n)
    ):
        result.fail("even-to-odd analogue unexpectedly held on all short binary words")
    result.checks += 1
    return result


def _naive_census(k: int, n: int):
    """Family counts and profile counters of length n from the naive word
    scans: the second route for the census engine.

    Renaming the letters keeps every border, palindromic prefix and square, so
    the word scans run on one word per renaming class, weighted by class size.
    The classes come from this module's own generator, not the census's walk,
    so the two routes share no code.
    """
    classes: Counter = Counter()
    for w, size in _words_up_to_renaming(k, n):
        squares = _square_half_set(w)
        # w is the root of a minimal square iff ww's only square prefix is ww
        # (a square prefix of w is one of ww)
        minimal = not squares and _square_half_set(w + w) == {n}
        profile = _short_border_set(w), _even_pp_set(w), _odd_pp_set(w)
        classes[profile, bool(squares), minimal] += size
    families: Counter = Counter()
    profiles = {kind: Counter() for kind in ProfileKind}
    for ((borders, evens, odds), squared, minimal), count in classes.items():
        families[Family.UNBORDERED] += count * (not borders)
        families[Family.NO_EVEN_PP] += count * (not evens)
        families[Family.NO_ODD_PP] += count * (not odds)
        families[Family.NO_PAL_PREFIX] += count * (not evens and not odds)
        families[Family.NO_SQUARE_PREFIX] += count * (not squared)
        families[Family.HAS_SQUARE_PREFIX] += count * squared
        families[Family.MIN_SQUARE] += count * minimal
        profiles[ProfileKind.SHORT_BORDERS][borders] += count
        profiles[ProfileKind.EVEN_PP_ORDERS][evens] += count
        profiles[ProfileKind.ODD_PP_ORDERS][odds] += count
    return families, profiles


def _times(k: int, counter: Counter) -> Counter:
    return Counter({key: k * count for key, count in counter.items()})


def _count_identity(k: int, n: int, p, u) -> bool:
    """(k-1) p(n) = (k-2) u(n) + p(n//2 + 1) for the no-palindromic-prefix counts p and
    the unbordered counts u, proved at constants.pal_free_density: it ties each
    family's counts to the other's."""
    return (k - 1) * p[n] == (k - 2) * u[n] + p[n // 2 + 1]


def suite_counts(k_max: int, n_max: int, budget: int) -> SuiteResult:
    """The census equals a naive filter over all words and every family's
    sequence, and on both routes the two families obey the count identity; its
    profile counters equal the naive ones and obey the parity laws."""
    result = SuiteResult("counts")
    even, odd = ProfileKind.EVEN_PP_ORDERS, ProfileKind.ODD_PP_ORDERS
    for k in range(2, k_max + 1):
        lengths = _lengths(k, n_max, budget)
        if not lengths:
            continue
        sequences = {
            family: family_counts(k, max(lengths), family, budget=budget)
            for family in Family
        }
        counters, counted = {}, {family: {} for family in Family}
        for n in lengths:
            families, profiles = _naive_census(k, n)
            for family in Family:
                got = counted[family][n] = census_family(k, n, family, budget=budget)
                for route, other in (
                    ("naive filter", families[family]),
                    ("recurrence", sequences[family][n]),
                ):
                    if got != other:
                        result.fail(
                            f"{family.value} mismatch at k={k}, n={n}: "
                            f"census {got}, {route} {other}"
                        )
                    result.checks += 1
            for route, counts in (("census", counted), ("recurrences", sequences)):
                if not _count_identity(k, n, counts[Family.NO_PAL_PREFIX],
                                       counts[Family.UNBORDERED]):
                    result.fail(f"count identity failed on the {route} at k={k}, n={n}")
                result.checks += 1
            for kind in ProfileKind:
                counters[n, kind] = _profile_counter(k, n, kind, budget=budget)
                if counters[n, kind] != profiles[kind]:
                    result.fail(f"{kind.value} profile census mismatch at k={k}, n={n}")
                result.checks += 1
            # a letter appended to an even (odd) length cannot close an even
            # (odd) palindromic prefix, so that profile grows k-fold; at odd
            # lengths the odd profile equals the even one
            laws = [counters[n, odd] == counters[n, even]] if n % 2 else []
            if n > 1:
                if n % 2:
                    laws.append(counters[n, even] == _times(k, counters[n - 1, even]))
                else:
                    laws += [
                        counters[n, odd] == _times(k, counters[n - 1, odd]),
                        counters[n, odd] == _times(k, counters[n - 1, even]),
                    ]
            for holds in laws:
                if not holds:
                    result.fail(f"profile parity law failed at k={k}, n={n}")
                result.checks += 1
    return result


def suite_recurrences(k_max: int, n_max: int, budget: int) -> SuiteResult:
    """Exact identities among the ratio and square sequences."""
    result = SuiteResult("recurrences")
    N = 200
    for k in range(2, k_max + 1):
        ratios = no_pal_prefix_ratios(k, N)
        # halving identity in exact rationals
        for n in range(2, N // 2 + 1):
            if ratios[2 * n] != ratios[2 * n - 2] - (k + 1) * ratios[n] * Fraction(1, k ** n):
                result.fail(f"halving ratio identity failed at k={k}, n={n}")
            result.checks += 1
        # telescoped form
        partial = Fraction(0)
        for n in range(1, N // 2 + 1):
            partial += ratios[n] * Fraction(1, k ** n)
            if ratios[2 * n] != 2 - (k + 1) * partial:
                result.fail(f"telescoped identity failed at k={k}, n={n}")
            result.checks += 1
        # square-prefix-free counts from the parity recurrence against the
        # convolution over the census's minimal-square counts
        top = min(n_max, 12, _longest(k, budget))
        if top:
            min_square = family_counts(k, top // 2 or 1, Family.MIN_SQUARE, budget=budget)
            free = family_counts(k, top, Family.NO_SQUARE_PREFIX, budget=budget)
            for n in range(2, top + 1):
                has = sum(min_square[i] * k ** (n - 2 * i) for i in range(1, n // 2 + 1))
                if free[n] != k ** n - has:
                    result.fail(f"square-prefix convolution failed at k={k}, n={n}")
                result.checks += 1
            for i, count in enumerate(min_square.values, 1):
                if not 0 <= count <= k ** i:
                    result.fail(f"min-square count out of range at k={k}, i={i}")
                result.checks += 1
    return result


def suite_constants(k_max: int, n_max: int, budget: int) -> SuiteResult:
    """Enclosures match the per-term reference and nest, the functional
    equation balances, its iterated enclosure and the h derived from γ's meet
    the series enclosure and each other and shrink doubly exponentially, the
    density bounds hold, and the count ratios approach their limits at the proved rates."""
    result = SuiteResult("constants")
    for k in range(2, max(k_max, 3) + 1):
        # one Fraction per term: the stepper checks below read the kernel to 256
        for N in (10, 40, 64):
            if density_series_enclosure(k, N) != density_series(k, Fraction(1, k), N):
                result.fail(f"series kernel differs from the Fraction sum at k={k}, N={N}")
            for name, enclose in (("series", density_series_enclosure),
                                  ("unbordered", unbordered_density_enclosure)):
                outer, inner = enclose(k, N), enclose(k, 2 * N)
                if not (outer.lower <= inner.lower and inner.upper <= outer.upper):
                    result.fail(f"{name} enclosures failed to nest at k={k}, N={N}")
            result.checks += 3
        for x in (Fraction(1, k), Fraction(1, 2 * k), Fraction(1, k * k)):
            direct = density_series(k, x, 40)
            inner = density_series(k, x * x / k, 40)
            offset = 2 * x / (1 - x)
            coefficient = (x + k) / (x * (x - 1))  # negative: the bounds swap
            low, high = offset + coefficient * inner.upper, offset + coefficient * inner.lower
            if max(direct.lower, low) > min(direct.upper, high):
                result.fail(f"functional equation enclosures disjoint at k={k}, x={x}")
            result.checks += 1
    # the certified routes to D(1/k), to γ and to h from γ, paired so that their widths
    # are comparable: about k**-N for the series, k**(1 - 2**(j+2)) for depth j
    for k in range(2, max(k_max, 5) + 1):
        for N, j in ((16, 1), (16, 2), (64, 3), (64, 4), (256, 5), (256, 6)):
            for name, stepper, reference, slack in (
                ("functional-equation", _functional_enclosure, density_series_enclosure, 3),
                ("Nielsen-equation", _nielsen_enclosure, unbordered_density_enclosure, 4),
                ("gamma-derived h", _h_enclosure, density_series_enclosure, 4),
            ):
                closed, series = stepper(k, j), reference(k, N)
                if max(closed.lower, series.lower) > min(closed.upper, series.upper):
                    result.fail(
                        f"{name} enclosure left the series enclosure at k={k}, N={N}, j={j}")
                if closed.width * k ** (2 ** (j + 2) - slack) > 1:
                    result.fail(f"{name} enclosure too wide at k={k}, j={j}")
                result.checks += 2
            # (k-1) ρ = (k-2) γ through D's stepper, which reads neither γ nor ρ
            derived, functional = _h_enclosure(k, j), _functional_enclosure(k, j)
            if max(derived.lower, functional.lower) > min(derived.upper, functional.upper):
                result.fail(f"gamma-derived h left D's enclosure at k={k}, j={j}")
            result.checks += 1
    for k in range(2, max(k_max, 5) + 1):
        # at depth 1 the with-square enclosure's top is the bound 1/(k-1) itself
        depth = min(7, _longest(k, budget))
        if depth < 2:
            continue
        min_square = min_square_counts(k, depth, budget=budget)
        with_square, square_free = square_prefix_densities(k, depth, min_square)
        if not with_square.upper < Fraction(1, k - 1):
            result.fail(f"with-square density bound failed at k={k}")
        floor = Fraction(0) if k == 2 else 1 - Fraction(1, k - 1)
        if not square_free.lower > floor:
            result.fail(f"square-free density bound failed at k={k}")
        result.checks += 2
    # tail control: even-index ratios approach the limiting density geometrically
    for k in range(2, k_max + 1):
        ratios = no_pal_prefix_ratios(k, 64)
        limit = density_series_enclosure(k, 256).complement(2, k + 1)  # ρ = 2 - (k+1) h
        for n in (4, 8, 16, 32):
            bound = Fraction(k + 1, k ** n * (k - 1))
            here = ratios[2 * n]
            if here < limit.lower - bound or here > limit.upper + bound:
                result.fail(f"ratio strayed from the limiting density at k={k}, n={n}")
            result.checks += 1
        # the two-sided rate proved in unbordered_density_enclosure, for every
        # γ in the count-free enclosure, of width below k**-256.  With
        # w = (k-1) k**(n//2), 1 + q = (w+1)/w; k**(-m - m//2) over m >= M sums
        # to k**-(M + M//2) (k**3 + k**(2 - M%2)) / (k**3 - 1), so the tail
        # times k**n K, K = (k**3 - 1)(k - 1), is the integer t.  Both sides are
        # cleared of denominators, as Fractions at 253 lengths would cost more
        # than the rest of the suite.
        unbordered = family_counts(k, 256, Family.UNBORDERED, budget=budget)
        gamma = _nielsen_enclosure(k, 7)
        low, high, den = gamma.low, gamma.high, gamma.denominator
        K = (k ** 3 - 1) * (k - 1)
        for n in range(4, 257):
            M = n // 2 + 1
            t = (k ** 3 + k ** (2 - M % 2)) * k ** (n - M - M // 2)
            w = (k - 1) * k ** (n // 2)
            u, top = unbordered[n], (w + 1) * k ** n
            if not (high * top <= u * w * den and u * w * K * den <= low * top * K + t * w * den):
                result.fail(f"unbordered ratio strayed from its limit at k={k}, n={n}")
            result.checks += 1
    return result


def _pal_prefix_lemma(p: tuple[int, ...], m: int) -> bool:
    """For a palindrome p whose prefix of length m > |p|/2 is a palindrome:
    is its prefix of length 2m - |p| one too?  It must be, as
    p[i] = p[m-1-i] = p[|p|-m+i] = p[2m-|p|-1-i] for i < 2m - |p|."""
    short = p[:2 * m - len(p)]
    return short == short[::-1]


def suite_lemmas(k_max: int, n_max: int, budget: int) -> SuiteResult:
    """Word-level facts, on one word per renaming class: shuffle-palindrome
    splitting, reversal of shuffles, long borders and long palindromic
    prefixes forcing shorter ones, and the reflection-extension equivalence."""
    result = SuiteResult("lemmas")
    for k in range(2, k_max + 1):
        # an even-length word is a palindrome iff its unshuffled second track
        # is the reverse of the first
        for n in _lengths(k, n_max, budget):
            if n % 2:
                continue
            for x in _classes(result, k, n):
                y, z = _unshuffle(x)
                if (x == x[::-1]) != (z == y[::-1]):
                    result.fail(f"shuffle-palindrome splitting failed at k={k}, x={x}")
                result.checks += 1
        # reversing a shuffle shuffles the reversals, swapped
        for n in range(0, min(5, n_max // 2, _longest(k, budget) // 2) + 1):
            for v in _classes(result, k, 2 * n):
                y, z = v[:n], v[n:]
                if _shuffle(y, z)[::-1] != _shuffle(z[::-1], y[::-1]):
                    result.fail(f"shuffle reversal law failed at k={k}, y={y}, z={z}")
                result.checks += 1
        # long borders force short ones
        for n in _lengths(k, min(n_max, 12), budget):
            for w in _classes(result, k, n):
                # the shortest border, if any, is at most half the word
                if min(_border_set(w), default=0) > n // 2:
                    result.fail(f"long border without short border at k={k}, w={w}")
                result.checks += 1
        # a palindromic prefix longer than half of a palindrome forces a
        # shorter one, though not always a nontrivial one (000)
        for n in range(1, min(n_max, 2 * _longest(k, budget)) + 1):
            head = (n + 1) // 2
            for half_word in _classes(result, k, head):
                p = half_word + half_word[::-1][n % 2:]
                for m in range(n // 2 + 1, n):
                    if p[:m] == p[m - 1::-1]:
                        if not _pal_prefix_lemma(p, m):
                            result.fail(
                                f"palindromic prefix lemma failed at k={k}, "
                                f"p={p}, m={m}"
                            )
                        result.checks += 1
        # appending the reflection preserves having a palindromic prefix
        for length in range(0, min(8, n_max, _longest(k, budget)) + 1):
            for w in _classes(result, k, length):
                for middle in [()] + [(a,) for a in range(k)]:
                    mirrored = w + middle + w[::-1]
                    direct = bool(_even_pp_set(w + middle) or _odd_pp_set(w + middle))
                    reflected = any(
                        mirrored[:m] == mirrored[m - 1::-1]
                        for m in range(2, len(mirrored))
                    )
                    if direct != reflected:
                        result.fail(
                            f"reflection equivalence failed at k={k}, w={w}, a={middle}"
                        )
                    result.checks += 1
    return result


SUITES = {
    "bijection": suite_bijection,
    "g-map": suite_g_map,
    "counts": suite_counts,
    "recurrences": suite_recurrences,
    "constants": suite_constants,
    "lemmas": suite_lemmas,
}


def run_suites(
    names,
    *,
    k_max: int = 3,
    n_max: int = 10,
    budget: int = VERIFY_BUDGET,
) -> list[SuiteResult]:
    # below k = 2, n = 1 or the two words of that length, no suite scans a word
    k_max = _integer(k_max, 2, "--k-max", MAX_VERIFY_K)
    n_max = _integer(n_max, 1, "--n-max")
    budget = _integer(budget, 2, "--budget")
    return [SUITES[name](k_max, n_max, budget) for name in names]
