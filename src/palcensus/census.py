"""Exhaustive classification of the words of a given length.

Counts come from a depth-first walk over the prefix tree of the canonical
words, whose letters first appear in the order 0, 1, 2, ...: every family
and profile depends only on where letters repeat, so one word per renaming
class stands for the perm(k, d) words that rename its d distinct letters.
The walk tests only each newly extended prefix.  A family that forbids a
palindromic or square prefix loses the whole subtree below the first one;
unbordered words and the profile walk keep the KMP failure array of the
current prefix instead; list_profile runs the profile walk too and renames
the letters of each canonical word it keeps in every way.  The budget still
counts all k**n words (or roots).  The words module's naive scans are the
independent route, checked by verify and the tests.

The subtree below a fixed prefix is a prefix block, so the search space may
be partitioned by canonical prefixes and the weighted partial counts summed,
optionally across worker processes; results are identical whatever the
partitioning, and completed counts are memoised per process.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from enum import Enum

from .words import Word

DEFAULT_BUDGET = 1 << 26


class BudgetExceededError(ValueError):
    """Enumerating the requested space would exceed the configured budget."""


class Family(Enum):
    """Word families counted by the census.

    All families count length-n words except MIN_SQUARE, which counts squares
    of length 2n (indexed by the half-length n) having no nonempty proper
    square prefix.
    """

    UNBORDERED = "unbordered"
    NO_EVEN_PP = "no-even-pp"
    NO_ODD_PP = "no-odd-pp"
    NO_PAL_PREFIX = "no-pal-prefix"
    NO_SQUARE_PREFIX = "no-square-prefix"
    HAS_SQUARE_PREFIX = "has-square-prefix"
    MIN_SQUARE = "min-square"


class ProfileKind(Enum):
    # in the order of the profile masks and counters
    SHORT_BORDERS = "borders"
    EVEN_PP_ORDERS = "even-pp"
    ODD_PP_ORDERS = "odd-pp"


def _check_budget(k: int, n: int, budget: int) -> None:
    space = k ** n
    if space > budget:
        raise BudgetExceededError(
            f"enumerating {k}**{n} = {space} words exceeds the budget of {budget}"
        )


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _iter_words(k: int, n: int):
    """All length-n words, in lexicographic order."""
    return itertools.product(range(k), repeat=n)


def _words_up_to_renaming(k: int, n: int, w: tuple[int, ...] = (), used: int = 0):
    """The length-n words whose letters first appear in the order 0, 1, 2,
    ..., each with the number of words that rename its letters, perm(k, d)
    for d distinct letters: one representative per renaming class."""
    if len(w) == n:
        yield w, math.perm(k, used)
        return
    for a in range(min(used + 1, k)):
        yield from _words_up_to_renaming(k, n, w + (a,), max(used, a + 1))


def _canonical_blocks(k: int, n: int, workers: int) -> list:
    """The canonical prefixes, with their class sizes, of the shortest length
    up to n that has at least 4 * workers of them; k = 1 has one per length."""
    length = 0
    blocks = [((), 1)]
    while k > 1 and length < n and len(blocks) < 4 * workers:
        length += 1
        blocks = list(_words_up_to_renaming(k, length))
    return blocks


def _walk_levels(k: int, n: int, prefix: tuple[int, ...]):
    """The (letter, weight, used after) choices of a walk below prefix, per depth
    and per number `used` of distinct letters: prefix renamed canonically, which
    keeps every count, then each used letter and the first unused for k - used."""
    names: dict[int, int] = {}
    pinned = [[[(names.setdefault(c, len(names)), 1, len(names))]] * (k + 1) for c in prefix]
    branches = [[(c, 1, used) for c in range(used)] for used in range(k + 1)]
    for used in range(k):
        branches[used].append((used, k - used, used + 1))
    return pinned + [branches] * (n - len(prefix))


# ---------------------------------------------------------------------------
# the prefix-tree walks; each covers the words that extend a fixed prefix


def _palindrome_letter(w: tuple[int, ...]):
    """The letter c for which w + c is a palindrome, or None."""
    rest = w[1:]
    return w[0] if rest == rest[::-1] else None


def _square_letter(w: tuple[int, ...]):
    """The letter c for which w + c is a square, or None; len(w) is odd."""
    half = len(w) // 2
    return w[half] if w[:half] == w[half + 1:] else None


def _straddling_letters(u: tuple[int, ...]) -> set[int]:
    """The letters c for which ww, w = u + c, has a square prefix of
    half-length j with n/2 < j < n, n = len(w); the shorter ones are square
    prefixes of w, which the walk has pruned.  Such a square is a border of
    w of length b = n - j (so c = u[b - 1]) with w[b:j] = w[:j - b]."""
    n = len(u) + 1
    return {
        u[b - 1]
        for b in range(1, (n + 1) // 2)
        if u[b] == u[0] and u[:b - 1] == u[n - b:] and u[b:n - b] == u[:n - 2 * b]
    }


# family -> (the letter whose extension of a prefix is forbidden, the first
# prefix length that test applies to, the step between the lengths it
# applies to, the letters a leaf test rejects or None).  A forbidden prefix
# stays in every extension, so the walk drops the subtree below it.
_PRUNED_FAMILIES = {
    Family.NO_EVEN_PP: (_palindrome_letter, 2, 2, None),
    Family.NO_ODD_PP: (_palindrome_letter, 3, 2, None),
    Family.NO_PAL_PREFIX: (_palindrome_letter, 2, 1, None),
    Family.NO_SQUARE_PREFIX: (_square_letter, 2, 2, None),
    Family.MIN_SQUARE: (_square_letter, 2, 2, _straddling_letters),
}


def _count_pruned(k: int, n: int, family: Family, prefix: tuple[int, ...]) -> int:
    forbidden, first, step, leaf = _PRUNED_FAMILIES[family]
    tested = [m >= first and (m - first) % step == 0 for m in range(n + 1)]
    levels = _walk_levels(k, n, prefix)
    fixed = len(prefix)

    def walk(w: tuple[int, ...], used: int) -> int:
        m = len(w)
        dead = forbidden(w) if tested[m + 1] else None
        if m + 1 == n:
            # every rejected letter occurs in w: a used letter, of weight 1
            rejected = {dead} if leaf is None else leaf(w) | {dead}
            rejected.discard(None)
            if m < fixed:
                return sum(weight for c, weight, _ in levels[m][used] if c not in rejected)
            return k - len(rejected)
        total = 0
        for c, weight, after in levels[m][used]:
            if c != dead:
                total += weight * walk(w + (c,), after)
        return total

    return walk((), 0)


def _count_unbordered(k: int, n: int, prefix: tuple[int, ...]) -> int:
    w = [0] * n
    # fail[m]: length of the longest proper border of w[:m]
    fail = [0] * (n + 1)
    levels = _walk_levels(k, n, prefix)
    fixed = len(prefix)

    def walk(m: int, used: int) -> int:
        if m == n - 1:
            # w[:m] + c is bordered iff c is w[0] or the letter after a border
            bordered = {w[0]} if m else set()
            b = fail[m]
            while b:
                bordered.add(w[b])
                b = fail[b]
            if m < fixed:
                return sum(weight for c, weight, _ in levels[m][used] if c not in bordered)
            return k - len(bordered)
        total = 0
        longest = fail[m]
        for c, weight, after in levels[m][used]:
            b = longest
            while b and w[b] != c:
                b = fail[b]
            fail[m + 1] = b + 1 if m and w[b] == c else 0
            w[m] = c
            total += weight * walk(m + 1, after)
        return total

    return walk(0, 0)


def _family_block(k: int, n: int, family: Family, prefix: tuple[int, ...]) -> int:
    """Number of length-n words starting with prefix that lie in family
    (HAS_SQUARE_PREFIX excepted: it is counted as a complement)."""
    if family is Family.UNBORDERED:
        return _count_unbordered(k, n, prefix)
    return _count_pruned(k, n, family, prefix)


def _walk_profiles(k: int, n: int, prefix: tuple[int, ...], leaf) -> None:
    """Call leaf(w, used, weight, masks) on each canonical length-n word w
    starting with prefix (the walk's buffer), with its number of distinct
    letters, the number of words it stands for and its (short-border mask,
    even-order mask, odd-order mask); bit i of a mask stands for i."""
    w = [0] * n
    # fail[m]: length of the longest proper border of w[:m], -1 for m = 0
    fail = [-1] + [0] * n
    half = n // 2
    levels = _walk_levels(k, n, prefix)

    def walk(m: int, used: int, words: int, evens: int, odds: int) -> None:
        length = m + 1
        longest = fail[m]
        for c, weight, after in levels[m][used]:
            b = longest
            while b >= 0 and w[b] != c:
                b = fail[b]
            b += 1
            w[m] = c
            e, o = evens, odds
            # a palindrome ends in its first two letters reversed: test those
            # before comparing slices
            if m and c == w[0] and w[1] == w[m - 1] and w[:length] == w[m::-1]:
                if length % 2:
                    o |= 1 << (length // 2)
                else:
                    e |= 1 << (length // 2)
            if length < n:
                fail[length] = b
                walk(length, after, words * weight, e, o)
                continue
            borders = 0
            while b:
                if b <= half:
                    borders |= 1 << b
                b = fail[b]
            leaf(w, after, words * weight, (borders, e, o))

    if n:
        walk(0, 0, 1, 0, 0)
    else:
        leaf(w, 0, 1, (0, 0, 0))


def _profile_block(k: int, n: int, prefix: tuple[int, ...]) -> Counter:
    """Counter of the masks over the length-n words starting with prefix."""
    counts: Counter = Counter()

    def add(w, used, weight, masks) -> None:
        counts[masks] += weight

    _walk_profiles(k, n, prefix, add)
    return counts


def _map_blocks(worker, argument_lists, workers: int):
    workers = min(workers, len(argument_lists))
    if workers > 1:
        # imported only here, so that a process which never starts a pool
        # does not load multiprocessing and logging
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, *zip(*argument_lists)))
    return [worker(*args) for args in argument_lists]


_family_cache: dict[tuple[int, int, Family], int] = {}
_profile_cache: dict[tuple[int, int], tuple[Counter, Counter, Counter]] = {}


def census_family(
    k: int,
    n: int,
    family: Family,
    *,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> int:
    """Exact number of words in the family, by full enumeration.

    HAS_SQUARE_PREFIX is counted as k**n minus the square-prefix-free count,
    and either of the two answers the other from the memo; MIN_SQUARE
    enumerates the k**n length-n roots w and keeps those whose doubling ww
    has no nonempty proper square prefix.
    """
    if k < 1 or n < 1:
        raise ValueError(f"census needs k >= 1 and n >= 1, got k={k}, n={n}")
    _check_jobs(jobs)
    key = (k, n, family)
    if key not in _family_cache:
        _check_budget(k, n, budget)
        walked = Family.NO_SQUARE_PREFIX if family is Family.HAS_SQUARE_PREFIX else family
        workers = min(jobs, os.cpu_count() or 1)
        blocks = _canonical_blocks(k, n, workers)
        parts = _map_blocks(_family_block, [(k, n, walked, b) for b, _ in blocks], workers)
        value = sum(size * part for (_, size), part in zip(blocks, parts))
        _family_cache[k, n, walked] = value
        if walked is Family.NO_SQUARE_PREFIX:
            _family_cache[k, n, Family.HAS_SQUARE_PREFIX] = k ** n - value
    return _family_cache[key]


def _mask_set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(1, mask.bit_length()) if mask >> i & 1)


def _profile_counters(
    k: int, n: int, *, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> tuple[Counter, Counter, Counter]:
    _check_jobs(jobs)
    key = (k, n)
    cached = _profile_cache.get(key)
    if cached is not None:
        return cached
    _check_budget(k, n, budget)
    workers = min(jobs, os.cpu_count() or 1)
    blocks = _canonical_blocks(k, n, workers)
    parts = _map_blocks(_profile_block, [(k, n, b) for b, _ in blocks], workers)
    result = (Counter(), Counter(), Counter())
    for (_, size), part in zip(blocks, parts):
        for masks, count in part.items():
            for counter, mask in zip(result, masks):
                counter[_mask_set(mask)] += size * count
    _profile_cache[key] = result
    return result


def _validate_profile_set(n: int, profile_set) -> frozenset[int]:
    if n < 0:
        raise ValueError(f"profile length must be at least 0, got {n}")
    wanted = frozenset(profile_set)
    bad = sorted(
        str(i) for i in wanted if not isinstance(i, int) or not 1 <= i <= n // 2
    )
    if bad:
        raise ValueError(
            f"profile set entries must lie in 1..{n // 2} for length {n}, got {bad}"
        )
    return wanted


def census_profile(
    k: int,
    n: int,
    kind: ProfileKind,
    profile_set,
    *,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> int:
    """Number of length-n words whose profile set of the given kind equals
    profile_set exactly (the empty set asks for words with no such structure)."""
    wanted = _validate_profile_set(n, profile_set)
    counters = _profile_counters(k, n, budget=budget, jobs=jobs)
    return counters[list(ProfileKind).index(kind)][wanted]


def list_profile(
    k: int,
    n: int,
    kind: ProfileKind,
    profile_set,
    *,
    budget: int = DEFAULT_BUDGET,
) -> list[Word]:
    """The words census_profile counts, in lexicographic order: each
    canonical word of the profile under every renaming of its letters."""
    wanted = _validate_profile_set(n, profile_set)
    _check_budget(k, n, budget)
    index, mask = list(ProfileKind).index(kind), sum(1 << i for i in wanted)
    kept = []

    def keep(w, used, weight, masks) -> None:
        if masks[index] == mask:
            kept.extend(
                tuple(names[c] for c in w)
                for names in itertools.permutations(range(k), used)
            )

    _walk_profiles(k, n, (), keep)
    return [Word.of(w, k) for w in sorted(kept)]
