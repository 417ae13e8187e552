"""Exhaustive classification of the words of a given length.

Each family and profile kind is a sequence of patterns, each the equalities
w[a] == w[b] over a set of position pairs: a border of length i pairs t with
n-i+t, a palindromic prefix of length m pairs t with m-1-t, and a square
prefix of half-length j pairs t with j+t (mod n for min-square, a square
prefix of ww).  A family is the words holding none of its patterns, a
profile set the patterns a word holds.  One engine walks the canonical
prefixes of length n - L (letters first appear as 0, 1, 2, ...), each
standing for the perm(k, d) renamings of its d letters, drops the subtree
below a prefix that holds a forbidden pattern, and decides the k**L
completions of each prefix at once as the bits of one integer: a pattern is
the AND of letter and pair-equality masks cached per (k, L).  The census
needs k >= 2, as the recurrences and densities it is checked against do.
The budget counts all k**n words (or roots), by the one rule _longest.  The
walk is the engine's one canonical-word generator; verify keeps its own, and
the naive word scans, as the independent route.
The walk is cut into blocks below canonical prefixes.  A census whose work
(the completions its canonical prefixes decide) is below a measured cutoff
counts a few blocks in-process whatever jobs is (so does every family
census the default budget admits); a larger one with jobs > 1 starts a
pool of its own and hands it about 64 blocks per worker, one at a time,
with identical results.  Completed counts are memoised per process, and
read only after _gate has checked the query.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from enum import Enum
from functools import lru_cache

# CheckFailure is defined in words, so that the parser can test it without
# importing the census; it stays importable from here
from .words import CheckFailure, Word, _entries, _integer

DEFAULT_BUDGET = 1 << 26
# the k**L completions of one prefix are the bits of an integer of at most
# this many bits
_MASK_BITS = 1 << 12
# letters always walked: from length 5 on, an in-process census walks below
# its blocks (of 3 letters) before the masks take over, so verify sees both
_MIN_WALK = 4
# a census runs in-process, whatever jobs is, while its work is below this:
# its canonical prefixes of length n - L times the k**L completions each
# decides, times _PROFILE_COST for a profile of one kind (binary n = 25:
# borders took 5.5 times unbordered).  On a 2-CPU box the pool, its start
# included, broke even at work 2**26 (binary n = 27, ternary n = 18) for
# unbordered and lost for the pruned no-square-prefix; it paid from binary
# n = 28 for families and at n = 26 for borders and even-pp profiles.  A
# family the default budget admits has work at most k**n / k <= 2**25.
_POOL_MIN_WORK = 1 << 27
_PROFILE_COST = 5
# the fewest canonical blocks of an in-process census, so that verify checks
# the blocks a pool counts; a pool gets _BLOCKS_PER_WORKER per worker, each
# handed to the next worker that frees up, so pruning leaves none the larger
# share
_MIN_BLOCKS = 4
_BLOCKS_PER_WORKER = 64
# the most words list_profile builds: a listed word holds about 300 bytes,
# and `profile --list` printed 70 340 binary words of length 18 in 1.4 s at
# a peak of 39 MB on a 2-CPU box (140 680 took 2.9 s and 64 MB)
MAX_LISTED_WORDS = 1 << 16


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
    SHORT_BORDERS = "borders"
    EVEN_PP_ORDERS = "even-pp"
    ODD_PP_ORDERS = "odd-pp"


def _longest(k: int, budget: int) -> int:
    """The one budget rule: the largest n with k**n <= budget (0 when k > budget), k
    and budget through the integer check, found by multiplying up, never past
    budget * k."""
    k = _integer(k, 2, "alphabet size")
    budget = _integer(budget, 0, "budget")
    n, space = 0, k
    while space <= budget:
        n, space = n + 1, space * k
    return n


def _gate(k: int, n: int, budget: int, jobs: int = 1) -> tuple[int, int]:
    """The one check of every census query of an int length n, before the memo
    is read: jobs at least 1 and k at least 2, through the integer check, and
    the k**n words within the budget.  Returns the int k and jobs."""
    jobs = _integer(jobs, 1, "jobs")
    k = _integer(k, 2, "alphabet size")
    if n > _longest(k, budget):
        raise BudgetExceededError(f"enumerating {k}**{n} words exceeds the budget of {budget}")
    return k, jobs


def _canonical_blocks(k: int, n: int, count: int) -> list:
    """The canonical prefixes, with their class sizes (the walk's weights,
    perm(k, d) for d letters), of the shortest length up to n that has at
    least count of them, in lexicographic order."""
    length = next((m for m in range(n) if _canonical_count(k, m) >= count), n)
    return [(tuple(w), weight) for w, _, weight in _walk(k, length, ())]


def _canonical_count(k: int, n: int) -> int:
    """The number of canonical words of length n (counts[d] those with d
    letters)."""
    counts = [1] + [0] * k
    for _ in range(n):
        counts = [0] + [d * counts[d] + counts[d - 1] for d in range(1, k + 1)]
    return sum(counts)


def _split_length(k: int, n: int) -> int:
    """The number L of last letters decided at once: the most, up to
    n - _MIN_WALK, whose k**L completions fit in a mask."""
    return min(max(n - _MIN_WALK, 0), _longest(k, _MASK_BITS))


def _plan(k: int, n: int, workers: int, cost: int = 1) -> tuple[int, list, int]:
    """(split, blocks, processes) for a census on up to workers processes:
    _MIN_BLOCKS canonical blocks in-process (processes 1) when one worker is
    asked for or the work, cost times k**split per canonical prefix of
    length n - split, is below _POOL_MIN_WORK; else _BLOCKS_PER_WORKER per
    worker on as many workers as there are blocks, up to workers."""
    split = _split_length(k, n)
    stop = n - split
    if workers > 1 and cost * _canonical_count(k, stop) * k ** split >= _POOL_MIN_WORK:
        blocks = _canonical_blocks(k, stop, _BLOCKS_PER_WORKER * workers)
        return split, blocks, min(workers, len(blocks))
    return split, _canonical_blocks(k, stop, _MIN_BLOCKS), 1


# ---------------------------------------------------------------------------
# patterns: lists of pieces (A, B), nonempty ranges whose terms pair up as
# a < b, B rising; the pattern holds when w[a] == w[b] for every pair


def _palindrome(m: int) -> list:
    half = m // 2
    return [(range(half - 1, -1, -1), range(m - half, m))]


def _square(n: int, j: int) -> list:
    # w[t] == w[(j + t) % n] for t < j: a square prefix of ww
    if 2 * j <= n:
        return [(range(j), range(j, 2 * j))]
    return [(range(2 * j - n), range(n - j, j)), (range(n - j), range(j, n))]


# family -> its patterns at length n, by nondecreasing end; the family is the
# words that hold none
_PATTERNS = {
    Family.UNBORDERED: lambda n: [
        [(range(i), range(n - i, n))] for i in range(1, n // 2 + 1)
    ],
    Family.NO_EVEN_PP: lambda n: [_palindrome(2 * i) for i in range(1, n // 2 + 1)],
    Family.NO_ODD_PP: lambda n: [_palindrome(2 * i + 1) for i in range(1, (n + 1) // 2)],
    Family.NO_PAL_PREFIX: lambda n: [_palindrome(m) for m in range(2, n + 1)],
    Family.NO_SQUARE_PREFIX: lambda n: [_square(n, j) for j in range(1, n // 2 + 1)],
    Family.MIN_SQUARE: lambda n: [_square(n, j) for j in range(1, n)],
}
# per profile kind, the family whose i-th pattern puts i in the kind's set
_KIND_FAMILY = {
    ProfileKind.SHORT_BORDERS: Family.UNBORDERED,
    ProfileKind.EVEN_PP_ORDERS: Family.NO_EVEN_PP,
    ProfileKind.ODD_PP_ORDERS: Family.NO_ODD_PP,
}


@lru_cache(maxsize=8)
def _masks(k: int, split: int):
    """(letter, pair, full) over the k**split completions, completion c
    spelling c in base k: bit c of letter[q][x] is set when letter q of c is
    x, of pair[q][r] when letters q and r agree, and of full always."""
    full = (1 << k ** split) - 1
    letter = []
    for q in range(split):
        run = k ** (split - 1 - q)
        # a bit at the start of every k runs, shifted to the run of x
        starts = full // ((1 << k * run) - 1)
        letter.append([starts * ((1 << run) - 1) << x * run for x in range(k)])
    pair = [[sum(a & b for a, b in zip(p, q)) for q in letter] for p in letter]
    return letter, pair, full


def _slice(r: range) -> slice:
    # the slice that reads a nonempty range; a falling one may end at 0
    return slice(r.start, r.stop if r.stop >= 0 else None, r.step)


@lru_cache(maxsize=8)
def _compile(k: int, n: int, split: int, patterns) -> list:
    """The patterns(n), in order, compiled for prefixes of length n - split
    as (end, inside, letters, base): the prefix length that holds all its
    pairs (n when the completion takes part), its pairs inside the prefix as
    slices to compare, its completion letters q tied to prefix letters a as
    (a, q), and the AND of its pairs inside the completion."""
    stop = n - split
    _, pair, full = _masks(k, split)
    compiled = []
    for pieces in patterns(n):
        end, inside, letters, base = 0, [], [], full
        for a_range, b_range in pieces:
            end = max(end, b_range[-1] + 1)
            cut = min(max(stop - b_range.start, 0), len(b_range))
            if cut:
                inside.append((_slice(a_range[:cut]), _slice(b_range[:cut])))
            for a, b in zip(a_range[cut:], b_range[cut:]):
                if a < stop:
                    letters.append((a, b - stop))
                else:
                    base &= pair[a - stop][b - stop]
        compiled.append((end, inside, letters, base))
    return compiled


def _held(w, pattern, letter) -> int:
    """The completions of prefix w that hold the compiled pattern."""
    _, inside, letters, held = pattern
    for a, b in inside:  # a loop, not all() over a generator: no frame per call
        if w[a] != w[b]:
            return 0
    for a, q in letters:
        held &= letter[q][w[a]]
    return held


def _parts(w, compiled, letter, full) -> dict:
    """The completions of prefix w split by the patterns they hold: {mask
    with bit i for the i-th pattern: completions}."""
    parts = {0: full}
    for i, pattern in enumerate(compiled, 1):
        held = _held(w, pattern, letter)
        if held:
            parts = {
                key: bits
                for mask, part in parts.items()
                for key, bits in ((mask | 1 << i, part & held), (mask, part & ~held))
                if bits
            }
    return parts


# ---------------------------------------------------------------------------
# the prefix walk; a block covers the words that extend a canonical prefix


def _walk(k: int, length: int, prefix: tuple[int, ...], dead=None):
    """Yield (w, used, weight) for each canonical word w of the given length
    that extends the canonical prefix and has no prefix w[:m] for which
    dead(m, w) holds: w is the walk's buffer, used its number of distinct
    letters, and weight the number of words that rename the letters it adds,
    a first unused letter standing for k - used."""
    w = list(prefix) + [0] * (length - len(prefix))
    if dead is not None and any(dead(m, w) for m in range(1, len(prefix) + 1)):
        return
    # (m, c, used, weight): the prefix of length m, ending in letter c
    stack = [(len(prefix), None, len(set(prefix)), 1)]
    while stack:
        m, c, used, weight = stack.pop()
        if c is not None:
            w[m - 1] = c
            if dead is not None and dead(m, w):
                continue
        if m == length:
            yield w, used, weight
            continue
        for c in range(min(used + 1, k) - 1, -1, -1):
            grown = c == used
            stack.append(
                (m + 1, c, used + grown, weight * (k - used) if grown else weight)
            )


def _family_block(k: int, n: int, family: Family, split: int, prefix: tuple) -> int:
    """Number of length-n words starting with the canonical prefix that lie
    in family (HAS_SQUARE_PREFIX excepted: it is counted as a complement),
    the last split letters decided at once."""
    stop = n - split
    letter, _, full = _masks(k, split)
    # the patterns inside the prefix, by the prefix length that completes
    # them, and the rest
    within: dict[int, list] = {}
    past = []
    for pattern in _compile(k, n, split, _PATTERNS[family]):
        if pattern[0] <= stop:
            within.setdefault(pattern[0], []).append(pattern)
        else:
            past.append(pattern)

    def dead(m, w) -> bool:
        return any(_held(w, pattern, letter) for pattern in within.get(m, ()))

    total = 0
    for w, _, weight in _walk(k, stop, prefix, dead):
        # the walk held no pattern inside the prefix; the rest, in order,
        # until every completion holds one
        hit = 0
        for pattern in past:
            hit |= _held(w, pattern, letter)
            if hit == full:
                break
        total += weight * (full ^ hit).bit_count()
    return total


def _profile_block(k: int, n: int, family: Family, split: int, prefix: tuple) -> Counter:
    """A Counter of set masks (bit i for the family's i-th pattern) over the
    length-n words starting with the canonical prefix."""
    letter, _, full = _masks(k, split)
    compiled = _compile(k, n, split, _PATTERNS[family])
    counter = Counter()
    for w, _, weight in _walk(k, n - split, prefix):
        for mask, part in _parts(w, compiled, letter, full).items():
            counter[mask] += weight * part.bit_count()
    return counter


def _census(
    worker, k: int, n: int, arguments: tuple, jobs: int, cost: int = 1
) -> list:
    """(class size, worker(k, n, *arguments, split, block)) per block of
    _plan, in-process or on a pool of its own: one process per block up to
    min(jobs, CPUs), each block handed to the next free worker, and the pool
    shut down, its queued blocks cancelled and its processes joined, before
    the census returns or raises."""
    workers = min(jobs, os.cpu_count() or 1)
    split, blocks, needed = _plan(k, n, workers, cost)
    calls = [(k, n, *arguments, split, block) for block, _ in blocks]
    if needed < 2:
        parts = [worker(*args) for args in calls]
    else:
        # imported only here, so that a process which never starts a pool
        # does not load multiprocessing and logging
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=needed)
        try:
            parts = list(pool.map(worker, *zip(*calls)))
        finally:
            pool.shutdown(cancel_futures=True)
    return [(size, part) for (_, size), part in zip(blocks, parts)]


# (k, n, family) -> count, (k, n, kind) -> profile counter
_memo: dict = {}


def _memoised(count, k: int, n: int, what, jobs: int):
    """_memo[k, n, what], counted as count(k, n, what, jobs) on a miss; k is the
    int _gate returned, so 3.0 never reads 3's count."""
    if (k, n, what) not in _memo:
        _memo[k, n, what] = count(k, n, what, jobs)
    return _memo[k, n, what]


def _count_family(k: int, n: int, family: Family, jobs: int) -> int:
    return sum(size * part for size, part in _census(_family_block, k, n, (family,), jobs))


def census_family(
    k: int, n: int, family: Family, *, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> int:
    """Exact number of words in the family, by full enumeration.

    HAS_SQUARE_PREFIX is counted as k**n minus the square-prefix-free count,
    so either of the two answers the other from the memo; MIN_SQUARE
    enumerates the k**n length-n roots w and keeps those whose doubling ww
    has no nonempty proper square prefix.
    """
    n = _integer(n, 1, "census length")
    complement = family is Family.HAS_SQUARE_PREFIX
    walked = Family.NO_SQUARE_PREFIX if complement else family
    k, jobs = _gate(k, n, budget, jobs)
    value = _memoised(_count_family, k, n, walked, jobs)
    return k ** n - value if complement else value


def _count_profile(k: int, n: int, kind: ProfileKind, jobs: int) -> Counter:
    counter = Counter()
    for size, part in _census(_profile_block, k, n, (_KIND_FAMILY[kind],), jobs, _PROFILE_COST):
        for mask, count in part.items():
            counter[_entries(mask)] += size * count
    return counter


def _profile_counter(
    k: int, n: int, kind: ProfileKind, *, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Counter:
    """{profile set of the kind: number of length-n words with it}."""
    k, jobs = _gate(k, n, budget, jobs)
    return _memoised(_count_profile, k, n, kind, jobs)


def _validate_profile_set(n: int, profile_set) -> tuple[int, frozenset[int]]:
    """The int n, at least 0, and the profile set, its entries in 1..n // 2."""
    n = _integer(n, 0, "profile length")
    try:
        entries = frozenset(profile_set)
    except TypeError:
        raise ValueError(f"profile set must be a set of integers, got {profile_set!r}") from None
    return n, frozenset(_integer(i, 1, "profile set entry", n // 2) for i in entries)


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
    n, wanted = _validate_profile_set(n, profile_set)
    return _profile_counter(k, n, kind, budget=budget, jobs=jobs)[wanted]


def list_profile(
    k: int, n: int, kind: ProfileKind, profile_set, *, budget: int = DEFAULT_BUDGET
) -> list[Word]:
    """The words census_profile counts, in lexicographic order: the wanted
    completions of each canonical prefix, under every renaming of the
    prefix's letters (the letters it leaves unused follow in order).  Above
    MAX_LISTED_WORDS words of length n, the census counts the list first and
    refuses one that long before building any word."""
    n, wanted = _validate_profile_set(n, profile_set)
    k, _ = _gate(k, n, budget)
    if n > _longest(k, MAX_LISTED_WORDS):
        count = census_profile(k, n, kind, wanted, budget=budget)
        if count > MAX_LISTED_WORDS:
            raise BudgetExceededError(
                f"{count} words match, more than the {MAX_LISTED_WORDS} that may be "
                f"listed; count them without listing"
            )
    split = _split_length(k, n)
    letter, _, full = _masks(k, split)
    compiled = _compile(k, n, split, _PATTERNS[_KIND_FAMILY[kind]])
    mask = sum(1 << i for i in wanted)
    completions = list(itertools.product(range(k), repeat=split))
    kept = []
    for w, used, _ in _walk(k, n - split, ()):
        part = _parts(w, compiled, letter, full).get(mask, 0)
        if not part:
            continue
        words = [tuple(w) + tail for c, tail in enumerate(completions) if part >> c & 1]
        for names in itertools.permutations(range(k), used):
            names += tuple(c for c in range(k) if c not in names)
            kept += [tuple(map(names.__getitem__, word)) for word in words]
    return [Word.of(w, k) for w in sorted(kept)]
