"""Count sequences from recurrences, their exact-ratio companions, and a
persistent store for the brute-forced minimal-square counts.

One kernel, _doubling, streams the unbordered, no-palindromic-prefix and
square-prefix-free counts, which all double as c(m) = k * c(m-1) - back(m).
Everything is arbitrary-precision: counts are Python ints, ratios are
fractions.  No floating point enters this module.
"""

from __future__ import annotations

import fcntl
import os
from fractions import Fraction
from pathlib import Path

from .census import DEFAULT_BUDGET, CheckFailure, Family, _longest, census_family
from .words import _integer, _Record


class MissingCountError(ValueError):
    """A derived sequence or enclosure needs counts that were not supplied."""


class CacheMismatchError(CheckFailure):
    """A cached count disagrees with its recomputation."""


class CountSeq(_Record):
    """Counts at n = 1..N (half-lengths for MIN_SQUARE): seq[n] is values[n - 1]."""

    __slots__ = ("k", "family", "values")
    k: int
    family: Family
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _integer(self.k, 2, "alphabet size")
        if not isinstance(self.values, tuple):
            raise TypeError(f"CountSeq values must be a tuple, not {type(self.values).__name__}")

    def __getitem__(self, n: int) -> int:
        if 1 <= n <= len(self.values):
            return self.values[n - 1]
        family = self.family.value
        raise MissingCountError(f"{family} count for k={self.k}, n={n} was not computed")


def _require(k: int, N: int) -> tuple[int, int]:
    """The int k, at least 2, and the int sequence length N, at least 1."""
    return _integer(k, 2, "alphabet size"), _integer(N, 1, "sequence length")


def _doubling(k: int, N: int, back):
    """Yield c(1..N) for c(1) = k and c(m) = k * c(m-1) - back(m, kept), where
    kept[m] = c(m) for m <= ceil(N/2) is all that back may read of the stream
    (it may read a sequence of its own), so half the counts are held.  A zero
    back is not subtracted, as x - 0 would copy the big int x."""
    k, N = _require(k, N)
    kept = [0]
    count = k
    for m in range(1, N + 1):
        if m > 1:
            subtracted = back(m, kept)
            count = k * count - subtracted if subtracted else k * count
        if 2 * m <= N + 1:
            kept.append(count)
        yield count


def _no_pal_prefix_back(m: int, kept: list[int]) -> int:
    return kept[(m + 1) // 2]


def _unbordered_back(m: int, kept: list[int]) -> int:
    return 0 if m % 2 else kept[m // 2]


def no_pal_prefix_counts(k: int, N: int) -> CountSeq:
    """Counts of length-n words with no nontrivial palindromic prefix.

    Starts from count(1) = k and count(2) = k**2 - k and doubles upward:

        count(2n)   = k * count(2n-1) - count(n)
        count(2n+1) = k * count(2n)   - count(n+1)

    Appending a letter preserves the property unless the whole word just
    became a palindrome; those new palindromes are in bijection with the
    prefix-free words of half the (rounded-up) length, which is what the
    subtracted term removes.
    """
    return CountSeq(k, Family.NO_PAL_PREFIX, tuple(_doubling(k, N, _no_pal_prefix_back)))


# budget for the cross-check of the unbordered recurrence against the
# census: all lengths n <= 14 whose cumulative word count stays below this
# (the full range for k = 2; fewer lengths for larger alphabets, where the
# enumeration would dominate the run).  The census memo answers a repeat.
_VALIDATION_WORDS = 60_000


def _validate_unbordered(k: int, budget: int) -> None:
    total, longest = 0, _longest(k, budget)
    for n, value in enumerate(_doubling(k, 14, _unbordered_back), 1):
        total += k ** n
        if total > _VALIDATION_WORDS or n > longest:
            break
        counted = census_family(k, n, Family.UNBORDERED, budget=budget)
        if value != counted:
            raise CheckFailure(f"unbordered recurrence disagrees with the census at "
                               f"k={k}, n={n}: {value} != {counted}")


def unbordered_counts(k: int, N: int, *, budget: int = DEFAULT_BUDGET) -> CountSeq:
    """Counts of length-n unbordered words.

    Uses u(1) = k, u(2) = k**2 - k, u(2n+1) = k*u(2n), and
    u(2n) = k*u(2n-1) - u(n).  Each call cross-checks the recurrence
    against the enumeration census at the short lengths.
    """
    k, N = _require(k, N)
    _validate_unbordered(k, budget)
    return CountSeq(k, Family.UNBORDERED, tuple(_doubling(k, N, _unbordered_back)))


def min_square_counts(
    k: int,
    N: int,
    *,
    cache: "CacheStore | None" = None,
    budget: int = DEFAULT_BUDGET,
    verify_cache: bool = False,
    jobs: int = 1,
) -> CountSeq:
    """Counts of length-2n squares with no nonempty proper square prefix,
    indexed by the half-length n.

    There is no known recurrence, so values come from the census (k**n roots
    per length) and are remembered in the persistent cache when one is given.
    With verify_cache, hits are recomputed and compared.
    """
    k, N = _require(k, N)
    jobs, budget = _integer(jobs, 1, "jobs"), _integer(budget, 0, "budget")
    values: list[int] = []
    dirty = False
    for n in range(1, N + 1):
        stored = cache.get(k, n) if cache is not None else None
        if stored is None or verify_cache:
            computed = census_family(k, n, Family.MIN_SQUARE, budget=budget, jobs=jobs)
            if stored is not None and stored != computed:
                raise CacheMismatchError(
                    f"cached min-square count for k={k}, n={n} is {stored}; "
                    f"recomputation gives {computed}"
                )
            if cache is not None and stored is None:
                cache.put(k, n, computed)
                dirty = True
            stored = computed
        values.append(stored)
    if dirty and cache is not None:
        cache.save()
    return CountSeq(k, Family.MIN_SQUARE, tuple(values))


def _min_square_alphabet(k: int, N: int, min_square: CountSeq) -> tuple[int, int]:
    """k and N through _require, if min_square holds minimal-square counts over k."""
    k, N = _require(k, N)
    if min_square.family is not Family.MIN_SQUARE or min_square.k != k:
        raise ValueError(f"square-prefix counts over k={k} need min-square counts over "
                         f"k={k}, got {min_square.family.value} counts over k={min_square.k}")
    return k, N


def square_prefix_counts(
    k: int, N: int, min_square: CountSeq
) -> tuple[CountSeq, CountSeq]:
    """(square-prefix-free, has-square-prefix) counts for lengths 1..N.

    A word with a square prefix has a unique minimal one, so the counts with
    a square prefix convolve:  has(n) = sum over 2i <= n of min_square(i)
    times k**(n-2i).  Hence has(n) = k * has(n-1) + min_square(n/2) at even
    n, and the free counts free(n) = k**n - has(n) double like the others:
    free(1) = k and free(n) = k * free(n-1) - [n even] * min_square(n/2).
    Requires min_square to hold k's minimal-square counts up to N // 2.
    """
    k, N = _min_square_alphabet(k, N, min_square)
    free = tuple(_doubling(k, N, lambda m, kept: 0 if m % 2 else min_square[m // 2]))
    has = tuple(k ** n - count for n, count in enumerate(free, 1))
    return (
        CountSeq(k, Family.NO_SQUARE_PREFIX, free),
        CountSeq(k, Family.HAS_SQUARE_PREFIX, has),
    )


def family_counts(
    k: int,
    N: int,
    family: Family,
    *,
    cache: "CacheStore | None" = None,
    budget: int = DEFAULT_BUDGET,
    verify_cache: bool = False,
    jobs: int = 1,
) -> CountSeq:
    """Counts of a census family for lengths 1..N (half-lengths for
    MIN_SQUARE), the one table from a family to its sequence.  The milk
    shuffle maps no-even-pp onto the unbordered words; adjacent sums map
    no-odd-pp k-to-1 onto no-even-pp one letter shorter, so it counts
    k * u(n-1), which is u(n) at odd n.  The square-prefix families come from
    the minimal-square counts.  The keywords are those of min_square_counts;
    budget also bounds the unbordered check."""
    jobs, budget = _integer(jobs, 1, "jobs"), _integer(budget, 0, "budget")
    if family in (Family.UNBORDERED, Family.NO_EVEN_PP, Family.NO_ODD_PP):
        u = unbordered_counts(k, N, budget=budget).values
        if family is Family.NO_ODD_PP:
            u = tuple(count if n % 2 else k * u[n - 2] for n, count in enumerate(u, 1))
        return CountSeq(k, family, u)
    if family is Family.NO_PAL_PREFIX:
        return no_pal_prefix_counts(k, N)
    min_square = min_square_counts(
        k, N if family is Family.MIN_SQUARE else max(N // 2, 1),
        cache=cache, budget=budget, verify_cache=verify_cache, jobs=jobs,
    )
    if family is Family.MIN_SQUARE:
        return min_square
    free, has = square_prefix_counts(k, N, min_square)
    return free if family is Family.NO_SQUARE_PREFIX else has


def no_pal_prefix_ratios(k: int, N: int) -> dict[int, Fraction]:
    """The exact fractions count(n) / k**n for the no-palindromic-prefix
    counts; each lies in [0, 1]."""
    values = {}
    for n, count in enumerate(no_pal_prefix_counts(k, N).values, 1):
        values[n] = Fraction(count, k ** n)
        if not 0 <= values[n] <= 1:
            raise CheckFailure(f"ratio out of range at k={k}, n={n}: {values[n]}")
    return values


# ---------------------------------------------------------------------------
# persistent cache


class CacheStore:
    """TSV-backed store of minimal-square counts.

    One record per line: k, n, and the count, tab-separated and sorted by
    (k, n).  Anything else in the file is rejected outright.  Several
    processes may share one file: save merges under a lock.
    """

    def __init__(self, path: os.PathLike | str) -> None:
        self.path = Path(path)
        self._values: dict[tuple[int, int], int] | None = None

    def _read(self) -> dict[tuple[int, int], int]:
        values: dict[tuple[int, int], int] = {}
        if self.path.exists():
            previous: tuple[int, int] | None = None
            for lineno, line in enumerate(self.path.read_text().splitlines(), 1):
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(
                        f"{self.path}:{lineno}: expected 3 tab-separated fields, "
                        f"got {line!r}"
                    )
                try:
                    k, n, count = (int(p) for p in parts)
                except ValueError:
                    raise ValueError(
                        f"{self.path}:{lineno}: non-integer field in {line!r}"
                    ) from None
                if k < 1 or n < 1 or count < 0:
                    raise ValueError(f"{self.path}:{lineno}: out-of-range record {line!r}")
                if previous is not None and (k, n) <= previous:
                    raise ValueError(
                        f"{self.path}:{lineno}: records must be sorted by (k, n)"
                    )
                values[(k, n)] = count
                previous = (k, n)
        return values

    def _load(self) -> dict[tuple[int, int], int]:
        if self._values is None:
            self._values = self._read()
        return self._values

    def get(self, k: int, n: int) -> int | None:
        return self._load().get((k, n))

    def put(self, k: int, n: int, count: int) -> None:
        """Store count for (k, n) as ints, refused where _read would refuse the record."""
        record = _integer(k, 1, "alphabet size"), _integer(n, 1, "half-length")
        self._load()[record] = _integer(count, 0, "min-square count")

    def save(self) -> None:
        """Write this store's values merged with what the file holds now.

        Under an exclusive lock on the sidecar ``<name>.lock``, the file is
        read again, so entries another process saved since this store
        loaded are kept; the merge goes to a temporary file named after
        this process and replaces the file.  Two values for one (k, n)
        raise CacheMismatchError and leave the file as it was.
        """
        values = self._load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = self.path.with_name(self.path.name + ".lock")
        with open(lock_path, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            merged = self._read()
            for (k, n), count in values.items():
                saved = merged.setdefault((k, n), count)
                if saved != count:
                    raise CacheMismatchError(
                        f"{self.path} holds min-square count {saved} for "
                        f"k={k}, n={n}; this process has {count}"
                    )
            temp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
            lines = [f"{k}\t{n}\t{count}\n" for (k, n), count in sorted(merged.items())]
            temp.write_text("".join(lines))
            os.replace(temp, self.path)
        self._values = merged


def default_cache_path(directory: os.PathLike | str | None = None) -> Path:
    """The cache file location, in `directory` if given (the command line's
    --cache-dir), else in $PALCENSUS_CACHE if set, else in a directory under
    the usual per-user data path."""
    root = directory or os.environ.get("PALCENSUS_CACHE")
    if root:
        directory = Path(root)
    else:
        xdg = os.environ.get("XDG_DATA_HOME")
        base = Path(xdg) if xdg else Path.home() / ".local" / "share"
        directory = base / "palcensus"
    return directory / "min_square_counts.tsv"
