"""Count sequences from recurrences, their exact-ratio companions, and a
persistent store for the brute-forced minimal-square counts.

Everything is arbitrary-precision: counts are Python ints, ratios are
fractions.  No floating point enters this module.
"""

from __future__ import annotations

import fcntl
import os
from fractions import Fraction
from pathlib import Path

from .census import DEFAULT_BUDGET, Family, census_family
from .words import _Record


class MissingCountError(ValueError):
    """A derived sequence or enclosure needs counts that were not supplied."""


class CacheMismatchError(ValueError):
    """A cached count disagrees with its recomputation."""


class CountSeq(_Record):
    """Nonnegative counts indexed by length (half-length for MIN_SQUARE)."""

    __slots__ = ("k", "family", "values")
    k: int
    family: Family
    values: dict[int, int]

    def __getitem__(self, n: int) -> int:
        try:
            return self.values[n]
        except KeyError:
            raise MissingCountError(
                f"{self.family.value} count for k={self.k}, n={n} was not computed"
            ) from None

    def __contains__(self, n: int) -> bool:
        return n in self.values

    @property
    def max_n(self) -> int:
        return max(self.values, default=0)


def _require(k: int, N: int) -> None:
    if k < 2:
        raise ValueError(f"recurrences need an alphabet of size at least 2, got {k}")
    if N < 1:
        raise ValueError(f"sequence length must be at least 1, got {N}")


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
    _require(k, N)
    values = {1: k}
    if N >= 2:
        values[2] = k * k - k
    for m in range(3, N + 1):
        if m % 2 == 0:
            values[m] = k * values[m - 1] - values[m // 2]
        else:
            values[m] = k * values[m - 1] - values[(m + 1) // 2]
    return CountSeq(k, Family.NO_PAL_PREFIX, values)


# budget for the cross-check of the unbordered recurrence against the
# census: all lengths n <= 14 whose cumulative word count stays below this
# (the full range for k = 2; fewer lengths for larger alphabets, where the
# enumeration would dominate the run).  The census memo answers a repeat.
_VALIDATION_WORDS = 60_000


def _unbordered_values(k: int, N: int) -> dict[int, int]:
    values = {1: k}
    if N >= 2:
        values[2] = k * k - k
    for m in range(3, N + 1):
        if m % 2 == 1:
            values[m] = k * values[m - 1]
        else:
            values[m] = k * values[m - 1] - values[m // 2]
    return values


def _validate_unbordered(k: int, budget: int) -> None:
    values = _unbordered_values(k, 14)
    total = 0
    for n in range(1, 15):
        total += k ** n
        if total > _VALIDATION_WORDS or k ** n > budget:
            break
        counted = census_family(k, n, Family.UNBORDERED, budget=budget)
        if values[n] != counted:
            raise RuntimeError(
                f"unbordered recurrence disagrees with the census at "
                f"k={k}, n={n}: {values[n]} != {counted}"
            )


def unbordered_counts(k: int, N: int, *, budget: int = DEFAULT_BUDGET) -> CountSeq:
    """Counts of length-n unbordered words.

    Uses u(1) = k, u(2) = k**2 - k, u(2n+1) = k*u(2n), and
    u(2n) = k*u(2n-1) - u(n).  Each call cross-checks the recurrence
    against the enumeration census at the short lengths.
    """
    _require(k, N)
    _validate_unbordered(k, budget)
    return CountSeq(k, Family.UNBORDERED, _unbordered_values(k, N))


def no_even_pp_counts(k: int, N: int, *, budget: int = DEFAULT_BUDGET) -> CountSeq:
    """Counts of length-n words with no even palindromic prefix.

    Equal to the unbordered counts at every length: the milk shuffle maps one
    family onto the other.
    """
    u = unbordered_counts(k, N, budget=budget)
    return CountSeq(k, Family.NO_EVEN_PP, dict(u.values))


def no_odd_pp_counts(k: int, N: int, *, budget: int = DEFAULT_BUDGET) -> CountSeq:
    """Counts of length-n words with no nontrivial odd palindromic prefix.

    Equals the unbordered count for odd n and k times the length-(n-1)
    unbordered count for even n.
    """
    u = unbordered_counts(k, N, budget=budget)
    values = {n: u[n] if n % 2 else k * u[n - 1] for n in range(1, N + 1)}
    return CountSeq(k, Family.NO_ODD_PP, values)


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
    With verify_cache, hits are recomputed and compared byte for byte.
    """
    _require(k, N)
    values: dict[int, int] = {}
    dirty = False
    for n in range(1, N + 1):
        stored = cache.get(k, n) if cache is not None else None
        if stored is not None and not verify_cache:
            values[n] = stored
            continue
        computed = census_family(k, n, Family.MIN_SQUARE, budget=budget, jobs=jobs)
        if stored is not None and str(stored) != str(computed):
            raise CacheMismatchError(
                f"cached min-square count for k={k}, n={n} is {stored}; "
                f"recomputation gives {computed}"
            )
        values[n] = computed
        if cache is not None and stored is None:
            cache.put(k, n, computed)
            dirty = True
    if dirty and cache is not None:
        cache.save()
    return CountSeq(k, Family.MIN_SQUARE, values)


def square_prefix_counts(
    k: int, N: int, min_square: CountSeq
) -> tuple[CountSeq, CountSeq]:
    """(square-prefix-free, has-square-prefix) counts for lengths 1..N.

    A word with a square prefix has a unique minimal one, so the counts with
    a square prefix convolve:  has(n) = sum over 2i <= n of min_square(i)
    times k**(n-2i), and free(n) = k**n - has(n).  Requires min_square to
    hold every half-length up to N // 2.
    """
    _require(k, N)
    free: dict[int, int] = {}
    has: dict[int, int] = {}
    for n in range(1, N + 1):
        has[n] = sum(min_square[i] * k ** (n - 2 * i) for i in range(1, n // 2 + 1))
        free[n] = k ** n - has[n]
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
    MIN_SQUARE) from the unbordered or no-palindromic-prefix recurrence, or
    from the minimal-square counts and their convolution.  The keywords are
    those of min_square_counts; budget also bounds the unbordered check."""
    if family is Family.UNBORDERED:
        return unbordered_counts(k, N, budget=budget)
    if family is Family.NO_EVEN_PP:
        return no_even_pp_counts(k, N, budget=budget)
    if family is Family.NO_ODD_PP:
        return no_odd_pp_counts(k, N, budget=budget)
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
    for n, count in no_pal_prefix_counts(k, N).values.items():
        values[n] = Fraction(count, k ** n)
        if not 0 <= values[n] <= 1:
            raise RuntimeError(f"ratio out of range at k={k}, n={n}: {values[n]}")
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
        self._load()[(k, n)] = count

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


def default_cache_path() -> Path:
    """The cache file location: $PALCENSUS_CACHE if set, else a directory
    under the usual per-user data path."""
    root = os.environ.get("PALCENSUS_CACHE")
    if root:
        directory = Path(root)
    else:
        xdg = os.environ.get("XDG_DATA_HOME")
        base = Path(xdg) if xdg else Path.home() / ".local" / "share"
        directory = base / "palcensus"
    return directory / "min_square_counts.tsv"
