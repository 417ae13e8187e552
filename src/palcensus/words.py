"""Word primitives.

Words are immutable sequences of integer symbols over {0, ..., k-1}, and
``word_profile`` is the one public per-word query.  The tuple-level scans
(underscore names) for borders, palindromic prefixes and square prefixes are
naive on purpose, one slice comparison per candidate: obvious correctness
matters more than speed for the ground truth.  They, and the perfect shuffle
and its inverse, work on bare symbol tuples, so the verify suites can run
them over many words of a length without building a ``Word`` per candidate;
the scans are the oracle that the census engine and ``word_profile`` are
checked against.
"""

from __future__ import annotations

import functools
import operator

_TABLE36 = "0123456789abcdefghijklmnopqrstuvwxyz"


class _Record:
    """Base of the package's immutable value types, in place of a frozen
    dataclass (whose module imports ``inspect``, a cost every command would
    pay at start-up).

    The fields are the names in ``__slots__``, given by position or keyword
    and set once, past the raising ``__setattr__``; ``__post_init__`` then
    checks them.  Instances print as the tuple of their fields, and compare
    equal and hash by it too, unless the class defines its own ``_key``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls.__slots__
        # an __init__ written out per class, as dataclasses do, since a
        # generic loop over the fields makes Word(...) about 40% slower
        source = (
            f"def __init__(self, {', '.join(names)}):\n"
            + "".join(f"    _set(self, {name!r}, {name})\n" for name in names)
            + "    self.__post_init__()\n"
        )
        namespace = {"_set": object.__setattr__}
        exec(source, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        # C-level field access for __eq__ and __hash__, unless the class
        # defines its own key; with one field it returns the value itself
        if "_key" not in vars(cls):
            cls._key = operator.attrgetter(*names)

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Word(_Record):
    """A word over the alphabet {0, ..., k-1}.

    Positions are 1-based in prose and documentation, 0-based in storage.
    """

    __slots__ = ("k", "symbols")
    k: int
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        k = self.k
        if k < 1:
            raise ValueError(f"alphabet size must be at least 1, got {k}")
        for s in self.symbols:
            if not 0 <= s < k:
                raise ValueError(f"symbol {s!r} out of range for alphabet of size {k}")

    @classmethod
    def of(cls, symbols, k: int) -> "Word":
        """Build a word from any iterable of symbols over an alphabet of size k."""
        return cls(k, tuple(symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return format_word(self)


class WordProfile(_Record):
    """Structural summary of one word.

    Holds the set of short border lengths, the orders of its even and odd
    palindromic prefixes (a palindrome of length m has order m // 2; the
    single-letter palindrome is trivial and never listed), and the
    half-lengths of its square prefixes.  Every entry lies in
    {1, ..., len(w) // 2}.
    """

    __slots__ = (
        "short_borders", "even_pp_orders", "odd_pp_orders", "square_half_lengths"
    )
    short_borders: frozenset[int]
    even_pp_orders: frozenset[int]
    odd_pp_orders: frozenset[int]
    square_half_lengths: frozenset[int]


# ---------------------------------------------------------------------------
# tuple-level scans


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


def _has_pal_prefix(w: tuple[int, ...]) -> bool:
    for m in range(2, len(w) + 1):
        if w[:m] == w[m - 1::-1]:
            return True
    return False


def _shuffle(y: tuple[int, ...], z: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (2 * len(y))
    out[0::2] = y
    out[1::2] = z
    return tuple(out)


def _unshuffle(x: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return x[0::2], x[1::2]


# bit codes to shared values: one frozenset per distinct set and one record
# per distinct profile, each table bounded at 4096 entries
@functools.lru_cache(maxsize=4096)
def _entries(code: int) -> frozenset[int]:
    return frozenset(i for i in range(1, code.bit_length()) if code >> i & 1)


@functools.lru_cache(maxsize=4096)
def _profile(borders: int, evens: int, odds: int, squares: int) -> WordProfile:
    return WordProfile(_entries(borders), _entries(evens), _entries(odds), _entries(squares))


def word_profile(w: Word) -> WordProfile:
    """The four profile sets of w in one pass over the witnesses p >= 1 with
    s[p] == s[0] (a border of length i starts at p = n - i, a palindromic
    prefix has length p + 1, a square prefix half-length p), each compared
    letter by letter up to its first mismatch; equal profiles share a record."""
    s = w.symbols
    n = len(s)
    first = s[0] if n else None
    borders = evens = odds = squares = 0
    for p in range(1, n):
        if s[p] == first:
            i = 1  # is the prefix of length p + 1 a palindrome?
            while i < p - i and s[i] == s[p - i]:
                i += 1
            if i >= p - i:
                if p % 2:
                    evens |= 1 << (p + 1) // 2
                else:
                    odds |= 1 << p // 2
            # s[:m] == s[p:p + m] is a square (2p <= n) or a border (2p >= n)
            m = p if p <= n - p else n - p  # min(p, n - p), inlined for speed
            i = 1
            while i < m and s[i] == s[p + i]:
                i += 1
            if i >= m:
                if 2 * p <= n:
                    squares |= 1 << p
                if 2 * p >= n:
                    borders |= 1 << n - p
    return _profile(borders, evens, odds, squares)


# ---------------------------------------------------------------------------
# text form

# Words are displayed with digits for k <= 10, letters a, b, c, ... for
# k <= 26 (so English example words work over k = 26), the combined
# digits-then-letters table for k <= 36, and comma-separated integers beyond.


def parse_word(text: str, k: int) -> Word:
    """Parse the textual form of a word over an alphabet of size k.

    Accepts comma-separated integers for any k.  Otherwise: all-letter words
    map a..z to 0..25 (requires k <= 26), and digit/letter strings map each
    character to its index in 0-9a-z (requires k <= 36).
    """
    text = text.strip()
    if not text:
        return Word.of((), k)
    if "," in text or k > 36:
        try:
            values = tuple(int(part.strip()) for part in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse {text!r} as comma-separated integers") from None
        return Word.of(values, k)
    lowered = text.lower()
    if lowered.isalpha() and lowered.isascii() and k <= 26:
        return Word.of((ord(c) - ord("a") for c in lowered), k)
    if k <= 36 and all(c in _TABLE36 for c in lowered):
        return Word.of((_TABLE36.index(c) for c in lowered), k)
    raise ValueError(
        f"cannot parse {text!r} over an alphabet of size {k}; "
        "use comma-separated integers"
    )


def format_word(w: Word) -> str:
    """Canonical text form of a word; inverse of parse_word for each k."""
    k = w.k
    if 10 < k <= 26:
        return "".join(chr(ord("a") + s) for s in w.symbols)
    if k <= 36:
        return "".join(_TABLE36[s] for s in w.symbols)
    return ",".join(str(s) for s in w.symbols)
