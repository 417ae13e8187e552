"""Word primitives.

Words are immutable sequences of integer symbols over {0, ..., k-1}, with
a text form, and ``word_profile`` is the one public per-word query.  The
perfect shuffle and its inverse (underscore names) work on bare symbol
tuples, for the milk shuffle in ``maps`` and the shuffle lemmas in ``verify``.
The naive border, palindromic-prefix and square-prefix scans that
``word_profile`` and the census are checked against live in ``verify``.
``_integer`` is the package's one integer check: every alphabet size,
length, digit count, term count, job count and cache record passes it, and
its callers compute with the int it returns.

``word_profile`` scans a word of up to ``_UNROLLED`` (32) letters with a
kernel made for its length: straight-line code whose tests compare letters
at constant positions, about three times faster than the loop at 18
letters.  Each kernel is generated and compiled on its length's first call,
never at import, and kept in a table of at most one per length, so it pays
back only over many words of one length (about 340 at 18 letters).  Longer
words keep the loop, since a kernel's build grows as the square of the
length; the cutoff is provisional, as the comment on ``_UNROLLED`` says.
"""

from __future__ import annotations

import functools
import operator

_TABLE36 = "0123456789abcdefghijklmnopqrstuvwxyz"
_index = operator.index


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


def _integer(value, least: int, what: str, most: int | None = None) -> int:
    """value as an int of at least `least` (and at most `most`, if given), else
    ValueError naming `what`; 2.5, 3.0, Fraction(3), "3" and None are refused."""
    try:
        number = _index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if most is not None and not least <= number <= most:
        raise ValueError(f"{what} must lie in {least}..{most}, got {number}")
    if number < least:
        raise ValueError(f"{what} must be at least {least}, got {number}")
    return number


class Word(_Record):
    """A word over the alphabet {0, ..., k-1}.

    Positions are 1-based in prose and documentation, 0-based in storage.
    """

    __slots__ = ("k", "symbols")
    k: int
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        k = _integer(self.k, 1, "alphabet size")
        try:
            for s in map(_index, self.symbols):
                if not 0 <= s < k:
                    raise ValueError(f"symbol {s!r} out of range for alphabet of size {k}")
        except TypeError as error:
            raise ValueError(f"symbols must be integers: {error}") from None

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
# tuple-level shuffles


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


# the longest word word_profile hands to a kernel.  A kernel pays only a
# caller that profiles many words of one length.  Its build grows as n**2
# and its saving per call over the loop only as n: on a 2-CPU box the build
# took 0.22 ms at n = 8, 0.7 ms at 18, 2.0 ms at 32, 7.7 ms at 64 and 85 ms
# at 200, and paid back after about 230, 340, 510, 1070 and 4600 calls at
# that length.  A caller that profiles a word or two per length pays the
# build on each first call instead (0.2-2 ms against the loop's 1.4-5 us).
# 32 is provisional: the benchmark profiles only many words of length 18, so
# neither such a caller nor a word past 32 letters is measured end to end.
_UNROLLED = 32


@functools.lru_cache(maxsize=_UNROLLED + 1)
def _kernel(n: int):
    """word_profile's scan for words of length n, unrolled: the letters
    unpacked to locals s0, s1, ..., each witness p's palindrome and square or
    border test a chain of comparisons at constant positions, and each bit it
    sets a constant.  Unpacking refuses a word of any other length."""
    lines = [
        "def scan(w):",
        f"    [{', '.join(f's{i}' for i in range(n))}] = w",
        "    b = e = o = q = 0",
    ]
    for p in range(1, n):
        # s[:p + 1] is a palindrome, of order (p + 1) // 2
        palindrome = " and ".join(f"s{i} == s{p - i}" for i in range(1, (p + 1) // 2))
        # s[:m] == s[p:p + m] is a square (2p <= n) or a border (2p >= n)
        repeat = " and ".join(f"s{i} == s{p + i}" for i in range(1, min(p, n - p)))
        bits = [f"q |= {1 << p}"] * (2 * p <= n) + [f"b |= {1 << n - p}"] * (2 * p >= n)
        lines += [
            f"    if s{p} == s0:",
            f"        if {palindrome or True}: {'e' if p % 2 else 'o'} |= {1 << (p + 1) // 2}",
            f"        if {repeat or True}: {'; '.join(bits)}",
        ]
    lines.append("    return _profile(b, e, o, q)")
    namespace = {"_profile": _profile}
    exec("\n".join(lines), namespace)
    return namespace["scan"]


def word_profile(w: Word) -> WordProfile:
    """The four profile sets of w in one pass over the witnesses p >= 1 with
    s[p] == s[0] (a border of length i starts at p = n - i, a palindromic
    prefix has length p + 1, a square prefix half-length p), each compared
    letter by letter up to its first mismatch; equal profiles share a record.
    Words of up to _UNROLLED letters go to their length's kernel, longer ones
    through the loop below."""
    s = w.symbols
    n = len(s)
    if n <= _UNROLLED:
        return _kernel(n)(s)
    first = s[0]
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
