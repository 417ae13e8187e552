"""Word primitives: frozen examples plus exhaustive and generated invariants."""

import inspect
import itertools
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palcensus import words
from palcensus.verify import (
    _border_set,
    _even_pp_set,
    _odd_pp_set,
    _short_border_set,
    _square_half_set,
)
from palcensus.words import (
    Word,
    WordProfile,
    _shuffle,
    _unshuffle,
    format_word,
    parse_word,
    word_profile,
)


def letters(text):
    """The symbols of an English word over k = 26, for the tuple-level scans."""
    return parse_word(text, 26).symbols


def binary(text):
    return parse_word(text, 2).symbols


class TestPalindrome:
    # a whole word that is a palindrome is its longest palindromic prefix
    def test_radar(self):
        assert _odd_pp_set(letters("radar")) == {2}

    def test_empty(self):
        assert _even_pp_set(()) == _odd_pp_set(()) == frozenset()

    def test_not(self):
        assert _even_pp_set(binary("01")) == frozenset()


class TestPalPrefixOrders:
    def test_even_english(self):
        assert _even_pp_set(letters("diffident")) == {3}

    def test_odd_english(self):
        assert _odd_pp_set(letters("selfless")) == {3}

    def test_even_binary(self):
        assert _even_pp_set(binary("00110000")) == {1, 3}

    def test_trivial_prefixes_never_reported(self):
        # every nonempty word has palindromic prefixes of lengths 0 and 1;
        # neither may surface as an order
        for n in range(0, 8):
            for w in itertools.product(range(2), repeat=n):
                assert 0 not in _odd_pp_set(w)
                assert 0 not in _even_pp_set(w)


class TestBorders:
    def test_alfalfa(self):
        w = letters("alfalfa")
        assert _border_set(w) == {1, 4}
        assert _short_border_set(w) == {1}

    def test_chickpea(self):
        assert _border_set(letters("chickpea")) == frozenset()
        assert not _short_border_set(letters("chickpea"))

    def test_binary(self):
        assert _short_border_set(binary("01000010")) == {1, 3}

    def test_bordered(self):
        assert _short_border_set(letters("alfalfa"))

    def test_even_pal_prefix_but_unbordered(self):
        w = binary("0011")
        assert _even_pp_set(w) == {1}
        assert not _short_border_set(w)

    def test_long_border_implies_short(self):
        for n in range(1, 13):
            for w in itertools.product(range(2), repeat=n):
                if any(2 * i > n for i in _border_set(w)):
                    assert _short_border_set(w)


class TestSquares:
    def test_square_prefix(self):
        assert _square_half_set(binary("0011")) == {1}

    def test_none(self):
        assert _square_half_set(binary("01")) == frozenset()

    def test_whole_word(self):
        assert _square_half_set(binary("0101")) == {2}


class TestShuffle:
    def test_calliope(self):
        shuffled = _shuffle(letters("clip"), letters("aloe"))
        assert shuffled == letters("calliope")

    def test_empty(self):
        assert _shuffle((), ()) == ()

    def test_binary(self):
        assert _shuffle(binary("00"), binary("11")) == binary("0101")

    def test_unshuffle_calliope(self):
        assert _unshuffle(letters("calliope")) == (letters("clip"), letters("aloe"))

    def test_unshuffle_binary(self):
        assert _unshuffle(binary("0101")) == (binary("00"), binary("11"))
        assert _unshuffle(binary("00")) == (binary("0"), binary("0"))


def _has_pal_prefix(w):
    # a nontrivial palindromic prefix is even or odd: the two order sets
    return bool(_even_pp_set(w) or _odd_pp_set(w))


class TestPalPrefixPredicate:
    def test_examples(self):
        assert not _has_pal_prefix(binary("011"))
        assert _has_pal_prefix(binary("010"))
        assert _has_pal_prefix(binary("001"))

    def test_matches_order_sets(self):
        # the two order sets cover every palindromic prefix of length >= 2
        for n in range(0, 11):
            for w in itertools.product(range(2), repeat=n):
                expected = any(w[:m] == w[m - 1::-1] for m in range(2, n + 1))
                assert _has_pal_prefix(w) == expected


class TestProfile:
    def test_combined(self):
        profile = word_profile(parse_word("0110110", 2))
        assert profile.short_borders == {1}
        assert profile.even_pp_orders == {2}
        assert profile.odd_pp_orders == {3}
        assert profile.square_half_lengths == {3}

    def test_matches_the_naive_scans(self):
        assert _first_profile_mismatch(word_profile) is None

    def test_matches_the_naive_scans_past_the_exhaustive_range(self):
        # long words, where a match may run for many letters before the
        # first mismatch, or to the end of the word; they reach past the
        # kernels into the loop
        lengths = {len(w) for _, w in _LONG_CASES}
        assert {words._UNROLLED, words._UNROLLED + 1} <= lengths
        assert max(lengths) >= 2 * words._UNROLLED
        assert _first_profile_mismatch(word_profile, _LONG_CASES) is None

    @pytest.mark.parametrize(
        "old,new",
        [
            ("range(1, n)", "range(1, n - 1)"),  # stops at p = n - 2
            ("2 * p <= n", "2 * p < n"),  # misses the square of the whole word
            # a palindrome check that stops one pair early
            ("while i < p - i and", "while i < p - i - 1 and"),
            # a square or border check that skips its last letter
            ("while i < m and", "while i < m - 1 and"),
            # a palindrome test that rejects every odd length
            ("if i >= p - i:", "if i > p - i:"),
        ],
    )
    def test_naive_scans_see_a_planted_bug(self, old, new):
        # the loop runs only past the kernels, so the long words must see it
        source = inspect.getsource(words.word_profile)
        assert source.count(old) == 1
        namespace = dict(vars(words))
        exec(source.replace(old, new), namespace)
        assert _first_profile_mismatch(namespace["word_profile"], _LONG_CASES) is not None

    @pytest.mark.parametrize(
        "old,new",
        [
            # each palindrome chain without its last comparison
            ("range(1, (p + 1) // 2)", "range(1, (p - 1) // 2)"),
            # each square or border chain without its last comparison
            ("range(1, min(p, n - p))", "range(1, min(p, n - p) - 1)"),
            # the odd and even palindrome bits swapped
            ("'e' if p % 2 else 'o'", "'o' if p % 2 else 'e'"),
            # the square of the whole word (2p = n) skipped, then its border
            ("(2 * p <= n)", "(2 * p < n)"),
            ("(2 * p >= n)", "(2 * p > n)"),
            # p = n - 1 dropped
            ("for p in range(1, n):", "for p in range(1, n - 1):"),
            # even lengths scanned with the kernel of the next odd length
            ("_kernel(n)(s)", "_kernel(n | 1)(s)"),
        ],
    )
    def test_kernels_see_a_planted_bug(self, old, new):
        # a plant edits the generator, or else word_profile's dispatch
        sources = [inspect.getsource(words._kernel), inspect.getsource(words.word_profile)]
        target = 0 if old in sources[0] else 1
        assert sources[target].count(old) == 1
        sources[target] = sources[target].replace(old, new)
        namespace = dict(vars(words))
        exec("".join(sources), namespace)
        planted = namespace["word_profile"]
        try:
            found = _first_profile_mismatch(planted)
            if found is None:
                found = _first_profile_mismatch(planted, _LONG_CASES)
        except ValueError as error:  # a kernel unpacks only its own length
            found = str(error)
        assert found is not None

    def test_kernels_are_built_per_length_and_refuse_other_lengths(self):
        assert words._kernel.cache_info().maxsize == words._UNROLLED + 1
        kernel = words._kernel(6)
        assert words._kernel(6) is kernel and words._kernel(7) is not kernel
        assert kernel((0, 1, 1, 0, 1, 1)) is word_profile(parse_word("011011", 2))
        with pytest.raises(ValueError, match="unpack"):
            kernel((0, 1, 1, 0, 1))

    def test_equal_sets_are_shared(self):
        # equal profiles are one record, and equal sets one frozenset, also
        # across profiles that differ elsewhere; both tables are bounded
        first = word_profile(parse_word("0110110", 2))
        assert word_profile(parse_word("1001001", 2)) is first
        other = word_profile(parse_word("0110111", 2))
        assert other != first
        assert other.square_half_lengths is first.square_half_lengths
        assert other.even_pp_orders is first.even_pp_orders
        assert words._profile.cache_info().maxsize == 4096
        assert words._entries.cache_info().maxsize == 4096

    def test_entries_in_range(self):
        for n in range(0, 11):
            for w in itertools.product(range(2), repeat=n):
                profile = word_profile(Word.of(w, 2))
                for entries in (
                    profile.short_borders,
                    profile.even_pp_orders,
                    profile.odd_pp_orders,
                    profile.square_half_lengths,
                ):
                    assert all(1 <= i <= n // 2 for i in entries)


def _exhaustive_cases():
    for k, n_max in ((1, 8), (2, 12), (3, 7), (4, 5)):
        for n in range(n_max + 1):
            for w in itertools.product(range(k), repeat=n):
                yield k, w


def _long_cases():
    """Random words over k = 2, 3 and 26 from length 13, and periodic,
    Fibonacci and palindromic binary words and ternary squares from length
    0, all up to twice the longest word a kernel scans."""
    top = 2 * words._UNROLLED
    rng = random.Random(15)
    cases = [
        (k, tuple(rng.randrange(k) for _ in range(n)))
        for k in (2, 3, 26)
        for n in range(13, top + 1)
        for _ in range(20)
    ]
    fibonacci = "0"
    while len(fibonacci) < top:
        fibonacci = fibonacci.translate({48: "01", 49: "0"})  # 0 -> 01, 1 -> 0
    for n in range(top + 1):
        for period in ("0", "01", "001", "0110", "0010", "0100110"):
            cases.append((2, tuple(map(int, (period * n)[:n]))))
        cases.append((2, tuple(map(int, fibonacci[:n]))))
        half = tuple(map(int, fibonacci[:n // 2]))
        cases.append((2, half + (1,) * (n % 2) + half[::-1]))
        cases.append((3, tuple(i % 3 for i in range(n // 2)) * 2))
    return cases


_LONG_CASES = _long_cases()


def _first_profile_mismatch(profile, cases=None):
    """The first word of the cases (by default every word up to a length
    that falls with k, the empty and one-letter words included) whose
    profile differs from the four naive scans, or None."""
    for k, w in _exhaustive_cases() if cases is None else cases:
        got = profile(Word.of(w, k))
        scans = (
            _short_border_set(w), _even_pp_set(w), _odd_pp_set(w),
            _square_half_set(w),
        )
        if (
            got.short_borders, got.even_pp_orders, got.odd_pp_orders,
            got.square_half_lengths,
        ) != scans:
            return w
    return None


class TestWordValue:
    def test_equality_and_hashing_are_by_value(self):
        built, direct = Word.of(iter([0, 2, 1]), 3), Word(3, (0, 2, 1))
        assert (built.k, built.symbols) == (3, (0, 2, 1))
        assert built == direct and hash(built) == hash(direct)
        assert built != Word.of((0, 2, 1), 4)


class TestTextForm:
    def test_digits(self):
        assert parse_word("0120", 3).symbols == (0, 1, 2, 0)
        assert format_word(Word.of((0, 1, 2, 0), 3)) == "0120"

    def test_letters(self):
        assert parse_word("zebra", 26).symbols == (25, 4, 1, 17, 0)
        assert format_word(Word.of((25, 4, 1, 17, 0), 26)) == "zebra"

    def test_commas(self):
        assert parse_word("3, 41, 0", 50).symbols == (3, 41, 0)
        assert format_word(Word.of((3, 41, 0), 50)) == "3,41,0"

    def test_empty(self):
        assert parse_word("", 2).symbols == ()
        assert format_word(Word.of((), 2)) == ""

    def test_mixed_table(self):
        assert parse_word("a1", 36).symbols == (10, 1)
        assert format_word(Word.of((10, 1), 36)) == "a1"

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_word("012", 2)

    def test_unparseable(self):
        with pytest.raises(ValueError):
            parse_word("abc", 40)  # letters need commas beyond the 36-symbol table
        with pytest.raises(ValueError):
            parse_word("!?", 2)
        with pytest.raises(ValueError):
            parse_word("1,,2", 5)

    def test_bare_integer_for_large_alphabets(self):
        assert parse_word("012", 40).symbols == (12,)

    @pytest.mark.parametrize("symbol", [0.5, Fraction(1, 2), Decimal("1"), 1.0, "1", None])
    def test_non_integral_symbol(self, symbol):
        with pytest.raises(ValueError, match="must be integers"):
            Word.of((0, symbol), 2)

    def test_integral_symbols(self):
        assert Word.of((True, False, 1), 2).symbols == (True, False, 1)
        assert str(Word.of((True, False), 2)) == "10"
        with pytest.raises(ValueError, match="out of range"):
            Word.of((0, True), 1)

    def test_alphabet_validation(self):
        with pytest.raises(ValueError, match="alphabet size"):
            Word(0, ())
        with pytest.raises(ValueError, match="alphabet size"):
            Word.of((), 0)
        for k in (2.5, Fraction(5, 2), Decimal("3"), 2.0, "3"):
            with pytest.raises(ValueError, match="alphabet size must be an integer"):
                Word.of((0, 1, 2), k)

    @pytest.mark.parametrize("k", [2, 7, 10, 14, 26, 30, 36, 41])
    def test_round_trip(self, k):
        for symbols in [(), (0,), (0, k - 1, 1), tuple(range(min(k, 6)))]:
            word = Word.of(symbols, k)
            assert parse_word(format_word(word), k) == word


@st.composite
def random_words(draw, min_size=0, max_size=24):
    k = draw(st.integers(2, 5))
    return tuple(
        draw(st.lists(st.integers(0, k - 1), min_size=min_size, max_size=max_size))
    )


@st.composite
def equal_length_pairs(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(0, 16))
    make = lambda: tuple(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    return make(), make()


@settings(deadline=None)
@given(equal_length_pairs())
def test_shuffle_unshuffle_round_trip(pair):
    x, y = pair
    assert _unshuffle(_shuffle(x, y)) == (x, y)


@settings(deadline=None)
@given(equal_length_pairs())
def test_shuffle_reversal_law(pair):
    x, y = pair
    assert _shuffle(x, y)[::-1] == _shuffle(y[::-1], x[::-1])


@settings(deadline=None)
@given(random_words())
def test_unbordered_means_no_border_at_all(w):
    assert (not _short_border_set(w)) == (_border_set(w) == frozenset())


def _records():
    # one value of each record type, built twice so the pairs are equal
    # but not identical (word_profile would return one shared record)
    from palcensus.census import Family
    from palcensus.constants import DecimalReport, Enclosure
    from palcensus.maps import Permutation
    from palcensus.recurrences import CountSeq

    return [
        lambda: Word.of((0, 2, 1), 3),
        lambda: WordProfile(
            frozenset({1, 2}), frozenset({1}), frozenset({2}), frozenset({1})
        ),
        lambda: Permutation((2, 1, 3)),
        lambda: CountSeq(2, Family.UNBORDERED, (2, 2)),
        lambda: Enclosure(2, 3, 6),
        lambda: DecimalReport("0.66"),
    ]


def _fields(record):
    return tuple(getattr(record, name) for name in record.__slots__)


@pytest.mark.parametrize("make", _records(), ids=lambda make: type(make()).__name__)
class TestRecords:
    """The value types behave as frozen dataclasses did."""

    def test_equal_by_value_and_only_within_a_type(self, make):
        a, b = make(), make()
        assert a == b and a is not b
        assert a != WordProfile(*[frozenset()] * 4) and a != _fields(a)

    def test_hash_follows_the_fields(self, make):
        a = make()
        assert hash(a) == hash(make())
        assert len({a, make()}) == 1

    def test_immutable(self, make):
        a = make()
        name = a.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert not hasattr(a, "__dict__")

    def test_constructed_by_position_or_keyword(self, make):
        a = make()
        cls, values = type(a), _fields(a)
        assert cls(**dict(zip(a.__slots__, values))) == a
        assert cls(values[0], **dict(zip(a.__slots__[1:], values[1:]))) == a
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(*values[1:])
        with pytest.raises(TypeError):
            cls(*values, extra=1)

    def test_repr_and_pickle(self, make):
        a = make()
        assert repr(a).startswith(f"{type(a).__name__}({a.__slots__[0]}=")
        assert pickle.loads(pickle.dumps(a)) == a
