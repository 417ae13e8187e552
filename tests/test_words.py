"""Word primitives: frozen examples plus exhaustive and generated invariants."""

import inspect
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palcensus import words
from palcensus.words import (
    Alphabet,
    Parity,
    Word,
    _even_pp_set,
    _odd_pp_set,
    _short_border_set,
    _square_half_set,
    border_lengths,
    format_word,
    has_nontrivial_pal_prefix,
    is_palindrome,
    is_unbordered,
    pal_prefix_orders,
    parse_word,
    perfect_shuffle,
    reverse,
    short_border_lengths,
    square_half_lengths,
    unshuffle,
    word_profile,
)


def letters(text):
    return parse_word(text, 26)


def binary(text):
    return parse_word(text, 2)


class TestReverse:
    def test_english(self):
        assert format_word(reverse(letters("drawer"))) == "reward"

    def test_empty(self):
        assert reverse(Word.of((), 2)) == Word.of((), 2)

    def test_ternary(self):
        assert reverse(parse_word("012", 3)) == parse_word("210", 3)


class TestPalindrome:
    def test_radar(self):
        assert is_palindrome(letters("radar"))

    def test_empty(self):
        assert is_palindrome(Word.of((), 3))

    def test_not(self):
        assert not is_palindrome(binary("01"))


class TestPalPrefixOrders:
    def test_even_english(self):
        assert pal_prefix_orders(letters("diffident"), Parity.EVEN) == {3}

    def test_odd_english(self):
        assert pal_prefix_orders(letters("selfless"), Parity.ODD) == {3}

    def test_even_binary(self):
        assert pal_prefix_orders(binary("00110000"), Parity.EVEN) == {1, 3}

    def test_trivial_prefixes_never_reported(self):
        # every nonempty word has palindromic prefixes of lengths 0 and 1;
        # neither may surface as an order
        for n in range(0, 8):
            for w in itertools.product(range(2), repeat=n):
                word = Word.of(w, 2)
                assert 0 not in pal_prefix_orders(word, Parity.ODD)
                assert 0 not in pal_prefix_orders(word, Parity.EVEN)


class TestBorders:
    def test_alfalfa(self):
        w = letters("alfalfa")
        assert border_lengths(w) == {1, 4}
        assert short_border_lengths(w) == {1}

    def test_chickpea(self):
        assert border_lengths(letters("chickpea")) == frozenset()
        assert is_unbordered(letters("chickpea"))

    def test_binary(self):
        assert short_border_lengths(binary("01000010")) == {1, 3}

    def test_bordered(self):
        assert not is_unbordered(letters("alfalfa"))

    def test_even_pal_prefix_but_unbordered(self):
        w = binary("0011")
        assert pal_prefix_orders(w, Parity.EVEN) == {1}
        assert is_unbordered(w)

    def test_long_border_implies_short(self):
        for n in range(1, 13):
            for w in itertools.product(range(2), repeat=n):
                word = Word.of(w, 2)
                full = border_lengths(word)
                if any(2 * i > n for i in full):
                    assert short_border_lengths(word)


class TestSquares:
    def test_square_prefix(self):
        assert square_half_lengths(binary("0011")) == {1}

    def test_none(self):
        assert square_half_lengths(binary("01")) == frozenset()

    def test_whole_word(self):
        assert square_half_lengths(binary("0101")) == {2}


class TestShuffle:
    def test_calliope(self):
        shuffled = perfect_shuffle(letters("clip"), letters("aloe"))
        assert format_word(shuffled) == "calliope"

    def test_empty(self):
        e = Word.of((), 4)
        assert perfect_shuffle(e, e) == e

    def test_binary(self):
        assert perfect_shuffle(binary("00"), binary("11")) == binary("0101")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal lengths"):
            perfect_shuffle(binary("0"), binary("01"))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="same alphabet"):
            perfect_shuffle(Word.of((0,), 2), Word.of((0,), 3))

    def test_unshuffle_calliope(self):
        y, z = unshuffle(letters("calliope"))
        assert (format_word(y), format_word(z)) == ("clip", "aloe")

    def test_unshuffle_binary(self):
        assert unshuffle(binary("0101")) == (binary("00"), binary("11"))
        assert unshuffle(binary("00")) == (binary("0"), binary("0"))

    def test_unshuffle_odd_length(self):
        with pytest.raises(ValueError, match="odd length"):
            unshuffle(binary("010"))


class TestPalPrefixPredicate:
    def test_examples(self):
        assert not has_nontrivial_pal_prefix(binary("011"))
        assert has_nontrivial_pal_prefix(binary("010"))
        assert has_nontrivial_pal_prefix(binary("001"))

    def test_matches_order_sets(self):
        for n in range(0, 11):
            for w in itertools.product(range(2), repeat=n):
                word = Word.of(w, 2)
                expected = bool(
                    pal_prefix_orders(word, Parity.EVEN)
                    or pal_prefix_orders(word, Parity.ODD)
                )
                assert has_nontrivial_pal_prefix(word) == expected


class TestProfile:
    def test_combined(self):
        profile = word_profile(binary("0110110"))
        assert profile.short_borders == {1}
        assert profile.even_pp_orders == {2}
        assert profile.odd_pp_orders == {3}
        assert profile.square_half_lengths == {3}

    def test_matches_the_naive_scans(self):
        assert _first_profile_mismatch(word_profile) is None

    @pytest.mark.parametrize(
        "old,new",
        [
            ("range(1, n)", "range(1, n - 1)"),  # stops at p = n - 2
            ("2 * p <= n", "2 * p < n"),  # misses the square of the whole word
        ],
    )
    def test_naive_scans_see_a_planted_bug(self, old, new):
        source = inspect.getsource(words.word_profile)
        assert source.count(old) == 1
        namespace = dict(vars(words))
        exec(source.replace(old, new), namespace)
        assert _first_profile_mismatch(namespace["word_profile"]) is not None

    def test_equal_sets_are_shared(self):
        first = word_profile(binary("0110110"))
        second = word_profile(binary("1001001"))
        assert first.square_half_lengths is second.square_half_lengths
        assert words._entry_set.cache_info().maxsize == 4096

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


def _first_profile_mismatch(profile):
    """The first word, empty and one-letter words included, whose profile
    differs from the four naive scans, or None."""
    for k, n_max in ((1, 8), (2, 12), (3, 7), (4, 5)):
        for n in range(n_max + 1):
            for w in itertools.product(range(k), repeat=n):
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

    def test_alphabet_validation(self):
        with pytest.raises(ValueError, match="alphabet size"):
            Alphabet(0)

    @pytest.mark.parametrize("k", [2, 7, 10, 14, 26, 30, 36, 41])
    def test_round_trip(self, k):
        for symbols in [(), (0,), (0, k - 1, 1), tuple(range(min(k, 6)))]:
            word = Word.of(symbols, k)
            assert parse_word(format_word(word), k) == word


@st.composite
def random_words(draw, min_size=0, max_size=24):
    k = draw(st.integers(2, 5))
    symbols = draw(
        st.lists(st.integers(0, k - 1), min_size=min_size, max_size=max_size)
    )
    return Word.of(symbols, k)


@st.composite
def equal_length_pairs(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(0, 16))
    make = lambda: Word.of(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), k
    )
    return make(), make()


@settings(deadline=None)
@given(equal_length_pairs())
def test_shuffle_unshuffle_round_trip(pair):
    x, y = pair
    assert unshuffle(perfect_shuffle(x, y)) == (x, y)


@settings(deadline=None)
@given(equal_length_pairs())
def test_shuffle_reversal_law(pair):
    x, y = pair
    assert reverse(perfect_shuffle(x, y)) == perfect_shuffle(reverse(y), reverse(x))


@settings(deadline=None)
@given(random_words())
def test_reverse_involution(word):
    assert reverse(reverse(word)) == word


@settings(deadline=None)
@given(random_words())
def test_unbordered_means_no_border_at_all(word):
    assert is_unbordered(word) == (border_lengths(word) == frozenset())


def _records():
    # one value of each record type, built twice so the pairs are equal
    # but not identical
    from palcensus.census import Family
    from palcensus.constants import DecimalReport, Enclosure
    from palcensus.maps import Permutation
    from palcensus.recurrences import CountSeq

    return [
        lambda: Alphabet(3),
        lambda: Word.of((0, 2, 1), 3),
        lambda: word_profile(Word.of((0, 0, 1, 0, 0), 2)),
        lambda: Permutation((2, 1, 3)),
        lambda: CountSeq(2, Family.UNBORDERED, {1: 2, 2: 2}),
        lambda: Enclosure(Fraction(1, 3), Fraction(1, 2)),
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
        assert a != Alphabet(4) and a != _fields(a)

    def test_hash_follows_the_fields(self, make):
        a = make()
        try:
            hash(_fields(a))
        except TypeError:
            # a dict field (CountSeq.values) leaves the record unhashable
            with pytest.raises(TypeError):
                hash(a)
        else:
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
