"""Milk shuffle, its permutation and order, and the adjacent-sum map."""

import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palcensus.maps import (
    MAX_SHUFFLE_N,
    Permutation,
    adjacent_sum_map,
    adjacent_sum_preimages,
    milk_shuffle,
    milk_shuffle_order,
    milk_shuffle_permutation,
    milk_unshuffle,
    permutation_order,
)
from palcensus.verify import _even_pp_set, _odd_pp_set, _short_border_set
from palcensus.words import Word, format_word, parse_word


def letters(text):
    return parse_word(text, 26)


def binary(text):
    return parse_word(text, 2)


class TestMilkShuffle:
    def test_preserve(self):
        assert format_word(milk_shuffle(letters("preserve"))) == "perverse"

    def test_cider(self):
        assert format_word(milk_shuffle(letters("cider"))) == "cried"

    def test_binary(self):
        assert milk_shuffle(binary("01000010")) == binary("00110000")

    def test_single_letter(self):
        assert milk_shuffle(letters("a")) == letters("a")

    def test_empty(self):
        assert milk_shuffle(Word.of((), 2)) == Word.of((), 2)

    def test_preserves_length_and_alphabet(self):
        for n in range(0, 10):
            for w in itertools.product(range(2), repeat=n):
                word = Word.of(w, 2)
                image = milk_shuffle(word)
                assert len(image) == n
                assert image.k == word.k

    def test_inverse_examples(self):
        assert format_word(milk_unshuffle(letters("perverse"))) == "preserve"
        assert format_word(milk_unshuffle(letters("cried"))) == "cider"
        assert milk_unshuffle(Word.of((), 2)) == Word.of((), 2)

    def test_bijection_exhaustive(self):
        for n in range(0, 13):
            seen = set()
            for w in itertools.product(range(2), repeat=n):
                word = Word.of(w, 2)
                image = milk_shuffle(word)
                assert milk_unshuffle(image) == word
                seen.add(image.symbols)
            assert len(seen) == 2 ** n

    def test_borders_become_even_orders(self):
        for k in (2, 3):
            for n in range(1, 11 if k == 2 else 9):
                for w in itertools.product(range(k), repeat=n):
                    word = Word.of(w, k)
                    assert _short_border_set(w) == _even_pp_set(milk_shuffle(word).symbols)


class TestPermutation:
    def test_display_n7(self):
        assert milk_shuffle_permutation(7).images == (1, 7, 2, 6, 3, 5, 4)

    def test_identity(self):
        assert milk_shuffle_permutation(1).images == (1,)

    def test_n3(self):
        assert milk_shuffle_permutation(3).images == (1, 3, 2)

    def test_size_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            milk_shuffle_permutation(0)
        for images in (
            (1, 1),  # duplicate
            (2, 3, 2),  # duplicate, one position missing
            (0, 1),  # 0
            (1, 3),  # n + 1
            (-1, 1),  # negative
            (2, -1),  # negative, a valid index from the end
            (0,),
            (2,),
            (3.0, 1),  # not an integer, above n
            (1, 1.5),  # not an integer, within 1..n
        ):
            with pytest.raises(ValueError, match=f"not a permutation of 1..{len(images)}"):
                Permutation(images)

    def test_valid_images_are_accepted(self):
        for images in ((), (1,), (2, 1), (3, 1, 2), tuple(range(1000, 0, -1))):
            assert len(Permutation(images).images) == len(images)

    def test_realises_shuffle(self):
        for n in range(1, 10):
            images = milk_shuffle_permutation(n).images
            for w in itertools.islice(itertools.product(range(3), repeat=n), 50):
                shuffled = milk_shuffle(Word.of(w, 3)).symbols
                assert shuffled == tuple(w[images[j] - 1] for j in range(n))


def order_by_iteration(permutation):
    """Independent oracle: compose until the identity comes back."""
    images = permutation.images
    n = len(images)
    identity = tuple(range(1, n + 1))
    current = images
    steps = 1
    while current != identity:
        current = tuple(images[current[j] - 1] for j in range(n))
        steps += 1
        assert steps <= 10 ** 6
    return steps


def order_by_stepping(n):
    """Independent oracle: double mod 2n-1 until the power is +1 or -1."""
    modulus = 2 * n - 1
    current, m = 2 % modulus, 1
    while current not in (1, modulus - 1):
        current = current * 2 % modulus
        m += 1
    return m


def prime_factors_by_trial(m):
    primes, d = [], 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return primes + [m] if m > 1 else primes


class TestOrders:
    def test_identity_order(self):
        assert permutation_order(Permutation((1, 2, 3, 4, 5))) == 1

    def test_seven(self):
        p = milk_shuffle_permutation(7)
        assert permutation_order(p) == order_by_iteration(p) == 6

    def test_three(self):
        p = milk_shuffle_permutation(3)
        assert permutation_order(p) == order_by_iteration(p) == 2

    def test_cycle_lcm_matches_iteration(self):
        for n in range(1, 33):
            p = milk_shuffle_permutation(n)
            assert permutation_order(p) == order_by_iteration(p)

    @pytest.mark.parametrize(
        "images,order",
        [
            (tuple(range(1, 1001)), 1),
            (tuple(range(2, 1001)) + (1,), 1000),
            (tuple(j + 1 if j % 2 else j - 1 for j in range(1, 1001)), 2),
        ],
        ids=["identity", "one-cycle", "transpositions"],
    )
    def test_cycle_walk_on_a_thousand_positions(self, images, order):
        p = Permutation(images)
        assert permutation_order(p) == order_by_iteration(p) == order

    def test_congruence_examples(self):
        # powers of 2 mod 13 run 2, 4, 8, 3, 6, 12; the -1 appears at step 6
        assert milk_shuffle_order(7) == 6
        # 2 is already -1 mod 3
        assert milk_shuffle_order(2) == 1
        # 4 is -1 mod 5
        assert milk_shuffle_order(3) == 2

    def test_congruence_matches_permutation(self):
        for n in range(2, 301):
            assert milk_shuffle_order(n) == permutation_order(
                milk_shuffle_permutation(n)
            )

    def test_factorisation_matches_stepping(self):
        # covers prime-power moduli such as 3**7 (n = 1094) and 5**5 (n = 1563)
        for n in range(2, 3001):
            assert milk_shuffle_order(n) == order_by_stepping(n)

    def test_power_of_two_families(self):
        # 2**(j+1) is +1 mod 2**(j+1) - 1 and -1 mod 2**(j+1) + 1, and no
        # smaller power of 2 is +-1 there (at j = 1, 2 is already -1 mod 3);
        # j stops where n passes the CLI cap 10**12
        for j in range(40):
            if j >= 2:
                assert milk_shuffle_order(2 ** j) == j + 1
            assert milk_shuffle_order(2 ** j + 1) == j + 1

    @pytest.mark.parametrize(
        "n",
        # 2n-1 prime near 2 * 10**12; 2n-1 and n-1 prime, so both trial
        # divisions run to the square root; the CLI cap itself
        [999_999_999_991, 999_999_999_864, 10 ** 12],
    )
    def test_large_order_is_certified_minimal(self, n):
        # the m >= 1 with 2**m = +-1 mod 2n-1 are the multiples of the least
        # one, so m is the least if no m/p is among them for a prime p | m
        modulus = 2 * n - 1
        m = milk_shuffle_order(n)
        assert pow(2, m, modulus) in (1, modulus - 1)
        for p in prime_factors_by_trial(m):
            assert pow(2, m // p, modulus) not in (1, modulus - 1)

    def test_degenerate_size(self):
        with pytest.raises(ValueError, match=f"shuffle length must lie in 2..{MAX_SHUFFLE_N}, got 1$"):
            milk_shuffle_order(1)

    @pytest.mark.parametrize("n", [MAX_SHUFFLE_N + 1, 2 ** 57 + 1, 2 ** 60])
    def test_sizes_past_the_cap_are_refused_at_once(self, n):
        # 2**57 + 1 took 7 s without the cap; 2**61 - 1 is prime, so n = 2**60
        # would trial-divide to about 1.5 * 10**9
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"must lie in 2..{MAX_SHUFFLE_N}, got {n}$"):
            milk_shuffle_order(n)
        assert time.perf_counter() - start < 0.01


class TestAdjacentSums:
    def test_binary(self):
        assert format_word(adjacent_sum_map(binary("010"))) == "11"

    def test_zeros(self):
        for k in (2, 5):
            zeros = Word.of((0,) * 6, k)
            assert adjacent_sum_map(zeros) == Word.of((0,) * 5, k)

    def test_ternary(self):
        assert format_word(adjacent_sum_map(parse_word("012", 3))) == "10"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            adjacent_sum_map(Word.of((), 2))

    def test_preimages_binary(self):
        preimages = adjacent_sum_preimages(binary("11"))
        assert [format_word(w) for w in preimages] == ["010", "101"]

    def test_preimages_of_empty(self):
        preimages = adjacent_sum_preimages(Word.of((), 2))
        assert [w.symbols for w in preimages] == [(0,), (1,)]

    def test_exactly_k_to_one(self):
        for k in (2, 3):
            for n in range(0, 6):
                for x in itertools.product(range(k), repeat=n):
                    target = Word.of(x, k)
                    preimages = adjacent_sum_preimages(target)
                    assert len({w.symbols for w in preimages}) == k
                    assert [w.symbols[0] for w in preimages] == list(range(k))
                    for w in preimages:
                        assert adjacent_sum_map(w) == target

    def test_odd_orders_become_even_orders(self):
        for k in (2, 3):
            for n in range(1, 11 if k == 2 else 9):
                for w in itertools.product(range(k), repeat=n):
                    word = Word.of(w, k)
                    assert _odd_pp_set(w) == _even_pp_set(adjacent_sum_map(word).symbols)

    def test_even_to_odd_analogue_fails(self):
        # the analogous claim with parities swapped is false; the middle
        # letter of an odd palindrome breaks it
        counterexamples = []
        for n in range(1, 9):
            for w in itertools.product(range(2), repeat=n):
                word = Word.of(w, 2)
                if _even_pp_set(w) != _odd_pp_set(adjacent_sum_map(word).symbols):
                    counterexamples.append(word)
        assert counterexamples


@st.composite
def random_words(draw, min_size=0, max_size=40):
    k = draw(st.integers(2, 6))
    symbols = draw(
        st.lists(st.integers(0, k - 1), min_size=min_size, max_size=max_size)
    )
    return Word.of(symbols, k)


@settings(deadline=None)
@given(st.integers(0, 64).flatmap(lambda n: st.permutations(range(1, n + 1))))
# (1)(2 4)(3): a walk that skips the start after a fixed point misses the 2-cycle
@example([1, 4, 3, 2])
def test_cycle_walk_matches_iteration(images):
    p = Permutation(tuple(images))
    assert permutation_order(p) == order_by_iteration(p)


@settings(deadline=None)
@given(random_words())
def test_shuffle_round_trip(word):
    assert milk_unshuffle(milk_shuffle(word)) == word
    assert milk_shuffle(milk_unshuffle(word)) == word


@settings(deadline=None)
@given(random_words(min_size=1))
def test_preimages_invert_adjacent_sums(word):
    image = adjacent_sum_map(word)
    assert word in adjacent_sum_preimages(image)
