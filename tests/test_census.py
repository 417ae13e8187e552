"""Census counts against frozen reference rows and structural checks.

The binary reference rows appear in the OEIS: unbordered words are A003000,
words with no nontrivial odd palindromic prefix are A308528, square-prefix-
free words are A122536, minimal squares are A216958, and words with a square
prefix are A121880.  A252696 is the ternary no-palindromic-prefix count.
"""

import concurrent.futures
import itertools
import multiprocessing
import os
import re
from collections import Counter
from types import SimpleNamespace

import pytest

from palcensus import census
from palcensus.census import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Family,
    ProfileKind,
    _canonical_blocks,
    _canonical_count,
    _family_block,
    _plan,
    _profile_block,
    _profile_counter,
    _walk,
    census_family,
    census_profile,
    list_profile,
)
from palcensus.verify import (
    _even_pp_set,
    _naive_census,
    _odd_pp_set,
    _short_border_set,
    _square_half_set,
    _words_up_to_renaming,
)
from palcensus.words import format_word

U2 = [2, 2, 4, 6, 12, 20, 40, 74, 148, 284, 568, 1116]
T2 = [2, 4, 4, 8, 12, 24, 40, 80, 148, 296, 568, 1136]
S2 = [2, 2, 4, 6, 12, 20, 40, 74, 148, 286, 572, 1124]
C2 = [2, 2, 4, 6, 10, 20, 36, 72, 142, 280, 560, 1114]
D2 = [0, 2, 4, 10, 20, 44, 88, 182, 364, 738, 1476, 2972]
A3 = [3, 6, 12, 30, 78, 222, 636, 1878, 5556, 16590]

# the families the census engine counts; HAS_SQUARE_PREFIX is a complement
WALKED = [family for family in Family if family is not Family.HAS_SQUARE_PREFIX]

# membership by the naive word scans, one word at a time
NAIVE = {
    Family.UNBORDERED: lambda w: not _short_border_set(w),
    Family.NO_EVEN_PP: lambda w: not _even_pp_set(w),
    Family.NO_ODD_PP: lambda w: not _odd_pp_set(w),
    Family.NO_PAL_PREFIX: lambda w: not (_even_pp_set(w) or _odd_pp_set(w)),
    Family.NO_SQUARE_PREFIX: lambda w: not _square_half_set(w),
    Family.HAS_SQUARE_PREFIX: lambda w: bool(_square_half_set(w)),
    Family.MIN_SQUARE: lambda w: _square_half_set(w + w) == {len(w)},
}

# every (k, n) with k**n <= 2**12; n = 1 is the edge case
SMALL_SIZES = [
    (k, n) for k in (2, 3, 4) for n in range(1, 13) if k ** n <= 2 ** 12
]

EXAMPLE_BORDER_WORDS = [
    "01000010", "01001010", "01010010", "01011010",
    "10100101", "10101101", "10110101", "10111101",
]
EXAMPLE_EVEN_PP_WORDS = [
    "00110000", "00110001", "00110010", "00110011",
    "11001100", "11001101", "11001110", "11001111",
]


class TestFamilyCounts:
    @pytest.mark.parametrize(
        "family,row",
        [
            (Family.UNBORDERED, U2),
            (Family.NO_EVEN_PP, U2),
            (Family.NO_ODD_PP, T2),
            (Family.NO_SQUARE_PREFIX, S2),
            (Family.MIN_SQUARE, C2),
            (Family.HAS_SQUARE_PREFIX, D2),
        ],
    )
    def test_binary_rows(self, family, row):
        assert [census_family(2, n, family) for n in range(1, 13)] == row

    def test_ternary_no_pal_prefix(self):
        assert [census_family(3, n, Family.NO_PAL_PREFIX) for n in range(1, 11)] == A3

    def test_binary_no_pal_prefix_is_two(self):
        # over two letters only 01...1 and 10...0 qualify
        for n in range(2, 13):
            assert census_family(2, n, Family.NO_PAL_PREFIX) == 2

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_min_square_base_cases(self, k):
        assert census_family(k, 1, Family.MIN_SQUARE) == k
        assert census_family(k, 2, Family.MIN_SQUARE) == k * (k - 1)

    def test_square_split_is_a_partition(self):
        for k in (2, 3):
            for n in range(1, 9):
                free = census_family(k, n, Family.NO_SQUARE_PREFIX)
                has = census_family(k, n, Family.HAS_SQUARE_PREFIX)
                assert free + has == k ** n

    def test_squarefree_and_palfree_first_disagree_at_ten(self):
        # the two families have equal counts up to length 9 and then split
        for n in range(1, 10):
            assert census_family(2, n, Family.NO_SQUARE_PREFIX) == census_family(
                2, n, Family.NO_EVEN_PP
            )
        assert census_family(2, 10, Family.NO_SQUARE_PREFIX) == 286
        assert census_family(2, 10, Family.NO_EVEN_PP) == 284

    def test_unary_alphabet(self):
        # one letter has one word of each length, a case no recurrence or
        # density covers: every family refuses it before any walk
        for family in Family:
            for n in (1, 2, 1200):
                with pytest.raises(ValueError, match="alphabet size must be at least 2, got 1$"):
                    census_family(1, n, family)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            census_family(2, 0, Family.UNBORDERED)
        # one alphabet check guards every entry point (k=0 used to divide
        # by zero in the profiles, k=-2 to list nothing, and k=2.5 to raise
        # a TypeError from the walk)
        refusals = {k: f"at least 2, got {k}$" for k in (1, 0, -1, -2)}
        for k, message in {**refusals, 2.5: "an integer, got 2.5$"}.items():
            for query in (
                lambda: census_family(k, 3, Family.UNBORDERED),
                lambda: census_profile(k, 3, ProfileKind.SHORT_BORDERS, {1}),
                lambda: list_profile(k, 3, ProfileKind.SHORT_BORDERS, {1}),
            ):
                with pytest.raises(ValueError, match=f"alphabet size must be {message}"):
                    query()

    def test_an_integral_float_finds_no_memoised_count(self):
        # 3.0 == 3 and hash alike, so a memo keyed by the raw k answered
        # census_family(3.0, ...) once census_family(3, ...) had run
        assert census_family(3, 4, Family.UNBORDERED) == 48
        for query in (
            lambda k: census_family(k, 4, Family.UNBORDERED),
            lambda k: census_profile(k, 4, ProfileKind.SHORT_BORDERS, ()),
        ):
            query(3)
            with pytest.raises(ValueError, match="alphabet size must be an integer, got 3.0$"):
                query(3.0)

    def test_budget_error_names_the_space(self):
        with pytest.raises(BudgetExceededError, match=r"3\*\*20"):
            census_family(3, 20, Family.UNBORDERED, budget=10 ** 6)

    def test_budget_counts_every_word_before_any_walk(self, monkeypatch):
        # 2**27 words exceed the default budget although the walk would
        # visit only the 2**26 that start with 0
        def no_walk(*args):
            raise AssertionError("walked past the budget")

        for name in ("_canonical_blocks", "_family_block", "_walk"):
            monkeypatch.setattr(census, name, no_walk)
        with pytest.raises(BudgetExceededError, match=r"2\*\*27"):
            census_family(2, 27, Family.UNBORDERED)
        with pytest.raises(BudgetExceededError, match=r"2\*\*27"):
            census_profile(2, 27, ProfileKind.SHORT_BORDERS, set())
        with pytest.raises(BudgetExceededError, match=r"2\*\*27"):
            list_profile(2, 27, ProfileKind.SHORT_BORDERS, set())

    @pytest.mark.parametrize("n", [20_000, 10 ** 8])
    def test_a_length_far_past_the_budget_is_refused_without_its_power(self, n):
        # the refusal names k**n without building it: str() refuses 2**20000,
        # and 2**10**8 alone takes 12.5 MB
        message = f"enumerating 2**{n} words exceeds the budget of {DEFAULT_BUDGET}"
        for query in (
            lambda: census_family(2, n, Family.UNBORDERED),
            lambda: census_profile(2, n, ProfileKind.SHORT_BORDERS, ()),
            lambda: list_profile(2, n, ProfileKind.SHORT_BORDERS, ()),
        ):
            with pytest.raises(BudgetExceededError, match=re.escape(message) + "$"):
                query()

    def test_a_memoised_count_is_refused_past_a_smaller_budget(self, fresh_memo):
        # the budget is checked before the memo is read, so an answer does
        # not depend on which census ran earlier in the process
        assert census_family(2, 20, Family.UNBORDERED) == 281_076
        assert census_profile(2, 12, ProfileKind.SHORT_BORDERS, ()) == 1116
        with pytest.raises(BudgetExceededError, match=r"2\*\*20 words"):
            census_family(2, 20, Family.UNBORDERED, budget=10)
        with pytest.raises(BudgetExceededError, match=r"2\*\*12 words"):
            census_profile(2, 12, ProfileKind.SHORT_BORDERS, (), budget=10)

    def test_a_complement_is_refused_past_a_smaller_budget(self, fresh_memo):
        # HAS_SQUARE_PREFIX reads the memo entry of its complement
        census_family(2, 20, Family.NO_SQUARE_PREFIX)
        with pytest.raises(BudgetExceededError, match=r"2\*\*20 words"):
            census_family(2, 20, Family.HAS_SQUARE_PREFIX, budget=10)


class TestLongest:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_the_longest_length_whose_words_fit(self, k):
        budgets = {0, 1} | {k ** m + step for m in range(13) for step in (-1, 0, 1)}
        for budget in sorted(budgets):
            brute = max((n for n in range(40) if k ** n <= budget), default=0)
            assert census._longest(k, budget) == brute, budget

    @pytest.mark.parametrize(
        "k,message", [(1, "at least 2, got 1"), (2.5, "an integer, got 2.5")])
    def test_the_alphabet_goes_through_the_gate(self, k, message):
        with pytest.raises(ValueError, match=re.escape(f"alphabet size must be {message}")):
            census._longest(k, DEFAULT_BUDGET)


class TestProfileCensus:
    def test_example_counts(self):
        assert census_profile(2, 8, ProfileKind.SHORT_BORDERS, {1, 3}) == 8
        assert census_profile(2, 8, ProfileKind.EVEN_PP_ORDERS, {1, 3}) == 8

    def test_empty_set_is_unbordered(self):
        assert census_profile(2, 8, ProfileKind.SHORT_BORDERS, frozenset()) == 74

    def test_example_word_lists(self):
        with_borders = list_profile(2, 8, ProfileKind.SHORT_BORDERS, {1, 3})
        assert [format_word(w) for w in with_borders] == EXAMPLE_BORDER_WORDS
        with_orders = list_profile(2, 8, ProfileKind.EVEN_PP_ORDERS, {1, 3})
        assert [format_word(w) for w in with_orders] == EXAMPLE_EVEN_PP_WORDS

    def test_length_two(self):
        words = list_profile(2, 2, ProfileKind.SHORT_BORDERS, {1})
        assert [format_word(w) for w in words] == ["00", "11"]

    def test_profiles_partition_the_space(self):
        for kind in ProfileKind:
            total = 0
            for subset_size in range(0, 4):
                for subset in itertools.combinations(range(1, 4), subset_size):
                    total += census_profile(2, 6, kind, frozenset(subset))
            assert total == 2 ** 6

    def test_invalid_set_rejected(self):
        with pytest.raises(ValueError, match="must lie in 1..4"):
            census_profile(2, 8, ProfileKind.SHORT_BORDERS, {5})
        with pytest.raises(ValueError, match="must lie in"):
            list_profile(2, 8, ProfileKind.EVEN_PP_ORDERS, {0})

    def test_budget_applies(self):
        with pytest.raises(BudgetExceededError):
            list_profile(2, 30, ProfileKind.SHORT_BORDERS, {1}, budget=2 ** 10)

    def test_a_long_list_is_refused_before_any_word(self, monkeypatch):
        # 74 unbordered binary words of length 8 against a cap of 50: the
        # census counts them (here from its memo), and no word is built
        monkeypatch.setattr(census, "MAX_LISTED_WORDS", 50)
        assert census_profile(2, 8, ProfileKind.SHORT_BORDERS, set()) == 74
        for name in ("_walk", "_parts"):
            monkeypatch.setattr(census, name, None)
        with pytest.raises(BudgetExceededError, match="74 words match, more than the 50"):
            list_profile(2, 8, ProfileKind.SHORT_BORDERS, set())

    def test_a_kind_compiles_and_walks_its_family_alone(self, monkeypatch, fresh_memo):
        # with the cap below 2**12, list_profile counts the list first: the
        # census and the listing both decide the even-pp patterns only
        monkeypatch.setattr(census, "MAX_LISTED_WORDS", 2 ** 11)
        asked, compiled, walked = [], [], []
        compile_, parts = census._compile, census._parts

        def compile_recorded(k, n, split, patterns):
            asked.append(patterns)
            compiled.append(compile_(k, n, split, patterns))
            return compiled[-1]

        def parts_recorded(w, patterns, letter, full):
            walked.append(patterns)
            return parts(w, patterns, letter, full)

        monkeypatch.setattr(census, "_compile", compile_recorded)
        monkeypatch.setattr(census, "_parts", parts_recorded)
        count = census_profile(2, 12, ProfileKind.EVEN_PP_ORDERS, {1})
        census._memo.clear()
        words = list_profile(2, 12, ProfileKind.EVEN_PP_ORDERS, {1})
        assert len(words) == count == 1250
        assert set(asked) == {census._PATTERNS[Family.NO_EVEN_PP]}
        assert walked and {id(p) for p in walked} <= {id(p) for p in compiled}

    def test_a_list_under_the_cap_is_built(self, monkeypatch):
        monkeypatch.setattr(census, "MAX_LISTED_WORDS", 50)
        with_borders = list_profile(2, 8, ProfileKind.SHORT_BORDERS, {1, 3})
        assert [format_word(w) for w in with_borders] == EXAMPLE_BORDER_WORDS
        # at most the cap of words in all, nothing is counted first
        monkeypatch.setattr(census, "census_profile", None)
        words = list_profile(2, 5, ProfileKind.SHORT_BORDERS, set())
        assert len(words) == census.census_family(2, 5, Family.UNBORDERED)

    def test_empty_word(self):
        for kind in ProfileKind:
            assert census_profile(3, 0, kind, set()) == 1
            assert [w.symbols for w in list_profile(3, 0, kind, set())] == [()]
        with pytest.raises(ValueError, match="at least 0"):
            list_profile(2, -1, ProfileKind.SHORT_BORDERS, set())

    @pytest.mark.parametrize("k,n", [(2, 10), (3, 6), (4, 5)])
    def test_lists_match_the_naive_filter(self, k, n):
        assert _first_list_mismatch(k, n) is None

    def test_naive_filter_sees_an_expansion_that_never_moves_letter_0(self, monkeypatch):
        def fixing_0(letters, d):
            return (
                names for names in itertools.permutations(letters, d)
                if names[:1] in ((), (0,))
            )

        planted = SimpleNamespace(permutations=fixing_0, product=itertools.product)
        monkeypatch.setattr(census, "itertools", planted)
        assert _first_list_mismatch(3, 6) is not None


PROFILE_SCANS = {
    ProfileKind.SHORT_BORDERS: _short_border_set,
    ProfileKind.EVEN_PP_ORDERS: _even_pp_set,
    ProfileKind.ODD_PP_ORDERS: _odd_pp_set,
}


def _first_list_mismatch(k, n, expected=None):
    """The first (kind, set) whose list_profile differs from the naive filter
    of all words in lexicographic order (the lists of _naive_lists), or None."""
    expected = expected or _naive_lists(k, n)
    for kind in PROFILE_SCANS:
        for size in range(n // 2 + 1):
            for subset in itertools.combinations(range(1, n // 2 + 1), size):
                listed = [w.symbols for w in list_profile(k, n, kind, subset)]
                if listed != expected[kind].get(frozenset(subset), []):
                    return kind, subset
    return None


@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.setattr(census, "_memo", {})


@pytest.fixture
def forced_pool(monkeypatch):
    """A census of any size fans out when it has two workers and two blocks;
    returns the list of the (real) pools started, in order."""
    monkeypatch.setattr(census, "_POOL_MIN_WORK", 0)
    started = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            started.append(self)

    # _census imports the pool class when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    return started


class TestAgainstTheNaiveFilter:
    @pytest.mark.parametrize("family", list(Family))
    def test_family_counts(self, fresh_memo, family):
        for k, n in SMALL_SIZES:
            expected = sum(
                1 for w in itertools.product(range(k), repeat=n) if NAIVE[family](w)
            )
            assert census_family(k, n, family) == expected, (k, n)

    def test_profile_counters(self, fresh_memo):
        for k, n in SMALL_SIZES:
            for kind, scan in PROFILE_SCANS.items():
                expected = Counter(scan(w) for w in itertools.product(range(k), repeat=n))
                assert _profile_counter(k, n, kind) == expected, (k, n, kind)


def _canonical(w):
    """w with its letters renamed to 0, 1, 2, ... in order of first appearance."""
    names = {}
    return tuple(names.setdefault(c, len(names)) for c in w)


class TestCanonicalBlocks:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_one_block_per_renaming_class(self, k):
        for length in range(0, 7):
            blocks = dict(_words_up_to_renaming(k, length))
            assert sum(blocks.values()) == k ** length
            classes = Counter(
                _canonical(w) for w in itertools.product(range(k), repeat=length)
            )
            assert blocks == classes

    def test_the_walk_yields_the_reference_classes(self):
        # the engine's one generator against verify's own: same words, same
        # order, and the walk's weight is the class size perm(k, d)
        for k, n in itertools.product(range(2, 7), range(9)):
            walked = [(tuple(w), weight) for w, _, weight in _walk(k, n, ())]
            assert walked == list(_words_up_to_renaming(k, n)), (k, n)

    def test_block_length_follows_the_workers(self, monkeypatch):
        assert [b for b, _ in _canonical_blocks(2, 10, 4)] == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)
        ]
        assert [b for b, _ in _canonical_blocks(3, 10, 4)] == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)
        ]
        assert [b for b, _ in _canonical_blocks(2, 10, 8)] == [
            (0,) + w for w in itertools.product(range(2), repeat=3)
        ]
        assert _canonical_blocks(4, 1, 32) == [((0,), 4)]
        # in-process at least 4 blocks, on the pool 64 per worker: 2**(m-1)
        # binary classes of length m; 122 ternary ones of length 6 are too
        # few for two workers, 365 of length 7 enough
        monkeypatch.setattr(census, "_POOL_MIN_WORK", 0)
        for k, n, workers, length, count in (
            (2, 20, 1, 3, 4), (2, 20, 2, 8, 128), (3, 20, 1, 3, 5), (3, 20, 2, 7, 365)
        ):
            _, blocks, processes = _plan(k, n, workers)
            assert (len(blocks), processes) == (count, workers), (k, workers)
            assert {len(b) for b, _ in blocks} == {length}

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_class_counts(self, k):
        for length in range(0, 9):
            assert _canonical_count(k, length) == len(
                list(_words_up_to_renaming(k, length))
            )

    def test_the_split_is_the_longest_mask_below_the_walk(self):
        # the loop the planner once kept, against the budget rule it reads now
        for k in range(2, 11):
            for n in range(41):
                split = 0
                while split < n - census._MIN_WALK and k ** (split + 1) <= census._MASK_BITS:
                    split += 1
                assert census._split_length(k, n) == split, (k, n)

    def test_blocks_are_the_first_length_with_enough_classes(self):
        # the loop the planner once kept, regenerating every shorter length
        for k, n, count in itertools.product(range(2, 6), range(13), (1, 4, 128, 512)):
            length, blocks = 0, [((), 1)]
            while length < n and len(blocks) < count:
                length += 1
                blocks = list(_words_up_to_renaming(k, length))
            assert _canonical_blocks(k, n, count) == blocks, (k, n, count)

    @pytest.mark.parametrize("k,n", [(3, 10), (4, 8)])
    def test_no_block_holds_more_than_a_quarter_of_the_walk(self, k, n):
        # the blocks of a pool of two workers
        blocks = _canonical_blocks(k, n, 2 * census._BLOCKS_PER_WORKER)
        length = len(blocks[0][0])
        sizes = Counter(w[:length] for w, _ in _words_up_to_renaming(k, n))
        assert list(sizes) == [b for b, _ in blocks]
        assert max(sizes.values()) <= sum(sizes.values()) / 4


class TestDeterminism:
    @pytest.mark.parametrize("family", WALKED)
    def test_prefix_partitions_sum_to_the_direct_count(self, family):
        for k, n, split in ((2, 9, 3), (3, 5, 1), (2, 3, 0)):
            direct = _family_block(k, n, family, split, ())
            for prefix_length in (1, 2, 3):
                blocks = _words_up_to_renaming(k, prefix_length)
                assert sum(
                    size * _family_block(k, n, family, split, b) for b, size in blocks
                ) == direct

    def test_profile_partitions_sum_to_the_direct_counters(self):
        for family, (k, n, split) in itertools.product(
            census._KIND_FAMILY.values(), ((2, 9, 3), (3, 5, 1), (2, 3, 0))
        ):
            direct = _profile_block(k, n, family, split, ())
            for prefix_length in (1, 2, 3):
                total = Counter()
                for b, size in _words_up_to_renaming(k, prefix_length):
                    for mask, count in _profile_block(k, n, family, split, b).items():
                        total[mask] += size * count
                assert total == direct, family

    def test_worker_pool_matches_direct(self, monkeypatch, fresh_memo, forced_pool):
        # (3, 10) decides the last 6 letters at once below the canonical
        # prefixes of length 4
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        sequential = {family: census_family(3, 10, family) for family in Family}
        census._memo.clear()
        pooled = {family: census_family(3, 10, family, jobs=2) for family in Family}
        assert forced_pool
        assert pooled == sequential

    def test_profile_pool_matches_direct(self, monkeypatch, fresh_memo, forced_pool):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        sequential = {kind: _profile_counter(2, 15, kind) for kind in ProfileKind}
        census._memo.clear()
        assert {kind: _profile_counter(2, 15, kind, jobs=2) for kind in ProfileKind} == (
            sequential
        )
        assert len(forced_pool) == 3

    def test_repeat_calls_are_stable(self):
        first = census_family(3, 7, Family.NO_ODD_PP)
        assert census_family(3, 7, Family.NO_ODD_PP) == first


def _naive_lists(k, n):
    """Per profile kind, {set: the words with it, in lexicographic order}."""
    lists = {}
    for kind, scan in PROFILE_SCANS.items():
        lists[kind] = {}
        for w in itertools.product(range(k), repeat=n):
            lists[kind].setdefault(scan(w), []).append(w)
    return lists


def _first_split_mismatch(monkeypatch, k, jobs):
    """The first (n, split, family or profile kind) up to n = 8 whose census
    with the last split letters decided at once differs from the naive
    scans, or None."""
    for n in range(1, 9):
        families, profiles = _naive_census(k, n)
        for split in range(n + 1):
            monkeypatch.setattr(census, "_split_length", lambda k, n, s=split: s)
            census._memo.clear()
            for family in Family:
                if census_family(k, n, family, jobs=jobs) != families[family]:
                    return n, split, family
            for kind in ProfileKind:
                if _profile_counter(k, n, kind, jobs=jobs) != profiles[kind]:
                    return n, split, kind
    return None


class TestSplitPoints:
    """Every split length L from 0 (the walk reaches the whole word) to n (no
    walk), so that a pattern's pairs fall inside the prefix, across it and
    inside the completion, in-process and, with the pool forced at these
    small sizes, through the jobs > 1 block path."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_counts_match_the_naive_scans(
        self, monkeypatch, fresh_memo, forced_pool, k, jobs
    ):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        assert _first_split_mismatch(monkeypatch, k, jobs) is None
        assert bool(forced_pool) == (jobs == 2)

    @pytest.mark.parametrize("planted", ["dropped last block", "wrong class size"])
    def test_a_planted_bug_in_the_pooled_blocks_fails(
        self, monkeypatch, fresh_memo, forced_pool, planted
    ):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        blocks = census._canonical_blocks

        def planted_blocks(k, n, count):
            found = blocks(k, n, count)
            if len(found) < 3:  # one block left would run in-process
                return found
            if planted == "dropped last block":
                return found[:-1]
            prefix, size = found[-1]
            return found[:-1] + [(prefix, size + 1)]

        monkeypatch.setattr(census, "_canonical_blocks", planted_blocks)
        assert _first_split_mismatch(monkeypatch, 3, 2) is not None
        assert forced_pool

    @pytest.mark.parametrize("k,n", [(2, 8), (3, 6), (4, 5)])
    def test_lists_match_the_naive_filter(self, monkeypatch, k, n):
        expected = _naive_lists(k, n)
        for split in range(n + 1):
            monkeypatch.setattr(census, "_split_length", lambda k, n, s=split: s)
            assert _first_list_mismatch(k, n, expected) is None, split


class TestComplementReuse:
    @pytest.mark.parametrize(
        "first,second",
        [
            (Family.NO_SQUARE_PREFIX, Family.HAS_SQUARE_PREFIX),
            (Family.HAS_SQUARE_PREFIX, Family.NO_SQUARE_PREFIX),
        ],
    )
    def test_complement_walks_no_block(self, monkeypatch, fresh_memo, first, second):
        calls = []

        def counted(*args):
            calls.append(args)
            return _family_block(*args)

        monkeypatch.setattr(census, "_family_block", counted)
        value = census_family(2, 10, first)
        walked = len(calls)
        assert walked > 0
        assert census_family(2, 10, second) == 2 ** 10 - value
        assert len(calls) == walked


def _borders_from_length_two(n):
    # the unbordered patterns without the border of length 1
    return [[(range(i), range(n - i, n))] for i in range(2, n // 2 + 1)]


def _counts_at_2_8():
    return census_family(2, 8, Family.UNBORDERED), {
        kind: _profile_counter(2, 8, kind) for kind in ProfileKind
    }


def test_a_planted_pattern_shows_only_after_the_memo_is_reset(monkeypatch, fresh_memo):
    # one memo holds family counts and profile counters alike
    honest_count, honest = _counts_at_2_8()
    monkeypatch.setitem(census._PATTERNS, Family.UNBORDERED, _borders_from_length_two)
    assert _counts_at_2_8() == (honest_count, honest)
    census._memo.clear()
    planted_count, planted = _counts_at_2_8()
    assert planted_count != honest_count
    assert [kind for kind in ProfileKind if planted[kind] != honest[kind]] == [
        ProfileKind.SHORT_BORDERS
    ]


class TestJobs:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_are_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            census_family(2, 5, Family.UNBORDERED, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            census_profile(2, 5, ProfileKind.SHORT_BORDERS, set(), jobs=jobs)

    @pytest.mark.parametrize(
        "jobs,cpus,n,sizes",
        [
            (64, 2, 10, [2]),  # one worker per CPU
            (64, None, 10, []),  # unknown CPU count: in-process
            (3, 8, 10, [3]),  # fewer jobs than CPUs
            (16, 16, 2, [2]),  # one worker per block: 00 and 01 at k=2
        ],
    )
    def test_pool_is_clamped(self, monkeypatch, fresh_memo, jobs, cpus, n, sizes):
        monkeypatch.setattr(census, "_POOL_MIN_WORK", 0)
        started = _fake_pool(monkeypatch)
        monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
        assert census_family(2, n, Family.UNBORDERED, jobs=jobs) == U2[n - 1]
        assert [pool.size for pool in started] == sizes
        # 64 blocks per worker are more than the canonical prefixes the walk
        # reaches here (8 of length 4 at n=10, 2 of length 2 at n=2), so
        # each of them is a block
        stop = n - census._split_length(2, n)
        assert [len(pool.blocks) for pool in started] == [2 ** (stop - 1)] * len(sizes)
        assert all(pool.down for pool in started)

    def test_a_broken_pool_is_replaced(self, monkeypatch, fresh_memo, forced_pool):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(census, "_family_block", _block_that_exits)
        with pytest.raises(concurrent.futures.BrokenExecutor):
            census_family(3, 10, Family.NO_ODD_PP, jobs=2)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(census, "_family_block", _family_block)
        # at even n the no-odd-pp count is k * u(n - 1), and u(9) = 11034 at k=3
        assert census_family(3, 10, Family.NO_ODD_PP, jobs=2) == 3 * 11034
        assert len(forced_pool) == 2

    def test_no_worker_outlives_the_process(self, monkeypatch, fresh_memo, forced_pool):
        # nor the census: each pool is shut down, its workers joined, before
        # the census returns
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        census_family(3, 10, Family.UNBORDERED, jobs=2)
        _profile_counter(3, 10, ProfileKind.SHORT_BORDERS, jobs=2)
        assert len(forced_pool) == 2
        assert multiprocessing.active_children() == []


class TestRoute:
    """Which censuses fan out, decided by counts the code computes, whatever
    the clock says."""

    def test_small_censuses_start_no_pool(self, monkeypatch, fresh_memo):
        started = _fake_pool(monkeypatch)
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        census_family(2, 19, Family.UNBORDERED, jobs=2)
        census_family(2, 19, Family.NO_SQUARE_PREFIX, jobs=2)
        for kind in ProfileKind:
            _profile_counter(2, 16, kind, jobs=2)
        assert started == []
        assert _plan(2, 19, 2) == (12, _canonical_blocks(2, 7, 4), 1)

    def test_no_family_in_the_default_budget_fans_out(self):
        # the work is at most k**n / k, under the cutoff for every k
        for k in range(2, 65):
            n = 1
            while k ** n <= DEFAULT_BUDGET:
                assert _plan(k, n, 64)[2] == 1, (k, n)
                n += 1

    def test_profiles_fan_out_from_binary_length_26(self):
        cost = census._PROFILE_COST
        assert _plan(2, 25, 2, cost)[2] == 1
        _, blocks, processes = _plan(2, 26, 2, cost)
        assert (len(blocks), processes) == (128, 2)
        assert _plan(3, 17, 2, cost)[2] == 1
        assert _plan(3, 18, 2, cost)[2] == 2

    @pytest.mark.parametrize("workers,blocks", [(1, 4), (2, 128), (3, 256), (8, 512)])
    def test_large_censuses_get_64_blocks_per_worker(self, workers, blocks):
        # binary n = 28 walks canonical prefixes of length 16; one process
        # takes 4 of length 3, and 64 * workers first occur at length 8, 9,
        # 10 and 10
        split, found, processes = _plan(2, 28, workers)
        assert (split, len(found), processes) == (12, blocks, workers)
        assert sum(size for _, size in found) == 2 ** len(found[0][0])

    def test_a_large_census_hands_every_block_to_the_pool(
        self, monkeypatch, fresh_memo
    ):
        # each block is one task, counted on the fake pool by a stub worker
        started = _fake_pool(monkeypatch)
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(census, "_family_block", lambda *args: 1)
        assert census_family(2, 30, Family.UNBORDERED, budget=2 ** 30, jobs=2) == 2 ** 8
        assert [(pool.size, len(pool.blocks)) for pool in started] == [(2, 128)]


def _block_that_exits(k, n, family, split, prefix):
    # a block worker that dies on every block ending in the letter 1
    if prefix[-1] == 1:
        os._exit(1)
    return _family_block(k, n, family, split, prefix)


def _fake_pool(monkeypatch) -> list:
    """Replace the process pool with one that runs the blocks of its one map
    in-process; returns the list of the pools started, in order."""
    started = []

    class FakePool:
        def __init__(self, max_workers):
            self.size, self.blocks, self.down = max_workers, (), False
            started.append(self)

        def map(self, worker, *argument_lists):
            self.blocks = argument_lists[-1]
            return map(worker, *argument_lists)

        def shutdown(self, cancel_futures):
            self.down = cancel_futures

    # _census imports the pool class when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return started
