"""Recurrence-backed sequences against frozen rows, the census, the
hand loops and convolution they replaced, and the exact ratio identities;
persistence of the minimal-square cache."""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import palcensus
from palcensus import census, recurrences
from palcensus.census import CheckFailure, Family, census_family
from palcensus.recurrences import (
    CacheMismatchError,
    CacheStore,
    CountSeq,
    MissingCountError,
    default_cache_path,
    family_counts,
    min_square_counts,
    no_pal_prefix_counts,
    no_pal_prefix_ratios,
    square_prefix_counts,
    unbordered_counts,
)

U2 = [2, 2, 4, 6, 12, 20, 40, 74, 148, 284, 568, 1116]
T2 = [2, 4, 4, 8, 12, 24, 40, 80, 148, 296, 568, 1136]
S2 = [2, 2, 4, 6, 12, 20, 40, 74, 148, 286, 572, 1124]
C2 = [2, 2, 4, 6, 10, 20, 36, 72, 142, 280, 560, 1114]
D2 = [0, 2, 4, 10, 20, 44, 88, 182, 364, 738, 1476, 2972]
A3 = [3, 6, 12, 30, 78, 222, 636, 1878, 5556, 16590, 49548, 148422]


def row(seq, n_max=12):
    return [seq[n] for n in range(1, n_max + 1)]


# the hand loops and the convolution that the doubling kernel replaced,
# kept as oracles
def _no_pal_prefix_loop(k, N):
    values = {1: k}
    for m in range(2, N + 1):
        values[m] = k * values[m - 1] - values[(m + 1) // 2]
    return values


def _unbordered_loop(k, N):
    values = {1: k}
    for m in range(2, N + 1):
        values[m] = k * values[m - 1] - (0 if m % 2 else values[m // 2])
    return values


def _square_prefix_convolution(k, lengths, min_square):
    """has(n) = sum over 2i <= n of min_square(i) * k**(n-2i)."""
    return {
        n: sum(min_square[i] * k ** (n - 2 * i) for i in range(1, n // 2 + 1))
        for n in lengths
    }


class TestDoublingKernel:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_the_hand_loops(self, k):
        loops = _no_pal_prefix_loop(k, 2000), _unbordered_loop(k, 2000)
        assert no_pal_prefix_counts(k, 2000).values == tuple(loops[0].values())
        assert unbordered_counts(k, 2000).values == tuple(loops[1].values())

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_square_prefix_counts_match_the_convolution(self, k):
        # arbitrary counts in [0, k**i]; an error at one length carries into
        # every later free(n) = k * free(n-1) - ..., so the long lengths are
        # sampled at the end
        rng = random.Random(k)
        minimal = CountSeq(
            k, Family.MIN_SQUARE, tuple(rng.randrange(k ** i + 1) for i in range(1, 1001))
        )
        free, has = square_prefix_counts(k, 2000, minimal)
        lengths = [*range(1, 201), *range(1990, 2001)]
        expected = _square_prefix_convolution(k, lengths, minimal)
        assert {n: has[n] for n in lengths} == expected
        assert all(free[n] == k ** n - has[n] for n in range(1, 2001))

    def test_holds_half_the_counts(self):
        # kept[m] = c(m) for m <= ceil(N/2), read by every back
        for N in (1, 2, 7, 8):
            seen = []

            def back(m, kept):
                seen.append(len(kept) - 1)
                return 0

            assert list(recurrences._doubling(3, N, back)) == [3 ** n for n in range(1, N + 1)]
            assert seen == [min(m - 1, (N + 1) // 2) for m in range(2, N + 1)]


class TestCountSeq:
    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_lengths_outside_one_to_n_are_missing(self, n):
        # a bare values[n - 1] would read 0 and -1 as the last counts
        seq = unbordered_counts(2, 12)
        with pytest.raises(MissingCountError, match=f"unbordered count for k=2, n={n} was"):
            seq[n]

    def test_values_must_be_a_tuple(self):
        # a dict keyed 1..N would be read one length off
        with pytest.raises(TypeError, match="tuple, not dict"):
            CountSeq(2, Family.UNBORDERED, {1: 2, 2: 2})
        with pytest.raises(TypeError, match="tuple, not list"):
            CountSeq(2, Family.UNBORDERED, [2, 2])

    def test_holds_no_more_than_a_pointer_per_count(self):
        # everything the call leaves alive but the counts themselves: a tuple
        # costs 8 bytes per count, a dict keyed by length about 57
        unbordered_counts(3, 20)  # the census memo answers the validation
        tracemalloc.start()
        try:
            seq = unbordered_counts(3, 20000)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        container = traced - sum(sys.getsizeof(count) for count in seq.values)
        assert container <= 16 * len(seq.values)


class TestNoPalPrefix:
    def test_ternary_row(self):
        assert row(no_pal_prefix_counts(3, 12)) == A3

    def test_recurrence_steps(self):
        seq = no_pal_prefix_counts(3, 12)
        assert seq[4] == 3 * seq[3] - seq[2] == 30
        assert seq[9] == 3 * seq[8] - seq[5]

    def test_binary_collapses_to_two(self):
        seq = no_pal_prefix_counts(2, 40)
        assert all(seq[n] == 2 for n in range(2, 41))

    def test_base_cases(self):
        for k in (2, 3, 7):
            seq = no_pal_prefix_counts(k, 2)
            assert seq[1] == k
            assert seq[2] == k * k - k

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            no_pal_prefix_counts(1, 5)
        with pytest.raises(ValueError):
            no_pal_prefix_counts(3, 0)


class TestUnbordered:
    def test_binary_row(self):
        assert row(unbordered_counts(2, 12)) == U2

    def test_recurrence_steps(self):
        seq = unbordered_counts(2, 12)
        assert seq[8] == 2 * seq[7] - seq[4] == 74
        assert seq[3] == 2 * seq[2] == 4

    def test_validated_against_census(self, monkeypatch):
        # every call checks, so a census disagreement after an honest call
        # still raises, past the lengths the call asks for
        from palcensus import recurrences

        unbordered_counts(2, 5)
        honest = recurrences.census_family

        def planted(k, n, family, **options):
            return honest(k, n, family, **options) + (n == 9)

        monkeypatch.setattr(recurrences, "census_family", planted)
        with pytest.raises(CheckFailure, match="k=2, n=9: 148 != 149"):
            unbordered_counts(2, 5)

    def test_census_agreement_binary(self):
        seq = unbordered_counts(2, 14)
        for n in range(1, 15):
            assert seq[n] == census_family(2, n, Family.UNBORDERED)


class TestParityFamilies:
    def test_no_even_pp_equals_unbordered(self):
        assert row(family_counts(2, 12, Family.NO_EVEN_PP)) == U2
        assert row(family_counts(3, 10, Family.NO_EVEN_PP), 10) == row(
            unbordered_counts(3, 10), 10
        )

    def test_no_odd_pp_row(self):
        assert row(family_counts(2, 12, Family.NO_ODD_PP)) == T2

    def test_even_lengths_multiply(self):
        t = family_counts(2, 12, Family.NO_ODD_PP)
        u = unbordered_counts(2, 12)
        assert t[12] == 2 * u[11] == 1136
        assert t[9] == u[9] == 148


class TestMinSquare:
    def test_binary_row(self):
        assert row(min_square_counts(2, 12)) == C2

    def test_base_cases(self):
        for k in (2, 3, 4):
            seq = min_square_counts(k, 2)
            assert seq[1] == k
            assert seq[2] == k * (k - 1)

    def test_bounded_by_all_squares(self):
        seq = min_square_counts(3, 8)
        for i in range(1, 9):
            assert 0 <= seq[i] <= 3 ** i


class TestSquareSplit:
    def test_binary_rows(self):
        free, has = square_prefix_counts(2, 12, min_square_counts(2, 6))
        assert row(free) == S2
        assert row(has) == D2

    def test_no_square_fits_in_length_one(self):
        _, has = square_prefix_counts(5, 1, min_square_counts(5, 1))
        assert has[1] == 0

    def test_missing_counts_rejected(self):
        short = min_square_counts(2, 3)
        with pytest.raises(MissingCountError):
            square_prefix_counts(2, 12, short)

    def test_counts_of_another_alphabet_or_family_rejected(self):
        # the binary minimal squares made the ternary free counts
        # (3, 7, 21, 61, 183, 545), against the true (3, 6, 18, 48, 144, 414)
        free, _ = square_prefix_counts(3, 6, min_square_counts(3, 3))
        assert free.values == (3, 6, 18, 48, 144, 414)
        for other in (min_square_counts(2, 6), no_pal_prefix_counts(3, 6),
                      CountSeq(3, Family.UNBORDERED, min_square_counts(3, 6).values)):
            with pytest.raises(ValueError, match="need min-square counts over k=3"):
                square_prefix_counts(3, 6, other)

    @pytest.mark.parametrize("k,N", [(2, 52), (3, 32), (4, 26)])
    def test_matches_the_convolution_of_census_counts(self, k, N):
        # the census min-square counts at every half-length the default
        # budget reaches; the recurrence's subtraction is the convolution's
        # new term
        minimal = min_square_counts(k, N // 2)
        free, has = square_prefix_counts(k, N, minimal)
        lengths = range(1, N + 1)
        assert has.values == tuple(_square_prefix_convolution(k, lengths, minimal).values())
        assert free.values == tuple(k ** n - has[n] for n in lengths)


class TestCensusAgreement:
    @pytest.mark.parametrize(
        "family",
        [
            Family.UNBORDERED,
            Family.NO_EVEN_PP,
            Family.NO_ODD_PP,
            Family.NO_PAL_PREFIX,
            Family.MIN_SQUARE,
        ],
    )
    @pytest.mark.parametrize("k,n_max", [(2, 14), (3, 12)])
    def test_matches_the_census(self, family, k, n_max):
        seq = family_counts(k, n_max, family)
        for n in range(1, n_max + 1):
            assert seq[n] == census_family(k, n, family)

    @pytest.mark.parametrize("k,n_max", [(2, 14), (3, 12)])
    def test_square_split_matches_census(self, k, n_max):
        free = family_counts(k, n_max, Family.NO_SQUARE_PREFIX)
        has = family_counts(k, n_max, Family.HAS_SQUARE_PREFIX)
        for n in range(1, n_max + 1):
            assert free[n] == census_family(k, n, Family.NO_SQUARE_PREFIX)
            assert has[n] == census_family(k, n, Family.HAS_SQUARE_PREFIX)


class TestRatios:
    def test_values(self):
        ratios = no_pal_prefix_ratios(2, 8)
        assert ratios[1] == 1
        assert ratios[4] == Fraction(1, 8)
        assert no_pal_prefix_ratios(3, 6)[6] == Fraction(222, 729)

    def test_within_unit_interval(self):
        for k in (2, 3):
            ratios = no_pal_prefix_ratios(k, 64)
            assert all(0 <= ratios[n] <= 1 for n in range(1, 65))

    def test_a_ratio_out_of_range_is_a_failed_check(self, monkeypatch):
        # a count above k**n: the CLI exits 1 on a CheckFailure, not a traceback
        monkeypatch.setattr(recurrences, "no_pal_prefix_counts", lambda k, N: CountSeq(
            k, Family.NO_PAL_PREFIX, (k, k * k + 1)))
        with pytest.raises(CheckFailure, match="ratio out of range at k=2, n=2: 5/4"):
            no_pal_prefix_ratios(2, 2)

    def test_halving_identity(self):
        for k in (2, 3):
            ratios = no_pal_prefix_ratios(k, 120)
            for n in range(2, 61):
                assert ratios[2 * n] == ratios[2 * n - 2] - (k + 1) * ratios[
                    n
                ] * Fraction(1, k ** n)

    def test_telescoped_identity(self):
        for k in (2, 3):
            ratios = no_pal_prefix_ratios(k, 120)
            partial = Fraction(0)
            for n in range(1, 61):
                partial += ratios[n] * Fraction(1, k ** n)
                assert ratios[2 * n] == 2 - (k + 1) * partial


class TestCacheStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "counts.tsv"
        store = CacheStore(path)
        seq = min_square_counts(2, 8, cache=store)
        assert row(seq, 8) == C2[:8]
        assert path.read_text() == "".join(
            f"2\t{n}\t{C2[n - 1]}\n" for n in range(1, 9)
        )
        # a fresh store serves the same values without recomputing
        again = min_square_counts(2, 8, cache=CacheStore(path))
        assert row(again, 8) == C2[:8]

    def test_extends_in_sorted_order(self, tmp_path):
        path = tmp_path / "counts.tsv"
        min_square_counts(3, 3, cache=CacheStore(path))
        min_square_counts(2, 3, cache=CacheStore(path))
        keys = [tuple(map(int, line.split("\t")[:2]))
                for line in path.read_text().splitlines()]
        assert keys == sorted(keys)

    def test_verify_cache_accepts_honest_entries(self, tmp_path):
        path = tmp_path / "counts.tsv"
        min_square_counts(2, 6, cache=CacheStore(path))
        seq = min_square_counts(2, 6, cache=CacheStore(path), verify_cache=True)
        assert row(seq, 6) == C2[:6]

    def test_verify_cache_rejects_tampering(self, tmp_path):
        path = tmp_path / "counts.tsv"
        min_square_counts(2, 6, cache=CacheStore(path))
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "2\t3\t5\n"
        path.write_text("".join(lines))
        # without verification the tampered value is served as-is
        assert min_square_counts(2, 6, cache=CacheStore(path))[3] == 5
        with pytest.raises(CacheMismatchError):
            min_square_counts(2, 6, cache=CacheStore(path), verify_cache=True)

    @pytest.mark.parametrize(
        "line",
        ["2 3 4\n", "2\t3\n", "2\t3\tx\n", "0\t3\t4\n", "2\t3\t-1\n", "k\tn\tc\n"],
    )
    def test_malformed_lines_rejected(self, tmp_path, line):
        path = tmp_path / "counts.tsv"
        path.write_text(line)
        with pytest.raises(ValueError):
            CacheStore(path).get(2, 3)

    @pytest.mark.parametrize(
        "record,message",
        [
            ((2, 3.0, 6), "half-length must be an integer, got 3.0"),
            ((0, 1, 5), "alphabet size must be at least 1, got 0"),
            ((2, 1, -1), "min-square count must be at least 0, got -1"),
            (("2", 1, 2), "alphabet size must be an integer, got '2'"),
            ((2, 1, 2.0), "min-square count must be an integer, got 2.0"),
        ],
    )
    def test_put_refuses_what_the_reader_would(self, tmp_path, record, message):
        # a put record the reader refuses would poison the file for every
        # process that shares it
        path = tmp_path / "counts.tsv"
        store = CacheStore(path)
        store.put(2, 2, C2[1])
        with pytest.raises(ValueError, match=f"^{message}$"):
            store.put(*record)
        store.save()
        assert path.read_text() == f"2\t2\t{C2[1]}\n"
        assert CacheStore(path).get(2, 2) == C2[1]

    def test_put_stores_ints(self, tmp_path):
        path = tmp_path / "counts.tsv"
        store = CacheStore(path)
        store.put(True, 1, 1)
        store.save()
        assert path.read_text() == "1\t1\t1\n"
        assert CacheStore(path).get(1, 1) == 1

    def test_unsorted_file_rejected(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("2\t2\t2\n2\t1\t2\n")
        with pytest.raises(ValueError, match="sorted"):
            CacheStore(path).get(2, 1)

    def test_missing_file_is_empty(self, tmp_path):
        store = CacheStore(tmp_path / "none.tsv")
        assert store.get(2, 1) is None

    def test_cached_values_bypass_the_budget(self, tmp_path):
        from palcensus.census import BudgetExceededError

        path = tmp_path / "counts.tsv"
        min_square_counts(2, 10, cache=CacheStore(path))
        seq = min_square_counts(2, 10, cache=CacheStore(path), budget=64)
        assert row(seq, 10) == C2[:10]
        # without the persistent cache (and with the in-process memo cleared)
        # the same request must hit the budget wall
        for n in range(7, 11):
            census._memo.pop((2, n, Family.MIN_SQUARE), None)
        with pytest.raises(BudgetExceededError):
            min_square_counts(2, 10, budget=64)

    def test_savers_keep_each_others_entries(self, tmp_path):
        path = tmp_path / "counts.tsv"
        first, second = CacheStore(path), CacheStore(path)
        assert first.get(2, 1) is None and second.get(2, 2) is None
        first.put(2, 1, C2[0])
        second.put(2, 2, C2[1])
        first.save()
        second.save()
        assert CacheStore(path).get(2, 1) == C2[0]
        assert path.read_text() == f"2\t1\t{C2[0]}\n2\t2\t{C2[1]}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "counts.tsv", "counts.tsv.lock"
        ]

    def test_conflicting_saves_are_refused(self, tmp_path):
        path = tmp_path / "counts.tsv"
        first, second = CacheStore(path), CacheStore(path)
        assert first.get(2, 3) is None and second.get(2, 3) is None
        first.put(2, 3, 4)
        second.put(2, 3, 5)
        first.save()
        with pytest.raises(CacheMismatchError, match="k=2, n=3"):
            second.save()
        assert path.read_text() == "2\t3\t4\n"

    def test_concurrent_writer_processes_lose_nothing(self, tmp_path):
        # more writers than CPUs; each loads the empty file, waits until all
        # have, then saves its own keys one at a time
        path = tmp_path / "counts.tsv"
        writer = (
            "import sys\n"
            "from palcensus.recurrences import CacheStore\n"
            "store, k = CacheStore(sys.argv[1]), int(sys.argv[2])\n"
            "store.get(k, 1)\n"
            "print('ready', flush=True)\n"
            "sys.stdin.readline()\n"
            "for n in range(1, 9):\n"
            "    store.put(k, n, 10 * k + n)\n"
            "    store.save()\n"
        )
        src = str(Path(palcensus.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        ks = range(2, 6)
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", writer, str(path), str(k)], env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for k in ks
        ]
        try:
            for process in writers:
                assert process.stdout.readline() == "ready\n"
            for process in writers:
                process.stdin.write("go\n")
                process.stdin.flush()
            for process in writers:
                process.communicate(timeout=60)
                assert process.returncode == 0
        finally:
            for process in writers:
                process.kill()
        store = CacheStore(path)
        assert all(store.get(k, n) == 10 * k + n for k in ks for n in range(1, 9))
        assert not list(tmp_path.glob("*.tmp"))

    def test_default_path_honours_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PALCENSUS_CACHE", str(tmp_path / "cachedir"))
        assert default_cache_path() == tmp_path / "cachedir" / "min_square_counts.tsv"
        monkeypatch.delenv("PALCENSUS_CACHE")
        monkeypatch.setenv("XDG_DATA_HOME", str(tmp_path / "xdg"))
        assert (
            default_cache_path()
            == tmp_path / "xdg" / "palcensus" / "min_square_counts.tsv"
        )
