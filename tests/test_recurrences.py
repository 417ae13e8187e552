"""Recurrence-backed sequences against frozen rows, the census, and the
exact ratio identities; persistence of the minimal-square cache."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import palcensus
from palcensus.census import Family, census_family
from palcensus.recurrences import (
    CacheMismatchError,
    CacheStore,
    MissingCountError,
    default_cache_path,
    family_counts,
    min_square_counts,
    no_even_pp_counts,
    no_odd_pp_counts,
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
        with pytest.raises(RuntimeError, match="k=2, n=9: 148 != 149"):
            unbordered_counts(2, 5)

    def test_census_agreement_binary(self):
        seq = unbordered_counts(2, 14)
        for n in range(1, 15):
            assert seq[n] == census_family(2, n, Family.UNBORDERED)


class TestParityFamilies:
    def test_no_even_pp_equals_unbordered(self):
        assert row(no_even_pp_counts(2, 12)) == U2
        assert row(no_even_pp_counts(3, 10), 10) == row(unbordered_counts(3, 10), 10)

    def test_no_odd_pp_row(self):
        assert row(no_odd_pp_counts(2, 12)) == T2

    def test_even_lengths_multiply(self):
        t = no_odd_pp_counts(2, 12)
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

    def test_parity_recurrence(self):
        # square-prefix-free counts obey free(2m) = k*free(2m-1) - min(m)
        # and free(2m+1) = k*free(2m); cross-checked against the frozen row
        minimal = min_square_counts(2, 6)
        free, _ = square_prefix_counts(2, 12, minimal)
        for n in range(2, 13):
            if n % 2 == 0:
                assert free[n] == 2 * free[n - 1] - minimal[n // 2]
            else:
                assert free[n] == 2 * free[n - 1]
        assert free[10] == 2 * 148 - 10 == 286


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

    def test_unsorted_file_rejected(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("2\t2\t2\n2\t1\t2\n")
        with pytest.raises(ValueError, match="sorted"):
            CacheStore(path).get(2, 1)

    def test_missing_file_is_empty(self, tmp_path):
        store = CacheStore(tmp_path / "none.tsv")
        assert store.get(2, 1) is None

    def test_cached_values_bypass_the_budget(self, tmp_path):
        from palcensus.census import BudgetExceededError, _family_cache

        path = tmp_path / "counts.tsv"
        min_square_counts(2, 10, cache=CacheStore(path))
        seq = min_square_counts(2, 10, cache=CacheStore(path), budget=64)
        assert row(seq, 10) == C2[:10]
        # without the persistent cache (and with the in-process memo cleared)
        # the same request must hit the budget wall
        for n in range(7, 11):
            _family_cache.pop((2, n, Family.MIN_SQUARE), None)
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
