"""End-to-end CLI behaviour: output formats, exit codes, determinism."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import palcensus
from palcensus import census, cli, maps, verify
from palcensus.cli import main
from palcensus.constants import MAX_DIGITS

T2 = [2, 4, 4, 8, 12, 24, 40, 80, 148, 296, 568, 1136]
U2 = [2, 2, 4, 6, 12, 20, 40, 74, 148, 284, 568, 1116]
C2 = [2, 2, 4, 6, 10, 20, 36, 72, 142, 280, 560, 1114]
A3 = [3, 6, 12, 30, 78, 222, 636, 1878, 5556, 16590, 49548, 148422]

# orders of the milk shuffle for n = 2..20, frozen from iterating the
# permutation to the identity
SHUFFLE_ORDERS = [1, 2, 3, 3, 5, 6, 4, 4, 9, 6, 11, 10, 9, 14, 5, 5, 12, 18, 12]

RHO3_DIGITS = "27848991988211514682647065951267812841780582980188451703816"
H3_DIGITS = "430377520029471213293382335121830467895548542549528870740458"
GAMMA2_PREFIX = "0.26778684021788911237667140358430255255"
GAMMA3_PREFIX = "0.55697983976423029365294131902535625683"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env():
    # a child process imports this checkout's palcensus
    src = str(Path(palcensus.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


class TestCount:
    def test_brute_tsv(self, capsys):
        code, out, _ = run(
            capsys, "count", "--k", "2", "--n-min", "1", "--n-max", "12",
            "--family", "no-odd-pp", "--method", "brute",
        )
        assert code == 0
        assert out == "".join(f"{n}\t{T2[n - 1]}\n" for n in range(1, 13))

    def test_recurrence(self, capsys):
        code, out, _ = run(
            capsys, "count", "--k", "3", "--n-min", "1", "--n-max", "12",
            "--family", "no-pal-prefix", "--method", "recurrence",
        )
        assert code == 0
        assert out == "".join(f"{n}\t{A3[n - 1]}\n" for n in range(1, 13))

    def test_both_reports_matches(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "count", "--k", "2", "--n-min", "1", "--n-max", "12",
            "--family", "min-square", "--method", "both",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert out == "".join(
            f"{n}\t{C2[n - 1]}\tMATCH\n" for n in range(1, 13)
        )

    @pytest.mark.parametrize(
        "k,family,row",
        [
            (2, "unbordered", U2),
            (2, "no-odd-pp", T2),
            (2, "min-square", C2),
            (3, "no-pal-prefix", A3),
        ],
    )
    def test_bfile_bytes(self, capsys, tmp_path, k, family, row):
        code, out, _ = run(
            capsys, "count", "--k", str(k), "--n-min", "1", "--n-max", "12",
            "--family", family, "--method", "recurrence",
            "--format", "bfile", "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert out == "".join(f"{n} {row[n - 1]}\n" for n in range(1, 13))

    def test_jsonl(self, capsys):
        code, out, _ = run(
            capsys, "count", "--k", "2", "--n-min", "8", "--n-max", "8",
            "--family", "unbordered", "--method", "brute", "--format", "jsonl",
        )
        assert code == 0
        assert json.loads(out) == {"n": 8, "value": 74}

    @pytest.mark.parametrize("method", ["brute", "recurrence", "both"])
    def test_empty_length_range_is_a_usage_error(self, capsys, method):
        # an --n-max below --n-min printed nothing and exited 0
        code, out, err = run(
            capsys, "count", "--k", "2", "--n-min", "5", "--n-max", "3",
            "--family", "unbordered", "--method", method,
        )
        assert (code, out) == (2, "")
        assert err == "error: --n-max must be at least 5, got 3\n"

    def test_budget_exceeded(self, capsys):
        code, out, err = run(
            capsys, "count", "--k", "3", "--n-min", "20", "--n-max", "20",
            "--family", "unbordered", "--method", "brute", "--budget", "1000",
        )
        assert code == 2
        assert "3**20" in err

    def test_default_budget_counts_every_word(self, capsys, monkeypatch):
        # the walk would visit only the canonical half of the 2**27 words;
        # the budget still refuses the whole space before walking
        from palcensus import census

        def no_walk(*args):
            raise AssertionError("walked past the budget")

        monkeypatch.setattr(census, "_family_block", no_walk)
        monkeypatch.setattr(census, "_walk", no_walk)
        code, out, err = run(
            capsys, "count", "--k", "2", "--n-min", "27", "--n-max", "28",
            "--family", "unbordered", "--method", "brute",
        )
        assert code == 2
        assert out == ""
        assert "2**27" in err

    def test_counts_python_cannot_print_are_refused_before_any_row(self, capsys):
        # 2**14285 has 4301 digits, past Python's default int -> str limit;
        # the rows for 14280..14286 once printed before the first such count
        code, out, err = run(
            capsys, "count", "--k", "2", "--family", "unbordered", "--method", "recurrence",
            "--n-min", "14280", "--n-max", "14300", "--format", "bfile",
        )
        assert (code, out) == (2, "")
        assert err == "error: --n-max must keep k**n below 10**4300, got 14300 at k=2\n"
        code, out, _ = run(
            capsys, "count", "--k", "2", "--family", "unbordered", "--method", "recurrence",
            "--n-min", "14284", "--n-max", "14284", "--format", "bfile",
        )
        assert code == 0 and len(out) == len("14284 ") + 4300 + 1

    @pytest.mark.parametrize("limit,argv,power", [
        # 2**2126 has 641 digits; the rows for 2120..2127 once printed first
        (640, ["--n-min", "2120", "--n-max", "2130"], 640),
        # with no limit in force, the default still bounds the recurrence's work
        (0, ["--n-min", "14280", "--n-max", "14300"], 4300),
    ])
    def test_the_print_cap_reads_the_limit_in_force(self, capsys, limit, argv, power):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            code, out, err = run(
                capsys, "count", "--k", "2", "--family", "unbordered", "--method",
                "recurrence", *argv, "--format", "bfile",
            )
        finally:
            sys.set_int_max_str_digits(previous)
        assert (code, out) == (2, "")
        assert err == f"error: --n-max must keep k**n below 10**{power}, got {argv[-1]} at k=2\n"

    @pytest.mark.parametrize("family", ["unbordered", "no-pal-prefix", "min-square"])
    def test_a_huge_length_is_refused_at_once(self, capsys, family):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "count", "--k", "3", "--family", family, "--method", "recurrence",
            "--n-max", str(10 ** 18),
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: --n-max must keep k**n below 10**4300")

    def test_invalid_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as outcome:
            main(["count", "--k", "2", "--n-max", "5", "--family", "weird"])
        assert outcome.value.code == 2

    def test_deterministic_output(self, capsys):
        args = (
            "count", "--k", "2", "--n-min", "1", "--n-max", "10",
            "--family", "no-square-prefix", "--method", "brute",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_jobs_do_not_change_output(self, capsys):
        from palcensus.census import Family

        args = (
            "count", "--k", "2", "--n-min", "9", "--n-max", "9",
            "--family", "unbordered", "--method", "brute",
        )
        _, sequential, _ = run(capsys, *args)
        census._memo.pop((2, 9, Family.UNBORDERED), None)
        _, parallel, _ = run(capsys, *args, "--jobs", "2")
        assert sequential == parallel

    @pytest.mark.parametrize("method", ["brute", "recurrence"])
    def test_jobs_below_one_are_a_usage_error(self, capsys, method):
        code, out, err = run(
            capsys, "count", "--k", "2", "--n-max", "4", "--family", "unbordered",
            "--method", method, "--jobs", "0",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --jobs must be at least 1, got 0\n"


class TestMap:
    def test_milk_shuffle(self, capsys):
        assert run(capsys, "map", "--map", "f", "--k", "26", "--word", "cider") == (
            0, "cried\n", "",
        )

    def test_inverse(self, capsys):
        assert run(
            capsys, "map", "--map", "f-inv", "--k", "26", "--word", "perverse"
        ) == (0, "preserve\n", "")

    def test_adjacent_sums(self, capsys):
        assert run(capsys, "map", "--map", "g", "--k", "2", "--word", "010") == (
            0, "11\n", "",
        )

    def test_preimages(self, capsys):
        assert run(capsys, "map", "--map", "g-pre", "--k", "2", "--word", "11") == (
            0, "010\n101\n", "",
        )

    def test_empty_word_rejected_for_sums(self, capsys):
        code, _, err = run(capsys, "map", "--map", "g", "--k", "2", "--word", "")
        assert code == 2
        assert "nonempty" in err

    def test_symbol_out_of_range(self, capsys):
        code, _, err = run(capsys, "map", "--map", "f", "--k", "2", "--word", "012")
        assert code == 2
        assert "out of range" in err


class TestProfile:
    def test_count(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--k", "2", "--n", "8", "--kind", "even-pp",
            "--set", "1,3",
        )
        assert (code, out) == (0, "8\n")

    def test_list(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--k", "2", "--n", "8", "--kind", "borders",
            "--set", "1,3", "--list",
        )
        assert code == 0
        assert out.split() == [
            "01000010", "01001010", "01010010", "01011010",
            "10100101", "10101101", "10110101", "10111101",
        ]

    def test_a_length_far_past_the_budget_is_a_usage_error(self, capsys):
        # the message names 2**20000 without expanding it, which str() refuses
        code, out, err = run(capsys, "profile", "--k", "2", "--n", "20000", "--kind", "borders")
        assert (code, out) == (2, "")
        assert err == "error: enumerating 2**20000 words exceeds the budget of 67108864\n"

    def test_list_above_the_cap_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(census, "MAX_LISTED_WORDS", 50)
        code, out, err = run(
            capsys, "profile", "--k", "2", "--n", "8", "--kind", "borders",
            "--set", "", "--list",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: 74 words match, more than the 50 that may be listed")

    def test_empty_set(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--k", "2", "--n", "6", "--kind", "borders",
            "--set", "",
        )
        assert (code, out) == (0, "20\n")

    def test_invalid_set(self, capsys):
        code, _, err = run(
            capsys, "profile", "--k", "2", "--n", "8", "--kind", "borders",
            "--set", "9",
        )
        assert code == 2
        assert "must lie in" in err

    def test_a_reader_that_closes_stdout_ends_the_list_quietly(self):
        # 35 000 words of 18 bytes fill the pipe long before the list ends
        listing = subprocess.Popen(
            [sys.executable, "-m", "palcensus", "profile", "--k", "2", "--n", "17",
             "--kind", "borders", "--set", "", "--list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        )
        assert listing.stdout.readline() == b"00000000000000001\n"
        listing.stdout.close()
        err = listing.stderr.read()
        listing.stderr.close()
        assert (listing.wait(timeout=60), err) == (141, b"")

    @pytest.mark.parametrize(
        "k,n", [("1", "3"), ("0", "8"), ("-1", "8"), ("-2", "3")],
        ids=["one", "zero", "minus-1", "minus-2"],
    )
    @pytest.mark.parametrize("command", [
        ["profile", "--kind", "borders", "--set", "1", "--n"],
        ["profile", "--kind", "borders", "--set", "1", "--list", "--n"],
        ["count", "--family", "unbordered", "--method", "brute", "--n-max"],
    ], ids=["count", "list", "brute"])
    def test_alphabet_below_one_is_a_usage_error(self, capsys, k, n, command):
        # and one letter too: the census needs k >= 2, as the recurrences do
        code, out, err = run(capsys, *command, n, "--k", k)
        assert (code, out) == (2, "")
        assert err == f"error: alphabet size must be at least 2, got {k}\n"


class TestConstants:
    def test_rho_digits(self, capsys):
        code, out, _ = run(
            capsys, "constants", "--k", "3", "--which", "rho", "--digits", "59"
        )
        assert (code, out) == (0, "0." + RHO3_DIGITS + "\n")

    def test_series_digits(self, capsys):
        code, out, _ = run(
            capsys, "constants", "--k", "3", "--which", "h", "--digits", "60"
        )
        assert (code, out) == (0, "0." + H3_DIGITS + "\n")

    def test_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "constants", "--k", "3", "--which", "h", "--digits", "60",
            "--method", "closed-form", "--terms", "6",
        )
        assert (code, out) == (0, "0." + H3_DIGITS + "\n")

    def test_closed_form_with_too_few_terms_fails(self, capsys):
        code, _, err = run(
            capsys, "constants", "--k", "3", "--which", "h", "--digits", "60",
            "--method", "closed-form", "--terms", "1",
        )
        assert code == 1
        assert "certify" in err

    def test_closed_form_terms_cap_the_depth_without_cost(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "constants", "--k", "3", "--which", "h", "--digits", "60",
            "--method", "closed-form", "--terms", "1000000",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, "0." + H3_DIGITS + "\n")

    @pytest.mark.parametrize("route", ["_functional_enclosure", "density_series_enclosure"])
    def test_closed_form_fails_when_either_route_is_shifted(self, capsys, monkeypatch, route):
        from palcensus import constants
        from palcensus.constants import Enclosure

        # the series, not the stepper a second time, is the other route
        honest = getattr(constants, route)

        def shifted(k, size):
            # both bounds 10**-55 higher
            enclosure = honest(k, size)
            return Enclosure(enclosure.low * 10 ** 55 + enclosure.denominator,
                             enclosure.high * 10 ** 55 + enclosure.denominator,
                             enclosure.denominator * 10 ** 55)

        monkeypatch.setattr(constants, route, shifted)
        code, out, err = run(
            capsys, "constants", "--k", "3", "--which", "h", "--digits", "60",
            "--method", "closed-form",
        )
        assert (code, out) == (1, "")
        assert "disagree" in err

    def test_series_method_is_refused(self, capsys):
        # every decimal report steps the functional equation; the count
        # series is the closed-form report's reference, not a method
        with pytest.raises(SystemExit) as outcome:
            main(["constants", "--k", "3", "--which", "h", "--method", "series"])
        assert outcome.value.code == 2
        assert "invalid choice: 'series'" in capsys.readouterr().err

    def test_closed_form_without_terms_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "constants", "--k", "3", "--which", "h",
            "--method", "closed-form", "--terms", "0",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "k,digits,terms",
        [(k, digits, None) for k in (2, 3, 4, 5) for digits in (1, 50, 60, 1000, 4400)]
        + [(3, 50, 6), (2, 50, 9)],
    )
    def test_closed_form_prints_the_series_digits(self, capsys, k, digits, terms):
        argv = ["constants", "--k", str(k), "--which", "h", "--digits", str(digits)]
        series = run(capsys, *argv)
        if terms is not None:
            argv += ["--terms", str(terms)]
        closed = run(capsys, *argv, "--method", "closed-form")
        assert closed == series
        assert series[0] == 0 and len(series[1]) == digits + 3

    def test_digits_beyond_the_int_string_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, long_out, _ = run(
            capsys, "constants", "--k", "3", "--which", "h", "--digits", "4400"
        )
        assert code == 0
        assert len(long_out) == 4403
        _, short_out, _ = run(
            capsys, "constants", "--k", "3", "--which", "h", "--digits", "1000"
        )
        assert long_out[:1002] == short_out[:1002]
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("digits", ["0", "-1", str(MAX_DIGITS + 1)])
    @pytest.mark.parametrize(
        "report_args",
        [
            ["--which", "h"],
            ["--which", "h", "--method", "closed-form", "--terms", "6"],
            ["--which", "rho"],
            ["--which", "gamma"],
        ],
        ids=["series", "closed-form", "rho", "gamma"],
    )
    def test_digit_request_out_of_range_is_a_usage_error(
        self, capsys, report_args, digits
    ):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "constants", "--k", "3", *report_args, "--digits", digits
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: digits must lie in")

    def test_alpha_beta_pair(self, capsys, tmp_path):
        from fractions import Fraction

        code, beta_out, _ = run(
            capsys, "constants", "--k", "2", "--which", "beta", "--c-max", "8",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        code, alpha_out, _ = run(
            capsys, "constants", "--k", "2", "--which", "alpha", "--c-max", "8",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        beta_low, beta_high = (Fraction(part) for part in beta_out.split())
        alpha_low, alpha_high = (Fraction(part) for part in alpha_out.split())
        assert beta_low < beta_high
        assert (alpha_low, alpha_high) == (1 - beta_high, 1 - beta_low)

    def test_alpha_at_the_default_budget_for_any_k(self, capsys, tmp_path):
        # --c-max defaults to the largest c <= 20 with k**c <= --budget:
        # 20 at k = 2, 16 at k = 3
        cache = ["--cache-dir", str(tmp_path)]
        default = run(capsys, "constants", "--k", "2", "--which", "alpha", *cache)
        assert default == run(
            capsys, "constants", "--k", "2", "--which", "alpha", "--c-max", "20", *cache)
        code, out, err = run(capsys, "constants", "--k", "3", "--which", "alpha", *cache)
        assert (code, err) == (0, "")
        assert run(
            capsys, "constants", "--k", "3", "--which", "alpha", "--c-max", "16", *cache
        ) == (code, out, err)

    def test_alpha_at_twenty_terms_inside_the_reference_interval(self, capsys, tmp_path):
        from fractions import Fraction

        code, out, _ = run(
            capsys, "constants", "--k", "2", "--which", "alpha", "--c-max", "20",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        low, high = (Fraction(part) for part in out.split())
        assert Fraction(2700426, 10 ** 7) < low < high < Fraction(2700437, 10 ** 7)

    def test_gamma_certified_digits(self, capsys):
        for k, prefix in ((2, GAMMA2_PREFIX), (3, GAMMA3_PREFIX)):
            argv = ["constants", "--k", str(k), "--which", "gamma"]
            code, out, err = run(capsys, *argv, "--digits", "1000")
            assert (code, err, len(out)) == (0, "", 1003)
            assert out.startswith(prefix)
            # the default --digits 50 prints the first 50 of the same places
            assert run(capsys, *argv) == (0, out[:52] + "\n", "")

    def test_gamma_ratio_index_is_refused(self, capsys):
        # --n chose the ratio of the heuristic estimate that gamma replaced
        with pytest.raises(SystemExit) as outcome:
            main(["constants", "--k", "2", "--which", "gamma", "--n", "60"])
        assert outcome.value.code == 2
        assert "unrecognized arguments: --n 60" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["rho", "gamma", "alpha"])
    def test_closed_form_for_another_constant_is_a_usage_error(self, capsys, which):
        # the two-route closed-form report is h's alone; the flag must not be ignored
        code, out, err = run(
            capsys, "constants", "--k", "2", "--which", which, "--method", "closed-form"
        )
        assert (code, out) == (2, "")
        assert err == "error: --method closed-form applies to --which h only\n"

    def test_cache_environment_variable(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("PALCENSUS_CACHE", str(tmp_path))
        code, _, _ = run(
            capsys, "constants", "--k", "2", "--which", "beta", "--c-max", "5"
        )
        assert code == 0
        assert (tmp_path / "min_square_counts.tsv").exists()

    def test_tampered_cache_detected(self, capsys, tmp_path):
        run(
            capsys, "constants", "--k", "2", "--which", "beta", "--c-max", "6",
            "--cache-dir", str(tmp_path),
        )
        cache_file = tmp_path / "min_square_counts.tsv"
        lines = cache_file.read_text().splitlines(keepends=True)
        lines[3] = "2\t4\t7\n"
        cache_file.write_text("".join(lines))
        code, _, err = run(
            capsys, "constants", "--k", "2", "--which", "beta", "--c-max", "6",
            "--cache-dir", str(tmp_path), "--verify-cache",
        )
        assert code == 1
        assert "recomputation" in err


class TestShuffleOrder:
    def test_single(self, capsys):
        assert run(capsys, "shuffle-order", "--n", "7") == (0, "6\n", "")

    def test_range_with_check(self, capsys):
        code, out, _ = run(capsys, "shuffle-order", "--n-max", "50", "--check")
        assert code == 0
        assert len(out.splitlines()) == 49

    def test_bfile_matches_frozen_orders(self, capsys):
        code, out, _ = run(
            capsys, "shuffle-order", "--n-max", "20", "--format", "bfile"
        )
        assert code == 0
        assert out == "".join(
            f"{n} {SHUFFLE_ORDERS[n - 2]}\n" for n in range(2, 21)
        )

    def test_tsv_matches_frozen_orders(self, capsys):
        # the rows go through the writer count uses
        code, out, _ = run(capsys, "shuffle-order", "--n-max", "20")
        assert code == 0
        assert out == "".join(
            f"{n}\t{SHUFFLE_ORDERS[n - 2]}\n" for n in range(2, 21)
        )

    def test_a_check_mismatch_prints_no_row(self, capsys, monkeypatch):
        # the rows are written only after every order passes its check
        monkeypatch.setattr(maps, "permutation_order", lambda p: 0 if len(p.images) == 9 else 1)
        monkeypatch.setattr(maps, "milk_shuffle_order", lambda n: 1)
        code, out, err = run(capsys, "shuffle-order", "--n-max", "12", "--check")
        assert (code, out) == (1, "")
        assert err == "error: order mismatch at n=9: permutation 0, congruence 1\n"

    def test_degenerate_size(self, capsys):
        code, _, err = run(capsys, "shuffle-order", "--n", "1")
        assert code == 2
        assert err == f"error: shuffle length must lie in 2..{maps.MAX_SHUFFLE_N}, got 1\n"

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["--n", str(maps.MAX_SHUFFLE_N + 1)], str(maps.MAX_SHUFFLE_N)),
            (["--n-max", str(cli.MAX_SHUFFLE_RANGE + 1)], str(cli.MAX_SHUFFLE_RANGE)),
            (["--n-max", "1"], str(cli.MAX_SHUFFLE_RANGE)),
            (["--n-max", "-5"], str(cli.MAX_SHUFFLE_RANGE)),
            (["--n", "500001", "--check"], str(cli.MAX_CHECK_POSITIONS)),
            (["--n-max", "1000", "--check"], str(cli.MAX_CHECK_POSITIONS)),
            (["--n", str(maps.MAX_SHUFFLE_N), "--check"], str(cli.MAX_CHECK_POSITIONS)),
            (["--n", "0"], f"lie in 2..{maps.MAX_SHUFFLE_N}, got 0"),
        ],
        ids=["n-above-cap", "n-max-above-cap", "n-max-1", "n-max-negative",
             "check-n", "check-n-max", "check-n-at-cap", "n-0"],
    )
    def test_out_of_range_is_a_fast_usage_error(self, capsys, argv, named):
        start = time.perf_counter()
        code, out, err = run(capsys, "shuffle-order", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("n", [maps.MAX_SHUFFLE_N, 999_999_999_864])
    def test_largest_orders_are_fast(self, capsys, n):
        # at 999 999 999 864, 2n-1 and n-1 are prime: both trial divisions
        # run to the square root
        start = time.perf_counter()
        code, out, err = run(capsys, "shuffle-order", "--n", str(n))
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert pow(2, int(out), 2 * n - 1) in (1, 2 * n - 2)

    def test_largest_checked_range(self, capsys):
        code, out, _ = run(capsys, "shuffle-order", "--n-max", "999", "--check")
        assert code == 0
        assert len(out.splitlines()) == 998

    def test_help_names_the_library_cap(self, capsys):
        # the parser spells the cap out so that it need not import maps
        with pytest.raises(SystemExit):
            main(["shuffle-order", "--help"])
        assert f"2 <= N <= {maps.MAX_SHUFFLE_N}" in capsys.readouterr().out


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "all", "--k-max", "2", "--n-max", "8"
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(": PASS (" in line for line in lines)

    def test_single_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "g-map", "--k-max", "2", "--n-max", "8"
        )
        assert code == 0
        assert out.startswith("g-map: PASS")

    def test_a_huge_n_max_costs_no_more_than_the_budget_admits(self):
        # every suite stops at the longest length the budget admits, without
        # building k**n for each n up to --n-max
        def verify_fresh(n_max):
            return subprocess.run(
                [sys.executable, "-m", "palcensus", "verify", "--suite", "all",
                 "--k-max", "2", "--n-max", n_max, "--budget", "64"],
                capture_output=True, text=True, env=_child_env(), timeout=10,
            )

        huge, short = verify_fresh("1000000"), verify_fresh("12")
        assert (huge.returncode, huge.stderr) == (0, "")
        assert huge.stdout == short.stdout
        assert len(huge.stdout.splitlines()) == 6

    def test_suite_names_match_the_verify_table(self):
        # the parser lists the suites and the default budget without
        # importing verify
        assert cli.SUITE_NAMES == tuple(verify.SUITES)
        default = inspect.signature(verify.run_suites).parameters["budget"].default
        assert cli._build_parser().parse_args(["verify"]).budget == default == 1 << 16

    def test_a_suite_that_ran_no_check_fails(self, capsys, monkeypatch):
        # no bounds that run_suites accepts leave a suite without a check, so
        # a counts suite that returns at once stands in for one that did
        monkeypatch.setitem(
            verify.SUITES, "counts", lambda *bounds: verify.SuiteResult("counts")
        )
        code, out, _ = run(capsys, "verify", "--suite", "all", "--k-max", "2", "--n-max", "4")
        assert code == 1
        assert "counts: FAIL (0 checks)" in out.splitlines()
        assert "PASS (0 checks)" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "counts", "--budget", "1"],
            ["--suite", "all", "--budget", "0"],
            ["--suite", "g-map", "--budget", "-5"],
        ],
        ids=["budget-1", "budget-0", "budget-negative"],
    )
    def test_a_budget_below_two_is_refused(self, capsys, argv):
        # k = 2 at n = 1, the smallest length any suite scans, has two words
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: --budget must be at least 2")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--k-max", "1", "--n-max", "5"], "--k-max must lie in 2..120, got 1"),
            (["--suite", "bijection", "--k-max", "0"], "--k-max must lie in 2..120, got 0"),
            (["--n-max", "0"], "--n-max must be at least 1, got 0"),
            (["--suite", "g-map", "--k-max", "2", "--n-max", "-1"],
             "--n-max must be at least 1, got -1"),
        ],
        ids=["k-max-1", "k-max-0", "n-max-0", "n-max-negative"],
    )
    def test_bounds_that_scan_no_word_are_refused(self, capsys, argv, message):
        # before any suite runs, since bijection and g-map would pass on
        # their checks that scan no word
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("k_max", [121, 10 ** 9])
    def test_k_max_past_the_cap_is_refused_at_once(self, capsys, k_max):
        # the constants and recurrences suites work at every k, whatever the budget
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--k-max", str(k_max), "--n-max", "1")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: --k-max must lie in 2..120, got {k_max}\n"

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as outcome:
            main(["verify", "--suite", "nonsense"])
        assert outcome.value.code == 2


def test_a_failed_self_check_of_a_recurrence_exits_1_without_a_traceback():
    # the unbordered counts check themselves against the census on every call
    script = (
        "import sys\n"
        "from palcensus import recurrences\n"
        "from palcensus.cli import main\n"
        "recurrences._unbordered_back = lambda m, kept: 0\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, "count", "--k", "2", "--n-max", "6",
         "--family", "unbordered", "--method", "recurrence"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        "error: unbordered recurrence disagrees with the census at k=2, n=2: 4 != 2\n")


# the exit code of each ValueError the package defines: 1 for a check that
# failed, every census.CheckFailure, and 2 for a request refused up front
EXIT_CODES = {
    "CheckFailure": 1, "CertificationError": 1, "CacheMismatchError": 1,
    "BudgetExceededError": 2, "MissingCountError": 2,
}


def _package_value_errors():
    for module in ("census", "constants", "maps", "recurrences", "verify", "words"):
        importlib.import_module(f"palcensus.{module}")
    found, stack = {}, [ValueError]
    while stack:
        for subclass in stack.pop().__subclasses__():
            stack.append(subclass)
            if subclass.__module__.startswith("palcensus."):
                found[subclass.__name__] = subclass
    return found


def test_every_package_value_error_has_its_exit_code(capsys, monkeypatch):
    errors = _package_value_errors()
    assert sorted(errors) == sorted(EXIT_CODES)
    for name, error in errors.items():
        def planted(args, error=error):
            raise error(f"planted {name}")

        monkeypatch.setattr(cli, "_cmd_shuffle_order", planted)
        code, out, err = run(capsys, "shuffle-order", "--n", "7")
        assert (code, out, err) == (EXIT_CODES[name], "", f"error: planted {name}\n")
        assert (code == 1) == issubclass(error, census.CheckFailure)


def test_no_command_returns_a_value():
    # main alone turns an outcome into an exit code: a command prints, or raises
    tree = ast.parse(Path(cli.__file__).read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(commands) == 6
    returns = [
        (command.name, node.lineno) for command in commands for node in ast.walk(command)
        if isinstance(node, ast.Return) and node.value is not None
    ]
    assert returns == []


def _plant_census(monkeypatch):
    # the census counts one word too many at n = 3
    real = census.census_family
    monkeypatch.setattr(census, "census_family",
                        lambda k, n, family, **options: real(k, n, family, **options) + (n == 3))


def _plant_shuffle(monkeypatch):
    # the congruence gives one more than the permutation's order at n = 9
    real = maps.milk_shuffle_order

    def planted(n):
        return real(n) + (n == 9)

    monkeypatch.setattr(maps, "milk_shuffle_order", planted)
    monkeypatch.setattr(verify, "milk_shuffle_order", planted)


COUNT_BOTH = ["count", "--k", "2", "--n-max", "4", "--family", "unbordered", "--method", "both"]
COUNT_ROWS = [(1, 2, True), (2, 2, True), (3, 5, False), (4, 6, True)]
COUNT_MISMATCH = "error: mismatch at n=3: brute 5, recurrence 4\n"


@pytest.mark.parametrize(
    "plant,argv,out,err",
    [
        (_plant_census, COUNT_BOTH,
         "".join(f"{n}\t{v}\t{'MATCH' if m else 'MISMATCH'}\n" for n, v, m in COUNT_ROWS),
         COUNT_MISMATCH),
        (_plant_census, COUNT_BOTH + ["--format", "jsonl"],
         "".join(json.dumps({"n": n, "value": v, "match": m}) + "\n" for n, v, m in COUNT_ROWS),
         COUNT_MISMATCH),
        # a b-file has no match column, so it is not written
        (_plant_census, COUNT_BOTH + ["--format", "bfile"], "", COUNT_MISMATCH),
        (_plant_shuffle, ["shuffle-order", "--n-max", "12", "--check"], "",
         "error: order mismatch at n=9: permutation 4, congruence 5\n"),
        # the suite reports its own failures first, as ever
        (_plant_shuffle, ["verify", "--suite", "bijection", "--k-max", "2", "--n-max", "4"],
         "bijection: FAIL (241 checks)\n",
         "  shuffle order mismatch at n=9\nerror: failed suites: bijection\n"),
    ],
    ids=["count-tsv", "count-jsonl", "count-bfile", "shuffle-order", "verify"],
)
def test_a_failed_check_exits_1_through_main(capsys, monkeypatch, plant, argv, out, err):
    plant(monkeypatch)
    assert run(capsys, *argv) == (1, out, err)


def test_a_failed_check_whose_reader_is_gone_exits_141():
    # main flushes the rows printed before the failure while it can still
    # catch the broken pipe, not at exit
    script = (
        "import os, sys\n"
        "read, write = os.pipe()\n"
        "os.close(read)\n"
        "os.dup2(write, 1)\n"
        "sys.stdout = open(1, 'w', closefd=False)  # block-buffered, as into a pipe\n"
        "from palcensus import census, recurrences\n"
        "real = census.census_family\n"
        "census.census_family = lambda k, n, f, **o: real(k, n, f, **o) + (n == 3)\n"
        "from palcensus.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *COUNT_BOTH],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert (done.returncode, done.stderr) == (141, COUNT_MISMATCH)


# modules a short command must not load: the cross-checks, the process pool,
# dataclasses (with inspect, about a third of the package's import time),
# and (for commands that compute no sequence) the recurrences and constants
NO_POOL = ("palcensus.verify", "concurrent.futures", "dataclasses")
NO_SEQUENCES = NO_POOL + ("palcensus.constants", "palcensus.recurrences")


@pytest.mark.parametrize(
    "argv,absent,code",
    [
        (["map", "--map", "f", "--k", "2", "--word", "0110"], NO_SEQUENCES, "0"),
        (["shuffle-order", "--n", "7"], NO_SEQUENCES, "0"),
        (
            ["count", "--k", "2", "--n-max", "8", "--family", "unbordered",
             "--jobs", "1"],
            NO_POOL, "0",
        ),
        # below the in-process cutoff more jobs start no pool
        (
            ["count", "--k", "2", "--n-min", "19", "--n-max", "19",
             "--family", "min-square", "--method", "brute", "--jobs", "2"],
            NO_POOL, "0",
        ),
        (
            ["constants", "--k", "3", "--which", "h", "--method", "closed-form"],
            NO_POOL, "0",
        ),
        # every suite, at bounds small enough to run in process
        (
            ["verify", "--suite", "all", "--k-max", "2", "--n-max", "6"],
            ("concurrent.futures", "dataclasses", "inspect"), "0",
        ),
        # usage errors load no module only to choose their exit code
        (
            ["count", "--k", "2", "--n-min", "27", "--n-max", "28",
             "--family", "unbordered", "--method", "brute"],
            ("palcensus.constants", "palcensus.verify"), "2",
        ),
        (["map", "--map", "f", "--k", "2", "--word", "3"], NO_SEQUENCES, "2"),
    ],
    ids=["map", "shuffle-order", "count", "count-jobs-2", "constants", "verify",
         "count-over-budget", "map-bad-symbol"],
)
def test_start_up_imports_only_what_the_command_runs(argv, absent, code):
    # no command scans a word with word_profile, so none builds a kernel
    script = (
        "import sys\n"
        "from palcensus.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "words = sys.modules.get('palcensus.words')\n"
        "built = words._kernel.cache_info().currsize if words else 0\n"
        "print(code, built, *sorted(sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60, check=True,
    )
    returned, built, *loaded = done.stdout.splitlines()[-1].split()
    assert (returned, built) == (code, "0")
    assert "palcensus.cli" in loaded
    assert not set(absent) & set(loaded)


def test_importing_the_words_module_builds_no_kernel():
    # kernels are built on a length's first word_profile call, and at most
    # one per length up to the cutoff is kept
    script = (
        "import palcensus.words as words\n"
        "info = words._kernel.cache_info()\n"
        "print(info.currsize, info.maxsize, words._UNROLLED)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_child_env(), timeout=60, check=True,
    )
    built, maxsize, unrolled = map(int, done.stdout.split())
    assert (built, maxsize) == (0, unrolled + 1)
