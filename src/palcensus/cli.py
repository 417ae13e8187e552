"""Command-line front end.

Subcommands reproduce the count tables (count), apply the maps to words
(map), query profile censuses (profile), evaluate the limiting constants
(constants), compute shuffle orders (shuffle-order), and run the
cross-checking suites (verify).

Exit codes: each command returns nothing and raises, and main alone picks
the code: 0 on success, 1 on a census.CheckFailure (a failed check, in
verify or in any command), 2 on any other ValueError (usage, an exceeded
budget), 141 when the reader closes stdout early (as a shell reports a tool
SIGPIPE ends).  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# the parser and main (CheckFailure) need only these; each command imports what
# it runs, so a fresh process loads no more of the package than its command needs
from .census import DEFAULT_BUDGET, MAX_LISTED_WORDS, CheckFailure, Family, ProfileKind
from .words import _integer

# verify.SUITES in run order and verify.VERIFY_BUDGET, spelled out so that
# the parser need not import verify (a test keeps them equal)
SUITE_NAMES = ("bijection", "g-map", "counts", "recurrences", "constants", "lemmas")
VERIFY_BUDGET = 1 << 16

# shuffle-order caps beside the library's --n cap, measured to keep a
# request under 0.5 s on a 2-CPU box: --n-max 0.45 s, --check 0.45 s and 57 MB
MAX_SHUFFLE_RANGE = 20_000
MAX_CHECK_POSITIONS = 500_000


def _cache_store(args):
    from .recurrences import CacheStore, default_cache_path

    return CacheStore(default_cache_path(args.cache_dir))


def _emit_rows(rows, fmt) -> None:
    # rows: (n, value) or (n, value, matched: bool)
    for row in rows:
        if fmt == "bfile":
            print(f"{row[0]} {row[1]}")
        elif fmt == "jsonl":
            import json

            record = {"n": row[0], "value": row[1]}
            if len(row) == 3:
                record["match"] = row[2]
            print(json.dumps(record))
        elif len(row) == 3:
            print(f"{row[0]}\t{row[1]}\t{'MATCH' if row[2] else 'MISMATCH'}")
        else:
            print(f"{row[0]}\t{row[1]}")


def _cmd_count(args) -> None:
    from .census import census_family
    from .recurrences import family_counts

    family = Family(args.family)
    n_min = _integer(args.n_min, 1, "--n-min")
    n_max = _integer(args.n_max, n_min, "--n-max")
    # every count is at most k**n: refuse up front any that Python could not print
    # under the limit in force; with no limit (0), the default still bounds the work
    k = _integer(args.k, 2, "alphabet size")
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if n_max * math.log10(k) >= digits:
        raise ValueError(f"--n-max must keep k**n below 10**{digits}, got {n_max} at k={k}")
    ns = range(n_min, n_max + 1)
    brute = {}
    if args.method in ("brute", "both"):
        for n in ns:
            brute[n] = census_family(k, n, family, budget=args.budget, jobs=args.jobs)
    recurrence = {}
    if args.method in ("recurrence", "both"):
        recurrence = family_counts(
            k, n_max, family, cache=_cache_store(args),
            budget=args.budget, verify_cache=args.verify_cache, jobs=args.jobs,
        )

    if args.method != "both":
        values = brute if args.method == "brute" else recurrence
        _emit_rows([(n, values[n]) for n in ns], args.format)
        return
    rows = [(n, brute[n], brute[n] == recurrence[n]) for n in ns]
    bad = [f"mismatch at n={n}: brute {b}, recurrence {recurrence[n]}"
           for n, b, matched in rows if not matched]
    if not bad or args.format != "bfile":  # a b-file has no match column
        _emit_rows(rows, args.format)
    if bad:
        raise CheckFailure("\n".join(bad))


def _cmd_map(args) -> None:
    from .maps import (
        adjacent_sum_map,
        adjacent_sum_preimages,
        milk_shuffle,
        milk_unshuffle,
    )
    from .words import format_word, parse_word

    word = parse_word(args.word, args.k)
    if args.map == "f":
        print(format_word(milk_shuffle(word)))
    elif args.map == "f-inv":
        print(format_word(milk_unshuffle(word)))
    elif args.map == "g":
        print(format_word(adjacent_sum_map(word)))
    else:
        for preimage in adjacent_sum_preimages(word):
            print(format_word(preimage))


def _parse_profile_set(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse profile set {text!r}") from None


def _cmd_profile(args) -> None:
    from .census import census_profile, list_profile
    from .words import format_word

    kind = ProfileKind(args.kind)
    wanted = _parse_profile_set(args.set)
    if args.list:
        for word in list_profile(args.k, args.n, kind, wanted, budget=args.budget):
            print(format_word(word))
    else:
        print(
            census_profile(
                args.k, args.n, kind, wanted, budget=args.budget, jobs=args.jobs
            )
        )


def _cmd_constants(args) -> None:
    from .census import _longest
    from .constants import (
        closed_form_report,
        density_series_report,
        pal_free_density,
        square_prefix_densities,
        unbordered_density,
    )
    from .recurrences import min_square_counts

    reports = {"h": density_series_report, "rho": pal_free_density, "gamma": unbordered_density}
    if args.method == "closed-form":
        if args.which != "h":
            raise ValueError("--method closed-form applies to --which h only")
        print(closed_form_report(args.k, args.terms, args.digits).value)
    elif args.which in reports:
        print(reports[args.which](args.k, args.digits).value)
    else:
        c_max = args.c_max
        if c_max is None:  # the largest c <= 20 the budget admits
            c_max = max(1, min(20, _longest(args.k, args.budget)))
        min_square = min_square_counts(
            args.k, c_max, cache=_cache_store(args), budget=args.budget,
            verify_cache=args.verify_cache, jobs=args.jobs,
        )
        with_square, square_free = square_prefix_densities(args.k, c_max, min_square)
        enclosure = with_square if args.which == "beta" else square_free
        print(f"{enclosure.lower} {enclosure.upper}")


def _cmd_shuffle_order(args) -> None:
    from .maps import milk_shuffle_order, milk_shuffle_permutation, permutation_order

    # milk_shuffle_order refuses an --n outside 2..MAX_SHUFFLE_N
    single = args.n is not None
    if single:
        ns, positions = [args.n], args.n
    else:
        top = _integer(args.n_max, 2, "--n-max", MAX_SHUFFLE_RANGE)
        ns, positions = range(2, top + 1), top * (top + 1) // 2 - 1
    if args.check and positions > MAX_CHECK_POSITIONS:
        raise ValueError(f"--check is capped at {MAX_CHECK_POSITIONS} positions, got {positions}")
    rows = []
    for n in ns:
        order = milk_shuffle_order(n)
        if args.check:
            direct = permutation_order(milk_shuffle_permutation(n))
            if direct != order:
                raise CheckFailure(
                    f"order mismatch at n={n}: permutation {direct}, congruence {order}")
        rows.append((n, order))
    if single:
        print(rows[0][1])
    else:
        _emit_rows(rows, args.format)


def _cmd_verify(args) -> None:
    from .verify import run_suites

    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(
        names, k_max=args.k_max, n_max=args.n_max, budget=args.budget
    )
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name}: {status} ({result.checks} checks)")
        for message in result.failures:
            print(f"  {message}", file=sys.stderr)
    failed = [result.name for result in results if not result.passed]
    if failed:
        raise CheckFailure(f"failed suites: {', '.join(failed)}")


def _add_budget_options(parser, jobs: bool = True, cache: bool = False) -> None:
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="largest k**n the census may enumerate (default %(default)s)",
    )
    if jobs:
        parser.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes, at most one per CPU, for a census large "
            "enough to repay their start; smaller ones run in-process "
            "(results are identical)",
        )
    if cache:
        from pathlib import Path

        parser.add_argument(
            "--cache-dir", type=Path, default=None,
            help="directory for the minimal-square count cache "
            "(default: $PALCENSUS_CACHE or the per-user data directory)",
        )
        parser.add_argument(
            "--verify-cache", action="store_true",
            help="recompute cache hits and fail on any disagreement",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palcensus",
        description="Count words by border, palindromic-prefix, and "
        "square-prefix structure; evaluate the limiting densities.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    count = commands.add_parser(
        "count", help="count a word family over a range of lengths"
    )
    count.add_argument("--k", type=int, required=True, help="alphabet size")
    count.add_argument("--n-min", type=int, default=1)
    count.add_argument("--n-max", type=int, required=True)
    count.add_argument(
        "--family", required=True, choices=[f.value for f in Family]
    )
    count.add_argument(
        "--method", choices=["brute", "recurrence", "both"], default="both",
        help="both compares the census with the recurrence (default); for "
        "min-square the recurrence reads the census, so both compares the census "
        "with itself and verify --suite counts is its check",
    )
    count.add_argument(
        "--format", choices=["tsv", "bfile", "jsonl"], default="tsv"
    )
    _add_budget_options(count, cache=True)
    count.set_defaults(func=_cmd_count)

    map_cmd = commands.add_parser("map", help="apply one of the maps to a word")
    map_cmd.add_argument(
        "--map", required=True, choices=["f", "f-inv", "g", "g-pre"],
        help="f: milk shuffle; f-inv: its inverse; g: adjacent sums mod k; "
        "g-pre: the k preimages under g",
    )
    map_cmd.add_argument("--k", type=int, required=True)
    map_cmd.add_argument("--word", required=True)
    map_cmd.set_defaults(func=_cmd_map)

    profile = commands.add_parser(
        "profile", help="count or list words whose profile set equals --set"
    )
    profile.add_argument("--k", type=int, required=True)
    profile.add_argument("--n", type=int, required=True)
    profile.add_argument(
        "--kind", required=True, choices=[kind.value for kind in ProfileKind]
    )
    profile.add_argument(
        "--set", default="", help="comma-separated indices; empty for the empty set"
    )
    profile.add_argument(
        "--list", action="store_true",
        help=f"list the words; refused when more than {MAX_LISTED_WORDS} match",
    )
    _add_budget_options(profile)
    profile.set_defaults(func=_cmd_profile)

    constants = commands.add_parser(
        "constants", help="evaluate a limiting constant"
    )
    constants.add_argument("--k", type=int, required=True)
    constants.add_argument(
        "--which", required=True, choices=["h", "rho", "beta", "alpha", "gamma"],
        help="h: the density series at 1/k; rho: limiting no-palindromic-"
        "prefix density; gamma: limiting unbordered density; beta/alpha: "
        "square-prefix density and its complement",
    )
    constants.add_argument(
        "--digits", type=int, default=50,
        help="certified decimal places for h, rho and gamma (default %(default)s)",
    )
    constants.add_argument(
        "--method", choices=["closed-form"],
        help="for h: step D's own functional equation, not gamma's, and check its digits "
        "against the count series, summed once to a tail of at most 10**-(DIGITS+2)",
    )
    constants.add_argument(
        "--terms", type=int, default=7,
        help="for --method closed-form: iterate the functional equation at "
        "most 2*TERMS steps deep, stopping at the first depth that certifies "
        "--digits (default %(default)s, deep enough for any --digits)",
    )
    constants.add_argument(
        "--c-max", type=int, default=None,
        help="minimal-square counts used for beta/alpha (default: the largest "
        "c <= 20 with k**c <= --budget)",
    )
    _add_budget_options(constants, cache=True)
    constants.set_defaults(func=_cmd_constants)

    shuffle = commands.add_parser(
        "shuffle-order", help="order of the milk-shuffle permutation"
    )
    group = shuffle.add_mutually_exclusive_group(required=True)
    # maps.MAX_SHUFFLE_N, spelled out so that the parser need not import maps
    # (a test keeps the two equal)
    group.add_argument("--n", type=int, help="2 <= N <= 1000000000000")
    group.add_argument("--n-max", type=int, help=f"2 <= N_MAX <= {MAX_SHUFFLE_RANGE}")
    shuffle.add_argument(
        "--check", action="store_true",
        help="also compute the order by iterating the permutation and compare; "
        f"builds n positions per n, {MAX_CHECK_POSITIONS} at most in total "
        "(--n 500000, --n-max 999)",
    )
    shuffle.add_argument("--format", choices=["tsv", "bfile"], default="tsv")
    shuffle.set_defaults(func=_cmd_shuffle_order)

    verify = commands.add_parser("verify", help="run the cross-checking suites")
    verify.add_argument(
        "--suite", default="all", choices=sorted(SUITE_NAMES) + ["all"]
    )
    verify.add_argument("--k-max", type=int, default=3)
    verify.add_argument("--n-max", type=int, default=10)
    _add_budget_options(verify, jobs=False)
    verify.set_defaults(func=_cmd_verify, budget=VERIFY_BUDGET)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            _integer(getattr(args, "jobs", 1), 1, "--jobs")
            args.func(args)
            status = 0
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            status = 1 if isinstance(error, CheckFailure) else 2
        sys.stdout.flush()  # rows printed before a failed check, too
    except BrokenPipeError:
        # the reader is gone (say, `| head`): stop without a traceback, and
        # point stdout at devnull so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    return status


if __name__ == "__main__":
    sys.exit(main())
