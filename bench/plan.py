"""The fixed op list of each workload, built from the seed alone.

The seed chooses op order, random words and profile sets.  It never changes
the amount of work: every seed yields the same multiset of ``Op.work``
tuples.  Ops that must stay adjacent (a cold query and the query that could
reuse it, or a read that needs an earlier result) form one unit; units are
shuffled, ops inside a unit are not.

Nothing here imports palcensus, so the plan is the same whichever version of
the program it is run against.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

WORKLOADS = ("enumerate", "sequences", "cli")
REFERENCE = Path(__file__).resolve().parent / "reference.json"

CENSUS_SIZES = ((2, 18), (3, 11), (4, 9))
FANOUT = (2, 19, ("unbordered", "no-square-prefix"))
PROFILE_SIZE = (2, 16)
LIST_SIZE = (2, 14)
# every kind has three sets at (2,14) that 24 words have, so the seed picks
# which words are listed, never how many
LIST_MATCHES = 24
WORD_PROFILES = (20_000, 18)

VERIFY_SUITES = ("bijection", "g-map", "counts", "recurrences", "constants", "lemmas")
REFUSAL_SECONDS = 10.0


@dataclass(frozen=True)
class Op:
    """One call into palcensus (or one CLI command) with its inputs.

    ``kind`` selects how the worker runs and checks it; ``metric`` is the
    per-layer metric its time adds to; ``part`` is the child process that
    runs it; ``words`` is k**n for a cold census call, computed from the
    inputs; ``work`` is the seed-free description of its size.
    """

    name: str
    kind: str
    args: tuple
    metric: str
    work: tuple
    part: str = "main"
    words: int = 0


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _family(k, n, family, jobs=1, prefix="family", part="main"):
    metric = f"census.family_s.{family}" if prefix == "family" else f"census.{prefix}"
    return Op(
        f"{prefix}:{k}:{n}:{family}:j{jobs}", "family", (k, n, family, jobs),
        metric, ("family", k, n, family, jobs), part, k ** n,
    )


def _enumerate(rng: random.Random, ref: dict) -> list[list[Op]]:
    units = []
    for k, n in CENSUS_SIZES:
        for family in oracle.FAMILIES:
            if family not in ("no-square-prefix", "has-square-prefix"):
                units.append([_family(k, n, family)])
        # has-square-prefix right after its complement: a memo could answer it
        units.append([_family(k, n, "no-square-prefix"), _family(k, n, "has-square-prefix")])
    k, n, families = FANOUT
    for family in families:
        units.append([_family(k, n, family, 1, "fanout1")])
    k, n = PROFILE_SIZE
    for kind in oracle.PROFILE_KINDS:
        wanted = rng.choice(sorted(ref["profiles"][str(n)][kind]))
        units.append([Op(f"profile:{kind}", "profile", (k, n, kind, wanted),
                         "census.profile_s", ("profile", k, n, kind))])
    k, n = LIST_SIZE
    for kind in oracle.PROFILE_KINDS:
        table = ref["profiles"][str(n)][kind]
        wanted = rng.choice(sorted(s for s, c in table.items() if c == LIST_MATCHES))
        units.append([Op(f"list_profile:{kind}", "list_profile", (k, n, kind, wanted),
                         "census.list_profile_s",
                         ("list_profile", k, n, kind, table[wanted]))])
    count, length = WORD_PROFILES
    batch = tuple(tuple(map(int, format(rng.getrandbits(length), f"0{length}b")))
                  for _ in range(count))
    units.append([Op("word_profile", "word_profile", (2, batch),
                     "words.profile_us", ("word_profile", count, length))])
    rng.shuffle(units)
    # every cold family query once more, in a seeded order: memo traffic
    cold = [op for unit in units for op in unit if op.name.startswith("family:")]
    repeats = [
        Op("repeat:" + op.name, "family", op.args, "census.repeat_ms", ("repeat",) + op.args)
        for op in rng.sample(cold, len(cold))
    ]
    k, n, families = FANOUT
    fanout = [[_family(k, n, family, 2, "fanout2", part="fanout")] for family in families]
    rng.shuffle(fanout)
    # repeats are only meaningful after every cold query has run
    return units + [repeats] + fanout


def _sequences(rng: random.Random, ref: dict) -> list[list[Op]]:
    def op(name, kind, args, metric):
        return Op(name, kind, args, metric, (kind,) + args)

    units = [
        [op("h:2", "series", (2, 1000), "constants.h_s.k2")],
        [op("h:3", "series", (3, 1000), "constants.h_s.k3")],
        [op("h:4", "series", (4, 600), "constants.h_s.k4")],
        [op("rho:3", "rho", (3, 600), "constants.rho_s")],
        [op("closed:3", "closed_form", (3, 6, 50), "constants.closed_form_s")],
        [op("closed:2", "closed_form", (2, 9, 50), "constants.closed_form_s")],
        # the k=3 estimate reuses the alphabet check the counts call pays for
        [op("unbordered:3", "unbordered", (3, 20_000), "recurrences.unbordered_s"),
         op("gamma:3", "gamma", (3, 60), "constants.gamma_ms")],
        [op("no_pal_prefix:3", "no_pal_prefix", (3, 20_000), "recurrences.no_pal_prefix_s")],
        [op("gamma:2", "gamma", (2, 60), "constants.gamma_ms")],
        [op("min_square:2", "min_square_warm", (2, 20), "recurrences.min_square_warm_ms"),
         op("square_prefix:2", "square_prefix", (2, 40), "recurrences.square_prefix_ms"),
         op("square_density:2", "square_density", (2, 20), "constants.square_density_ms")],
        [op("shuffle_orders", "shuffle_orders", (2, 5000), "maps.shuffle_order_s")],
        [op("permutation_orders", "permutation_orders", (2, 1000),
            "maps.permutation_order_s")],
    ]
    rng.shuffle(units)
    return units


# CLI short-command shapes: (k, word length) for each map pair; shuffle-order
# n values; (k, n_max) for count; (n, kind) for profile; constants requests
MAP_SHAPES = ((2, 8), (3, 12), (5, 16), (10, 20), (2, 24), (4, 32),
              (2, 40), (3, 48), (7, 56), (2, 64), (6, 9), (2, 33))
SHUFFLE_NS = (2, 3, 7, 10, 25, 64, 100, 257, 500, 1000, 1024, 2000, 2049, 3000, 4096, 5000)
COUNT_SHAPES = ((2, 12), (3, 7))
PROFILE_SHAPES = tuple((n, oracle.PROFILE_KINDS[(i + i // 6) % 3])
                       for i, n in enumerate((5, 6, 7, 8, 9, 10) * 2))
CONSTANT_SHAPES = (("h", 2, 50), ("h", 3, 50), ("h", 4, 50), ("h", 2, 60), ("h", 3, 60),
                   ("h", 4, 60), ("rho", 3, 50), ("rho", 4, 50), ("rho", 3, 55),
                   ("rho", 4, 55), ("rho", 3, 60), ("rho", 4, 60))


def _cmd(name, argv, check, metric="cmd", work=None):
    return Op(name, "cmd", (tuple(map(str, argv)), check), metric,
              work if work is not None else ("cmd",) + tuple(map(str, argv)))


def _cli(rng: random.Random, ref: dict) -> list[list[Op]]:
    units = []
    for i, (k, length) in enumerate(MAP_SHAPES):
        w = tuple(rng.randrange(k) for _ in range(length))
        image = oracle.milk_shuffle(w)
        text, image_text = oracle.format_digits(w), oracle.format_digits(image)
        shape = ("map", k, length)
        units.append([
            _cmd(f"map:f:{i}", ["map", "--map", "f", "--k", k, "--word", text],
                 ("lines", (image_text,)), work=shape + ("f",)),
            _cmd(f"map:f-inv:{i}", ["map", "--map", "f-inv", "--k", k, "--word", image_text],
                 ("lines", (text,)), work=shape + ("f-inv",)),
        ])
        w = tuple(rng.randrange(k) for _ in range(length))
        sums = oracle.adjacent_sums(w, k)
        units.append([
            _cmd(f"map:g:{i}", ["map", "--map", "g", "--k", k, "--word", oracle.format_digits(w)],
                 ("lines", (oracle.format_digits(sums),)), work=shape + ("g",)),
            _cmd(f"map:g-pre:{i}",
                 ["map", "--map", "g-pre", "--k", k, "--word", oracle.format_digits(sums)],
                 ("g-pre", k, oracle.format_digits(sums), oracle.format_digits(w)),
                 work=shape + ("g-pre",)),
        ])
    for n in SHUFFLE_NS:
        units.append([_cmd(f"shuffle:{n}", ["shuffle-order", "--n", n],
                           ("lines", (str(ref["A003558"][n - 1]),)))])
    for k, n_max in COUNT_SHAPES:
        for family in oracle.FAMILIES:
            units.append([_cmd(
                f"count:{k}:{family}",
                ["count", "--k", k, "--n-max", n_max, "--family", family, "--method", "both"],
                ("count", k, family, 1, n_max, True))])
    for n, kind in PROFILE_SHAPES:
        wanted = rng.choice(sorted(ref["profiles"][str(n)][kind]))
        units.append([_cmd(
            f"profile:{n}:{kind}",
            ["profile", "--k", 2, "--n", n, "--kind", kind, "--set", wanted],
            ("lines", (str(ref["profiles"][str(n)][kind][wanted]),)),
            work=("cmd", "profile", 2, n, kind))])
    for which, k, digits in CONSTANT_SHAPES:
        units.append([_cmd(
            f"constants:{which}:{k}:{digits}",
            ["constants", "--k", k, "--which", which, "--digits", digits],
            ("prefix", f"{which}{k}", digits))])

    alpha = ["constants", "--k", 2, "--which", "alpha", "--c-max", 18, "--cache-dir", "{cache}"]
    units.append(
        [_cmd("cache:cold", alpha, ("alpha", "18"), "cli.cache_cold_s")]
        + [_cmd(f"cache:warm:{i}", alpha, ("alpha", "18"), "cli.cache_warm_ms")
           for i in range(5)]
        + [_cmd("cache:count",
                ["count", "--k", 2, "--family", "has-square-prefix", "--method", "recurrence",
                 "--n-max", 36, "--cache-dir", "{cache}"],
                ("count", 2, "has-square-prefix", 1, 36, False), "cli.cache_count_ms"),
           _cmd("cache:verify", alpha + ["--verify-cache"], ("alpha", "18"),
                "cli.verify_cache_s")]
    )
    for suite in VERIFY_SUITES:
        units.append([_cmd(f"verify:{suite}",
                           ["verify", "--suite", suite, "--k-max", 3, "--n-max", 9],
                           ("verify", suite), f"verify.{suite}_s")])
    # expected refusals: exit code 2 with a message, fast
    units.append([_cmd("refuse:budget",
                       ["count", "--k", 2, "--n-min", 27, "--n-max", 28,
                        "--family", "unbordered", "--method", "brute"],
                       ("refusal",), "cli.refusal_ms")])
    units.append([_cmd("refuse:terms",
                       ["constants", "--k", 3, "--which", "h", "--method", "closed-form",
                        "--terms", 0],
                       ("refusal",), "cli.refusal_ms")])
    rng.shuffle(units)
    return units


_BUILDERS = {"enumerate": _enumerate, "sequences": _sequences, "cli": _cli}


def plan(workload: str, seed: int, ref: dict | None = None) -> list[Op]:
    """The ordered op list of one pass of the workload."""
    rng = random.Random(f"{workload}:{seed}")
    units = _BUILDERS[workload](rng, ref if ref is not None else load_reference())
    ops = [op for unit in units for op in unit]
    if len({op.name for op in ops}) != len(ops):
        raise ValueError(f"{workload} plan repeats an op name")
    return ops
