"""One part of one pass of a workload, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED PART TRACE WORKDIR [--setup-only]

Sets up (imports palcensus, builds the op list and its inputs from the seed,
fills the warm cache), prints ``READY``, runs its ops back to back (closed
loop, one at a time), then checks every output against bench/reference.json
and the independent routes in oracle.py.  The last line of its output is one
JSON object: seconds per op, the ops that failed and why, the part's wall
time, its peak RSS, extra counts, and, when traced, its spans.
"""

from __future__ import annotations

import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import plan
import tracing

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
COMMAND_TIMEOUT = 120.0
PROBES = 5

clock = time.perf_counter


class Pass:
    """State shared by the ops of one part: inputs, results and scratch dirs."""

    def __init__(self, ref, work: Path, tracer):
        self.ref = ref
        self.work = work
        self.tracer = tracer
        self.pc = None
        self.inputs: dict[str, tuple] = {}
        self.results: dict[str, object] = {}
        self.extra: dict[str, float] = {}
        self.commands = 0


# ---------------------------------------------------------------------------
# set-up: inputs that are not part of the timed call


def _prepare_word_profile(ctx, k, batch):
    return (tuple(ctx.pc.Word.of(w, k) for w in batch),)


def _prepare_min_square(ctx, k, N):
    path = ctx.work / "min_square_counts.tsv"
    store = ctx.pc.CacheStore(path)
    for n, value in enumerate(ctx.ref["counts"][str(k)]["min-square"][:N], 1):
        store.put(k, n, value)
    store.save()
    return (k, N, path)


PREPARE = {"word_profile": _prepare_word_profile, "min_square_warm": _prepare_min_square}


# ---------------------------------------------------------------------------
# the timed calls; palcensus names are looked up at call time so that the
# traced run reaches the wrappers


def _profile_set(text):
    return frozenset(int(i) for i in text.split(",")) if text else frozenset()


def _cmd(ctx, argv, check):
    argv = [a.replace("{cache}", str(ctx.work / "cycle")) for a in argv]
    # a fresh default cache per command, so no command reads another's writes
    ctx.commands += 1
    env = dict(os.environ, PALCENSUS_CACHE=str(ctx.work / f"cmd{ctx.commands}"))
    if ctx.tracer is None:
        command = [sys.executable, "-m", "palcensus", *argv]
    else:
        spans_file = ctx.work / "spans.json"
        command = [sys.executable, str(BENCH / "launch.py"), str(spans_file), *argv]
    start = clock()
    done = subprocess.run(command, capture_output=True, text=True, env=env,
                          timeout=COMMAND_TIMEOUT)
    seconds = clock() - start
    if ctx.tracer is not None:
        ctx.tracer.adopt(json.loads(spans_file.read_text()))
        spans_file.unlink()
    return done.returncode, done.stdout, done.stderr, seconds


RUN = {
    "family": lambda c, k, n, family, jobs: c.pc.census_family(
        k, n, c.pc.Family(family), jobs=jobs),
    "profile": lambda c, k, n, kind, wanted: c.pc.census_profile(
        k, n, c.pc.ProfileKind(kind), _profile_set(wanted)),
    "list_profile": lambda c, k, n, kind, wanted: c.pc.list_profile(
        k, n, c.pc.ProfileKind(kind), _profile_set(wanted)),
    "word_profile": lambda c, words: [c.pc.word_profile(w) for w in words],
    "series": lambda c, k, digits: c.pc.density_series_report(k, digits),
    "rho": lambda c, k, digits: c.pc.pal_free_density(k, digits),
    "closed_form": lambda c, k, terms, digits: c.pc.closed_form_report(k, terms, digits),
    "unbordered": lambda c, k, N: c.pc.unbordered_counts(k, N),
    "no_pal_prefix": lambda c, k, N: c.pc.no_pal_prefix_counts(k, N),
    "gamma": lambda c, k, n: c.pc.unbordered_density_estimate(k, n),
    "min_square_warm": lambda c, k, N, path: c.pc.min_square_counts(
        k, N, cache=c.pc.CacheStore(path)),
    "square_prefix": lambda c, k, N: c.pc.square_prefix_counts(
        k, N, c.results["min_square:2"]),
    "square_density": lambda c, k, n: c.pc.square_prefix_densities(
        k, n, c.results["min_square:2"]),
    "shuffle_orders": lambda c, low, high: [
        c.pc.milk_shuffle_order(n) for n in range(low, high + 1)],
    "permutation_orders": lambda c, low, high: [
        c.pc.permutation_order(c.pc.milk_shuffle_permutation(n))
        for n in range(low, high + 1)],
    "cmd": _cmd,
}


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else what is wrong


def _expect(got, want, what):
    return None if got == want else f"{what}: got {got!r:.200}, expected {want!r:.200}"


def _count(ctx, k, family, n):
    return ctx.ref["counts"][str(k)][family][n - 1]


def _check_profile(ctx, value, k, n, kind, wanted):
    table = ctx.ref["profiles"][str(n)]
    problem = _expect(value, table[kind].get(wanted, 0), f"{kind} count of {{{wanted}}}")
    if problem:
        return problem
    # the whole census: every subset's count, summing to k**n, borders = even-pp
    pc = ctx.pc
    top = n // 2 if kind != "odd-pp" else (n - 1) // 2
    subsets = [frozenset(i for i in range(1, top + 1) if mask >> (i - 1) & 1)
               for mask in range(1 << top)]
    counts = {s: pc.census_profile(k, n, pc.ProfileKind(kind), s) for s in subsets}
    if sum(counts.values()) != k ** n:
        return f"{kind} profile counts sum to {sum(counts.values())}, not {k ** n}"
    if kind == "borders":
        for s, value in counts.items():
            other = pc.census_profile(k, n, pc.ProfileKind.EVEN_PP_ORDERS, s)
            if other != value:
                return f"border set {sorted(s)} counts {value}, even-pp {other}"
    return None


def _check_list(ctx, value, k, n, kind, wanted):
    symbols = [w.symbols for w in value]
    problem = _expect(len(symbols), ctx.ref["profiles"][str(n)][kind].get(wanted, 0),
                      "listed words")
    if problem:
        return problem
    if symbols != sorted(set(symbols)):
        return "listed words are not distinct and in lexicographic order"
    position = oracle.PROFILE_KINDS.index(kind)
    for w in symbols:
        if len(w) != n or oracle.set_key(oracle.profile_sets(w)[position]) != wanted:
            return f"listed word {w} does not have {kind} set {{{wanted}}}"
    return None


def _check_word_profiles(ctx, value, k, batch):
    if len(value) != len(batch):
        return f"{len(value)} profiles for {len(batch)} words"
    for w, got in zip(batch, value):
        fields = (got.short_borders, got.even_pp_orders, got.odd_pp_orders,
                  got.square_half_lengths)
        if fields != oracle.profile_sets(w):
            return f"profile of {w} is {fields}"
    return None


def _check_prefix(text, reference, digits):
    if len(text) != digits + 2 or not reference.startswith(text):
        return f"{text[:24]}... ({len(text) - 2} places) is not a prefix of the reference"
    return None


def _check_sequence(ctx, seq, name, N):
    values = [seq[n] for n in range(1, N + 1)]
    want = ctx.ref["sequence_sha256"][name]
    return _expect(oracle.sequence_digest(values), want["sha256"], f"{name} digest")


def _check_orders(ctx, value, low, high):
    want = [ctx.ref["A003558"][n - 1] for n in range(low, high + 1)]
    return _expect(value, want, "shuffle orders")


def _check_permutation_orders(ctx, value, low, high):
    problem = _check_orders(ctx, value, low, high)
    other = ctx.results.get("shuffle_orders")
    if problem is None and other is not None and other[: len(value)] != value:
        return "the permutation and congruence routes disagree"
    return problem


def _fractions(pair):
    return [Fraction(x) for x in pair]


CHECK = {
    "family": lambda c, v, k, n, family, jobs: _expect(
        v, _count(c, k, family, n), f"{family} count at k={k}, n={n}"),
    "profile": _check_profile,
    "list_profile": _check_list,
    "word_profile": _check_word_profiles,
    "series": lambda c, v, k, digits: _check_prefix(v.value, c.ref["digits"][f"h{k}"], digits),
    "rho": lambda c, v, k, digits: _check_prefix(v.value, c.ref["digits"][f"rho{k}"], digits),
    "closed_form": lambda c, v, k, terms, digits: _check_prefix(
        v.value, c.ref["digits"][f"h{k}"], digits),
    "unbordered": lambda c, v, k, N: _check_sequence(c, v, "unbordered", N),
    "no_pal_prefix": lambda c, v, k, N: _check_sequence(c, v, "no-pal-prefix", N),
    # only the digits known correct at n = 60, so that certifying more of
    # gamma later is not a failure
    "gamma": lambda c, v, k, n: None if v.value.startswith(
        c.ref["gamma"][str(k)]["estimate_known"]) else f"gamma estimate {v.value}",
    "min_square_warm": lambda c, v, k, N: _expect(
        [v[n] for n in range(1, N + 1)], c.ref["counts"][str(k)]["min-square"][:N],
        "min-square counts"),
    "square_prefix": lambda c, v, k, N: _expect(
        ([v[0][n] for n in range(1, N + 1)], [v[1][n] for n in range(1, N + 1)]),
        (c.ref["counts"][str(k)]["no-square-prefix"][:N],
         c.ref["counts"][str(k)]["has-square-prefix"][:N]),
        "square-prefix counts"),
    "square_density": lambda c, v, k, n: _expect(
        [[v[0].lower, v[0].upper], [v[1].lower, v[1].upper]],
        [_fractions(c.ref["square_density"][str(n)][side])
         for side in ("with_square", "square_free")],
        "square-prefix density enclosures"),
    "shuffle_orders": _check_orders,
    "permutation_orders": _check_permutation_orders,
}

def _check_cmd(ctx, value, argv, check):
    code, out, err, seconds = value
    kind = check[0]
    if kind == "refusal":
        if code != 2 or out or not err.startswith("error:"):
            return f"expected a refusal (exit 2, error message), got exit {code}: {err!r}"
        if seconds > plan.REFUSAL_SECONDS:
            return f"refusal took {seconds:.1f} s, over {plan.REFUSAL_SECONDS} s"
        return None
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}"
    lines = out.splitlines()
    if kind == "lines":
        return _expect(lines, list(check[1]), "output")
    if kind == "g-pre":
        _, k, target, source = check
        found = [oracle.parse_digits(line) for line in lines]
        if len(set(found)) != k or oracle.parse_digits(source) not in found:
            return f"g-pre gave {lines}, not the {k} preimages including {source}"
        for w in found:
            if oracle.format_digits(oracle.adjacent_sums(w, k)) != target:
                return f"preimage {oracle.format_digits(w)} does not map back to {target}"
        return None
    if kind == "count":
        _, k, family, n_min, n_max, both = check
        rows = [line.split("\t") for line in lines]
        want = [[str(n), str(_count(ctx, k, family, n))] + (["MATCH"] if both else [])
                for n in range(n_min, n_max + 1)]
        return _expect(rows, want, f"{family} rows")
    if kind == "prefix":
        _, key, digits = check
        return _check_prefix(out.strip(), ctx.ref["digits"][key], digits)
    if kind == "alpha":
        return _expect(_fractions(out.split()),
                       _fractions(ctx.ref["square_density"][check[1]]["square_free"]),
                       "alpha enclosure")
    if kind == "verify":
        # the suite's status line; anything printed after it (a timing, say)
        # is not checked
        match = re.search(rf"^{re.escape(check[1])}: (PASS|FAIL) \((\d+) checks\)", out, re.M)
        if not match or match[1] != "PASS":
            return f"verify printed {out.strip()!r:.300}"
        ctx.extra[f"verify.{check[1]}_checks"] = int(match[2])
        return None
    return f"unknown check {kind}"


CHECK["cmd"] = _check_cmd


# ---------------------------------------------------------------------------


def _probes(ctx) -> None:
    """Interpreter start-up and palcensus.cli import, as fresh processes."""
    startup, imported = [], []
    for _ in range(PROBES):
        for sample, code in ((startup, "pass"), (imported, "import palcensus.cli")):
            start = clock()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=COMMAND_TIMEOUT)
            sample.append(clock() - start)
    ctx.extra["cli.startup_ms"] = 1000 * statistics.median(startup)
    ctx.extra["cli.import_ms"] = 1000 * (statistics.median(imported) - statistics.median(startup))


def execute(ctx: Pass, ops) -> tuple[dict, dict, float]:
    """Run the ops back to back: (seconds per op, failures, wall seconds)."""
    times, errors = {}, {}
    tracer = ctx.tracer
    first = clock()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
            tracer.begin(op.name, "cli" if op.kind == "cmd" else None)
        start = clock()
        try:
            ctx.results[op.name] = RUN[op.kind](ctx, *ctx.inputs[op.name])
        except Exception as error:  # a failed op is counted, the pass goes on
            errors[op.name] = f"{type(error).__name__}: {error}"
        times[op.name] = clock() - start
        if tracer is not None:
            tracer.end()
    return times, errors, clock() - first


def check(ctx: Pass, ops, errors: dict) -> None:
    """Add to errors every op whose output is wrong."""
    for op in ops:
        if op.name in errors:
            continue
        try:
            problem = CHECK[op.kind](ctx, ctx.results[op.name], *op.args)
        except Exception as error:
            problem = f"check raised {type(error).__name__}: {error}"
        if problem:
            errors[op.name] = problem


def main(argv) -> int:
    workload, seed, part, trace, work = argv[:5]
    tracer = tracing.Tracer() if trace == "1" else None
    ref = plan.load_reference()
    ops = [op for op in plan.plan(workload, int(seed), ref) if op.part == part]
    ctx = Pass(ref, Path(work), tracer)
    if workload != "cli":
        import palcensus

        if Path(palcensus.__file__).resolve().parent != SRC / "palcensus":
            raise SystemExit(f"palcensus imported from {palcensus.__file__}, not {SRC}")
        if tracer is not None:
            tracing.install(tracer)
        ctx.pc = palcensus
    for op in ops:
        prepare = PREPARE.get(op.kind)
        ctx.inputs[op.name] = prepare(ctx, *op.args) if prepare else op.args
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0

    times, errors, wall = execute(ctx, ops)
    # read before the checks and probes, whose own peaks are not the program's
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # the checks call palcensus too; their spans are not the workload's
    spans = list(tracer.spans) if tracer is not None else None
    check(ctx, ops, errors)
    if workload == "cli":
        cache = ctx.work / "cycle" / "min_square_counts.tsv"
        ctx.extra["cli.cache_bytes"] = cache.stat().st_size if cache.exists() else 0
        _probes(ctx)
    print(json.dumps({
        "times": times, "errors": errors, "wall": wall, "rss_kb": rss_kb,
        "extra": ctx.extra, "spans": spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
