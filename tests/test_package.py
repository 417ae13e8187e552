"""The package namespace: every public name loads lazily, on first access,
from the module that defines it, and is the same object as there."""

import ast
import functools
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import palcensus
from palcensus import census, verify

# the names the package exports, by defining module
EXPORTED = {
    "census": (
        "DEFAULT_BUDGET", "BudgetExceededError", "Family", "ProfileKind",
        "census_family", "census_profile", "list_profile",
    ),
    "constants": (
        "CertificationError", "DecimalReport", "Enclosure",
        "closed_form_report", "density_series",
        "density_series_enclosure", "density_series_report",
        "pal_free_density", "square_prefix_densities", "unbordered_density",
        "unbordered_density_estimate",
    ),
    "maps": (
        "Permutation", "adjacent_sum_map", "adjacent_sum_preimages",
        "milk_shuffle", "milk_shuffle_order", "milk_shuffle_permutation",
        "milk_unshuffle", "permutation_order",
    ),
    "recurrences": (
        "CacheMismatchError", "CacheStore", "CountSeq", "MissingCountError",
        "default_cache_path", "family_counts", "min_square_counts",
        "no_pal_prefix_counts", "no_pal_prefix_ratios",
        "square_prefix_counts", "unbordered_counts",
    ),
    "words": (
        "CheckFailure", "Word", "WordProfile", "format_word", "parse_word", "word_profile",
    ),
}
NAMES = [name for names in EXPORTED.values() for name in names]

# the per-word wrappers that only tests called, and their record types;
# word_profile and the tuple-level scans in words replace them.  The
# reports render their own digits, so decimal_string went too, and verify
# complements the series enclosure itself for ρ's limit.  γ's series
# reference moved into verify, beside the check that reads it
REMOVED = (
    "Alphabet", "Parity", "border_lengths", "decimal_string",
    "has_nontrivial_pal_prefix", "is_palindrome", "is_unbordered",
    "pal_free_density_enclosure", "pal_prefix_orders", "perfect_shuffle", "reverse",
    "short_border_lengths", "square_half_lengths", "unbordered_density_enclosure",
    "unshuffle",
)


def test_all_lists_every_export():
    assert sorted(palcensus.__all__) == sorted(NAMES + ["__version__"])


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in EXPORTED.items() for name in names],
)
def test_name_is_the_defining_modules_object(module, name):
    defining = importlib.import_module(f"palcensus.{module}")
    assert getattr(palcensus, name) is getattr(defining, name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from palcensus import *", namespace)
    assert set(NAMES + ["__version__"]) <= set(namespace)
    assert set(NAMES + ["__version__"]) <= set(dir(palcensus))


def test_every_export_is_used_by_the_package_or_the_benchmark():
    # a name that only tests call is to be deleted, not maintained; a use is
    # a Name or Attribute node, so a definition or import alone is none
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "palcensus"
    used = set()
    for path in [*package.glob("*.py"), *(root / "bench").glob("*.py")]:
        if path != package / "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert sorted(set(palcensus.__all__) - used - {"__version__"}) == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert name not in palcensus.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(palcensus, name)


def test_no_module_calls_the_benchmark_shim():
    # the uncertified estimate is exported for the benchmark's gamma op only
    package = Path(palcensus.__file__).resolve().parent
    callers = [
        path.name
        for path in sorted(package.glob("*.py"))
        for line in path.read_text().splitlines()
        if "unbordered_density_estimate(" in line
        and not line.startswith("def unbordered_density_estimate(")
    ]
    assert callers == []


def test_the_benchmark_sequences_ops_pass_their_checks(tmp_path):
    # one pass of the benchmark's sequences workload, checked against
    # bench/reference.json: a change to Enclosure or to a report that would
    # fail its closed:*, square_density, gamma:* or min_square ops fails here.
    # It reads bench/ and writes only to tmp_path.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "worker.py"), "sequences", "7", "main", "0",
         str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1])["errors"] == {}


def _takes_k_first(value) -> bool:
    return inspect.isfunction(value) and [*inspect.signature(value).parameters][:1] == ["k"]


# every exported function whose first parameter is the alphabet size k, found
# by its signature, so that a new entry point is covered as it is exported
ALPHABET_ENTRIES = [
    name for name in palcensus.__all__ if _takes_k_first(getattr(palcensus, name))
]

# a valid argument for each other required parameter, by name
ARGUMENTS = {
    "n": 4, "N": 4, "x": Fraction(1, 3), "terms": 7, "digits": 5, "profile_set": (),
    "family": palcensus.Family.UNBORDERED, "kind": palcensus.ProfileKind.SHORT_BORDERS,
    # the ternary minimal squares at half-lengths 1..4
    "min_square": palcensus.CountSeq(3, palcensus.Family.MIN_SQUARE, (3, 6, 18, 48)),
}


def test_the_alphabet_entries_span_every_counting_layer():
    modules = {getattr(palcensus, name).__module__ for name in ALPHABET_ENTRIES}
    assert modules == {"palcensus.census", "palcensus.recurrences", "palcensus.constants"}


@pytest.mark.parametrize("name", ALPHABET_ENTRIES)
def test_every_entry_point_takes_k_through_the_one_gate(name):
    function = getattr(palcensus, name)
    required = [parameter.name for parameter in inspect.signature(function).parameters.values()
                if parameter.default is parameter.empty][1:]
    arguments = [ARGUMENTS[parameter] for parameter in required]
    assert function(3, *arguments) is not None
    for k in (1, 2.5, 3.0, Fraction(3), "3", None):
        message = "at least 2, got 1" if k == 1 else f"an integer, got {k!r}"
        with pytest.raises(ValueError, match=re.escape(f"alphabet size must be {message}")):
            function(k, *arguments)


# the integer parameters of the k-first entry points, each at least 1 but a
# budget and a profile's length, which may be 0
INTEGERS = ("n", "N", "digits", "terms", "jobs", "budget")

# (id, the callable given a scratch directory, valid keyword arguments, the
# integer parameter, its least value): every integer argument of the public API
INTEGER_CASES = [
    (
        f"{name}-{parameter}", lambda path, name=name: getattr(palcensus, name),
        {"k": 3, **{p.name: ARGUMENTS[p.name] for p in parameters.values()
                    if p.default is p.empty and p.name != "k"}},
        parameter,
        0 if parameter == "budget" or (name in ("census_profile", "list_profile")
                                       and parameter == "n") else 1,
    )
    for name in ALPHABET_ENTRIES
    for parameters in [inspect.signature(getattr(palcensus, name)).parameters]
    for parameter in parameters if parameter in INTEGERS
] + [
    ("milk_shuffle_order-n", lambda path: palcensus.milk_shuffle_order, {"n": 5}, "n", 2),
    ("milk_shuffle_permutation-n", lambda path: palcensus.milk_shuffle_permutation,
     {"n": 5}, "n", 1),
    ("truncation_agreed-digits", lambda path: palcensus.Enclosure(1, 2, 3).truncation_agreed,
     {"digits": 2}, "digits", 0),
    *[(f"CacheStore.put-{parameter}", lambda path: palcensus.CacheStore(path / "c.tsv").put,
       {"k": 2, "n": 1, "count": 2}, parameter, least)
      for parameter, least in (("k", 1), ("n", 1), ("count", 0))],
    # the first, valid call fills the cache, so the refused calls would be hits
    ("min_square_counts-budget-cached",
     lambda path: functools.partial(palcensus.min_square_counts,
                                    cache=palcensus.CacheStore(path / "c.tsv")),
     {"k": 3, "N": 4}, "budget", 0),
    *[(f"run_suites-{parameter}", lambda path: verify.run_suites,
       {"names": ["bijection"], "k_max": 2, "n_max": 2}, parameter, least)
      for parameter, least in (("k_max", 2), ("n_max", 1), ("budget", 2))],
]


@pytest.mark.parametrize(
    "make,arguments,parameter,least",
    [pytest.param(*case[1:], id=case[0]) for case in INTEGER_CASES],
)
def test_every_integer_argument_goes_through_the_one_gate(
    monkeypatch, tmp_path, make, arguments, parameter, least
):
    function = make(tmp_path)
    function(**arguments)
    for value in (2.5, 3.0, Fraction(3), "3", None, least - 1):
        if value == least - 1:
            message = rf"must (be at least {least}|lie in {least}\.\.\d+), got {least - 1}$"
        else:
            message = re.escape(f"must be an integer, got {value!r}") + "$"
        # refused before any work: no census count is memoised
        monkeypatch.setattr(census, "_memo", {})
        with pytest.raises(ValueError, match=message):
            function(**{**arguments, parameter: value})
        assert census._memo == {}


# every entry point that takes a budget, called with valid arguments; the
# minimal-square counts come from the cache the child fills first
BUDGET_CALLS = (
    "census_family(3, 4, Family.UNBORDERED)",
    "census_profile(3, 4, ProfileKind.SHORT_BORDERS, ())",
    "list_profile(3, 4, ProfileKind.SHORT_BORDERS, ())",
    "unbordered_counts(3, 4)",
    "min_square_counts(3, 4, cache=store)",
    "family_counts(3, 4, Family.NO_PAL_PREFIX)",
    "family_counts(3, 8, Family.HAS_SQUARE_PREFIX, cache=store)",
    "run_suites(['bijection'], k_max=2, n_max=2)",
)


def test_an_infinite_budget_is_refused_at_once(tmp_path):
    # the budget rule multiplied an int up to an infinite budget for ever, in
    # a child process so that the timeout ends such a hang
    script = (
        "import sys, time\n"
        "from palcensus import *\n"
        "from palcensus.verify import run_suites\n"
        "store = CacheStore(sys.argv[1])\n"
        "min_square_counts(3, 4, cache=store)\n"
        "for call in sys.argv[2:]:\n"
        "    start = time.perf_counter()\n"
        "    try:\n"
        "        eval(call[:-1] + ', budget=float(\"inf\"))')\n"
        "    except ValueError as error:\n"
        "        print(time.perf_counter() - start < 1, error)\n"
    )
    src = str(Path(palcensus.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "c.tsv"), *BUDGET_CALLS],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=30, check=True,
    )
    refused = ["True budget must be an integer, got inf"] * (len(BUDGET_CALLS) - 1)
    assert done.stdout.splitlines() == refused + ["True --budget must be an integer, got inf"]


@pytest.mark.parametrize(
    "record,rest,least",
    [
        (palcensus.Word, ((0,),), 1),
        # 3.0 == 3, so counts over 3.0 would pass square_prefix_counts as ternary
        (palcensus.CountSeq, (palcensus.Family.MIN_SQUARE, (3, 6)), 2),
    ],
    ids=["Word", "CountSeq"],
)
def test_every_record_takes_k_through_the_one_gate(record, rest, least):
    assert record(least, *rest).k == least
    for k in (least - 1, 2.5, 3.0, Fraction(3), "3", None):
        message = f"at least {least}, got {k}" if k == least - 1 else f"an integer, got {k!r}"
        with pytest.raises(ValueError, match=re.escape(f"alphabet size must be {message}")):
            record(k, *rest)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        palcensus.no_such_name
    with pytest.raises(ImportError):
        exec("from palcensus import no_such_name", {})


def test_import_loads_no_submodule_until_a_name_is_read():
    script = (
        "import sys\n"
        "import palcensus\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('palcensus'))\n"
        "print(*loaded())\n"
        "palcensus.milk_shuffle\n"
        "print(*loaded(), 'milk_shuffle' in vars(palcensus))\n"
    )
    src = str(Path(palcensus.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert done.stdout.splitlines() == [
        "palcensus",
        # the first read imports the defining module and caches the name
        "palcensus palcensus.maps palcensus.words True",
    ]
