"""The package namespace: every public name loads lazily, on first access,
from the module that defines it, and is the same object as there."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import palcensus

# the names the package exports, by defining module
EXPORTED = {
    "census": (
        "DEFAULT_BUDGET", "BudgetExceededError", "Family", "ProfileKind",
        "census_family", "census_profile", "list_profile",
    ),
    "constants": (
        "CertificationError", "DecimalReport", "Enclosure",
        "closed_form_report", "decimal_string", "density_series",
        "density_series_enclosure", "density_series_report",
        "pal_free_density", "pal_free_density_enclosure",
        "square_prefix_densities", "unbordered_density",
        "unbordered_density_enclosure", "unbordered_density_estimate",
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
        "Alphabet", "Parity", "Word", "WordProfile", "border_lengths",
        "format_word", "has_nontrivial_pal_prefix", "is_palindrome",
        "is_unbordered", "pal_prefix_orders", "parse_word", "perfect_shuffle",
        "reverse", "short_border_lengths", "square_half_lengths", "unshuffle",
        "word_profile",
    ),
}
NAMES = [name for names in EXPORTED.values() for name in names]


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
