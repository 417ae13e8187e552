"""Tests of the benchmark itself (not of palcensus).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracle
import plan
import run
import tracing
import worker

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def ref():
    return plan.load_reference()


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_same_seed_same_ops_and_inputs(workload, ref):
    assert plan.plan(workload, 7, ref) == plan.plan(workload, 7, ref)


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_seed_changes_inputs_not_work(workload, ref):
    runs = [plan.plan(workload, seed, ref) for seed in (1, 2, 3)]
    assert runs[0] != runs[1]
    works = [Counter(op.work for op in ops) for ops in runs]
    assert works[0] == works[1] == works[2]
    words = {sum(op.words for op in ops) for ops in runs}
    assert len(words) == 1


def test_enumerate_work_is_the_stated_census(ref):
    ops = plan.plan("enumerate", 5, ref)
    cold = [op for op in ops if op.words]
    assert sum(op.words for op in cold) == 7 * (2**18 + 3**11 + 4**9) + 4 * 2**19
    names = [op.name for op in ops]
    cold_nsp = names.index("family:2:18:no-square-prefix:j1")
    assert names[cold_nsp + 1] == "family:2:18:has-square-prefix:j1"
    first_repeat = min(i for i, name in enumerate(names) if name.startswith("repeat:"))
    assert all(not name.startswith("family:") for name in names[first_repeat:])


def test_cli_has_enough_short_commands_for_p90(ref):
    short = [op for op in plan.plan("cli", 3, ref) if op.metric == "cmd"]
    assert len(short) >= 100


def _ctx(ref, pc=None):
    ctx = worker.Pass(ref, Path("."), None)
    ctx.pc = pc
    return ctx


def _fake_census(offset):
    return SimpleNamespace(
        Family=str,
        census_family=lambda k, n, family, jobs=1: REF_COUNTS[k][family][n - 1] + offset,
    )


REF_COUNTS = {k: v for k, v in ((int(k), v) for k, v in plan.load_reference()["counts"].items())}


def test_planted_wrong_result_is_a_failure(ref):
    ops = [op for op in plan.plan("enumerate", 1, ref) if op.kind == "family"][:5]
    for offset, expected in ((0, 0), (1, len(ops))):
        ctx = _ctx(ref, _fake_census(offset))
        ctx.inputs = {op.name: op.args for op in ops}
        times, errors, _ = worker.execute(ctx, ops)
        worker.check(ctx, ops, errors)
        assert len(times) == len(ops) and len(errors) == expected


def test_planted_wrong_reference_is_a_failure(ref):
    op = next(op for op in plan.plan("enumerate", 1, ref) if op.kind == "family")
    k, n, family, _ = op.args
    bad = json.loads(json.dumps(ref))
    bad["counts"][str(k)][family][n - 1] += 1
    for table, wrong in ((ref, False), (bad, True)):
        ctx = _ctx(table, _fake_census(0))
        ctx.results[op.name] = REF_COUNTS[k][family][n - 1]
        errors = {}
        worker.check(ctx, [op], errors)
        assert bool(errors) is wrong


def test_raising_op_is_a_failure(ref):
    op = next(op for op in plan.plan("enumerate", 1, ref) if op.kind == "family")

    def boom(*args, **kwargs):
        raise ValueError("planted")

    ctx = _ctx(ref, SimpleNamespace(Family=str, census_family=boom))
    ctx.inputs = {op.name: op.args}
    _, errors, _ = worker.execute(ctx, [op])
    assert "planted" in errors[op.name]


@pytest.mark.parametrize("stdout, code, wrong", [
    ("0.43037752002947121329338233512183046789554854254952\n", 0, False),
    ("0.43037752002947121329338233512183046789554854254953\n", 0, True),
    ("0.4303775200294712132933823351218304678955485425495\n", 0, True),
    ("0.43037752002947121329338233512183046789554854254952\n", 1, True),
])
def test_cli_digits_check(ref, stdout, code, wrong):
    ctx = _ctx(ref)
    check = ("prefix", "h3", 50)
    problem = worker.CHECK["cmd"](ctx, (code, stdout, "", 0.1), (), check)
    assert bool(problem) is wrong


def test_cli_map_pairs_and_refusals(ref):
    ctx = _ctx(ref)
    w = (0, 1, 1, 0, 2)
    x = oracle.format_digits(oracle.adjacent_sums(w, 3))
    preimages = []
    for first in range(3):
        symbols = [first]
        for s in oracle.parse_digits(x):
            symbols.append((s - symbols[-1]) % 3)
        preimages.append(oracle.format_digits(symbols))
    check = ("g-pre", 3, x, oracle.format_digits(w))
    for lines, wrong in ((preimages, False), (preimages[:2], True),
                         (preimages[:2] + ["00000"], True)):
        output = "\n".join(lines) + "\n"
        assert bool(worker.CHECK["cmd"](ctx, (0, output, "", 0.1), (), check)) is wrong
    refusal = ("refusal",)
    assert worker.CHECK["cmd"](ctx, (2, "", "error: over budget\n", 0.2), (), refusal) is None
    assert worker.CHECK["cmd"](ctx, (0, "", "", 0.2), (), refusal)
    assert worker.CHECK["cmd"](ctx, (2, "", "error: slow\n", 99.0), (), refusal)


def test_gamma_checks_only_known_digits(ref):
    ctx = _ctx(ref)
    known = ref["gamma"]["2"]["estimate_known"]
    assert known == "0.267786840"
    for text, wrong in (("0.2677868404672904", False),
                        ("0.2677868402178891123766714035843025525550", False),
                        ("0.2677868414672904", True)):
        report = SimpleNamespace(value=text)
        assert bool(worker.CHECK["gamma"](ctx, report, 2, 60)) is wrong


def test_self_time_on_a_synthetic_tree():
    spans = [
        ["op", None, "op", None, 0.0, 12.0],
        ["census.a", "census", "op", 0, 1.0, 11.0],
        ["words.b", "words", "op", 1, 2.0, 5.0],
        ["words.c", "words", "op", 1, 4.0, 7.0],       # overlaps b
        ["census.d", "census", "op", 3, 5.0, 6.0],
        ["maps.e", "maps", "op", 1, 10.0, 13.0],       # runs past its parent
    ]
    selves = tracing.self_times(spans)
    # a: 10 - union(2..7, 10..11) = 10 - 6; d: 1
    assert selves["census"] == pytest.approx(4.0 + 1.0)
    # b: 3; c: 3 - 1
    assert selves["words"] == pytest.approx(3.0 + 2.0)
    assert selves["maps"] == pytest.approx(3.0)
    assert selves["verify"] == 0.0


def test_adopted_spans_hang_under_the_open_span():
    tracer = tracing.Tracer()
    tracer.op = "cmd:1"
    tracer.begin("cmd:1", "cli")
    tracer.adopt([["cli.main", "cli", None, None, 1.0, 3.0],
                  ["census.census_family", "census", None, 0, 1.5, 2.0]])
    tracer.end()
    assert [span[3] for span in tracer.spans] == [None, 0, 1]
    assert {span[2] for span in tracer.spans} == {"cmd:1"}


def test_install_wraps_definitions_and_imported_names():
    script = (
        "import tracing\n"
        "t = tracing.Tracer()\n"
        "tracing.install(t)\n"
        "import palcensus.recurrences as r, palcensus.constants as c, palcensus as p\n"
        "print(hasattr(r.census_family, '__wrapped__'), "
        "hasattr(c.no_pal_prefix_ratios, '__wrapped__'), "
        "hasattr(p.census_family, '__wrapped__'))\n"
        "p.unbordered_counts(2, 6)\n"
        "print(sorted({s[1] for s in t.spans}))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=BENCH, env=run.child_env(), check=True)
    first, second = done.stdout.splitlines()
    assert first == "True True True"
    assert second == "['census', 'recurrences']"


MEMO_NAMES = ("_family_cache", "_profile_cache", "_validated_alphabets")


@pytest.mark.parametrize("path", sorted(BENCH.rglob("*.py")), ids=lambda p: p.name)
def test_no_private_palcensus_names(path):
    source = path.read_text()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("palcensus"):
            assert not any(alias.name.startswith("_") for alias in node.names)
        if isinstance(node, ast.Attribute) and re.fullmatch(r"_[a-z]\w*", node.attr):
            assert ast.unparse(node.value) == "self", ast.unparse(node)
    if path.name != "test_bench.py":
        assert not any(name in source for name in MEMO_NAMES)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "reference.json").write_text((BENCH / "reference.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
