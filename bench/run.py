"""palcensus benchmark: enumerate, sequences and cli workloads.

    python3 bench/run.py --workload enumerate|sequences|cli|all --seed N \\
        --seconds S --trace 0|1

Run from the repository root; palcensus is loaded from ./src.  A pass runs
the workload's fixed op list (bench/plan.py) in fresh child processes, one
at a time (closed loop), so every census and cache call is cold.  Passes
repeat while the next one would end within --seconds of pass time; the fresh
starts behind setup_s are taken between them, on top.  Metrics are medians
over passes.  Every output is checked; a wrong one counts as failed.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time on
untraced passes and half on traced ones (bench/tracing.py) and reports the
per-layer metrics: op timings from the untraced passes, self time per layer
from the traced ones, and the difference of their wall times.  Traced timings
are never reported as end-to-end metrics.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object.  A result file with the machine's CPU count and
Python version goes to bench/out/, and the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import plan
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RUN_LIMIT = 170.0       # seconds; a run must end within 180
SETUP_SAMPLES = 21      # fresh starts behind setup_s, at least

clock = time.perf_counter

# (name, unit) of every metric, in the order they print
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
UNITS = dict(END_TO_END + PER_LAYER)
PARTS = {"enumerate": ("main", "fanout"), "sequences": ("main",), "cli": ("main",)}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(deadline, workload, seed, part, trace, work, setup_only=False):
    """(set-up seconds, result) of one worker; set-up runs from just before
    the interpreter starts until it reports READY."""
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), part,
            str(trace), str(work)] + (["--setup-only"] if setup_only else [])
    start = clock()
    # its own process group, so that a kill also reaches the commands or
    # census workers it started
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT, start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(deadline - start, 1.0), kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = clock()
        rest = proc.stdout.read()
        proc.wait()
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload}/{part} worker failed (exit {proc.returncode})")
    return ready - start, None if setup_only else json.loads(rest.splitlines()[-1])


def run_pass(deadline, workload, seed, trace, index):
    """Merge the parts of one pass: times, failures, wall, peak RSS, spans."""
    work = OUT / "work" / f"{workload}-{seed}-{trace}-{index}"
    merged = {"times": {}, "errors": {}, "wall": 0.0, "rss_kb": 0, "extra": {},
              "spans": [], "setup": None}
    start = clock()
    try:
        for part in PARTS[workload]:
            work.mkdir(parents=True, exist_ok=True)
            setup, result = run_child(deadline, workload, seed, part, trace, work)
            if merged["setup"] is None:
                merged["setup"] = setup
            for key in ("times", "errors", "extra"):
                merged[key].update(result[key])
            merged["wall"] += result["wall"]
            merged["rss_kb"] = max(merged["rss_kb"], result["rss_kb"])
            merged["spans"] += result["spans"] or []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    merged["duration"] = clock() - start
    return merged


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def pass_metrics(workload, ops, result) -> dict[str, float]:
    """Per-layer op metrics of one untraced pass."""
    times = result["times"]
    metrics: dict[str, float] = {}
    for op in ops:
        if op.metric and op.metric != "cmd":
            scale = 1000 if op.metric.endswith("_ms") else 1
            metrics[op.metric] = metrics.get(op.metric, 0.0) + scale * times[op.name]
    if workload == "enumerate":
        def rate(selected):
            return sum(op.words for op in selected) / sum(times[op.name] for op in selected)

        cold = [op for op in ops if op.words]
        metrics["words_per_s"] = rate(cold)
        metrics["census.words_enumerated"] = sum(op.words for op in cold)
        jobs1 = rate([op for op in ops if op.metric == "census.fanout1"])
        jobs2 = rate([op for op in ops if op.metric == "census.fanout2"])
        metrics["census.words_per_s.jobs1"] = jobs1
        metrics["census.words_per_s.jobs2"] = jobs2
        metrics["census.fanout_efficiency"] = jobs2 / (2 * jobs1)
        del metrics["census.fanout1"], metrics["census.fanout2"]
        complement = times["family:2:18:has-square-prefix:j1"]
        metrics["census.complement_s"] = complement
        metrics["census.complement_vs_cold"] = complement / times["family:2:18:no-square-prefix:j1"]
        count = plan.WORD_PROFILES[0]
        metrics["words.profile_us"] = 1e6 * times["word_profile"] / count
    if workload == "cli":
        latencies = [1000 * times[op.name] for op in ops if op.metric == "cmd"]
        metrics["cmd_p50_ms"] = statistics.median(latencies)
        metrics["cmd_p90_ms"] = percentile(latencies, 0.9)
        metrics["cmd_samples"] = len(latencies)
        metrics["cli.cache_warm_ms"] = statistics.median(
            1000 * times[op.name] for op in ops if op.metric == "cli.cache_warm_ms")
        metrics.update(result["extra"])
    return metrics


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    names = {name for metrics in per_pass for name in metrics}
    return {name: statistics.median(m[name] for m in per_pass if name in m) for name in names}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for the allotted time; return every metric and the counts."""
    deadline = clock() + RUN_LIMIT
    ops = plan.plan(workload, seed)
    # compile palcensus to bytecode once, so no pass pays for it
    subprocess.run([sys.executable, "-c", "import palcensus.cli"], env=child_env(),
                   cwd=ROOT, check=True)

    setups = []

    def sample_setups(count):
        work = OUT / "work" / f"{workload}-{seed}-setup"
        for _ in range(count):
            work.mkdir(parents=True, exist_ok=True)
            try:
                setups.append(run_child(deadline, workload, seed, "main", 0, work, True)[0])
            finally:
                shutil.rmtree(work, ignore_errors=True)

    measured = 0.0    # seconds in passes; the fresh starts for setup_s come on top
    first_setups = SETUP_SAMPLES // 3

    def passes(trace_flag, until):
        nonlocal measured
        done = []
        while True:
            done.append(run_pass(deadline, workload, seed, trace_flag, len(done)))
            measured += done[-1]["duration"]
            if not trace_flag:
                # fresh starts spread over the run, in step with the passes
                setups.append(done[-1]["setup"])
                share = done[-1]["duration"] / until
                sample_setups(round((SETUP_SAMPLES - first_setups) * share))
            typical = statistics.median(p["duration"] for p in done)
            if measured + typical > until:
                return done

    sample_setups(first_setups)
    untraced = passes(0, seconds / 2 if trace else seconds)
    traced = passes(1, seconds) if trace else []
    sample_setups(SETUP_SAMPLES - len(setups))

    walls = [p["wall"] for p in untraced]
    metrics = median_metrics([pass_metrics(workload, ops, p) for p in untraced])
    metrics["wall_s"] = statistics.median(walls)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(p["rss_kb"] for p in untraced) / 1024
    notes = {
        "wall_s": f"median of {len(walls)} passes, max {max(walls):.4f}",
        "setup_s": f"median of {len(setups)} fresh starts",
    }
    if "cmd_samples" in metrics:
        notes["cmd_p90_ms"] = f"nearest rank of {metrics['cmd_samples']} commands"
    if traced:
        selfs = [tracing.self_times(p["spans"]) for p in traced]
        for layer in tracing.LAYERS:
            metrics[f"{layer}.self_s"] = statistics.median(s[layer] for s in selfs)
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - metrics["wall_s"])
        notes["trace.overhead_s"] = f"{len(traced)} traced vs {len(walls)} untraced passes"
    every = untraced + traced
    failed = sorted({f"{name}: {why}" for p in every for name, why in p["errors"].items()})
    return {
        "metrics": metrics, "notes": notes, "failures": failed,
        "attempted": sum(len(p["times"]) for p in every),
        "failed": sum(len(p["errors"]) for p in every),
        "passes": [{"times": p["times"], "wall": p["wall"], "rss_kb": p["rss_kb"],
                    "traced": p in traced} for p in every],
        "setups": setups,
        "spans": [p["spans"] for p in traced],
    }


def report(workload: str, seed: int, trace: bool, outcome: dict) -> dict:
    """Print every metric with its unit, write the result files, and return
    the metrics the JSON line carries."""
    metrics = outcome["metrics"]
    rate = outcome["failed"] / outcome["attempted"]
    print(f"{workload} seed={seed} trace={int(trace)} attempted={outcome['attempted']} "
          f"failed={outcome['failed']} error_rate={rate:.4f}")
    for line in outcome["failures"][:20]:
        print(f"  FAILED {line}")
    for name, unit in END_TO_END + PER_LAYER:
        if name in metrics:
            note = outcome["notes"].get(name, "")
            print(f"  {name:34s} {metrics[name]:>16.6f} {unit:6s} {note}")
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workload": workload, "seed": seed, "trace": int(trace),
        "attempted": outcome["attempted"], "failed": outcome["failed"],
        "error_rate": rate, "failures": outcome["failures"],
        "metrics": {name: {"value": v, "unit": UNITS.get(name, "")}
                    for name, v in sorted(metrics.items())},
        "setups": outcome["setups"], "passes": outcome["passes"],
    }, indent=1) + "\n")
    if trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps({
            "fields": ["name", "layer", "op", "parent", "start", "end"],
            "passes": outcome["spans"],
        }) + "\n")
    # a layer metric the workload does not exercise reads 0
    wanted = PER_LAYER if trace else END_TO_END
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "palcensus" / "__init__.py").is_file():
        print(f"error: no palcensus sources under {SRC}", file=sys.stderr)
        return 2
    workloads = plan.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    carried = {}
    try:
        for workload in workloads:
            outcome = measure(workload, args.seed, args.seconds, bool(args.trace))
            metrics = report(workload, args.seed, bool(args.trace), outcome)
            attempted += outcome["attempted"]
            failed += outcome["failed"]
            prefix = "" if len(workloads) == 1 else f"{workload}."
            carried.update({prefix + name: value for name, value in metrics.items()})
    except (BenchError, subprocess.CalledProcessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": carried}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
