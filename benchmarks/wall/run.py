#!/usr/bin/env python3
"""Wall-clock benchmark of the whole stack, end to end and per layer.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/wall/run.py --workload serve_crossing --seed 7 \\
        --seconds 12 --trace 0

prints a readable report and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end set, measured untraced;
with ``--trace 1`` they are the per-layer set, from a traced phase plus
the layer probes (see README.md).

Without ``--workload`` the command runs all four workloads, each
repetition in a fresh child process, interleaved (A B C D, A B C D, …),
and prints every metric's median with min/max across repetitions::

    python3 benchmarks/wall/run.py --seed 7            # end to end
    python3 benchmarks/wall/run.py --seed 7 --trace    # per layer
    python3 benchmarks/wall/run.py --selfcheck         # two sets must agree
    python3 benchmarks/wall/run.py --smoke             # seconds, not minutes
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# harness needs nothing of the program; workloads, layers and tracing
# import it, so they are imported once run_workload has found it.
import harness
from harness import (
    HERE,
    RESULTS_DIR,
    Pace,
    Tally,
    median,
    now,
    peak_rss_mb,
    percentile,
    speed_factor,
    spread,
)

REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
MANIFEST = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: Role-named end-to-end metrics → the name ISSUE 11 gave the same
#: number on each workload: (name, unit, factor).  ``past_query_s`` is
#: the sum of past_sweep's two latency roles.
ISSUE_NAMES = {
    "past_sweep": {},
    "serve_crossing": {
        "work_per_s": ("updates_per_s", "1/s", 1.0),
        "answer_ms_p50": ("update_visible_ms_p50", "ms", 1.0),
        "second_op_ms_p50": ("open_ms_p50", "ms", 1.0),
    },
    "fanout_reads": {
        "work_per_s": ("updates_per_s", "1/s", 1.0),
        "answer_ms_p50": ("update_visible_ms_p50", "ms", 1.0),
        "second_op_ms_p50": ("read_ms_p50", "ms", 1.0),
    },
    "durable_failover": {
        "work_per_s": ("updates_per_s", "1/s", 1.0),
        "answer_ms_p50": ("update_visible_ms_p50", "ms", 1.0),
        "second_op_ms_p50": ("recover_s", "s", 1e-3),
    },
}


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# One workload, one process
# ---------------------------------------------------------------------------
def run_setups(workload, inputs, smoke: bool):
    """Set up repeatedly (tearing each stack down) and keep the last:
    ``setup_s`` is the median, so one slow start does not decide it.
    At least 3 set-ups, then as many as fit in 2 seconds, at most 40.
    Returns the stack and the set-up times, at reference speed and raw."""
    pace = Pace()
    timings = []
    budget_end = now() + 2.0
    stack = None
    while True:
        if stack is not None:
            stack.close()
        stack, timing = pace.timed(workload.setup, inputs)
        timings.append(timing)
        done = len(timings)
        if smoke or done >= 40 or (done >= 3 and now() >= budget_end):
            break
    # One factor for the series, from every spin in and between the
    # set-ups: the 20 spins (6 ms) a 25 ms set-up gets of its own read
    # 0.7-0.95 from one set-up to the next while the set-ups themselves
    # took the same time.
    factor = speed_factor(pace.samples)
    return (
        stack,
        [t.wall + t.cpu * (factor - 1.0) for t in timings],
        [t.wall for t in timings],
    )


def end_to_end(workload, inputs, seconds: float, smoke: bool):
    """The untraced run.  Times are at reference speed (see harness);
    the notes carry the raw wall-clock readings beside them."""
    stack, setups, raw_setups = run_setups(workload, inputs, smoke)
    try:
        phase = workload.run(stack, inputs, seconds)
        workload.finish(stack, inputs, phase)
        rss = peak_rss_mb()
    finally:
        stack.close()
    answer = phase.at_reference("answer")
    second = phase.at_reference(workload.second)
    metrics = {
        "setup_s": (median(setups), "s"),
        "work_per_s": (phase.work / phase.reference_wall, "1/s"),
        "answer_ms_p50": (median(answer) * 1e3, "ms"),
        "second_op_ms_p50": (median(second) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "samples": {"answer": len(answer), "second_op": len(second), "setup": len(setups)},
        "machine": {
            "spin_us": median(phase.pace.samples) * 1e6,
            "speed_factor": phase.factor,
            "cpu_share": (phase.cpu_s - phase.pace.total) / phase.wall,
        },
        "raw": {
            "setup_s": median(raw_setups),
            "work_per_s": phase.work / phase.wall,
            "answer_ms_p50": median(phase.raw("answer")) * 1e3,
            "second_op_ms_p50": median(phase.raw(workload.second)) * 1e3,
            "timed_wall_s": phase.wall,
        },
        "answer_ms_p99": percentile(answer, 0.99) * 1e3,
        "second_op_ms_p99": percentile(second, 0.99) * 1e3,
    }
    return [phase], metrics, notes


def per_layer(workload, inputs, seconds: float, seed: int, smoke: bool):
    """Three phases over the same stream from its start, each on a fresh
    stack — the middle one with the wrappers installed — then the layer
    probes."""
    import layers
    from tracing import LAYERS, Tracer

    def one_phase(budget):
        stack = workload.setup(inputs)
        try:
            phase = workload.run(stack, inputs, budget)
            workload.finish(stack, inputs, phase)
        finally:
            stack.close()
        return phase

    # Untraced, traced, untraced: the two untraced phases bracket the
    # traced one so that cold start and slow machine drift fall on both
    # sides of the overhead ratio.
    before = one_phase(0.25 * seconds)
    tracer = Tracer()
    # The interleaved spins become spans too (layer ``bench``), so the
    # traced phase's whole elapsed time is accounted for.
    tracer.install(workload.operations() + [(harness, "spin", "bench.spin")])
    try:
        traced = one_phase(0.3 * seconds)
    finally:
        tracer.uninstall()
    after = one_phase(0.25 * seconds)
    plain = {
        name: before.at_reference(name) + after.at_reference(name)
        for name in ("answer", "read", workload.second)
    }

    summary = tracer.summarize(traced.start, traced.end)
    wall = traced.end - traced.start
    metrics = {
        f"self.{layer}_pct": (100.0 * summary["by_layer"][layer] / wall, "%")
        for layer in LAYERS
    }
    metrics["trace.coverage"] = (sum(summary["by_layer"].values()) / wall, "ratio")
    metrics["trace.spans"] = (float(summary["spans"]), "count")
    # The same operations traced and untraced: the prefix of the stream
    # all three phases completed, each phase at reference speed.
    answers = [p.at_reference("answer") for p in (before, traced, after)]
    common = min(len(a) for a in answers)
    untraced = (sum(answers[0][:common]) + sum(answers[2][:common])) / 2
    metrics["trace.overhead_ratio"] = (sum(answers[1][:common]) / untraced, "ratio")
    flips = summary["by_name"].get("geometry.flip_test", {"count": 0})["count"]
    metrics["geometry.flip_tests"] = (flips / max(traced.work, 1), "count")
    spun = before.pace.total + after.pace.total
    metrics["proc.cpu_ms_per_update"] = (
        (before.cpu_s + after.cpu_s - spun) / max(before.work + after.work, 1) * 1e3, "ms",
    )
    metrics["tail.answer_ms_p99"] = (percentile(plain["answer"], 0.99) * 1e3, "ms")
    metrics["tail.second_op_ms_p99"] = (
        percentile(plain[workload.second], 0.99) * 1e3, "ms",
    )
    metrics["tail.read_ms_p99"] = (percentile(plain["read"], 0.99) * 1e3, "ms")
    spins = before.pace.samples + traced.pace.samples + after.pace.samples
    metrics["machine.calib_ms"] = (median(spins) * 1e3, "ms")
    metrics["machine.slowdown"] = (1.0 / speed_factor(spins), "ratio")

    build_db, specs, updates = workload.probe_inputs(inputs)
    if smoke:
        metrics.update(layers.probe_all(build_db, specs, updates[:8], budget=0.02))
    else:
        metrics.update(layers.probe_all(build_db, specs, updates))
    if workload.durable:
        without = layers.probe_barrier(build_db, specs, updates)
        with_standby = median(after.raw("answer")[: len(updates)]) * 1e3
        metrics["repl.barrier_ms"] = (with_standby - without, "ms")
        metrics["repl.failover_s"] = (after.extra.get("failover_s", 0.0), "s")
        metrics["repl.recover_replayed"] = (
            float(after.extra.get("recovered_tail", 0)), "count",
        )
    else:  # no journal, no standby: the layer does no work here
        metrics["repl.barrier_ms"] = (0.0, "ms")
        metrics["repl.failover_s"] = (0.0, "s")
        metrics["repl.recover_replayed"] = (0.0, "count")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    tracer.dump(
        os.path.join(RESULTS_DIR, f"trace_{workload.name}.json"),
        traced.start,
        {
            "workload": workload.name,
            "seed": seed,
            "timed_wall_s": wall,
            "self_time_by_layer_s": summary["by_layer"],
            "by_name": summary["by_name"],
            "trace.overhead_ratio": metrics["trace.overhead_ratio"][0],
        },
    )
    notes = {
        "self_time_by_layer_s": summary["by_layer"],
        "timed_wall_s": wall,
        "samples": {"before": before.work, "traced": traced.work, "after": after.work},
    }
    return [before, traced, after], metrics, notes


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    tally = Tally()
    inputs = workload.make_inputs(args.seed)
    inputs["tally"] = tally
    if args.trace:
        phases, metrics, notes = per_layer(
            workload, inputs, args.seconds, args.seed, args.smoke
        )
    else:
        phases, metrics, notes = end_to_end(workload, inputs, args.seconds, args.smoke)
    workload.verify(inputs, phases, tally)

    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"#   answer    = {workload.roles['answer']}")
    print(f"#   second_op = {workload.roles['second']}")
    for key, value in notes.items():
        print(f"#   {key} = {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    print(f"{'ops_attempted':34s} {tally.attempted:14d} count")
    print(f"{'ops_failed':34s} {tally.failed:14d} count")
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# All workloads: child processes, interleaved repetitions
# ---------------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("FAILED:"):
            print(f"  {workload}: {line}")
    return json.loads(lines[-1])


def run_set(manifest: dict, seed: int, seconds: float, trace: int, reps: int, smoke: bool):
    """``reps`` interleaved repetitions of every workload, each in its
    own process.  Returns ``{workload: {"values": {metric: [...]},
    "units": {metric: unit}, "attempted": n, "failed": n}}``."""
    names = [w["name"] for w in manifest["workloads"]]
    results = {
        name: {"values": {}, "units": {}, "attempted": 0, "failed": 0} for name in names
    }
    for rep in range(reps):
        for name in names:
            start = time.perf_counter()
            child = run_child(name, seed + rep, seconds, trace, smoke)
            result = results[name]
            for metric, cell in child["metrics"].items():
                result["values"].setdefault(metric, []).append(cell["value"])
                result["units"][metric] = cell["unit"]
            result["attempted"] += child["attempted"]
            result["failed"] += child["failed"]
            print(
                f"  rep {rep + 1}/{reps} {name:18s} "
                f"{time.perf_counter() - start:6.1f} s  failed={child['failed']}",
                flush=True,
            )
    return results


def print_document(results: dict, trace: int) -> dict:
    """Every metric by name with its unit: median and min/max across
    repetitions; end-to-end metrics also under the ISSUE's names."""
    document = {}
    for workload, result in results.items():
        print(f"\n== {workload} ==")
        values, units = result["values"], result["units"]
        rows = {
            name: (statistics.median(v), min(v), max(v), units[name])
            for name, v in values.items()
        }
        if not trace:
            for role, (name, unit, factor) in ISSUE_NAMES[workload].items():
                mid, low, high, _ = rows[role]
                rows[name] = (mid * factor, low * factor, high * factor, unit)
            if workload == "past_sweep":
                total = [
                    (a + b) * 1e-3
                    for a, b in zip(values["answer_ms_p50"], values["second_op_ms_p50"])
                ]
                rows["past_query_s"] = (statistics.median(total), min(total), max(total), "s")
        for name, (mid, low, high, unit) in rows.items():
            print(f"{name:34s} {mid:14.4f} {unit:6s} [min {low:.4f}, max {high:.4f}]")
        print(f"{'ops_attempted':34s} {result['attempted']:14d} count")
        print(f"{'ops_failed':34s} {result['failed']:14d} count")
        document[workload] = {
            "metrics": {
                name: {"median": mid, "min": low, "max": high, "unit": unit}
                for name, (mid, low, high, unit) in rows.items()
            },
            "ops_attempted": result["attempted"],
            "ops_failed": result["failed"],
        }
    return document


def declared_names_match(manifest: dict, results: dict, trace: int) -> bool:
    declared = {
        m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]
    }
    ok = True
    for workload, result in results.items():
        if result["units"] != declared:
            ok = False
            printed = set(result["units"])
            print(
                f"{workload}: printed metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(declared) - printed)}, "
                f"undeclared {sorted(printed - set(declared))}, wrong unit "
                f"{sorted(n for n in printed & set(declared) if result['units'][n] != declared[n])}"
            )
    return ok


def run_all(args) -> int:
    manifest = load_manifest()
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    results = run_set(manifest, args.seed, seconds, args.trace, args.reps, False)
    document = print_document(results, args.trace)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "per_layer.json" if args.trace else "end_to_end.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": seconds, "workloads": document}, handle, indent=1)
    failed = sum(result["failed"] for result in results.values())
    return 1 if failed or not declared_names_match(manifest, results, args.trace) else 0


def run_smoke(args) -> int:
    """Both modes, one short repetition each: the printed names must be
    exactly the declared ones and no operation may fail.  The last line
    is the document's shape as JSON, for test_wall_smoke.py."""
    manifest = load_manifest()
    status = 0
    shape = {w["name"]: {"ops_attempted": 0, "ops_failed": 0} for w in manifest["workloads"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        results = run_set(manifest, args.seed, 1.5, trace, 1, True)
        print_document(results, trace)
        if not declared_names_match(manifest, results, trace):
            status = 1
        for workload, result in results.items():
            shape[workload][section] = result["units"]
            shape[workload]["ops_attempted"] += result["attempted"]
            shape[workload]["ops_failed"] += result["failed"]
            if result["failed"]:
                status = 1
    print("smoke OK" if status == 0 else "smoke FAILED")
    print(json.dumps(shape))
    return status


def run_selfcheck(args) -> int:
    """The gated set twice, back to back: every end-to-end metric's two
    medians must agree within its bound.  Prints each set's spread so
    bounds come from measurement."""
    manifest = load_manifest()
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    sets = []
    failed = 0
    for index in range(2):
        print(f"-- set {index + 1} --")
        results = run_set(manifest, args.seed, seconds, 0, args.reps, False)
        failed += sum(result["failed"] for result in results.values())
        sets.append({name: result["values"] for name, result in results.items()})
    status = 1 if failed else 0
    print(f"\n{'workload':18s} {'metric':18s} {'median 1':>12s} {'median 2':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread 1':>9s} {'spread 2':>9s}")
    for spec in manifest["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        for workload in sets[0]:
            first, second = (s[workload][name] for s in sets)
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            verdict = "" if abs(worse) <= bound else "  DISAGREE"
            if verdict:
                status = 1
            print(
                f"{workload:18s} {name:18s} {m1:12.4f} {m2:12.4f} {worse:+9.1%} "
                f"{bound:6.0%} {spread(first):9.1%} {spread(second):9.1%}{verdict}"
            )
    print("selfcheck OK" if status == 0 else "selfcheck FAILED")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics; 0: untraced, end-to-end")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per workload when running all of them")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.workload:
        if args.seconds is None:
            args.seconds = float(load_manifest()["run_seconds"])
        return run_workload(args)
    if args.smoke:
        return run_smoke(args)
    if args.selfcheck:
        return run_selfcheck(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
