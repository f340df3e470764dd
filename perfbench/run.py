#!/usr/bin/env python3
"""Layered benchmark for ssein.

    python3 perfbench/run.py --workload desk-sweep --seed 7 --seconds 55 --trace 0

One process per run, single-threaded (BLAS pools pinned to one thread).
The run

1. sets up `SETUPS` times: each is a fresh interpreter that imports the
   program and writes the workload's inputs from the seed
   (`setup_inputs.py`); the inputs must be byte-identical every time;
2. drives `ssein.cli.main` in-process, one call after another, until the
   next call would end past `--seconds` (at least one call; with
   `--trace 1`, at least one untraced and one traced call, alternating);
3. checks every call: it must not raise, must exit as expected, and its
   output files must hash to the golden digests recorded for this
   workload and seed in `goldens.json`.  For a seed without goldens, the
   first call's outputs must pass the workload's structural checks and
   every later call must reproduce them byte for byte.

The last line of standard output is one JSON object: `correct`,
`attempted` (CLI calls), `failed` (calls that raised, exited unexpectedly
or wrote other bytes) and `metrics`: the end-to-end metrics untraced, the
per-layer metrics with `--trace 1`.  The line before it records the run
environment.  A fuller record, and the spans of the last traced call, are
written under `perfbench/.work/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from environment import ROOT, describe, import_program, pin_threads

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
SETUPS = 5


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def set_up(workload: str, seed: int, work: Path) -> tuple[list[float], bool]:
    """Time `SETUPS` fresh set-ups; returns their times and whether every
    one wrote the same input bytes."""
    from workloads import IN_DIR, sha256

    times, snapshots = [], []
    for _ in range(SETUPS):
        shutil.rmtree(work / IN_DIR, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"),
             "--workload", workload, "--seed", str(seed), "--out", IN_DIR],
            cwd=work, check=True,
        )  # no timeout: waiting with one polls in steps of up to 50 ms
        times.append(time.perf_counter() - start)
        files = sorted((work / IN_DIR).iterdir())
        snapshots.append({p.name: sha256(p) for p in files})
    return times, all(s == snapshots[0] for s in snapshots)


def check_call(call, workload, golden, reference) -> str | None:
    """Why a call failed, or None.  `reference` is the first call's
    digests when no golden is recorded."""
    if call.error is not None:
        return call.error
    expected_exits = {golden["exit"]} if golden else workload.exits
    if call.exit_code not in expected_exits:
        return f"exit code {call.exit_code}, expected one of {sorted(expected_exits)}"
    expected = golden["sha256"] if golden else reference
    if expected is not None and call.digests != expected:
        bad = sorted(k for k in call.digests if call.digests[k] != expected.get(k))
        return f"output bytes differ from {'golden' if golden else 'first call'}: {bad}"
    return None


def measure(cli, workload, seed: int, seconds: float, trace: bool, work: Path):
    """Call the CLI until the next call would end past `seconds`.

    With `trace`, untraced and traced calls alternate, at least one of
    each.  Returns (untraced calls, traced calls, per-layer metrics of each
    traced call, the last tracer).
    """
    from tracing import Tracer
    from workloads import run_call

    calls, traced_calls, layer_runs = [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(calls) > len(traced_calls):
            tracer = Tracer()
            with tracer.installed():
                # Look `main` up at call time, so the traced wrapper runs.
                traced_calls.append(run_call(lambda a: cli.main(a), workload, seed, work))
            layer_runs.append(tracer.layer_metrics())
        else:
            calls.append(run_call(cli.main, workload, seed, work))
        done = calls and (traced_calls or not trace)
        typical = statistics.median(c.wall_s for c in calls + traced_calls)
        if done and time.perf_counter() + typical > deadline:
            return calls, traced_calls, layer_runs, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    pin_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import ssein.cli
    from tracing import EXCLUSIVE_TIMES, layer_shares, median_metrics
    from workloads import OUT_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    end_to_end_units, per_layer_units = declared_metrics()
    goldens = json.loads((HERE / "goldens.json").read_text())
    golden = goldens.get(workload.name, {}).get(str(args.seed))

    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []
    try:
        setup_times, inputs_stable = set_up(workload.name, args.seed, work)
        if not inputs_stable:
            problems.append("set-up wrote different inputs from the same seed")
        os.chdir(work)
        calls, traced_calls, layer_runs, tracer = measure(
            ssein.cli, workload, args.seed, args.seconds, args.trace == 1, work
        )
        # Every call wrote the same bytes or fails below, so the last
        # call's files stand for all of them.
        try:
            workload.validate(work / OUT_DIR)
            score, sse_error = workload.quality(work / OUT_DIR)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"malformed output: {exc}")
            score = sse_error = -1.0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    reference = None if golden else calls[0].digests
    failures = [
        why
        for why in (check_call(c, workload, golden, reference) for c in calls + traced_calls)
        if why
    ]
    untraced_wall = statistics.median(c.wall_s for c in calls)
    if args.trace == 0:
        units = end_to_end_units
        values = {
            "wall_s": untraced_wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        units = per_layer_units
        traced_wall = statistics.median(c.wall_s for c in traced_calls)
        values = median_metrics(layer_runs)
        values.update(
            {
                "quality.shortcut_score": score,
                "quality.sse_error_rate": sse_error,
                "trace.wall_s": traced_wall,
                "trace.overhead_s": traced_wall - untraced_wall,
            }
        )
    if set(values) != set(units):
        problems.append(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": not failures and not problems,
        "attempted": len(calls) + len(traced_calls),
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": describe(),
        "golden": "unrecorded" if not golden else "mismatched" if failures else "matched",
        "setup_s": setup_times,
        "untraced_wall_s": [c.wall_s for c in calls],
        "traced_wall_s": [c.wall_s for c in traced_calls],
        "digests": calls[0].digests,
        "failures": failures,
        "problems": problems,
        "result": result,
    }
    if tracer is not None:
        layers = layer_shares(values)
        record["layers_s"] = layers
        record["dominant_layer"] = max(layers, key=layers.get)
        record["dominant_span"] = max(EXCLUSIVE_TIMES, key=values.get)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl")

    shown = ("environment", "golden", "failures", "problems", "dominant_layer", "dominant_span")
    print(json.dumps({k: record[k] for k in shown if k in record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
