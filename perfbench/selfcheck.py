#!/usr/bin/env python3
"""The benchmark's own check, about a minute and a half on two cores.

    python3 perfbench/selfcheck.py

* Every workload in `workloads.py`, untraced and traced, at the reference seed 7: the run is
  correct, no op fails, the golden digests match (traced calls included,
  so tracing leaves the output bytes alone), and every metric that
  BENCHMARK.json declares is emitted.
* The desk sweep's golden table at seed 7 is the documented reference run.
* In a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESK_TABLE_SEED7 = "d203d0a986fb"


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    errors = []
    # Every defined workload, also those BENCHMARK.json leaves to runs by hand.
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--seed", "7",
                       "--seconds", "1", "--trace", str(trace))
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            *_, info_line, result_line = proc.stdout.strip().splitlines()
            info, result = json.loads(info_line), json.loads(result_line)
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: {info['failures'] + info['problems']}")
            if info["golden"] != "matched":
                errors.append(f"{label}: golden digests {info['golden']}")
            if set(result["metrics"]) != declared[trace]:
                errors.append(f"{label}: metrics {sorted(result['metrics'])}")
            print(f"{label}: {result['attempted']} calls, golden {info['golden']}"
                  + (f", dominant layer {info['dominant_layer']} "
                     f"({info['dominant_span']})" if trace else ""))

    goldens = json.loads((HERE / "goldens.json").read_text())
    table = goldens["desk-sweep"]["7"]["sha256"]["benchmark_table.tsv"]
    if not table.startswith(DESK_TABLE_SEED7):
        errors.append(f"desk-sweep seed 7 table digest {table[:12]}, expected {DESK_TABLE_SEED7}")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "--workload", "desk-sweep", "--seed", "7", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"without the program: exit {proc.returncode}, no result printed")

    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
