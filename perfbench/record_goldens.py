#!/usr/bin/env python3
"""Record the golden output digests the benchmark checks every call against.

    python3 perfbench/record_goldens.py --seeds 0-24 [--workload predict-large]

For each workload and seed this writes the inputs, makes one untraced CLI
call exactly as `run.py` does, and stores its exit code and the sha256 of
every output file in `goldens.json`.  Entries for other seeds are kept;
a re-recorded entry that changed is reported, because the program's output
bytes are meant to stay fixed: re-record only for a deliberate output
change, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from environment import import_program, pin_threads

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-24 or 3,7,11")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()

    pin_threads()
    import_program()
    import ssein.cli
    from inputs import write_inputs
    from workloads import IN_DIR, WORKLOADS, run_call

    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    changed = []
    work = HERE / ".work" / f"goldens-{os.getpid()}"
    try:
        for name in args.workload or list(WORKLOADS):
            workload = WORKLOADS[name]
            for seed in parse_seeds(args.seeds):
                shutil.rmtree(work, ignore_errors=True)
                write_inputs(name, seed, work / IN_DIR)
                os.chdir(work)
                call = run_call(ssein.cli.main, workload, seed, work)
                os.chdir(HERE)
                if call.error or call.exit_code not in workload.exits:
                    print(f"{name} seed {seed}: {call.error or call.exit_code}", file=sys.stderr)
                    return 1
                entry = {"exit": call.exit_code, "sha256": call.digests}
                old = goldens.setdefault(name, {}).get(str(seed))
                if old is not None and old != entry:
                    changed.append(f"{name} seed {seed}")
                goldens[name][str(seed)] = entry
                print(f"{name} seed {seed}: exit {call.exit_code} in {call.wall_s:.2f}s", flush=True)
    finally:
        os.chdir(HERE)
        shutil.rmtree(work, ignore_errors=True)

    goldens = {
        name: dict(sorted(goldens[name].items(), key=lambda kv: int(kv[0])))
        for name in sorted(goldens)
    }
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")
    for item in changed:
        print(f"changed: {item}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
