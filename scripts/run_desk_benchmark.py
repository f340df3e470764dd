#!/usr/bin/env python3
"""Run the desk-scale benchmark end to end and print the score table.

Writes the sweep manifest if none is given, runs 20 simulations per
instance, and leaves benchmark_table.tsv plus figure3_curve.csv in the
output directory.
"""

import argparse
import sys
from pathlib import Path

from make_manifest import write_manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", help="existing manifest (default: generate the sweep)")
    parser.add_argument("--out", default="bench_out")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--simulations", type=int, default=20)
    args = parser.parse_args()

    manifest = args.manifest
    if manifest is None:
        manifest = str(Path(args.out) / "manifest.tsv")
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_manifest(manifest)

    from ssein.cli import main as ssein_main

    code = ssein_main(
        [
            "benchmark",
            "--manifest", manifest,
            "--seed", str(args.seed),
            "--simulations", str(args.simulations),
            "--out", args.out,
        ]
    )
    if code == 0:
        print((Path(args.out) / "benchmark_table.tsv").read_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
