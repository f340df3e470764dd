#!/usr/bin/env python3
"""Write the desk-scale benchmark manifest: a boost-fraction sweep.

Each row plants the same 8-SSE topology with a different fraction of the
true shortcut edges backed by family evidence, which is what drives the
local-recovery / global-score curve.
"""

import argparse
from pathlib import Path
from typing import Sequence

SIZES = "9,8,10,9,8,10,9,8"
FRACTIONS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def write_manifest(
    out: Path, gen_seed: int = 100, fractions: Sequence[float] = FRACTIONS
) -> None:
    """One instance per boost fraction, generator seeds counting up from gen_seed."""
    rows = ["# instance_id\tgen_seed\tsse_sizes\tboost_fraction"]
    for i, frac in enumerate(fractions):
        rows.append(f"sweep-{int(frac * 100)}\t{gen_seed + i}\t{SIZES}\t{frac}")
    Path(out).write_text("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} instances to {out}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="benchmark_manifest.tsv")
    parser.add_argument("--gen-seed", type=int, default=100)
    parser.add_argument(
        "--fractions",
        default=",".join(str(f) for f in FRACTIONS),
        help="comma-separated boost fractions, one instance per value",
    )
    args = parser.parse_args()
    write_manifest(args.out, args.gen_seed, [float(f) for f in args.fractions.split(",")])


if __name__ == "__main__":
    main()
