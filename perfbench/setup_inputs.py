#!/usr/bin/env python3
"""One set-up step: start, import the program, write one workload's inputs.

    python3 perfbench/setup_inputs.py --workload desk-sweep --seed 7 --out DIR

The benchmark times this whole process as `setup_s`.
"""

import argparse
from pathlib import Path

from environment import import_program, pin_threads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    pin_threads()
    import_program()
    from inputs import write_inputs

    write_inputs(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
