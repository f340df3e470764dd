"""Command-line interface: `predict` and `benchmark` subcommands.

Configuration comes from an optional key=value file with bracketed sections
([run] / [ga] / [aco]) overridden by command-line flags.  Exit codes are a
stable contract: 0 accepted, 2 rejected by the topology gate, 1 for usage,
parse or I/O errors.  SSEIN_LOG=off|info|debug controls verbosity.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .aco import AcoParams
from .moga import GaParams
from .pipeline import (
    RunConfig,
    emit_report,
    incidence_to_tsv,
    run_benchmark,
    run_predict,
    shortcut_edges_to_tsv,
)

logger = logging.getLogger("ssein")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2

_RUN_KEYS = {"threshold": float, "seed": int, "simulations": int, "output_dir": str}
_GA_KEYS = {
    "population_size": int,
    "archive_size": int,
    "generations": int,
    "k": int,
    "crossover_rate": float,
    "mutation_rate": float,
}
_ACO_KEYS = {
    "alpha": float,
    "beta": float,
    "rho": float,
    "delta_tau": float,
    "e_stop": float,
    "lambda_min": float,
    "max_iterations": int,
    "initial_tau": float,
}


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1; argparse's default of 2 is reserved for
    # topology rejection.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _setup_logging() -> None:
    level_name = os.environ.get("SSEIN_LOG", "off").lower()
    levels = {"off": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        level_name = "off"
    logging.basicConfig(format="%(name)s %(levelname)s %(message)s")
    logger.setLevel(levels[level_name])


def _load_config_file(path: str) -> dict[str, dict[str, object]]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    sections: dict[str, dict[str, object]] = {"run": {}, "ga": {}, "aco": {}}
    schema = {"run": _RUN_KEYS, "ga": _GA_KEYS, "aco": _ACO_KEYS}
    for section in parser.sections():
        if section not in schema:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in schema[section]:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            sections[section][key] = schema[section][key](raw)
    return sections


def _build_config(args: argparse.Namespace) -> RunConfig:
    sections = {"run": {}, "ga": {}, "aco": {}}
    if getattr(args, "config", None):
        sections = _load_config_file(args.config)

    run = dict(sections["run"])
    for flag, key in (
        ("threshold", "threshold"),
        ("seed", "seed"),
        ("simulations", "simulations"),
        ("out", "output_dir"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            run[key] = value
    if args.command == "benchmark":
        run.setdefault("simulations", 20)  # desk-scale default

    ga = dict(sections["ga"])
    for flag, key in (
        ("pop", "population_size"),
        ("archive", "archive_size"),
        ("generations", "generations"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            ga[key] = value

    return RunConfig(
        pdb_path=getattr(args, "pdb", None),
        family_index_path=getattr(args, "family", None),
        manifest_path=getattr(args, "manifest", None),
        ga=GaParams(**ga),
        aco=AcoParams(**sections["aco"]),
        **run,
    )


def _write(out_dir: Path, name: str, contents: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(contents)


def _cmd_predict(args: argparse.Namespace) -> int:
    config = _build_config(args)
    report = run_predict(config)
    out_dir = Path(config.output_dir)
    _write(out_dir, "report.json", emit_report(report))
    _write(out_dir, "sse_incidence.tsv", incidence_to_tsv(report.incidence))
    _write(out_dir, "shortcut_edges.tsv", shortcut_edges_to_tsv(report.shortcut_rows))
    print(
        f"{report.protein_id}: {report.verdict} after {report.attempts} attempt(s), "
        f"E_p={report.e_p}, selected={report.e_selected}"
    )
    return EXIT_OK if report.verdict == "accepted" else EXIT_REJECTED


def _cmd_benchmark(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = run_benchmark(config)
    out_dir = Path(config.output_dir)
    _write(out_dir, "benchmark_table.tsv", result.table_tsv())
    _write(out_dir, "figure3_curve.csv", result.curve_csv())
    for row in result.rows:
        print(
            f"{row.instance_id}: score={row.score_mean:.3f} "
            f"sd={row.score_stddev:.3f} ac={row.ac:.3f} "
            f"ga_error={row.incidence_error_rate:.3f}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssein", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    predict = sub.add_parser("predict", help="predict one protein against its family")
    predict.add_argument("--pdb", required=True, help="query structure file")
    predict.add_argument("--family", required=True, help="family index TSV")
    predict.add_argument("--config", help="key=value config file")
    predict.add_argument("--threshold", type=float, help="contact threshold in Å")
    predict.add_argument("--seed", type=int, help="master RNG seed")
    predict.add_argument("--pop", type=int, help="GA population size")
    predict.add_argument("--archive", type=int, help="GA archive size")
    predict.add_argument("--generations", type=int, help="GA generation budget")
    predict.add_argument("--simulations", type=int, help="max colony attempts")
    predict.add_argument("--out", help="output directory")
    predict.set_defaults(func=_cmd_predict)

    bench = sub.add_parser("benchmark", help="score planted instances from a manifest")
    bench.add_argument("--manifest", required=True, help="instance manifest TSV")
    bench.add_argument("--config", help="key=value config file")
    bench.add_argument("--seed", type=int, help="master RNG seed")
    bench.add_argument("--simulations", type=int, help="simulations per instance")
    bench.add_argument("--out", help="output directory")
    bench.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
