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

# Config section -> key -> type.  The command-line flags that override a
# key store their value under the key's name.
_SCHEMA = {
    "run": {"threshold": float, "seed": int, "simulations": int, "output_dir": str},
    "ga": {
        "population_size": int,
        "archive_size": int,
        "generations": int,
        "crossover_rate": float,
        "mutation_rate": float,
    },
    "aco": {
        "alpha": float,
        "beta": float,
        "rho": float,
        "delta_tau": float,
        "e_stop": float,
        "lambda_min": float,
        "max_iterations": int,
    },
}


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1; argparse's default of 2 is reserved for
    # topology rejection.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    level_name = os.environ.get("SSEIN_LOG", "off").lower()
    levels = {"off": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        level_name = "off"
    logging.basicConfig(format="%(name)s %(levelname)s %(message)s")
    logger.setLevel(levels[level_name])


def _load_config_file(path: str) -> dict[str, dict[str, object]]:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        raw_sections = {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path!r}: {exc}") from None
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    sections: dict[str, dict[str, object]] = {section: {} for section in _SCHEMA}
    for section, items in raw_sections.items():
        if section not in _SCHEMA:
            raise ValueError(f"config file {path!r}: unknown section [{section}]")
        for key, raw in items.items():
            if key not in _SCHEMA[section]:
                raise ValueError(f"config file {path!r}: unknown key {key!r} in [{section}]")
            convert = _SCHEMA[section][key]
            try:
                sections[section][key] = convert(raw)
            except ValueError:
                kind = "an integer" if convert is int else "a number"
                raise ValueError(
                    f"config file {path!r}: [{section}] {key} = {raw!r} is not {kind}"
                ) from None
    return sections


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, overridden by the flags given, which are
    the only ones `args` holds."""
    given = vars(args)
    sections = {section: {} for section in _SCHEMA}
    if given.get("config"):
        sections = _load_config_file(given["config"])
    for section, keys in _SCHEMA.items():
        sections[section].update((key, given[key]) for key in keys if key in given)
    if args.command == "benchmark":
        sections["run"].setdefault("simulations", 20)  # desk-scale default

    return RunConfig(
        pdb_path=given.get("pdb"),
        family_index_path=given.get("family"),
        manifest_path=given.get("manifest"),
        ga=GaParams(**sections["ga"]),
        aco=AcoParams(**sections["aco"]),
        **sections["run"],
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

    # Unset flags stay out of the namespace, so they cannot mask the config file.
    quiet = {"argument_default": argparse.SUPPRESS}
    predict = sub.add_parser("predict", help="predict one protein against its family", **quiet)
    predict.add_argument("--pdb", required=True, help="query structure file")
    predict.add_argument("--family", required=True, help="family index TSV")
    predict.add_argument("--config", help="key=value config file")
    predict.add_argument("--threshold", type=float, help="contact threshold in Å")
    predict.add_argument("--seed", type=int, help="master RNG seed")
    predict.add_argument("--pop", dest="population_size", type=int, help="GA population size")
    predict.add_argument("--archive", dest="archive_size", type=int, help="GA archive size")
    predict.add_argument("--generations", type=int, help="GA generation budget")
    predict.add_argument("--simulations", type=int, help="max colony attempts")
    predict.add_argument("--out", dest="output_dir", help="output directory")
    predict.set_defaults(func=_cmd_predict)

    bench = sub.add_parser("benchmark", help="score planted instances from a manifest", **quiet)
    bench.add_argument("--manifest", required=True, help="instance manifest TSV")
    bench.add_argument("--config", help="key=value config file")
    bench.add_argument("--seed", type=int, help="master RNG seed")
    bench.add_argument("--simulations", type=int, help="simulations per instance")
    bench.add_argument("--out", dest="output_dir", help="output directory")
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
