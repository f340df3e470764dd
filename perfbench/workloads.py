"""The benchmark's workloads: the CLI call each one times, the files it
writes, how to read quality from them, and how to check them when no
golden digest is recorded for the seed."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from inputs import COLONY_FRACTIONS, DESK_FRACTIONS

# Relative to the run's working directory, so that report.json, which
# echoes these paths, has the same bytes wherever the checkout lives.
IN_DIR = "in"
OUT_DIR = "out"


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each is in the benchmark."""

    name: str
    argv: Callable[[int], list[str]]
    outputs: tuple[str, ...]
    exits: frozenset[int]  # exit codes accepted when no golden is recorded
    quality: Callable[[Path], tuple[float, float]]  # (shortcut score, SSE error rate)
    validate: Callable[[Path], None]  # raises ValueError on malformed output


def _sweep_argv(simulations: int) -> Callable[[int], list[str]]:
    def argv(seed: int) -> list[str]:
        return [
            "benchmark",
            "--manifest", f"{IN_DIR}/manifest.tsv",
            "--seed", str(seed),
            "--simulations", str(simulations),
            "--out", OUT_DIR,
        ]

    return argv


def _predict_argv(seed: int) -> list[str]:
    return [
        "predict",
        "--pdb", f"{IN_DIR}/query.pdb",
        "--family", f"{IN_DIR}/family.tsv",
        "--seed", str(seed),
        "--simulations", "1",
        "--out", OUT_DIR,
    ]


def _table_rows(out: Path) -> list[dict[str, str]]:
    header, *lines = (out / "benchmark_table.tsv").read_text().splitlines()
    names = header.split("\t")
    return [dict(zip(names, line.split("\t"))) for line in lines]


def _sweep_quality(out: Path) -> tuple[float, float]:
    rows = _table_rows(out)
    score = sum(float(r["score"]) for r in rows) / len(rows)
    error = sum(float(r["incidence_error_rate"]) for r in rows) / len(rows)
    return score, error


def _sweep_validator(instances: int, simulations: int) -> Callable[[Path], None]:
    def validate(out: Path) -> None:
        rows = _table_rows(out)
        if len(rows) != instances:
            raise ValueError(f"table has {len(rows)} rows, expected {instances}")
        for r in rows:
            if int(r["simulations"]) != simulations:
                raise ValueError(f"{r['instance']}: {r['simulations']} simulations")
            for key in ("score", "score_median", "local_recovery_median",
                        "incidence_error_rate", "accepted_fraction"):
                if not 0.0 <= float(r[key]) <= 1.0:
                    raise ValueError(f"{r['instance']}: {key} = {r[key]} outside [0, 1]")
        curve = (out / "figure3_curve.csv").read_text().splitlines()
        if len(curve) != instances + 1:
            raise ValueError(f"curve has {len(curve) - 1} points, expected {instances}")

    return validate


def _report_quality(out: Path) -> tuple[float, float]:
    report = json.loads((out / "report.json").read_text())
    return float(report["shortcut_score"]), float(report["incidence_error_rate"])


def _validate_report(out: Path) -> None:
    report = json.loads((out / "report.json").read_text())
    if report["verdict"] not in ("accepted", "rejected") or report["attempts"] != 1:
        raise ValueError(f"verdict {report['verdict']} after {report['attempts']} attempts")
    m = report["sse_count"]
    matrix = [
        [int(x) for x in line.split("\t")]
        for line in (out / "sse_incidence.tsv").read_text().splitlines()
    ]
    if matrix != report["incidence"] or len(matrix) != m:
        raise ValueError("sse_incidence.tsv disagrees with report.json")
    if any(matrix[i][j] != matrix[j][i] or matrix[i][i] for i in range(m) for j in range(m)):
        raise ValueError("SSE incidence is not symmetric with a zero diagonal")
    edges = (out / "shortcut_edges.tsv").read_text().splitlines()[1:]
    if len(edges) != report["e_selected"]:
        raise ValueError(f"{len(edges)} shortcut rows, report says {report['e_selected']}")


DESK_SIMULATIONS = 20
COLONY_SIMULATIONS = 15
SWEEP_OUTPUTS = ("benchmark_table.tsv", "figure3_curve.csv")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-sweep",
            _sweep_argv(DESK_SIMULATIONS),
            SWEEP_OUTPUTS,
            frozenset({0}),
            _sweep_quality,
            _sweep_validator(len(DESK_FRACTIONS), DESK_SIMULATIONS),
        ),
        Workload(
            "colony-sweep",
            _sweep_argv(COLONY_SIMULATIONS),
            SWEEP_OUTPUTS,
            frozenset({0}),
            _sweep_quality,
            _sweep_validator(len(COLONY_FRACTIONS), COLONY_SIMULATIONS),
        ),
        Workload(
            "predict-large",
            _predict_argv,
            ("report.json", "sse_incidence.tsv", "shortcut_edges.tsv"),
            frozenset({0, 2}),
            _report_quality,
            _validate_report,
        ),
    )
}


@dataclass
class Call:
    wall_s: float
    exit_code: Optional[int]
    digests: dict[str, Optional[str]]
    error: Optional[str] = None


def sha256(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def run_call(cli_main, workload: Workload, seed: int, work: Path) -> Call:
    """One timed CLI call in `work`, which must be the working directory.

    Stale outputs are removed first so every digest is of this call's files.
    """
    shutil.rmtree(work / OUT_DIR, ignore_errors=True)
    argv = workload.argv(seed)
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli_main(argv)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    digests = {name: sha256(work / OUT_DIR / name) for name in workload.outputs}
    return Call(wall, code, digests, error)
