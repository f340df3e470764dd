"""Golden sha256 digests of the output files for fixed seeds.

Reruns agreeing with each other (criterion 11) cannot tell a refactor that
keeps the outputs from one that changes them for every run alike; these
digests can.  Every case runs in a fresh working directory with relative
paths, because report.json echoes the paths it was given.  A digest is
only re-recorded when an output is changed on purpose.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import multi_helix_protein, two_helix_protein
from ssein.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The README's boost sweep: one 8-SSE instance per boost fraction.
DESK_MANIFEST = ROOT / "manifests" / "desk_sweep.tsv"
# The README's desk benchmark run (20 simulations, the benchmark default).
DESK_ARGV = ["benchmark", "--manifest", str(DESK_MANIFEST), "--seed", "7", "--out", "bench_out"]
# numpy's dispatch targets above its X86_V2 baseline (AVX2, AVX-512)
SIMD_ABOVE_BASELINE = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
# Checks in the child that the targets are really off before running the
# CLI; on a machine without these targets the check holds trivially.
NARROWED_PREDICT = (
    "import sys\n"
    "from numpy._core._multiarray_umath import __cpu_features__\n"
    "assert not any(__cpu_features__.get(f) for f in sys.argv[1].split()), 'SIMD still on'\n"
    "from ssein.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)

DESK_MANIFEST_SHA256 = "1e2e02cf2ee632b39ffbdac8911295ccc98bb0eb307ce371d20d895ffaa9f83a"
DESK_SWEEP = {
    "benchmark_table.tsv": "d203d0a986fb0ad197746968bba164b9da328e3fdee82dbb4878d40f098ae3de",
    "figure3_curve.csv": "fd64dc97845500e431b78797b1a967ede2bf0a8867f25a0266f56bcafe5876ef",
}
FOUR_HELIX_ACCEPTED = {
    "report.json": "b2f6e1efad2ea9eb4ec2cf3bd0b0b18252f4077111f950092c09024264ce6fbb",
    "sse_incidence.tsv": "44bccd49318560974ae1f45e6a065206181f9cb0cba1b455c818a7e2d3be6d19",
    "shortcut_edges.tsv": "c82825118d15aec4e7001fb86d966eaa5f47e06d9d999170eac9fa87e0a40e4c",
}
FAR_HELIX_REJECTED = {
    "report.json": "c02e5b02e19f1e2c86bdff0e8c4800fae73c9d75ecedc2d7e87adf84709a8a71",
    "sse_incidence.tsv": "b94354236cbc73b342a7624bd1d596b56bb068bdf40918c27d9c017c8a11e58d",
    "shortcut_edges.tsv": "dc20d80e2eaedf5528b6125945d9a14fc2a30c97f6a3d4115a8c5e4866f63e39",
}


def _digests(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _write_index(count: int, sse_count: int) -> str:
    return "".join(f"t{t}\tt{t}.pdb\t{sse_count}\n" for t in range(1, count + 1))


def test_desk_sweep_script_digests(tmp_path, monkeypatch):
    """README sweep: the committed manifest, seed 7, 20 simulations."""
    monkeypatch.chdir(tmp_path)
    assert hashlib.sha256(DESK_MANIFEST.read_bytes()).hexdigest() == DESK_MANIFEST_SHA256
    assert main(DESK_ARGV) == 0
    assert _digests(Path("bench_out"), DESK_SWEEP) == DESK_SWEEP


def _write_four_helix_family() -> list[str]:
    """The four-helix query and family in the working directory; returns
    the predict arguments."""
    text, _ = multi_helix_protein(4)
    Path("q.pdb").write_text(text)
    rng = np.random.default_rng(3)
    for t in range(1, 4):
        Path(f"t{t}.pdb").write_text(multi_helix_protein(4, jitter=rng)[0])
    Path("fam.tsv").write_text(_write_index(3, 4))
    return ["predict", "--pdb", "q.pdb", "--family", "fam.tsv",
            "--seed", "13", "--simulations", "10", "--out", "out"]


def test_four_helix_accepted_on_second_attempt(tmp_path, monkeypatch):
    """Early stop: the report describes the first accepted attempt."""
    monkeypatch.chdir(tmp_path)
    code = main(_write_four_helix_family())
    assert code == 0
    report = json.loads(Path("out/report.json").read_text())
    assert (report["verdict"], report["attempts"]) == ("accepted", 2)
    assert _digests(Path("out"), FOUR_HELIX_ACCEPTED) == FOUR_HELIX_ACCEPTED


def test_far_helix_rejected_reports_last_attempt(tmp_path, monkeypatch):
    """No attempt passes the gate: the report describes the last one."""
    monkeypatch.chdir(tmp_path)
    Path("far.pdb").write_text(two_helix_protein(separation=30.0, helix_len=6)[0])
    rng = np.random.default_rng(1)
    for t in range(1, 4):
        text, _ = two_helix_protein(jitter=rng, separation=7.5, helix_len=6)
        Path(f"t{t}.pdb").write_text(text)
    Path("fam.tsv").write_text(_write_index(3, 2))
    code = main(
        ["predict", "--pdb", "far.pdb", "--family", "fam.tsv",
         "--seed", "1", "--simulations", "5", "--out", "out"]
    )
    assert code == 2
    report = json.loads(Path("out/report.json").read_text())
    assert (report["verdict"], report["attempts"]) == ("rejected", 5)
    assert _digests(Path("out"), FAR_HELIX_REJECTED) == FAR_HELIX_REJECTED


def _run_without_wide_simd(argv) -> None:
    """Run the CLI in a child where numpy may not dispatch to AVX2 or
    AVX-512 and OpenBLAS runs its oldest x86-64 kernels."""
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": SIMD_ABOVE_BASELINE,
        "OPENBLAS_CORETYPE": "Prescott",
        "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
    }
    child = subprocess.run(
        [sys.executable, "-c", NARROWED_PREDICT, SIMD_ABOVE_BASELINE, *argv],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr


def test_four_helix_digests_without_wide_simd(tmp_path, monkeypatch):
    """The same bytes without wide SIMD or newer BLAS kernels: the float
    paths depend neither on the x86 SIMD level nor on the BLAS kernel."""
    monkeypatch.chdir(tmp_path)
    _run_without_wide_simd(_write_four_helix_family())
    assert _digests(Path("out"), FOUR_HELIX_ACCEPTED) == FOUR_HELIX_ACCEPTED


def test_desk_sweep_digests_without_wide_simd(tmp_path, monkeypatch):
    """The README sweep's bytes without wide SIMD: the colonies' padded
    transition pass computes each exp in another SIMD lane than an
    unpadded one would, and must give the same bits at any lane width."""
    monkeypatch.chdir(tmp_path)
    _run_without_wide_simd(DESK_ARGV)
    assert _digests(Path("bench_out"), DESK_SWEEP) == DESK_SWEEP
