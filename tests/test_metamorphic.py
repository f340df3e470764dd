"""Metamorphic checks of `predict` on real-format PDB input.

Each transformation rewrites the four-helix query file without changing
the protein it describes: its residue numbers (which need not increase
along the chain), its record order, or what the parser is documented to
skip (HETATM records, other chains, models after the first, a HELIX record
overlapping an earlier-starting one), or how it writes a methionine (as
ATOM MET or as HETATM selenomethionine, MSE).
Written under the same file name, the query must give byte-identical
`report.json`, `sse_incidence.tsv` and `shortcut_edges.tsv`.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import helix_record
from ssein.cli import main
from test_golden import _write_four_helix_family

OUTPUTS = ("report.json", "sse_incidence.tsv", "shortcut_edges.tsv")


def renumbered(text: str, number) -> str:
    """Residue numbers r mapped to number(r) in ATOM and HELIX records."""
    lines = []
    for line in text.splitlines():
        if line.startswith("ATOM  "):
            line = f"{line[:22]}{number(int(line[22:26])):4d}{line[26:]}"
        elif line.startswith("HELIX "):
            first, last = number(int(line[21:25])), number(int(line[33:37]))
            line = f"{line[:21]}{first:4d}{line[25:33]}{last:4d}{line[37:]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def helices_reversed(text: str) -> str:
    lines = text.splitlines()
    helices = [line for line in lines if line.startswith("HELIX ")]
    return "\n".join(helices[::-1] + [l for l in lines if not l.startswith("HELIX ")]) + "\n"


def with_overlapping_helix(text: str) -> str:
    """A HELIX record over residues 20-26, written before H2 (15-24): the
    earlier start keeps H2 and the extra record is skipped."""
    lines = text.splitlines()
    assert lines[1].startswith("HELIX ") and int(lines[1][21:25]) == 15  # H2
    extra = helix_record(9, "ALA", "ALA", "A", 20, 26)
    return "\n".join([lines[0], extra, *lines[1:]]) + "\n"


def before_end(text: str, extra: list[str]) -> str:
    lines = text.splitlines()
    assert lines[-1] == "END"
    return "\n".join(lines[:-1] + extra + ["END"]) + "\n"


def with_waters(text: str) -> str:
    waters = [
        f"HETATM{9000 + k:5d}  O   HOH A{200 + k:4d}    "
        f"{2.0 * k:8.3f}{-3.0:8.3f}{5.5:8.3f}  1.00  0.00           O"
        for k in range(1, 6)
    ]
    return before_end(text, waters)


def with_chain_b(text: str) -> str:
    atoms = [line for line in text.splitlines() if line.startswith("ATOM  ")][:30]
    return before_end(text, ["TER"] + [f"{line[:21]}B{line[22:]}" for line in atoms])


def with_second_model(text: str) -> str:
    lines = text.splitlines()
    head = [line for line in lines if not line.startswith(("ATOM  ", "END"))]
    atoms = [line for line in lines if line.startswith("ATOM  ")]
    shifted = [f"{line[:30]}{float(line[30:38]) + 5.0:8.3f}{line[38:]}" for line in atoms]
    models = ["MODEL        1", *atoms, "ENDMDL", "MODEL        2", *shifted, "ENDMDL"]
    return "\n".join(head + models + ["END"]) + "\n"


def selenomethionine(text: str, residue: int = 31) -> str:
    """Methionine 31, in H3, written as a HETATM MSE residue."""
    lines = []
    for line in text.splitlines():
        if line.startswith("ATOM  ") and int(line[22:26]) == residue:
            assert line[17:20] == "MET"
            line = f"HETATM{line[6:17]}MSE{line[20:]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


TRANSFORMS = {
    "renumbered_by_100": lambda text: renumbered(text, lambda r: r + 100),
    "numbering_gaps": lambda text: renumbered(text, lambda r: r + 3 * (r // 4)),
    # The H2-H3 loop numbered like a fusion insert: numbers fall back after it.
    "fusion_numbered_loop": lambda text: renumbered(
        text, lambda r: r + 1000 if 25 <= r <= 28 else r
    ),
    "helix_records_reversed": helices_reversed,
    "overlapping_helix_before_h2": with_overlapping_helix,
    "appended_waters": with_waters,
    "copied_chain_b": with_chain_b,
    "second_shifted_model": with_second_model,
    "hetatm_selenomethionine": selenomethionine,
}


def predict_outputs(directory: Path, transform=None) -> dict[str, bytes]:
    directory.mkdir()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        argv = _write_four_helix_family()
        if transform is not None:
            query = Path("q.pdb")
            query.write_text(transform(query.read_text()))
        assert main(argv) == 0
        return {name: (Path("out") / name).read_bytes() for name in OUTPUTS}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return predict_outputs(tmp_path_factory.mktemp("metamorphic") / "reference")


@pytest.mark.parametrize("name", TRANSFORMS)
def test_same_protein_same_outputs(name, reference, tmp_path):
    assert predict_outputs(tmp_path / name, TRANSFORMS[name]) == reference
