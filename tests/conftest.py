"""Shared geometry builders for the test suite.

Backbones are grown atom by atom from internal coordinates (bond length,
bond angle, torsion), so fixtures have exact, known dihedrals.  The
two-helix protein packs two ideal helices side by side with a short loop,
giving a realistic little SSE-IN with both intra and shortcut contacts.
`chain_break_protein` is one ideal helix with two residues missing.
`emit_pdb` writes a structure back as PDB text for the parse round trips.
`dominates` is the brute-force Pareto oracle and `make_ga_instance` the
planted 8-SSE instance of the GA tests.  `upper_triangle_edges` reads a
0-1 matrix back as its list of 1-based edges.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ssein.ingest import THREE_TO_ONE, ProteinStructure
from ssein.synth import PlantedInstance, make_planted_instance

# Standard backbone internal coordinates.
BOND_N_CA = 1.458
BOND_CA_C = 1.525
BOND_C_N = 1.329
ANGLE_N_CA_C = 111.2
ANGLE_CA_C_N = 116.2
ANGLE_C_N_CA = 121.7

SEQUENCE = "ALAVKLIGERMNDFYQWHST"  # cycled for fixture residue names

ONE_TO_THREE = {v: k for k, v in THREE_TO_ONE.items()}


def place_atom(a, b, c, bond_length, bond_angle_deg, torsion_deg):
    """Place d with |cd| = bond_length, angle(b,c,d) and dihedral(a,b,c,d)."""
    a, b, c = np.asarray(a, float), np.asarray(b, float), np.asarray(c, float)
    theta = math.radians(bond_angle_deg)
    chi = math.radians(torsion_deg)
    bc = c - b
    bc /= np.linalg.norm(bc)
    n = np.cross(b - a, bc)
    n /= np.linalg.norm(n)
    m = np.cross(n, bc)
    d = np.array(
        [
            -bond_length * math.cos(theta),
            bond_length * math.sin(theta) * math.cos(chi),
            bond_length * math.sin(theta) * math.sin(chi),
        ]
    )
    return c + d[0] * bc + d[1] * m + d[2] * n


def build_chain(n_res, phi=-57.0, psi=-47.0, omega=180.0):
    """Backbone (N, CA, C) per residue with constant torsions."""
    n0 = np.array([0.0, 0.0, 0.0])
    ca0 = np.array([BOND_N_CA, 0.0, 0.0])
    c0 = place_atom(np.array([0.0, 1.0, 0.0]), n0, ca0, BOND_CA_C, ANGLE_N_CA_C, 33.0)
    atoms = [(n0, ca0, c0)]
    for _ in range(1, n_res):
        n_next = place_atom(*atoms[-1], BOND_C_N, ANGLE_CA_C_N, psi)
        ca_next = place_atom(atoms[-1][1], atoms[-1][2], n_next, BOND_N_CA, ANGLE_C_N_CA, omega)
        c_next = place_atom(atoms[-1][2], n_next, ca_next, BOND_CA_C, ANGLE_N_CA_C, phi)
        atoms.append((n_next, ca_next, c_next))
    return atoms


def atom_line(serial, name, res3, chain, res_seq, xyz):
    pad = f"{name:<3s}"
    return (
        f"ATOM  {serial:5d}  {pad} {res3} {chain}{res_seq:4d}    "
        f"{xyz[0]:8.3f}{xyz[1]:8.3f}{xyz[2]:8.3f}  1.00  0.00           "
        f"{name[0]}"
    )


def helix_record(serial, res3_first, res3_last, chain, first, last):
    return (
        f"HELIX  {serial:3d} {serial:3d} {res3_first} {chain} {first:4d}  "
        f"{res3_last} {chain} {last:4d}  1"
    )


def residue_name(index):
    return ONE_TO_THREE[SEQUENCE[(index - 1) % len(SEQUENCE)]]


def chain_break_protein(records=()):
    """PDB text of an ideal 12-residue helix with residues 6 and 7 missing,
    so 5 and 8 are neighbours in the file with their C-N 3.8 Å apart;
    `records` (HELIX/SHEET lines) come first."""
    lines, serial = list(records), 0
    for res_seq, atoms in enumerate(build_chain(12), start=1):
        if res_seq in (6, 7):
            continue
        for name, xyz in zip(("N", "CA", "C"), atoms):
            serial += 1
            lines.append(atom_line(serial, name, residue_name(res_seq), "A", res_seq, xyz))
    return "\n".join(lines) + "\nEND\n"


def multi_helix_protein(n_helices=2, jitter=None, helix_len=10, loop_len=4, separation=11.0):
    """PDB text for a row of packed ideal helices joined by loops.

    Helix k sits at k * separation along the packing direction, so only
    consecutive helices are in contact range.  Returns (text, n_residues).
    `jitter` may be an np.random.Generator used to displace every atom by
    up to ~0.2 Å, producing family 'homologues'.
    """
    helix = build_chain(helix_len)
    cas = np.array([a[1] for a in helix])
    axis = cas[-1] - cas[0]
    axis /= np.linalg.norm(axis)
    perp = np.cross(axis, [0.0, 0.0, 1.0])
    perp /= np.linalg.norm(perp)
    step = perp * separation + axis * 1.0

    residues = []  # (res_seq, dict name -> xyz)
    helix_ranges = []
    seq = 0
    for h in range(n_helices):
        offset = step * h
        first = seq + 1
        for n, ca, c in helix:
            seq += 1
            residues.append((seq, {"N": n + offset, "CA": ca + offset, "C": c + offset}))
        helix_ranges.append((first, seq))
        if h < n_helices - 1:
            anchor_a = helix[-1][1] + offset
            anchor_b = helix[0][1] + step * (h + 1)
            for i in range(1, loop_len + 1):
                seq += 1
                t = i / (loop_len + 1)
                ca = (
                    anchor_a
                    + (anchor_b - anchor_a) * t
                    + np.array([0.0, 0.0, 3.0 * math.sin(math.pi * t)])
                )
                residues.append((seq, {"CA": ca}))

    if jitter is not None:
        residues = [
            (rs, {name: xyz + jitter.uniform(-0.2, 0.2, size=3) for name, xyz in atoms.items()})
            for rs, atoms in residues
        ]

    lines = [
        helix_record(k, residue_name(first), residue_name(last), "A", first, last)
        for k, (first, last) in enumerate(helix_ranges, start=1)
    ]
    serial = 0
    for res_seq, atoms in residues:
        for name in ("N", "CA", "C"):
            if name in atoms:
                serial += 1
                lines.append(atom_line(serial, name, residue_name(res_seq), "A", res_seq, atoms[name]))
    lines.append("END")
    return "\n".join(lines) + "\n", seq


def two_helix_protein(jitter=None, helix_len=10, loop_len=4, separation=11.0):
    return multi_helix_protein(2, jitter, helix_len, loop_len, separation)


def write_family(tmp_path: Path, n_templates: int = 3, seed: int = 9) -> tuple[Path, Path]:
    """Write a query PDB plus a jittered template family; returns
    (query_path, index_path)."""
    rng = np.random.default_rng(seed)
    query_text, _ = two_helix_protein()
    query_path = tmp_path / "query.pdb"
    query_path.write_text(query_text)
    index_lines = []
    for t in range(1, n_templates + 1):
        text, _ = two_helix_protein(jitter=rng)
        path = tmp_path / f"tmpl{t}.pdb"
        path.write_text(text)
        index_lines.append(f"tmpl{t}\t{path.name}\t2")
    index_path = tmp_path / "family.tsv"
    index_path.write_text("# protein_id\tpath\tsse_count\n" + "\n".join(index_lines) + "\n")
    return query_path, index_path


def emit_pdb(structure: ProteinStructure) -> str:
    """Canonical PDB text for a structure: HELIX/SHEET records, then Cα ATOMs.

    parse_pdb_detailed of the emitted text reproduces the structure (coordinates are
    written at the format's native 3-decimal precision).
    """
    lines: list[str] = []
    helix_no = 0
    sheet_no = 0
    for a in structure.sse_list:
        first = structure.residues[a.first_residue - 1]
        last = structure.residues[a.last_residue - 1]
        if a.kind == "helix":
            helix_no += 1
            lines.append(
                f"HELIX  {helix_no:3d} {helix_no:3d} {ONE_TO_THREE[first.code]} A "
                f"{a.first_residue:4d}  {ONE_TO_THREE[last.code]} A {a.last_residue:4d}  1"
            )
        else:
            sheet_no += 1
            lines.append(
                f"SHEET  {sheet_no:3d} {sheet_no:3d} 1 {ONE_TO_THREE[first.code]} A"
                f"{a.first_residue:4d}  {ONE_TO_THREE[last.code]} A{a.last_residue:4d} 0"
            )
    for r in structure.residues:
        x, y, z = r.ca
        lines.append(
            f"ATOM  {r.index:5d}  CA  {ONE_TO_THREE[r.code]} A{r.index:4d}    "
            f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
        )
    lines.append("END")
    return "\n".join(lines) + "\n"


def dominates(a, b) -> bool:
    """Pareto dominance with all objectives minimized."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def make_ga_instance(rng: np.random.Generator) -> PlantedInstance:
    """The shipped 8-SSE instance used by the GA quality check."""
    return make_planted_instance(
        "ga8", (9, 8, 10, 9, 8, 10, 9, 8), rng, shortcuts_per_pair=2, boost_fraction=1.0
    )


def upper_triangle_edges(matrix: np.ndarray) -> list[tuple[int, int]]:
    """Nonzero upper-triangle cells of a square matrix as 1-based (i, j)
    pairs with i < j, in row-major order."""
    rows, cols = np.nonzero(matrix)
    return [(i + 1, j + 1) for i, j in zip(rows.tolist(), cols.tolist()) if i < j]
