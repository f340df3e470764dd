"""Input generators for the benchmark workloads.

Each writer takes the workload seed, and one seed always gives the same
files.  The program under test only ever sees these files:

* a benchmark manifest (planted instances, `ssein benchmark`), or
* a query PDB plus a jittered template family and its index
  (`ssein predict`).

Structures are rows of ideal alpha helices grown atom by atom from
backbone internal coordinates and joined by Calpha-only loops.  Helix k
sits k * SEPARATION along the packing direction, so only consecutive
helices are in contact range.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Backbone internal coordinates (Engh & Huber).
BOND_N_CA, BOND_CA_C, BOND_C_N = 1.458, 1.525, 1.329
ANGLE_N_CA_C, ANGLE_CA_C_N, ANGLE_C_N_CA = 111.2, 116.2, 121.7
PHI, PSI, OMEGA = -57.0, -47.0, 180.0  # ideal alpha helix
LOOP_LEN = 4  # Calpha-only residues between consecutive helices
SEPARATION = 11.0  # A between helix axes: only neighbours are in contact
RESIDUES = (
    "ALA LEU VAL LYS ILE GLY GLU ARG MET ASN ASP PHE TYR GLN TRP HIS SER THR".split()
)

# The README's boost sweep: one 8-SSE instance per boost fraction.
DESK_SIZES = (9, 8, 10, 9, 8, 10, 9, 8)
DESK_FRACTIONS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
# Two colony-heavy instances: 8 SSEs of 19-22 residues, 3 shortcuts per pair.
COLONY_SIZES = (20, 21, 19, 22, 20, 21, 19, 22)
COLONY_FRACTIONS = (0.8, 1.0)
# A 572-residue query: 24 helices of 20 residues, against 25 templates.
PREDICT_HELICES, PREDICT_HELIX_LEN, PREDICT_TEMPLATES = 24, 20, 25


def _place(a, b, c, bond, angle_deg, torsion_deg):
    """Atom d with |cd| = bond, angle(b, c, d) and dihedral(a, b, c, d)."""
    theta, chi = math.radians(angle_deg), math.radians(torsion_deg)
    bc = (c - b) / np.linalg.norm(c - b)
    n = np.cross(b - a, bc)
    n /= np.linalg.norm(n)
    m = np.cross(n, bc)
    return c + bond * (
        -math.cos(theta) * bc
        + math.sin(theta) * math.cos(chi) * m
        + math.sin(theta) * math.sin(chi) * n
    )


def ideal_helix(n_res: int) -> np.ndarray:
    """(n_res, 3, 3) array of N, CA, C positions with alpha-helix torsions."""
    n0 = np.zeros(3)
    ca0 = np.array([BOND_N_CA, 0.0, 0.0])
    c0 = _place(np.array([0.0, 1.0, 0.0]), n0, ca0, BOND_CA_C, ANGLE_N_CA_C, 33.0)
    atoms = [(n0, ca0, c0)]
    for _ in range(1, n_res):
        n_prev, ca_prev, c_prev = atoms[-1]
        n = _place(n_prev, ca_prev, c_prev, BOND_C_N, ANGLE_CA_C_N, PSI)
        ca = _place(ca_prev, c_prev, n, BOND_N_CA, ANGLE_C_N_CA, OMEGA)
        c = _place(c_prev, n, ca, BOND_CA_C, ANGLE_N_CA_C, PHI)
        atoms.append((n, ca, c))
    return np.array(atoms)


def helix_row_pdb(
    n_helices: int, helix_len: int, jitter: np.random.Generator | None = None
) -> str:
    """PDB text for `n_helices` packed helices joined by loops.

    With `jitter`, every atom moves by up to 0.2 A per axis, which makes a
    family homologue of the unjittered structure.
    """
    helix = ideal_helix(helix_len)
    cas = helix[:, 1]
    axis = (cas[-1] - cas[0]) / np.linalg.norm(cas[-1] - cas[0])
    perp = np.cross(axis, [0.0, 0.0, 1.0])
    perp /= np.linalg.norm(perp)
    step = perp * SEPARATION + axis

    residues: list[tuple[str, ...]] = []  # atom names per residue
    coords: list[np.ndarray] = []
    helix_ranges = []
    for h in range(n_helices):
        first = len(residues) + 1
        for atoms in helix:
            residues.append(("N", "CA", "C"))
            coords.extend(atoms + step * h)
        helix_ranges.append((first, len(residues)))
        if h < n_helices - 1:
            start, end = helix[-1, 1] + step * h, helix[0, 1] + step * (h + 1)
            for i in range(1, LOOP_LEN + 1):
                t = i / (LOOP_LEN + 1)
                lift = np.array([0.0, 0.0, 3.0 * math.sin(math.pi * t)])
                residues.append(("CA",))
                coords.append(start + (end - start) * t + lift)
    xyz = np.array(coords)
    if jitter is not None:
        xyz = xyz + jitter.uniform(-0.2, 0.2, size=xyz.shape)

    def name3(res_seq: int) -> str:
        return RESIDUES[(res_seq - 1) % len(RESIDUES)]

    lines = [
        f"HELIX  {k:3d} {k:3d} {name3(first)} A {first:4d}  {name3(last)} A {last:4d}  1"
        for k, (first, last) in enumerate(helix_ranges, start=1)
    ]
    serial = 0
    for res_seq, names in enumerate(residues, start=1):
        for name in names:
            x, y, z = xyz[serial]
            serial += 1
            lines.append(
                f"ATOM  {serial:5d}  {name:<3s} {name3(res_seq)} A{res_seq:4d}    "
                f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           {name[0]}"
            )
    lines.append("END")
    return "\n".join(lines) + "\n"


def sweep_manifest(
    prefix: str,
    sizes: tuple[int, ...],
    fractions: tuple[float, ...],
    base_gen_seed: int,
    shortcuts_per_pair: int | None = None,
) -> str:
    """Manifest text: one planted instance per boost fraction, generator
    seeds counting up from `base_gen_seed`."""
    rows = ["# instance_id\tgen_seed\tsse_sizes\tboost_fraction\t[shortcuts_per_pair]"]
    size_text = ",".join(str(s) for s in sizes)
    for i, frac in enumerate(fractions):
        fields = [f"{prefix}-{round(frac * 100)}", str(base_gen_seed + i), size_text, str(frac)]
        if shortcuts_per_pair is not None:
            fields.append(str(shortcuts_per_pair))
        rows.append("\t".join(fields))
    return "\n".join(rows) + "\n"


def write_desk_sweep(out: Path, seed: int) -> None:
    # Always the README manifest (generator seeds 100..105): the workload
    # seed reaches this workload as the run's master seed, which drives the
    # GA and every colony.  Other instances would change the work per run
    # by up to a third and hide regressions in the spread.
    (out / "manifest.tsv").write_text(
        sweep_manifest("sweep", DESK_SIZES, DESK_FRACTIONS, 100)
    )


def write_colony_sweep(out: Path, seed: int) -> None:
    base = 5000 + len(COLONY_FRACTIONS) * seed
    (out / "manifest.tsv").write_text(
        sweep_manifest("colony", COLONY_SIZES, COLONY_FRACTIONS, base, shortcuts_per_pair=3)
    )


def write_predict_large(out: Path, seed: int) -> None:
    """Unjittered query plus its homologues, jittered from `seed`."""
    rng = np.random.default_rng(seed)
    (out / "query.pdb").write_text(helix_row_pdb(PREDICT_HELICES, PREDICT_HELIX_LEN))
    index = ["# protein_id\tpath\tsse_count"]
    for t in range(1, PREDICT_TEMPLATES + 1):
        name = f"tmpl{t:02d}.pdb"
        (out / name).write_text(helix_row_pdb(PREDICT_HELICES, PREDICT_HELIX_LEN, rng))
        index.append(f"tmpl{t:02d}\t{name}\t{PREDICT_HELICES}")
    (out / "family.tsv").write_text("\n".join(index) + "\n")


WRITERS = {
    "desk-sweep": write_desk_sweep,
    "colony-sweep": write_colony_sweep,
    "predict-large": write_predict_large,
}


def write_inputs(workload: str, seed: int, out: Path) -> None:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    out.mkdir(parents=True, exist_ok=True)
    WRITERS[workload](out, seed)
