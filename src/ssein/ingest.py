"""Structure-file and family-index ingestion.

Parses fixed-column PDB text (ATOM / HELIX / SHEET records, and HETATM
selenomethionine) in one pass into validated records: per residue its
index, one-letter code and N / Cα / C atoms (N and C may be missing), per
secondary structure element an `SseAnnotation` whose inclusive residue
range is the one record of SSE membership (no residue carries an SSE
label).  Features derived from these (backbone dihedrals, Kyte-Doolittle
hydrophobicity) are computed by their one consumer, the GA's
`SseContext.from_structure`, for SSE members only.  Only the first chain and
the first model of a file are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

Vec3 = tuple[float, float, float]

# Kyte-Doolittle hydropathy values for the 20 standard residues.
KYTE_DOOLITTLE: dict[str, float] = {
    "A": 1.8, "R": -4.5, "N": -3.5, "D": -3.5, "C": 2.5,
    "Q": -3.5, "E": -3.5, "G": -0.4, "H": -3.2, "I": 4.5,
    "L": 3.8, "K": -3.9, "M": 1.9, "F": 2.8, "P": -1.6,
    "S": -0.8, "T": -0.7, "W": -0.9, "Y": -1.3, "V": 4.2,
}

THREE_TO_ONE: dict[str, str] = {
    "ALA": "A", "ARG": "R", "ASN": "N", "ASP": "D", "CYS": "C",
    "GLN": "Q", "GLU": "E", "GLY": "G", "HIS": "H", "ILE": "I",
    "LEU": "L", "LYS": "K", "MET": "M", "PHE": "F", "PRO": "P",
    "SER": "S", "THR": "T", "TRP": "W", "TYR": "Y", "VAL": "V",
}


class PdbParseError(ValueError):
    """Malformed structure-file record; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyStructureError(ValueError):
    """Structure text contained no usable Cα atoms."""


class FamilyIndexError(ValueError):
    """Malformed or degenerate family index file."""


def assign_hydrophobicity(code: str) -> float:
    """Kyte-Doolittle hydropathy for a standard one-letter residue code."""
    return KYTE_DOOLITTLE[code]


@dataclass(frozen=True)
class Residue:
    """One residue: sequence position, identity and backbone atoms.  The Cα
    is always there; the N and C may be missing (a Cα-only residue)."""

    index: int
    code: str
    ca: Vec3
    n: Optional[Vec3] = None
    c: Optional[Vec3] = None

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"residue index must be >= 1, got {self.index}")
        if self.code not in KYTE_DOOLITTLE:
            raise ValueError(f"unknown amino-acid code {self.code!r}")
        for name, xyz in (("Cα", self.ca), ("N", self.n), ("C", self.c)):
            if xyz is None and name != "Cα":
                continue
            if len(xyz) != 3 or not all(map(math.isfinite, xyz)):
                raise ValueError(f"non-finite {name} coordinates for residue {self.index}")


@dataclass(frozen=True)
class SseAnnotation:
    """A helix or strand covering an inclusive residue-index range."""

    sse_id: str
    kind: str  # "helix" | "strand"
    first_residue: int
    last_residue: int

    def __post_init__(self):
        if self.kind not in ("helix", "strand"):
            raise ValueError(f"kind must be helix or strand, got {self.kind!r}")
        if self.first_residue > self.last_residue:
            raise ValueError(
                f"SSE {self.sse_id}: first {self.first_residue} > last {self.last_residue}"
            )


@dataclass(frozen=True)
class ProteinStructure:
    id: str
    residues: tuple[Residue, ...]
    sse_list: tuple[SseAnnotation, ...]

    def __post_init__(self):
        indices = [r.index for r in self.residues]
        if indices != list(range(1, len(indices) + 1)):
            raise ValueError("residue indices must be contiguous starting at 1")
        previous_last = 0
        for a in self.sse_list:
            # Chain order from residue 1 on, as the SSE-IN and the GA read it.
            if not previous_last < a.first_residue:
                raise ValueError(
                    f"SSE {a.sse_id} range ({a.first_residue}, {a.last_residue}) "
                    "does not follow the previous SSE"
                )
            if a.last_residue > len(self.residues):
                raise ValueError(f"SSE {a.sse_id} range exceeds residue count")
            previous_last = a.last_residue


@dataclass(frozen=True)
class FamilyEntry:
    protein_id: str
    path: str
    sse_count: int


@dataclass(frozen=True)
class FamilyIndex:
    """A parsed family index; `load_family_index` validates the entries."""

    family_id: str
    entries: tuple[FamilyEntry, ...]


@dataclass(frozen=True)
class PdbParseResult:
    """Full parse output: the structure and what the parser left out."""

    structure: ProteinStructure
    dropped_residues: int = 0
    skipped_annotations: int = 0


# SSE record -> (kind, chain column, initial-residue columns); both records
# have the final residue in columns 34-37.
SSE_RECORDS = {
    "HELIX": ("helix", 19, slice(21, 25)),
    "SHEET": ("strand", 21, slice(22, 26)),
}


def _parse_number(kind: type, text: str, line_no: int, what: str) -> int | float:
    try:
        return kind(text)
    except ValueError:
        raise PdbParseError(line_no, f"cannot parse {what} from {text.strip()!r}") from None


def parse_pdb_detailed(text: str, protein_id: str = "unknown") -> PdbParseResult:
    """Parse PDB text into a structure and its drop counters.

    First chain, first model only.  A residue enters the structure iff it has
    a Cα atom and a standard residue name; others are counted and dropped.
    Selenomethionine (``MSE``), as an ATOM or a HETATM record, is read as
    methionine ``M`` with its N/Cα/C atoms; waters, ligands and every other
    HETATM record are skipped, uncounted.
    Of alternate locations (column 17) only blank and ``A`` are read, so a
    residue with other locations only is dropped; a residue insertion code
    (column 27) raises PdbParseError, since it would merge two residues
    under one number, and so does a residue number that comes back after
    another residue (a second chain under the same chain id), or a
    non-finite coordinate of an N / Cα / C atom that is read.  Residue
    numbers need not increase along the chain.  An SSE record covers the
    kept residues numbered within its [initial, final] range.  Of
    overlapping ranges a helix wins, then the earlier start (then the
    earlier end), whatever the record order; SSEs are named H1, H2, ... and
    S1, S2, ... along the chain.
    """
    # Residue number -> atom name -> xyz, in file order.
    atoms: dict[int, dict[str, Vec3]] = {}
    resnames: dict[int, str] = {}
    records: list[tuple[str, int, int, str]] = []  # (kind, first, last, chain)
    chain: Optional[str] = None
    current: Optional[int] = None
    past_first_model = False

    for line_no, line in enumerate(text.splitlines(), start=1):
        record = line[:6]
        sse = SSE_RECORDS.get(line[:5])
        if record == "ENDMDL":
            past_first_model = True
        elif sse is not None:
            kind, chain_col, first_cols = sse
            tag = line[:5]
            if len(line) < 37:
                raise PdbParseError(line_no, f"{tag} record too short")
            first = _parse_number(int, line[first_cols], line_no, f"{tag} initial residue")
            last = _parse_number(int, line[33:37], line_no, f"{tag} final residue")
            records.append((kind, first, last, line[chain_col]))
        elif record in ("ATOM  ", "HETATM") and not past_first_model:
            if record == "HETATM" and line[17:20] != "MSE":
                continue
            if len(line) < 54:
                raise PdbParseError(line_no, f"{record.strip()} record too short")
            atom_chain = line[21]
            if chain is None:
                chain = atom_chain
            if atom_chain != chain:
                continue
            if line[26] != " ":
                raise PdbParseError(line_no, f"insertion code {line[26]!r} is not supported")
            name = line[12:16].strip()
            if name not in ("N", "CA", "C"):
                continue
            res_seq = _parse_number(int, line[22:26], line_no, "residue number")
            x = _parse_number(float, line[30:38], line_no, "x coordinate")
            y = _parse_number(float, line[38:46], line_no, "y coordinate")
            z = _parse_number(float, line[46:54], line_no, "z coordinate")
            if res_seq != current:
                if res_seq in atoms:
                    raise PdbParseError(
                        line_no, f"residue number {res_seq} comes back after another residue"
                    )
                atoms[res_seq] = {}
                current = res_seq
            if line[16] in " A" and name not in atoms[res_seq]:
                if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                    raise PdbParseError(
                        line_no, f"non-finite {name} coordinates for residue {res_seq}"
                    )
                resname = line[17:20].strip()
                resnames.setdefault(res_seq, "MET" if resname == "MSE" else resname)
                atoms[res_seq][name] = (x, y, z)

    residues: list[Residue] = []
    numbers: list[int] = []  # residue number of each kept residue
    for res_seq, entry in atoms.items():
        code = THREE_TO_ONE.get(resnames.get(res_seq))
        if code is None or "CA" not in entry:
            continue
        residues.append(
            Residue(len(residues) + 1, code, entry["CA"], entry.get("N"), entry.get("C"))
        )
        numbers.append(res_seq)
    if not residues:
        raise EmptyStructureError(f"{protein_id}: no Cα atoms found")

    spans: list[tuple[int, int, str]] = []
    covered: set[int] = set()
    # Helices first ("helix" < "strand"), each kind in (first, last) order,
    # so a helix, then the earlier start, wins an overlap.
    for kind, first_seq, last_seq, rec_chain in sorted(records):
        if rec_chain not in (" ", chain):
            continue
        members = [i for i, r in enumerate(numbers, start=1) if first_seq <= r <= last_seq]
        if not members:
            continue
        span = range(min(members), max(members) + 1)
        if not covered.isdisjoint(span):
            continue
        spans.append((span.start, span.stop - 1, kind))
        covered.update(span)
    # Gene positions follow chain order: SSEs sort and number by position.
    annotations: list[SseAnnotation] = []
    counters = {"helix": 0, "strand": 0}
    for first, last, kind in sorted(spans):
        counters[kind] += 1
        sse_id = ("H" if kind == "helix" else "S") + str(counters[kind])
        annotations.append(SseAnnotation(sse_id, kind, first, last))

    structure = ProteinStructure(protein_id, tuple(residues), tuple(annotations))
    return PdbParseResult(structure, len(atoms) - len(residues), len(records) - len(spans))


def _sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dihedral_angle(p0: Vec3, p1: Vec3, p2: Vec3, p3: Vec3) -> float:
    """Signed dihedral of the p0-p1-p2-p3 chain, in degrees in [-180, 180]."""
    b0 = _sub(p0, p1)
    b1 = _sub(p2, p1)
    b2 = _sub(p3, p2)
    norm = math.sqrt(_dot(b1, b1))
    if norm == 0.0:
        raise ValueError("degenerate dihedral: coincident central atoms")
    b1 = (b1[0] / norm, b1[1] / norm, b1[2] / norm)
    t0 = _dot(b0, b1)
    t2 = _dot(b2, b1)
    v = _sub(b0, (t0 * b1[0], t0 * b1[1], t0 * b1[2]))
    w = _sub(b2, (t2 * b1[0], t2 * b1[1], t2 * b1[2]))
    x = _dot(v, w)
    y = _dot(_cross(b1, v), w)
    return math.degrees(math.atan2(y, x))


# Longest C(i-1)-N(i) distance read as a peptide bond, in Å: the bond is
# 1.33 Å, and residues further apart sit across a chain break.
PEPTIDE_BOND_MAX = 2.5


def backbone_dihedrals(
    residues: Sequence[Residue], index: int
) -> tuple[Optional[float], Optional[float]]:
    """(phi, psi) of residue `index` of the chain `residues`; None where absent.

    phi(i) uses C(i-1), N(i), Cα(i), C(i); psi(i) uses N(i), Cα(i), C(i),
    N(i+1).  A missing atom or neighbour (the chain ends) leaves that angle
    unset, and so does a chain break: an angle is computed only across a
    C-N peptide bond of at most PEPTIDE_BOND_MAX.
    """
    here = residues[index - 1]
    if here.n is None or here.c is None:
        return None, None
    prev_c = residues[index - 2].c if index > 1 else None
    next_n = residues[index].n if index < len(residues) else None
    phi = psi = None
    if prev_c is not None and math.dist(prev_c, here.n) <= PEPTIDE_BOND_MAX:
        phi = dihedral_angle(prev_c, here.n, here.ca, here.c)
    if next_n is not None and math.dist(here.c, next_n) <= PEPTIDE_BOND_MAX:
        psi = dihedral_angle(here.n, here.ca, here.c, next_n)
    return phi, psi


def load_family_index(text: str, family_id: str = "family") -> FamilyIndex:
    """Parse a TSV family index: ``protein_id<TAB>path<TAB>sse_count`` lines.

    Blank lines and ``#`` comments are skipped.  Raises FamilyIndexError on
    malformed counts (with the line number), duplicates, or an empty index.
    """
    entries: list[FamilyEntry] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FamilyIndexError(f"line {line_no}: expected 3 tab-separated fields")
        protein_id, path, count_text = (p.strip() for p in parts)
        try:
            sse_count = int(count_text)
        except ValueError:
            raise FamilyIndexError(
                f"line {line_no}: sse_count {count_text!r} is not an integer"
            ) from None
        if sse_count < 1:
            raise FamilyIndexError(f"line {line_no}: sse_count must be >= 1")
        if protein_id in seen:
            raise FamilyIndexError(f"line {line_no}: duplicate protein_id {protein_id!r}")
        seen.add(protein_id)
        entries.append(FamilyEntry(protein_id, path, sse_count))
    if not entries:
        raise FamilyIndexError("family index has no entries")
    return FamilyIndex(family_id, tuple(entries))
