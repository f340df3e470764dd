import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    atom_line,
    build_chain,
    chain_break_protein,
    emit_pdb,
    helix_record,
    residue_name,
    two_helix_protein,
)
from ssein.ingest import (
    EmptyStructureError,
    FamilyIndexError,
    PdbParseError,
    ProteinStructure,
    Residue,
    SseAnnotation,
    assign_hydrophobicity,
    backbone_dihedrals,
    dihedral_angle,
    load_family_index,
    parse_pdb_detailed,
)


def _ca_text(coords, start=1):
    lines = [
        atom_line(i + 1, "CA", residue_name(start + i), "A", start + i, xyz)
        for i, xyz in enumerate(coords)
    ]
    return "\n".join(lines) + "\n"


class TestParsePdb:
    def test_minimal_two_residues(self):
        text = _ca_text([(0.0, 0.0, 0.0), (3.8, 0.0, 0.0)])
        structure = parse_pdb_detailed(text).structure
        assert len(structure.residues) == 2
        assert structure.residues[0].ca == (0.0, 0.0, 0.0)
        assert structure.residues[1].ca == (3.8, 0.0, 0.0)
        assert structure.residues[0].index == 1

    def test_helix_record_size(self):
        text = helix_record(1, residue_name(2), residue_name(5), "A", 2, 5) + "\n"
        text += _ca_text([(float(i), 0.0, 0.0) for i in range(6)])
        structure = parse_pdb_detailed(text).structure
        assert len(structure.sse_list) == 1
        helix = structure.sse_list[0]
        assert helix.kind == "helix"
        assert (helix.first_residue, helix.last_residue) == (2, 5)

    def test_realistic_two_helix_file(self):
        text, n = two_helix_protein()
        structure = parse_pdb_detailed(text).structure
        assert len(structure.residues) == n
        assert len(structure.sse_list) >= 1
        assert {a.kind for a in structure.sse_list} == {"helix"}

    def test_malformed_coordinate_names_line(self):
        good = _ca_text([(0.0, 0.0, 0.0), (3.8, 0.0, 0.0)])
        lines = good.splitlines()
        lines[1] = lines[1][:30] + "   xx.xxx" + lines[1][39:]
        with pytest.raises(PdbParseError) as err:
            parse_pdb_detailed("\n".join(lines))
        assert err.value.line_number == 2

    def test_no_ca_atoms(self):
        with pytest.raises(EmptyStructureError):
            parse_pdb_detailed("REMARK nothing here\nEND\n")

    def test_altloc_first_occurrence_wins(self):
        line_a = atom_line(1, "CA", "ALA", "A", 1, (1.0, 0.0, 0.0))
        line_b = atom_line(2, "CA", "ALA", "A", 1, (9.0, 0.0, 0.0))
        line_a = line_a[:16] + "A" + line_a[17:]
        line_b = line_b[:16] + "B" + line_b[17:]
        structure = parse_pdb_detailed(line_a + "\n" + line_b + "\n").structure
        assert len(structure.residues) == 1
        assert structure.residues[0].ca == (1.0, 0.0, 0.0)

    def test_altloc_b_before_a_reads_a(self):
        line_b = atom_line(1, "CA", "ALA", "A", 1, (9.0, 0.0, 0.0))
        line_a = atom_line(2, "CA", "ALA", "A", 1, (1.0, 0.0, 0.0))
        line_b = line_b[:16] + "B" + line_b[17:]
        line_a = line_a[:16] + "A" + line_a[17:]
        structure = parse_pdb_detailed(line_b + "\n" + line_a + "\n").structure
        assert len(structure.residues) == 1
        assert structure.residues[0].ca == (1.0, 0.0, 0.0)

    def test_residue_with_altloc_b_only_is_dropped_and_counted(self):
        text = _ca_text([(0.0, 0.0, 0.0), (3.8, 0.0, 0.0), (7.6, 0.0, 0.0)])
        lines = text.splitlines()
        lines[1] = lines[1][:16] + "B" + lines[1][17:]
        result = parse_pdb_detailed("\n".join(lines) + "\n")
        assert [r.ca for r in result.structure.residues] == [(0.0, 0.0, 0.0), (7.6, 0.0, 0.0)]
        assert result.dropped_residues == 1

    def test_insertion_code_names_the_line(self):
        lines = [
            atom_line(1, "CA", "ALA", "A", 52, (0.0, 0.0, 0.0)),
            atom_line(2, "CA", "GLY", "A", 52, (3.8, 0.0, 0.0)),
        ]
        lines[1] = lines[1][:26] + "A" + lines[1][27:]  # residue 52A
        with pytest.raises(PdbParseError, match="insertion code") as err:
            parse_pdb_detailed("\n".join(lines) + "\n")
        assert err.value.line_number == 2

    def test_residue_number_coming_back_names_the_line(self):
        # two chains under a blank chain id: 1-6, TER, then 1-9 again
        chains = [
            [atom_line(r, "CA", "ALA", " ", r, (3.8 * r, 0.0, 0.0)) for r in range(1, 7)],
            [atom_line(6 + r, "CA", "GLY", " ", r, (3.8 * r, 9.0, 0.0)) for r in range(1, 10)],
        ]
        text = "\n".join([*chains[0], "TER", *chains[1]]) + "\n"
        with pytest.raises(PdbParseError, match="residue number 1 comes back") as err:
            parse_pdb_detailed(text)
        assert err.value.line_number == 8

    def test_decreasing_residue_numbers_read_in_file_order(self):
        # a fusion insert numbered 1001-1004 inside a host chain 1-8
        numbers = [1, 2, 3, 1001, 1002, 1003, 1004, 4, 5, 6, 7, 8]
        lines = [
            helix_record(1, "ALA", "ALA", "A", 1002, 1004),
            helix_record(2, "ALA", "ALA", "A", 2, 5),
            *(
                atom_line(k, "CA", "ALA", "A", r, (4.0 * k, 0.0, 0.0))
                for k, r in enumerate(numbers, start=1)
            ),
        ]
        result = parse_pdb_detailed("\n".join(lines) + "\n")
        assert [r.ca[0] for r in result.structure.residues] == [4.0 * k for k in range(1, 13)]
        sse = result.structure.sse_list
        # H2's numbers 2-5 cover indices 2, 3, 8, 9: its span is 2-9, over
        # the insert's helix, so the insert's helix is skipped.
        assert [(a.sse_id, a.first_residue, a.last_residue) for a in sse] == [("H1", 2, 9)]
        assert result.skipped_annotations == 1

    @pytest.mark.parametrize("atom", ["N", "C"])
    def test_non_finite_backbone_atom_rejected(self, atom):
        text, _ = two_helix_protein()
        lines = text.splitlines()
        for k, line in enumerate(lines):
            if line.startswith("ATOM  ") and line[12:16].strip() == atom and int(line[22:26]) == 4:
                lines[k] = f"{line[:30]}{'nan':>8}{line[38:]}"
        with pytest.raises(ValueError, match=f"non-finite {atom} coordinates for residue 4"):
            parse_pdb_detailed("\n".join(lines) + "\n")

    def test_selenomethionine_read_as_methionine(self):
        lines = [
            atom_line(1, "CA", "ALA", "A", 1, (0.0, 0.0, 0.0)),
            *(
                atom_line(2 + k, name, "MSE", "A", 2, (3.8, float(k), 0.0))
                for k, name in enumerate(("N", "CA", "C", "SE"))
            ),
            atom_line(6, "CA", "MSE", "A", 3, (7.6, 0.0, 0.0)),  # as an ATOM record
            atom_line(7, "CA", "MSE", "B", 1, (9.0, 0.0, 0.0)),  # another chain
            atom_line(8, "CA", "HYP", "A", 4, (11.4, 0.0, 0.0)),  # other HETATM
        ]
        lines[1:5] = ["HETATM" + line[6:] for line in lines[1:5]]
        lines[6:] = ["HETATM" + line[6:] for line in lines[6:]]
        result = parse_pdb_detailed("\n".join(lines) + "\n")
        assert [r.code for r in result.structure.residues] == ["A", "M", "M"]
        mse = result.structure.residues[1]
        assert (mse.n, mse.ca, mse.c) == ((3.8, 0.0, 0.0), (3.8, 1.0, 0.0), (3.8, 2.0, 0.0))
        assert result.dropped_residues == 0

    def test_selenomethionine_of_another_chain_or_model_skipped(self):
        text = _ca_text([(0.0, 0.0, 0.0), (3.8, 0.0, 0.0)])
        chain_b = "HETATM" + atom_line(3, "CA", "MSE", "B", 3, (7.6, 0.0, 0.0))[6:]
        model_2 = "HETATM" + atom_line(3, "CA", "MSE", "A", 3, (7.6, 0.0, 0.0))[6:]
        for extra in (chain_b, f"ENDMDL\n{model_2}"):
            result = parse_pdb_detailed(f"{text}{extra}\n")
            assert result.structure == parse_pdb_detailed(text).structure
            assert result.dropped_residues == 0

    def test_first_chain_only(self):
        text = _ca_text([(0.0, 0.0, 0.0)])
        other = atom_line(2, "CA", "GLY", "B", 1, (5.0, 0.0, 0.0))
        structure = parse_pdb_detailed(text + other + "\n").structure
        assert len(structure.residues) == 1
        assert structure.residues[0].code == "A"

    def test_first_model_only(self):
        text = _ca_text([(0.0, 0.0, 0.0)]) + "ENDMDL\n"
        text += atom_line(9, "CA", "GLY", "A", 7, (5.0, 0.0, 0.0)) + "\n"
        structure = parse_pdb_detailed(text).structure
        assert len(structure.residues) == 1

    def test_unknown_resname_dropped_with_count(self):
        text = _ca_text([(0.0, 0.0, 0.0)])
        text += atom_line(2, "CA", "UNK", "A", 2, (4.0, 0.0, 0.0)) + "\n"
        result = parse_pdb_detailed(text)
        assert len(result.structure.residues) == 1
        assert result.dropped_residues == 1

    def test_roundtrip_on_fixture(self):
        text, _ = two_helix_protein()
        structure = parse_pdb_detailed(text, "fix").structure
        again = parse_pdb_detailed(emit_pdb(structure), "fix").structure
        assert again == structure

    def test_sheet_record_and_strand_roundtrip(self):
        sheet = "SHEET    1   A 1 ALA A   2  LEU A   4  0"
        text = sheet + "\n" + _ca_text([(float(i), 0.0, 0.0) for i in range(6)])
        structure = parse_pdb_detailed(text, "s").structure
        strand = structure.sse_list[0]
        assert strand.kind == "strand"
        assert (strand.first_residue, strand.last_residue) == (2, 4)
        assert parse_pdb_detailed(emit_pdb(structure), "s").structure == structure

    def test_sse_ids_count_along_the_chain(self):
        # records out of chain order, helices and strands interleaved
        records = [
            helix_record(1, "ALA", "LEU", "A", 6, 8),
            helix_record(2, "ALA", "LEU", "A", 2, 3),
            "SHEET    1   1 1 ALA A  10  LEU A  11 0",
            "SHEET    2   1 1 ALA A   4  LEU A   5 0",
        ]
        atoms = _ca_text([(3.8 * i, 0.0, 0.0) for i in range(12)])
        sse = parse_pdb_detailed("\n".join(records) + "\n" + atoms).structure.sse_list
        assert [(a.sse_id, a.first_residue, a.last_residue) for a in sse] == [
            ("H1", 2, 3), ("S1", 4, 5), ("H2", 6, 8), ("S2", 10, 11)
        ]

    @pytest.mark.parametrize("spans", [((2, 6), (5, 9)), ((5, 9), (2, 6))])
    def test_overlapping_helices_earlier_start_wins(self, spans):
        records = [helix_record(k, "ALA", "LEU", "A", f, l) for k, (f, l) in enumerate(spans, 1)]
        atoms = _ca_text([(3.8 * i, 0.0, 0.0) for i in range(12)])
        result = parse_pdb_detailed("\n".join(records) + "\n" + atoms)
        sse = result.structure.sse_list
        assert [(a.sse_id, a.first_residue, a.last_residue) for a in sse] == [("H1", 2, 6)]
        assert result.skipped_annotations == 1

    def test_skipped_annotations_counted(self):
        # residues 1-8 on chain A, one kept helix over 2-5
        atoms = _ca_text([(3.8 * i, 0.0, 0.0) for i in range(8)])
        kept = helix_record(1, "ALA", "LEU", "A", 2, 5)
        skipped = {
            "other chain": helix_record(2, "ALA", "LEU", "B", 2, 5),
            "no residues": helix_record(3, "ALA", "LEU", "A", 20, 25),
            "overlap": "SHEET    1   1 1 ALA A   4  LEU A   6 0",
        }
        for why, record in skipped.items():
            result = parse_pdb_detailed(f"{kept}\n{record}\n{atoms}")
            assert result.skipped_annotations == 1, why
            sse = result.structure.sse_list
            assert [(a.kind, a.first_residue, a.last_residue) for a in sse] == [
                ("helix", 2, 5)
            ], why
        every = "\n".join([kept, *skipped.values()])
        assert parse_pdb_detailed(f"{every}\n{atoms}").skipped_annotations == 3
        assert parse_pdb_detailed(f"{kept}\n{atoms}").skipped_annotations == 0


class TestDihedrals:
    def test_trans_is_180(self):
        angle = dihedral_angle((0, 1, 0), (0, 0, 0), (1, 0, 0), (1, -1, 0))
        assert angle == pytest.approx(180.0)

    def test_mirror_negates(self):
        pts = [(0.3, 1.1, 0.2), (0.0, 0.1, -0.4), (1.2, -0.2, 0.3), (1.8, -1.0, -0.9)]
        mirrored = [(x, y, -z) for x, y, z in pts]
        assert dihedral_angle(*mirrored) == pytest.approx(-dihedral_angle(*pts), abs=1e-9)

    def test_ideal_helix_angles(self):
        chain = build_chain(8, phi=-57.0, psi=-47.0)

        # independent oracle: normal-vector formulation
        def oracle(p0, p1, p2, p3):
            p0, p1, p2, p3 = (np.asarray(p) for p in (p0, p1, p2, p3))
            b1, b2, b3 = p1 - p0, p2 - p1, p3 - p2
            n1 = np.cross(b1, b2)
            n2 = np.cross(b2, b3)
            x = float(np.dot(n1, n2))
            y = float(np.dot(np.cross(n1, n2), b2 / np.linalg.norm(b2)))
            return math.degrees(math.atan2(y, x))

        for i in range(1, len(chain) - 1):
            phi = dihedral_angle(
                tuple(chain[i - 1][2]), tuple(chain[i][0]), tuple(chain[i][1]), tuple(chain[i][2])
            )
            psi = dihedral_angle(
                tuple(chain[i][0]), tuple(chain[i][1]), tuple(chain[i][2]), tuple(chain[i + 1][0])
            )
            assert phi == pytest.approx(-57.0, abs=2.0)
            assert psi == pytest.approx(-47.0, abs=2.0)
            assert phi == pytest.approx(
                oracle(chain[i - 1][2], chain[i][0], chain[i][1], chain[i][2]), abs=1e-9
            )

    def test_backbone_dihedrals_on_fixture(self):
        text, n = two_helix_protein()
        residues = parse_pdb_detailed(text).structure.residues
        assert backbone_dihedrals(residues, 1)[0] is None  # chain start
        assert backbone_dihedrals(residues, n)[1] is None  # chain end
        phi, psi = backbone_dihedrals(residues, 3)  # interior
        assert phi == pytest.approx(-57.0, abs=1.0)
        assert psi == pytest.approx(-47.0, abs=1.0)

    def test_structure_level_antisymmetry_under_reflection(self):
        text, _ = two_helix_protein()
        residues = parse_pdb_detailed(text).structure.residues

        def flip(xyz):
            return None if xyz is None else (xyz[0], xyz[1], -xyz[2])

        mirrored = [replace(r, n=flip(r.n), ca=flip(r.ca), c=flip(r.c)) for r in residues]
        for i in range(1, len(residues) + 1):
            for a, b in zip(backbone_dihedrals(residues, i), backbone_dihedrals(mirrored, i)):
                assert (a is None) == (b is None)
                if a is not None:
                    assert b == pytest.approx(-a, abs=1e-9)

    def test_missing_backbone_atom_leaves_angle_absent(self):
        text, _ = two_helix_protein()
        residues = parse_pdb_detailed(text).structure.residues
        assert residues[11].n is None  # residue 12, loop: CA only
        assert backbone_dihedrals(residues, 12) == (None, None)

    def test_chain_break_leaves_angles_absent(self):
        residues = parse_pdb_detailed(chain_break_protein()).structure.residues
        before, after = backbone_dihedrals(residues, 5), backbone_dihedrals(residues, 6)
        assert before[1] is None  # residue 5's psi
        assert after[0] is None  # residue 8's phi
        assert before[0] == pytest.approx(-57.0, abs=1.0)
        assert after[1] == pytest.approx(-47.0, abs=1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(-10, 10, allow_nan=False),
                st.floats(-10, 10, allow_nan=False),
            ),
            min_size=4,
            max_size=4,
        )
    )
    def test_dihedral_in_range_and_antisymmetric(self, pts):
        p0, p1, p2, p3 = pts
        for a, b in ((p0, p1), (p1, p2), (p2, p3)):
            assume(math.dist(a, b) > 1e-2)
        v01 = np.subtract(p1, p0)
        v12 = np.subtract(p2, p1)
        v23 = np.subtract(p3, p2)
        assume(np.linalg.norm(np.cross(v01, v12)) > 1e-2)
        assume(np.linalg.norm(np.cross(v12, v23)) > 1e-2)
        angle = dihedral_angle(p0, p1, p2, p3)
        assert -180.0 <= angle <= 180.0
        assume(abs(abs(angle) - 180.0) > 1e-6)  # keep clear of the branch cut
        mirrored = dihedral_angle(*[(x, y, -z) for x, y, z in pts])
        assert mirrored == pytest.approx(-angle, abs=1e-9)


class TestHydrophobicity:
    @pytest.mark.parametrize("code,value", [("I", 4.5), ("R", -4.5), ("G", -0.4)])
    def test_kyte_doolittle_values(self, code, value):
        assert assign_hydrophobicity(code) == value

    def test_unknown_code_is_refused_by_residue(self):
        # the one check in front of assign_hydrophobicity
        with pytest.raises(ValueError, match="unknown amino-acid code"):
            Residue(index=1, code="X", ca=(0.0, 0.0, 0.0))


def structure_with_helices(*spans, n=8):
    """An n-residue structure with one helix per (first, last) span, in the
    order given."""
    residues = tuple(Residue(i, "A", (3.8 * i, 0.0, 0.0)) for i in range(1, n + 1))
    helices = tuple(
        SseAnnotation(f"H{k}", "helix", first, last) for k, (first, last) in enumerate(spans, 1)
    )
    return ProteinStructure("p", residues, helices)


class TestProteinStructure:
    @pytest.mark.parametrize(
        "spans, named",
        [
            (((0, 3), (5, 8)), "H1 range (0, 3)"),  # residue 0
            (((5, 8), (1, 3)), "H2 range (1, 3)"),  # out of chain order
            (((1, 4), (4, 8)), "H2 range (4, 8)"),  # overlapping
        ],
    )
    def test_sse_out_of_chain_order_rejected(self, spans, named):
        with pytest.raises(ValueError, match=rf"SSE {re.escape(named)} does not follow"):
            structure_with_helices(*spans)

    def test_sse_past_the_last_residue_rejected(self):
        with pytest.raises(ValueError, match="SSE H2 range exceeds residue count"):
            structure_with_helices((1, 3), (5, 9))


class TestFamilyIndex:
    def test_two_entries(self):
        index = load_family_index("p1\ta/p1.pdb\t4\np2\tb/p2.pdb\t5\n")
        assert len(index.entries) == 2
        assert index.entries[0].protein_id == "p1"
        assert index.entries[1].sse_count == 5

    def test_comments_and_blanks_skipped(self):
        index = load_family_index("# header\n\np1\tx.pdb\t2\n")
        assert len(index.entries) == 1

    def test_only_comments_is_empty_error(self):
        with pytest.raises(FamilyIndexError):
            load_family_index("# nothing\n# here\n")

    def test_bad_count_names_line(self):
        with pytest.raises(FamilyIndexError, match="line 2"):
            load_family_index("p1\tx.pdb\t2\np2\ty.pdb\tx\n")

    def test_duplicate_protein_id(self):
        with pytest.raises(FamilyIndexError, match="duplicate"):
            load_family_index("p1\tx.pdb\t2\np1\ty.pdb\t3\n")


@st.composite
def small_structures(draw):
    n = draw(st.integers(2, 12))
    coords = [
        (
            round(draw(st.floats(-99, 99)), 3),
            round(draw(st.floats(-99, 99)), 3),
            round(draw(st.floats(-99, 99)), 3),
        )
        for _ in range(n)
    ]
    helix_end = draw(st.integers(0, n))
    return coords, helix_end


class TestRoundTrip:
    @settings(max_examples=50)
    @given(small_structures())
    def test_parse_emit_parse_identity(self, params):
        coords, helix_end = params
        text = ""
        if helix_end >= 2:
            text += helix_record(1, residue_name(1), residue_name(helix_end), "A", 1, helix_end) + "\n"
        text += _ca_text(coords)
        structure = parse_pdb_detailed(text, "rt").structure
        assert parse_pdb_detailed(emit_pdb(structure), "rt").structure == structure
