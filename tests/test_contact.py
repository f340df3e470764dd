import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_helix_protein
from ssein.contact import ContactMap, build_contact_map, induce_sse_in
from ssein.ingest import ProteinStructure, Residue, SseAnnotation, parse_pdb


def protein_from_coords(coords, annotations=()):
    residues = tuple(
        Residue(index=i + 1, code="A", ca=tuple(float(c) for c in xyz))
        for i, xyz in enumerate(coords)
    )
    if annotations:
        sse_of = {}
        for a in annotations:
            for idx in range(a.first_residue, a.last_residue + 1):
                sse_of[idx] = a.sse_id
        residues = tuple(
            Residue(r.index, r.code, r.ca, sse_id=sse_of.get(r.index)) for r in residues
        )
    return ProteinStructure("p", residues, tuple(annotations))


class TestBuildContactMap:
    def test_single_residue(self):
        cmap = build_contact_map(protein_from_coords([(0, 0, 0)]), 7.0)
        assert cmap.n == 1
        assert cmap.bits.tolist() == [[0]]

    def test_strict_threshold_boundary(self):
        cmap = build_contact_map(
            protein_from_coords([(0, 0, 0), (0, 0, 5), (0, 0, 12)]), 7.0
        )
        assert cmap.edges() == [(1, 2)]  # d=5 in, d=7 and d=12 out

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(30)
        coords = rng.uniform(-10, 10, size=(30, 3))
        cmap = build_contact_map(protein_from_coords(coords), 7.0)
        for i in range(30):
            for j in range(30):
                expected = int(i != j and np.linalg.norm(coords[i] - coords[j]) < 7.0)
                assert cmap.bits[i, j] == expected

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            build_contact_map(protein_from_coords([(0, 0, 0)]), 0.0)

    @settings(max_examples=30)
    @given(st.integers(2, 15), st.floats(1.0, 6.0), st.floats(0.1, 6.0))
    def test_monotone_in_threshold(self, n, thr, bump):
        rng = np.random.default_rng(n)
        coords = rng.uniform(-8, 8, size=(n, 3))
        protein = protein_from_coords(coords)
        low = build_contact_map(protein, thr)
        high = build_contact_map(protein, thr + bump)
        assert np.all(high.bits >= low.bits)

    def test_symmetry_invariants_enforced(self):
        with pytest.raises(ValueError):
            ContactMap(np.array([[0, 1], [0, 0]], dtype=np.uint8))
        with pytest.raises(ValueError):
            ContactMap(np.array([[1]], dtype=np.uint8))


class TestInduceSseIn:
    def test_no_sse_gives_empty_graph(self):
        protein = protein_from_coords([(0, 0, 0), (0, 0, 3)])
        graph = induce_sse_in(build_contact_map(protein), protein)
        assert graph.vertices == ()
        assert graph.edges == ()

    def test_tags_intra_vs_shortcut(self):
        # residues 1,2 in SSE A; residue 7 in SSE B; contacts (1,2) and (2,7)
        coords = [(0, 0, 0), (0, 0, 3), (50, 0, 0), (60, 0, 0), (70, 0, 0), (80, 0, 0), (0, 0, 8)]
        annotations = [
            SseAnnotation("H1", "helix", 1, 2),
            SseAnnotation("H2", "helix", 7, 7),
        ]
        protein = protein_from_coords(coords, annotations)
        graph = induce_sse_in(build_contact_map(protein, 7.0), protein)
        assert graph.intra_edges == ((1, 2),)
        assert graph.shortcut_edges == ((2, 7),)

    def test_vertex_count_is_sum_of_sse_sizes(self):
        text, _ = two_helix_protein()
        protein = parse_pdb(text)
        graph = induce_sse_in(build_contact_map(protein), protein)
        assert len(graph.vertices) == sum(a.size for a in protein.sse_list)

    def test_dimension_mismatch(self):
        protein = protein_from_coords([(0, 0, 0), (0, 0, 3)])
        small = build_contact_map(protein_from_coords([(0, 0, 0)]))
        with pytest.raises(ValueError):
            induce_sse_in(small, protein)

    def test_induction_is_subgraph(self):
        text, _ = two_helix_protein()
        protein = parse_pdb(text)
        cmap = build_contact_map(protein)
        graph = induce_sse_in(cmap, protein)
        contact_edges = set(cmap.edges())
        assert set(graph.edges) <= contact_edges

    @settings(max_examples=20)
    @given(st.integers(4, 10))
    def test_symmetric_under_relabeling(self, n):
        rng = np.random.default_rng(n)
        coords = rng.uniform(-6, 6, size=(n, 3))
        protein = protein_from_coords(coords)
        cmap = build_contact_map(protein, 7.0)
        perm = rng.permutation(n)
        permuted = build_contact_map(protein_from_coords(coords[perm]), 7.0)
        for i in range(n):
            for j in range(n):
                assert permuted.bits[i, j] == cmap.bits[perm[i], perm[j]]
