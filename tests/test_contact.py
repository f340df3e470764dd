import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_helix_protein, upper_triangle_edges
from ssein.contact import BLOCK_ROWS, ContactMap, SseInGraph, build_contact_map, induce_sse_in
from ssein.ingest import ProteinStructure, Residue, SseAnnotation, parse_pdb
from ssein.metrics import incidence_matrix


def protein_from_coords(coords, annotations=()):
    residues = tuple(
        Residue(index=i + 1, code="A", ca=tuple(float(c) for c in xyz))
        for i, xyz in enumerate(coords)
    )
    return ProteinStructure("p", residues, tuple(annotations))


def reference_contact_bits(protein, threshold=7.0):
    """The unblocked formula: one (N, N, 3) difference array, summed."""
    coords = np.array([r.ca for r in protein.residues], dtype=float)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    bits = (dist < threshold).astype(np.uint8)
    np.fill_diagonal(bits, 0)
    return bits


def reference_induce_sse_in(cmap, protein):
    """The per-contact loop over every contact pair, with each residue's SSE
    read off a per-residue table."""
    sse_of = {
        v: a.sse_id for a in protein.sse_list for v in range(a.first_residue, a.last_residue + 1)
    }
    intra = []
    shortcut = []
    for i, j in upper_triangle_edges(cmap.bits):
        if i in sse_of and j in sse_of:
            (intra if sse_of[i] == sse_of[j] else shortcut).append((i, j))
    ids = tuple(a.sse_id for a in protein.sse_list)
    ranges = tuple((a.first_residue, a.last_residue) for a in protein.sse_list)
    graph = SseInGraph(ids, ranges, tuple(intra), tuple(shortcut))
    assert graph.vertices == tuple(sorted(sse_of))
    return graph


def random_walk(n, rng, step=3.8):
    """Cα trace of a chain with fixed-length steps in random directions."""
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    directions[0] = 0.0
    return np.cumsum(step * directions, axis=0)


def annotate(coords, spans):
    """Protein over coords with one helix per inclusive (first, last) span."""
    annotations = [
        SseAnnotation(f"H{k}", "helix", first, last)
        for k, (first, last) in enumerate(spans, start=1)
    ]
    return protein_from_coords(coords, annotations)


def boundary_coords(rng, count=40):
    """Residue 1 at the origin; every other residue sits where the last bit
    of its distance from residue 1 hangs on the formula: either the order
    the three axis squares are added in moves sqrt of the sum, or it lies
    on an axis at x with sqrt(x * x) != x."""
    coords = [(0.0, 0.0, 0.0)]
    while len(coords) < count:
        dx, dy, dz = rng.uniform(-7.0, 7.0, size=3)
        a, b, c = dx * dx, dy * dy, dz * dz
        sums = {np.sqrt((a + b) + c), np.sqrt((c + a) + b), np.sqrt(a + (b + c))}
        if len(sums) > 1:
            coords.append((dx, dy, dz))
        x = rng.uniform(5.0, 7.5)
        if np.sqrt(x * x) != x:
            coords.append((x, 0.0, 0.0))
    return coords


class TestBuildContactMap:
    def test_single_residue(self):
        cmap = build_contact_map(protein_from_coords([(0, 0, 0)]), 7.0)
        assert cmap.n == 1
        assert cmap.bits.tolist() == [[0]]

    def test_strict_threshold_boundary(self):
        cmap = build_contact_map(
            protein_from_coords([(0, 0, 0), (0, 0, 5), (0, 0, 12)]), 7.0
        )
        assert upper_triangle_edges(cmap.bits) == [(1, 2)]  # d=5 in, d=7 and d=12 out
        assert np.array_equal(incidence_matrix([(1, 2)], 3), cmap.bits)

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

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
    def test_matches_unblocked_formula_across_block_edges(self, n):
        rng = np.random.default_rng(n)
        for coords in (rng.uniform(-15, 15, size=(n, 3)), random_walk(n, rng)):
            protein = protein_from_coords(coords)
            for threshold in (7.0, 4.0, 11.5):
                assert np.array_equal(
                    build_contact_map(protein, threshold).bits,
                    reference_contact_bits(protein, threshold),
                )

    def test_exact_seven_angstrom_distances_are_out(self):
        # 2-3-6 and 0-0-7 triangles: distance exactly 7.0 from residue 1
        coords = [(0, 0, 0), (7, 0, 0), (0, -7, 0), (2, 3, 6), (-6, 2, -3), (0, 0, 6.999)]
        protein = protein_from_coords(coords)
        bits = build_contact_map(protein, 7.0).bits
        assert np.array_equal(bits, reference_contact_bits(protein, 7.0))
        assert bits[0].tolist() == [0, 0, 0, 0, 0, 1]

    def test_last_bit_boundaries_match_unblocked_formula(self):
        # Thresholds at, and one ulp above, every distance from residue 1
        # and every on-axis x: a map that adds the axis squares in another
        # order or compares squared distances with threshold**2 differs.
        coords = boundary_coords(np.random.default_rng(71))
        protein = protein_from_coords(coords)
        origin_dist = np.sqrt(np.sum(np.square(coords), axis=1))[1:]
        on_axis = [x for x, y, z in coords if y == 0.0 and z == 0.0 and x > 0]
        thresholds = set(origin_dist) | set(np.nextafter(origin_dist, np.inf)) | set(on_axis)
        for threshold in sorted(thresholds):
            assert np.array_equal(
                build_contact_map(protein, float(threshold)).bits,
                reference_contact_bits(protein, float(threshold)),
            ), threshold

    def test_large_chain_stays_within_three_bytes_per_cell(self):
        # A 2,000-residue chain: the unblocked formula peaks at about 224 MB
        # (two N x N x 3 float arrays and the N x N distances); the blocked
        # map needs about N^2 bytes, the map itself.
        n = 2000
        coords = random_walk(n, np.random.default_rng(2000))
        protein = annotate(coords, [(10, 40), (55, 55), (300, 360), (1200, 1290), (1990, 2000)])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            cmap = build_contact_map(protein)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n
        graph = induce_sse_in(cmap, protein)
        reference = reference_induce_sse_in(cmap, protein)
        assert graph == reference
        assert graph.shortcut_edges and graph.intra_edges

    def test_symmetry_invariants_enforced(self):
        with pytest.raises(ValueError):
            ContactMap(np.array([[0, 1], [0, 0]], dtype=np.uint8))
        with pytest.raises(ValueError):
            ContactMap(np.array([[1]], dtype=np.uint8))

    def test_asymmetry_in_the_last_block_rejected(self):
        # both cells in the short last row block, so no other block sees them
        n = 3 * BLOCK_ROWS + 5
        bits = np.zeros((n, n), dtype=np.uint8)
        bits[n - 1, n - 3] = 1
        with pytest.raises(ValueError, match="symmetric"):
            ContactMap(bits)
        bits[n - 3, n - 1] = 1
        ContactMap(bits)

    def test_validation_makes_no_full_size_temporary(self):
        # The map is 4.0 MB; comparing it with its transpose in one go
        # allocates another 4.0 MB of bools.
        bits = np.zeros((2000, 2000), dtype=np.uint8)
        i = np.arange(1999)
        bits[i, i + 1] = bits[i + 1, i] = 1
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            ContactMap(bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6


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
        sizes = [a.last_residue - a.first_residue + 1 for a in protein.sse_list]
        assert len(graph.vertices) == sum(sizes)

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
        contact_edges = set(upper_triangle_edges(cmap.bits))
        assert set(graph.edges) <= contact_edges

    @pytest.mark.parametrize(
        "n, spans",
        [
            (1, [(1, 1)]),
            (63, [(1, 1), (3, 3), (10, 20), (21, 21), (40, 63)]),
            (65, [(2, 30), (31, 64)]),
            (129, [(5, 5), (6, 6), (7, 7), (60, 70), (100, 128)]),
            (300, [(1, 40), (41, 41), (120, 180), (250, 251), (299, 300)]),
        ],
    )
    def test_matches_per_contact_loop(self, n, spans):
        # residues outside every SSE, one-residue SSEs, adjacent SSEs
        rng = np.random.default_rng(n + 1)
        for coords in (random_walk(n, rng), rng.uniform(-12, 12, size=(n, 3))):
            protein = annotate(coords, spans)
            cmap = build_contact_map(protein)
            graph = induce_sse_in(cmap, protein)
            assert graph == reference_induce_sse_in(cmap, protein)
            assert all(
                type(v) is int for edge in graph.edges for v in edge
            ), "edges must hold Python ints"

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


class TestSseInGraph:
    """The ranges are the one record of SSE membership: an edge list that
    disagrees with them cannot be built."""

    RANGES = ((1, 5), (6, 8))

    def graph(self, intra=(), shortcuts=()):
        return SseInGraph(("H1", "H2"), self.RANGES, tuple(intra), tuple(shortcuts))

    def test_vertices_are_the_ranges(self):
        graph = self.graph(intra=[(1, 2), (6, 8)], shortcuts=[(5, 6)])
        assert graph.vertices == (1, 2, 3, 4, 5, 6, 7, 8)
        assert graph.edges == ((1, 2), (6, 8), (5, 6))

    def test_intra_edge_spanning_two_ranges_rejected(self):
        with pytest.raises(ValueError, match=r"intra edge \(5, 6\) spans two SSEs"):
            self.graph(intra=[(1, 2), (5, 6)])

    def test_shortcut_inside_one_range_rejected(self):
        # residue 5 taken for SSE 2 while SSE 1 spans 1-5 would make an SSE
        # self-link of this edge
        with pytest.raises(ValueError, match=r"shortcut edge \(4, 5\) stays inside one SSE"):
            self.graph(shortcuts=[(2, 7), (4, 5)])

    @pytest.mark.parametrize("kind", ["intra", "shortcuts"])
    @pytest.mark.parametrize("stray", [0, 9])
    def test_endpoint_outside_every_range_rejected(self, kind, stray):
        edge = (min(stray, 3), max(stray, 3))
        with pytest.raises(
            ValueError, match=rf"edge \({edge[0]}, {edge[1]}\): vertex {stray} is outside every SSE"
        ):
            self.graph(**{kind: [edge]})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop at vertex 7"):
            self.graph(shortcuts=[(7, 7)])

    def test_sse_index_matches_range_scan(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            sizes = rng.integers(1, 6, size=int(rng.integers(1, 6)))
            gaps = rng.integers(0, 3, size=len(sizes))
            ranges = []
            last = 0
            for size, gap in zip(sizes.tolist(), gaps.tolist()):
                ranges.append((last + gap + 1, last + gap + size))
                last = ranges[-1][1]
            graph = SseInGraph(tuple(f"H{k}" for k in range(len(ranges))), tuple(ranges), (), ())
            residues = np.arange(last + 3)
            expected = [
                next((k for k, (f, l) in enumerate(ranges, start=1) if f <= v <= l), 0)
                for v in residues.tolist()
            ]
            assert graph.sse_index(residues).tolist() == expected
