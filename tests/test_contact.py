import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_helix_protein, upper_triangle_edges
from ssein.contact import SseInGraph, build_contact_map
from ssein.ingest import ProteinStructure, Residue, SseAnnotation, parse_pdb_detailed


def protein_from_coords(coords, annotations=()):
    residues = tuple(
        Residue(index=i + 1, code="A", ca=tuple(float(c) for c in xyz))
        for i, xyz in enumerate(coords)
    )
    return ProteinStructure("p", residues, tuple(annotations))


def reference_contact_bits(coords, threshold=7.0):
    """The unblocked formula: one (N, N, 3) difference array, summed."""
    coords = np.asarray(coords, dtype=float)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    bits = (dist < threshold).astype(np.uint8)
    np.fill_diagonal(bits, 0)
    return bits


def reference_sse_in(protein, threshold=7.0, rows=None):
    """The per-contact loop over the unblocked formula's contacts among the
    0-based residue `rows` (all residues by default), with each residue's
    SSE read off a per-residue table."""
    sse_of = {
        v: a.sse_id for a in protein.sse_list for v in range(a.first_residue, a.last_residue + 1)
    }
    coords = np.array([r.ca for r in protein.residues], dtype=float).reshape(-1, 3)
    rows = np.arange(len(coords)) if rows is None else np.asarray(rows)
    intra = []
    shortcut = []
    for a, b in upper_triangle_edges(reference_contact_bits(coords[rows], threshold)):
        i, j = int(rows[a - 1]) + 1, int(rows[b - 1]) + 1
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


def fully_annotated(coords, rng, longest=12):
    """Protein over coords cut into adjacent SSEs of 1 to `longest` residues:
    every residue is an SSE residue, so every contact is an edge."""
    spans = []
    first = 1
    while first <= len(coords):
        last = min(len(coords), first + int(rng.integers(0, longest)))
        spans.append((first, last))
        first = last + 1
    return annotate(coords, spans)


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


@st.composite
def chains_with_spans(draw):
    """A random chain with random SSE spans: gaps, 1-residue SSEs and
    adjacent SSEs, enough residues to cross block edges."""
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = random_walk(n, rng) if draw(st.booleans()) else rng.uniform(-15, 15, size=(n, 3))
    spans = []
    last = 0
    while True:
        first = last + 1 + draw(st.integers(0, 6))
        if first > n:
            break
        last = min(n, first + draw(st.integers(0, 40)))
        spans.append((first, last))
    return annotate(coords, spans)


class TestBuildContactMap:
    """The builder against the unblocked formula and the per-contact loop."""

    def test_single_residue(self):
        graph = build_contact_map(annotate([(0, 0, 0)], [(1, 1)]), 7.0)
        assert graph.vertices == (1,)
        assert graph.edges == ()

    def test_strict_threshold_boundary(self):
        protein = annotate([(0, 0, 0), (0, 0, 5), (0, 0, 12)], [(1, 3)])
        graph = build_contact_map(protein, 7.0)
        assert graph.intra_edges == ((1, 2),)  # d=5 in, d=7 and d=12 out
        assert graph.shortcut_edges == ()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(30)
        coords = rng.uniform(-10, 10, size=(30, 3))
        graph = build_contact_map(fully_annotated(coords, rng), 7.0)
        expected = [
            (i + 1, j + 1)
            for i in range(30)
            for j in range(i + 1, 30)
            if np.linalg.norm(coords[i] - coords[j]) < 7.0
        ]
        assert sorted(graph.edges) == expected

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            build_contact_map(annotate([(0, 0, 0)], [(1, 1)]), 0.0)

    @settings(max_examples=30)
    @given(st.integers(2, 15), st.floats(1.0, 6.0), st.floats(0.1, 6.0))
    def test_monotone_in_threshold(self, n, thr, bump):
        rng = np.random.default_rng(n)
        protein = fully_annotated(rng.uniform(-8, 8, size=(n, 3)), rng, longest=4)
        low = build_contact_map(protein, thr)
        high = build_contact_map(protein, thr + bump)
        assert set(low.edges) <= set(high.edges)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
    def test_matches_unblocked_formula_across_block_edges(self, n):
        # every residue in some SSE, so the blocks cut at n SSE residues
        rng = np.random.default_rng(n)
        for coords in (rng.uniform(-15, 15, size=(n, 3)), random_walk(n, rng)):
            protein = fully_annotated(coords, rng)
            for threshold in (7.0, 4.0, 11.5):
                graph = build_contact_map(protein, threshold)
                assert graph == reference_sse_in(protein, threshold)
                assert sorted(graph.edges) == upper_triangle_edges(
                    reference_contact_bits(coords, threshold)
                )

    def test_exact_seven_angstrom_distances_are_out(self):
        # 2-3-6 and 0-0-7 triangles: distance exactly 7.0 from residue 1
        coords = [(0, 0, 0), (7, 0, 0), (0, -7, 0), (2, 3, 6), (-6, 2, -3), (0, 0, 6.999)]
        protein = annotate(coords, [(1, 2), (3, 3), (4, 6)])
        graph = build_contact_map(protein, 7.0)
        assert graph == reference_sse_in(protein, 7.0)
        assert [edge for edge in graph.edges if 1 in edge] == [(1, 6)]

    def test_last_bit_boundaries_match_unblocked_formula(self):
        # Thresholds at, and one ulp above, every distance from residue 1
        # and every on-axis x: a builder that adds the axis squares in
        # another order or compares squared distances with threshold**2
        # differs.
        rng = np.random.default_rng(71)
        coords = boundary_coords(rng)
        protein = fully_annotated(coords, rng, longest=6)
        origin_dist = np.sqrt(np.sum(np.square(coords), axis=1))[1:]
        on_axis = [x for x, y, z in coords if y == 0.0 and z == 0.0 and x > 0]
        thresholds = set(origin_dist) | set(np.nextafter(origin_dist, np.inf))
        thresholds |= set(on_axis) | set(np.nextafter(on_axis, np.inf))
        for threshold in sorted(thresholds):
            threshold = float(threshold)
            assert build_contact_map(protein, threshold) == reference_sse_in(
                protein, threshold
            ), threshold

    @settings(max_examples=60, deadline=None)
    @given(chains_with_spans(), st.floats(0.5, 16.0))
    def test_matches_oracle_on_random_chains_and_spans(self, protein, threshold):
        assert build_contact_map(protein, threshold) == reference_sse_in(protein, threshold)

    def test_large_chain_peak_stays_under_one_megabyte(self):
        # A 2,000-residue chain with 195 SSE residues: a residue-by-residue
        # uint8 map alone is 4 MB; the builder holds a few 64-row float
        # blocks over the SSE residues.
        n = 2000
        coords = random_walk(n, np.random.default_rng(2000))
        protein = annotate(coords, [(10, 40), (55, 55), (300, 360), (1200, 1290), (1990, 2000)])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            graph = build_contact_map(protein)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        # The unblocked formula over all 2,000 residues would take about
        # 230 MB; being elementwise, it gives the same bits over the SSE
        # residues alone.
        assert graph == reference_sse_in(protein, rows=np.array(graph.vertices) - 1)
        assert graph.shortcut_edges and graph.intra_edges


class TestInduceSseIn:
    """The SSE-IN is the contact graph induced by the SSE residues."""

    def test_no_sse_gives_empty_graph(self):
        graph = build_contact_map(protein_from_coords([(0, 0, 0), (0, 0, 3)]))
        assert graph.vertices == ()
        assert graph.edges == ()

    def test_tags_intra_vs_shortcut(self):
        # residues 1,2 in SSE A; residue 7 in SSE B; contacts (1,2) and (2,7)
        coords = [(0, 0, 0), (0, 0, 3), (50, 0, 0), (60, 0, 0), (70, 0, 0), (80, 0, 0), (0, 0, 8)]
        annotations = [
            SseAnnotation("H1", "helix", 1, 2),
            SseAnnotation("H2", "helix", 7, 7),
        ]
        graph = build_contact_map(protein_from_coords(coords, annotations), 7.0)
        assert graph.intra_edges == ((1, 2),)
        assert graph.shortcut_edges == ((2, 7),)

    def test_vertex_count_is_sum_of_sse_sizes(self):
        text, _ = two_helix_protein()
        protein = parse_pdb_detailed(text).structure
        graph = build_contact_map(protein)
        sizes = [a.last_residue - a.first_residue + 1 for a in protein.sse_list]
        assert len(graph.vertices) == sum(sizes)

    def test_induction_is_subgraph(self):
        text, _ = two_helix_protein()
        protein = parse_pdb_detailed(text).structure
        graph = build_contact_map(protein)
        contact_edges = set(
            upper_triangle_edges(reference_contact_bits([r.ca for r in protein.residues]))
        )
        assert set(graph.edges) <= contact_edges
        assert graph.edges

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
            for threshold in (7.0, 4.0, 11.5):
                graph = build_contact_map(protein, threshold)
                assert graph == reference_sse_in(protein, threshold)
                assert all(
                    type(v) is int for edge in graph.edges for v in edge
                ), "edges must hold Python ints"

    @settings(max_examples=20)
    @given(st.integers(4, 10))
    def test_symmetric_under_relabeling(self, n):
        # one SSE over the whole chain: the edge set is the contact set
        rng = np.random.default_rng(n)
        coords = rng.uniform(-6, 6, size=(n, 3))
        graph = build_contact_map(annotate(coords, [(1, n)]), 7.0)
        perm = rng.permutation(n)
        permuted = build_contact_map(annotate(coords[perm], [(1, n)]), 7.0)
        relabeled = {
            tuple(sorted((int(perm[i - 1]) + 1, int(perm[j - 1]) + 1))) for i, j in permuted.edges
        }
        assert relabeled == set(graph.edges)


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

    def test_intra_positions_index_the_vertices(self):
        graph = SseInGraph(("H1", "H2"), ((2, 5), (9, 11)), ((2, 4), (9, 11), (3, 5)), ((5, 9),))
        assert graph.vertices == (2, 3, 4, 5, 9, 10, 11)
        assert graph.intra_positions.tolist() == [[0, 2], [4, 6], [1, 3]]
        assert self.graph().intra_positions.shape == (0, 2)

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
