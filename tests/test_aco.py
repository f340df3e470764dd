import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multi_helix_protein
from ssein.aco import (
    AcoParams,
    Colony,
    ColonyGraph,
    allele_distance,
    allocate_pair_budgets,
    edge_probabilities,
    estimate_edge_budget,
    global_aco,
    local_aco,
    occurrence_matrices,
    round_half_up,
    validate_built_network,
)
from ssein.contact import SseInGraph, build_contact_map
from ssein.ingest import parse_pdb_detailed
from ssein.metrics import left_sum, topological_profile
from ssein.synth import make_planted_instance


def template_from_sizes(sizes, shortcut_cells=(), intra_span=2):
    """Template SSE-IN with chain-style intra edges and given shortcut cells.

    shortcut_cells: ((sse_a, pos_a), (sse_b, pos_b)) with 1-based positions.
    """
    ranges = []
    start = 1
    for s in sizes:
        ranges.append((start, start + s - 1))
        start += s
    intra = []
    for first, last in ranges:
        for u in range(first, last + 1):
            for v in range(u + 1, min(u + intra_span, last) + 1):
                intra.append((u, v))
    shortcuts = []
    for (a, pa), (b, pb) in shortcut_cells:
        u = ranges[a - 1][0] + pa - 1
        v = ranges[b - 1][0] + pb - 1
        shortcuts.append((min(u, v), max(u, v)))
    ids = tuple(f"E{k}" for k in range(1, len(sizes) + 1))
    return SseInGraph(ids, tuple(ranges), tuple(intra), tuple(shortcuts))


def reference_sse_position(template, vertex):
    """The linear scan over SSE ranges: which SSE holds a residue, and where."""
    for k, (first, last) in enumerate(template.sse_ranges, start=1):
        if first <= vertex <= last:
            return k, (vertex - first + 1) / (last - first + 1)
    raise ValueError(f"vertex {vertex} is outside every SSE range")


def reference_occurrence_matrix(templates, pair, n, m):
    """The counting loop over template shortcut edges, one scan per endpoint."""
    a, b = pair
    counts = np.zeros((n, m), dtype=float)
    for t in templates:
        for u, w in t.shortcut_edges:
            ku, ru = reference_sse_position(t, u)
            kw, rw = reference_sse_position(t, w)
            if (ku, kw) == (a, b):
                ra, rb = ru, rw
            elif (ku, kw) == (b, a):
                ra, rb = rw, ru
            else:
                continue
            i = min(max(round_half_up(ra * n), 1), n)
            j = min(max(round_half_up(rb * m), 1), m)
            counts[i - 1, j - 1] += 1
    return counts + 1.0


def reference_sse_links(template):
    """The SSE-id adjacency matrix the templates' SSE graphs were read from,
    through a per-residue SSE-id table, as 1-based upper-triangle pairs in
    row-major order."""
    graph = template
    sse_of = {
        v: sse_id
        for sse_id, (first, last) in zip(graph.sse_ids, graph.sse_ranges)
        for v in range(first, last + 1)
    }
    order = [sse_of[first] for first, _ in graph.sse_ranges]
    pos = {sse_id: k for k, sse_id in enumerate(order)}
    m = np.zeros((len(order), len(order)), dtype=np.int8)
    for i, j in graph.shortcut_edges:
        a, b = pos[sse_of[i]], pos[sse_of[j]]
        m[a, b] = m[b, a] = 1
    return [
        (a + 1, b + 1) for a in range(len(order)) for b in range(a + 1, len(order)) if m[a, b]
    ]


def stray_vertex_template():
    """Two SSEs at residues 1-2 and 3-4, and a shortcut to residue 9."""
    return SseInGraph(("A", "B"), ((1, 2), (3, 4)), (), ((2, 9),))


def random_template(rng, sse_count, edges):
    """Template with random SSE sizes (one-residue SSEs included) and random
    shortcut cells, written in both orientations."""
    sizes = tuple(int(x) for x in rng.integers(1, 14, size=sse_count))
    cells = []
    for _ in range(edges):
        a, b = (int(k) + 1 for k in rng.choice(sse_count, size=2, replace=False))
        cells.append(((a, int(rng.integers(1, sizes[a - 1] + 1))),
                      (b, int(rng.integers(1, sizes[b - 1] + 1)))))
    return template_from_sizes(sizes, cells)


class TestAlleleDistance:
    def test_identical(self):
        assert allele_distance((3, 4, 5), (3, 4, 5)) == 0

    def test_example(self):
        assert allele_distance((11, 12, 9), (10, 12, 8)) == 2

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.tuples(*[st.integers(0, 40)] * n), st.tuples(*[st.integers(0, 40)] * n)
            )
        )
    )
    def test_l1_oracle(self, pair):
        a, b = pair
        assert allele_distance(a, b) == int(np.abs(np.array(a) - np.array(b)).sum())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            allele_distance((1, 2), (1, 2, 3))


class TestEstimateEdgeBudget:
    def test_documented_arithmetic(self):
        # template (10,12,8): 30 residues, 12 shortcut edges -> rate 0.4
        cells = [((1, i), (2, i)) for i in range(1, 7)]
        cells += [((2, i), (3, i)) for i in range(1, 7)]
        template = template_from_sizes((10, 12, 8), cells)
        assert len(template.shortcut_edges) == 12
        assert len(template.vertices) == 30
        assert estimate_edge_budget((11, 12, 9), {"t": template}) == 13

    def test_identical_sequence_returns_own_count(self):
        cells = [((1, 1), (2, 2)), ((1, 3), (2, 4)), ((2, 5), (3, 1))]
        template = template_from_sizes((8, 9, 7), cells)
        assert estimate_edge_budget((8, 9, 7), {"t": template}) == 3

    def test_uniform_rate_family_converges(self):
        rng = np.random.default_rng(11)
        rate = 0.25
        templates = {}
        for t in range(6):
            sizes = tuple(int(s) for s in rng.integers(8, 13, size=3))
            count = round_half_up(rate * sum(sizes))
            cells = []
            for c in range(count):
                cells.append(((1, 1 + c % sizes[0]), (2, 1 + c % sizes[1])))
            cells = list(dict.fromkeys(cells))
            templates[f"t{t}"] = template_from_sizes(sizes, cells)
        sequence = (10, 10, 10)
        e_p = estimate_edge_budget(sequence, templates)
        assert e_p / sum(sequence) == pytest.approx(rate, abs=0.07)

    def test_nearest_template_by_distance_then_id(self):
        # both at distance 1 from (10, 10), inside the bound of 4: "a" lends
        # its rate 5/21; from (20, 20) both lie past the bound of 8 and the
        # mean rate 1/6 applies
        b = template_from_sizes((10, 11), [((1, i), (2, i)) for i in (1, 2)])
        a = template_from_sizes((11, 10), [((1, i), (2, i)) for i in range(1, 6)])
        assert estimate_edge_budget((10, 10), {"b": b, "a": a}) == 5
        assert estimate_edge_budget((20, 20), {"b": b, "a": a}) == 7
        # the tie goes to the smaller key, whichever graph it names
        assert estimate_edge_budget((10, 10), {"c": b, "b": a}) == 5
        assert estimate_edge_budget((10, 10), {"a": b, "b": a}) == 2

    def test_no_matching_sse_count(self):
        # callers pass a family of the sequence's SSE count
        template = template_from_sizes((5, 5), [((1, 1), (2, 1))])
        with pytest.raises(ValueError, match="length mismatch"):
            estimate_edge_budget((5, 5, 5), {"t": template})


class TestOccurrenceMatrix:
    def test_no_evidence_gives_uniform(self):
        template = template_from_sizes((6, 7))
        [q] = occurrence_matrices([template], [(1, 2)], (6, 7))
        assert np.array_equal(q, np.ones((6, 7)))

    def test_central_edge_maps_to_central_cell(self):
        # edge at relative position (0.5, 0.5) of a 10x10 pair
        template = template_from_sizes((10, 10), [((1, 5), (2, 5))])
        [q] = occurrence_matrices([template], [(1, 2)], (10, 10))
        assert q[4, 4] == 2.0
        assert q.sum() == 101.0

    def test_counting_oracle_with_rescaling(self):
        # template SSEs sized 10, query pair sized 5: position u maps to
        # round_half_up(u/10 * 5)
        cells = [((1, u), (2, u)) for u in (1, 5, 10)]
        template = template_from_sizes((10, 10), cells)
        [q] = occurrence_matrices([template, template], [(1, 2)], (5, 5))
        assert q[0, 0] == 3.0  # 1/10 -> cell 1, two templates
        assert q[2, 2] == 3.0  # 5/10 -> cell ceil(2.5) = 3
        assert q[4, 4] == 3.0  # 10/10 -> cell 5
        assert q.sum() == 25 + 6

    def test_orientation_swap(self):
        template = template_from_sizes((4, 6), [((2, 3), (1, 2))])
        [q] = occurrence_matrices([template], [(1, 2)], (4, 6))
        assert q[1, 2] == 2.0  # stored as (pair SSE1 pos 2, SSE2 pos 3)
        [q_swapped] = occurrence_matrices([template], [(2, 1)], (4, 6))
        assert q_swapped.shape == (6, 4)
        assert q_swapped[2, 1] == 2.0
        assert q_swapped.sum() == 25.0

    def test_matches_counting_loop(self):
        # several templates, both orientations of every pair in one call,
        # query sizes above, equal to and below the template sizes
        rng = np.random.default_rng(17)
        templates = [random_template(rng, 5, 30) for _ in range(6)]
        pairs = [(a, b) for a in range(1, 6) for b in range(1, 6) if a != b]
        for _ in range(4):
            sizes = tuple(int(x) for x in rng.integers(1, 16, size=5))
            got = occurrence_matrices(templates, pairs, sizes)
            assert len(got) == len(pairs)
            for (a, b), q in zip(pairs, got):
                n, m = sizes[a - 1], sizes[b - 1]
                expected = reference_occurrence_matrix(templates, (a, b), n, m)
                assert np.array_equal(q, expected), (a, b, n, m)

    def test_endpoint_outside_every_sse_names_the_vertex(self):
        with pytest.raises(ValueError, match=r"edge \(2, 9\): vertex 9 is outside every SSE"):
            occurrence_matrices([stray_vertex_template()], [(1, 2)], (2, 2))


class TestEdgeProbabilities:
    def test_uniform_2x2(self):
        s = edge_probabilities(np.ones((2, 2)), 2.0)
        assert np.allclose(s, 0.5)
        assert s.sum() == pytest.approx(2.0)

    def test_zero_budget(self):
        s = edge_probabilities(np.ones((3, 3)), 0.0)
        assert np.all(s == 0)

    def test_conservation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = rng.uniform(0.01, 5, size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            e = float(rng.integers(0, 40))
            assert abs(edge_probabilities(q, e).sum() - e) < 1e-9

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            edge_probabilities(np.zeros((2, 2)), 1.0)


class TestAllocatePairBudgets:
    def test_exact_sum_by_largest_remainder(self):
        budgets = allocate_pair_budgets(7, [1.0, 1.0, 1.0])
        assert sum(budgets) == 7
        assert sorted(budgets) == [2, 2, 3]

    def test_proportionality(self):
        budgets = allocate_pair_budgets(10, [9.0, 1.0])
        assert budgets == [9, 1]

    def test_empty(self):
        assert allocate_pair_budgets(5, []) == []

    @given(st.integers(0, 50), st.lists(st.floats(0.1, 10), min_size=1, max_size=8))
    def test_sum_is_exact(self, total, masses):
        budgets = allocate_pair_budgets(total, masses)
        assert sum(budgets) == total
        assert all(b >= 0 for b in budgets)


def pair_state(n, m, q, e, params, seed=0):
    s = edge_probabilities(q, e)
    assert s.shape == (n, m)
    return Colony(ColonyGraph.pair(s, params.beta), params, np.random.default_rng(seed)), s


def colony_from_edges(vertex_count, inter, s, intra, s_intra, params, rng):
    graph = ColonyGraph.from_edges(vertex_count, inter, s, intra, s_intra, params.beta)
    return Colony(graph, params, rng)


def row(colony, vertex):
    nbrs, probs = colony.rows(np.array([vertex]), colony.log_weights())
    return nbrs[0], probs[0]


class TestTransitionDistribution:
    def test_uniform_over_neighbors(self):
        params = AcoParams(alpha=1.0, beta=1.0)
        colony, _ = pair_state(2, 2, np.ones((2, 2)), 2.0, params)
        nbrs, probs = row(colony, 0)
        # from x1: intra x2 carries the mean weight, inter y1, y2 identical
        assert probs == pytest.approx(np.full(3, 1 / 3))

    def test_tau_ratio_two_alpha_one_beta_zero(self):
        params = AcoParams(alpha=1.0, beta=0.0)
        colony, _ = pair_state(1, 2, np.ones((1, 2)), 2.0, params)
        colony.tau[0] = 2.0  # x1-y1
        colony.tau[1] = 1.0  # x1-y2
        nbrs, probs = row(colony, 0)
        assert nbrs.tolist() == [1, 2]
        assert probs == pytest.approx([2 / 3, 1 / 3])

    def test_log_space_matches_exact_rationals(self):
        # small integer tau/s evaluated exactly with Fractions at the
        # published exponents alpha=25, beta=12
        params = AcoParams()
        colony, s = pair_state(1, 3, np.array([[1.0, 2.0, 3.0]]), 6.0, params)
        taus = [2.0, 1.0, 3.0]  # x1-y1, x1-y2, x1-y3
        colony.tau[:3] = taus
        nbrs, probs = row(colony, 0)
        weights = [
            Fraction(int(taus[j - 1])) ** 25 * Fraction(s[0, j - 1]).limit_denominator(10**12) ** 12
            for j in nbrs
        ]
        total = sum(weights)
        for p, w in zip(probs, weights):
            assert p == pytest.approx(float(w / total), rel=1e-9)

    def test_stability_at_published_exponents(self):
        params = AcoParams()
        rng = np.random.default_rng(4)
        colony, _ = pair_state(4, 5, rng.uniform(0.5, 50, size=(4, 5)), 5.0, params)
        for slot in range(colony.graph.n_inter):
            colony.tau[slot] = float(rng.uniform(1, 1e7))
        for v in range(9):
            _, probs = row(colony, v)
            assert np.all(np.isfinite(probs))
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestUpdatePheromone:
    def test_documented_substitution(self):
        params = AcoParams(rho=0.7, delta_tau=4000.0)
        colony, _ = pair_state(1, 1, np.ones((1, 1)), 1.0, params)
        colony.tau[0] = 1.0
        colony.update(np.array([2]))
        assert colony.tau[0] == pytest.approx(8000.3)

    def test_pure_evaporation(self):
        params = AcoParams(rho=0.7)
        colony, _ = pair_state(2, 2, np.ones((2, 2)), 2.0, params)
        before = colony.tau[:4].copy()
        colony.update(np.zeros(4, dtype=int))
        assert colony.tau[:4] == pytest.approx(0.3 * before)

    def test_intra_pinned_to_inter_mean(self):
        params = AcoParams()
        colony, _ = pair_state(3, 3, np.ones((3, 3)), 3.0, params)
        rng = np.random.default_rng(0)
        for step in range(50):
            counts = np.array([int(rng.integers(0, 3)) for _ in range(colony.graph.n_inter)])
            colony.update(counts)
            mean = np.mean(colony.tau[:9])
            assert colony.tau[9] == pytest.approx(mean, rel=1e-12)

    def test_positivity_preserved(self):
        params = AcoParams()
        colony, _ = pair_state(2, 3, np.ones((2, 3)), 2.0, params)
        for _ in range(200):
            colony.update(np.zeros(6, dtype=int))
            assert np.all(colony.tau > 0)


def reference_row(adjacency, s, s_intra, tau, tau_intra, vertex, params):
    """One vertex's transition row over dict-keyed edges, as a 1-D array."""
    nbrs = adjacency[vertex]
    logw = np.empty(len(nbrs))
    for k, j in enumerate(nbrs):
        e = (min(vertex, j), max(vertex, j))
        t, w = (tau[e], s[e]) if e in s else (tau_intra, s_intra)
        term = 0.0
        if params.alpha > 0:
            term += params.alpha * (math.log(t) if t > 0 else -math.inf)
        if params.beta > 0:
            term += params.beta * (math.log(w) if w > 0 else -math.inf)
        logw[k] = term
    peak = logw.max()
    if peak == -math.inf:
        return np.full(len(nbrs), 1.0 / len(nbrs))
    probs = np.exp(logw - peak)
    probs /= probs.sum()
    return probs


def reference_step(adjacency, s, s_intra, tau, tau_intra, ants, params, rng):
    """The per-ant colony step over dict-keyed edges: one transition row and
    one rng.choice per ant.  Returns the move count per inter-SSE edge."""
    counts = {}
    for idx, vertex in enumerate(ants):
        nbrs = adjacency[vertex]
        if not nbrs:
            continue
        probs = reference_row(adjacency, s, s_intra, tau, tau_intra, vertex, params)
        j = int(rng.choice(np.array(nbrs), p=probs))
        e = (min(vertex, j), max(vertex, j))
        if e in s:
            counts[e] = counts.get(e, 0) + 1
        ants[idx] = j
    return counts


def reference_adjacency(vertex_count, edges):
    adjacency = {v: set() for v in range(vertex_count)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return {v: tuple(sorted(a)) for v, a in adjacency.items()}


# Row widths at numpy's pairwise-sum boundaries: sequential below 8, eight
# accumulators from 8, blocks of 128 split in halves above.
BLOCK_DEGREES = (5, 8, 9, 17, 129, 200)


def star_network(rng, degrees=BLOCK_DEGREES):
    """Two stars per degree, each centre joined to its own leaves: one
    centre's edges all have s = 0 (so its row and its leaves' rows are
    all -inf), the other's mix inter edges of random s with intra edges.
    Returns (vertex_count, inter, s, intra)."""
    inter, s, intra = [], [], []
    vertex_count = 0
    for d in degrees:
        for dead in (True, False):
            centre = vertex_count
            for leaf in range(centre + 1, centre + d + 1):
                if dead or rng.random() < 0.7:
                    inter.append((centre, leaf))
                    s.append(0.0 if dead else float(rng.uniform(0.05, 3.0)))
                else:
                    intra.append((centre, leaf))
            vertex_count += d + 1
    return vertex_count, inter, s, intra


class TestBatchedRows:
    """`Colony.rows` against the 1-D per-vertex formula, bit for bit."""

    def check(self, vertex_count, inter, s, intra, s_intra, params, rng):
        colony = colony_from_edges(vertex_count, inter, s, intra, s_intra, params, rng)
        colony.tau[:] = rng.uniform(1.0, 1e4, size=colony.tau.size)
        tau = dict(zip(inter, colony.tau.tolist()))
        s_of = dict(zip(inter, s))
        adjacency = reference_adjacency(vertex_count, [*inter, *intra])
        log_weights = colony.log_weights()
        for d in sorted(set(colony.graph.degree.tolist()) - {0}):
            group = np.flatnonzero(colony.graph.degree == d)
            nbrs, probs = colony.rows(group, log_weights)
            assert nbrs.shape == probs.shape == (group.size, d)
            for k, v in enumerate(group.tolist()):
                expected = reference_row(
                    adjacency, s_of, s_intra, tau, colony.tau[-1], v, params
                )
                assert nbrs[k].tolist() == list(adjacency[v])
                assert probs[k].tolist() == expected.tolist()

    def test_block_boundary_degrees_with_dead_rows(self):
        rng = np.random.default_rng(41)
        vertex_count, inter, s, intra = star_network(rng)
        for params in (AcoParams(), AcoParams(alpha=1.0, beta=1.0), AcoParams(beta=0.0)):
            self.check(vertex_count, inter, s, intra, 0.5, params, rng)

    def test_random_networks(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            vertex_count = int(rng.integers(10, 60))
            pairs = [(u, v) for u in range(vertex_count) for v in range(u + 1, vertex_count)]
            picked = rng.permutation(len(pairs))[: int(rng.integers(5, len(pairs)))]
            cut = max(1, len(picked) // 2)
            inter = sorted(pairs[i] for i in picked[:cut])
            intra = [pairs[i] for i in picked[cut:]]
            s = rng.uniform(0.05, 3.0, size=len(inter)).tolist()
            self.check(vertex_count, inter, s, intra, sum(s) / len(s), AcoParams(), rng)

    def test_mixed_degrees_rejected(self):
        colony = colony_from_edges(
            4, [(0, 1), (1, 2)], [1.0, 1.0], [(2, 3)], 1.0, AcoParams(),
            np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="one degree"):
            colony.rows(np.array([0, 1]), colony.log_weights())


class TestColonyOracle:
    """Colony steps against the per-ant reference: same ant positions, move
    counts, pheromone and generator state after every step."""

    def check(
        self, vertex_count, inter, s, intra, s_intra, params, seed, ants, steps=40, graph=None
    ):
        if graph is None:
            graph = ColonyGraph.from_edges(vertex_count, inter, s, intra, s_intra, params.beta)
        colony = Colony(graph, params, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        ants = ants(rng)
        assert colony.ants.tolist() == ants
        adjacency = reference_adjacency(vertex_count, [*inter, *intra])
        s_of = dict(zip(inter, s))
        tau_intra = params.resolve_initial_tau(len(inter))
        tau = {e: tau_intra for e in inter}
        for _ in range(steps):
            counts = reference_step(adjacency, s_of, s_intra, tau, tau_intra, ants, params, rng)
            moved = colony.step()
            assert colony.ants.tolist() == ants
            assert moved.tolist() == [counts.get(e, 0) for e in inter]
            for e in inter:
                tau[e] = (1.0 - params.rho) * tau[e] + counts.get(e, 0) * params.delta_tau
            tau_intra = left_sum(tau.values()) / len(tau)
            colony.update(moved)
            assert colony.tau.tolist() == [*tau.values(), tau_intra]
        assert colony.rng.bit_generator.state == rng.bit_generator.state

    def check_pair(self, q, e, params, seed):
        s = edge_probabilities(q, e)
        n, m = s.shape
        graph = ColonyGraph.pair(s, params.beta)
        inter = [(x, y) for x in range(n) for y in range(n, n + m)]
        assert graph.n_inter == len(inter)
        assert graph.s.tolist() == s.ravel().tolist()
        intra = [(u, v) for u in range(n + m) for v in range(u + 1, n + m) if (u < n) == (v < n)]
        self.check(
            n + m, inter, s.ravel().tolist(), intra, float(s.mean()), params, seed,
            # pair ants were drawn as 1-based residue ids
            lambda rng: [int(v) - 1 for v in rng.integers(1, n + m + 1, size=n + m)],
            graph=graph,
        )

    def test_random_pairs(self):
        rng = np.random.default_rng(31)
        exponents = [(25.0, 12.0), (0.0, 12.0), (25.0, 0.0), (1.0, 1.0)]
        for seed in range(12):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            q = rng.uniform(0.1, 30, size=(n, m))
            alpha, beta = exponents[seed % 4]
            params = AcoParams(alpha=alpha, beta=beta)
            self.check_pair(q, float(rng.integers(1, 12)), params, seed)

    def test_zero_budget_pair_moves_uniformly(self):
        # all-zero S: every transition weight is zero, so rows are uniform
        self.check_pair(np.ones((4, 5)), 0.0, AcoParams(), 3)

    def test_random_networks_with_isolated_vertex(self):
        rng = np.random.default_rng(32)
        for seed in range(12):
            vertex_count = int(rng.integers(6, 25))
            pairs = [
                (u, v) for u in range(vertex_count - 1) for v in range(u + 1, vertex_count - 1)
            ]
            # the last vertex touches no edge: its ants stay put and draw nothing
            picked = rng.permutation(len(pairs))[: int(rng.integers(2, len(pairs)))]
            cut = max(1, len(picked) // 3)
            inter = sorted(pairs[i] for i in picked[:cut])
            intra = [pairs[i] for i in picked[cut:]]
            s = rng.uniform(0.05, 3.0, size=len(inter)).tolist()
            self.check(
                vertex_count, inter, s, intra, sum(s) / len(s), AcoParams(), seed,
                lambda rng: rng.integers(0, vertex_count, size=vertex_count).tolist(),
            )

    def test_every_ant_on_an_isolated_vertex(self):
        colony = colony_from_edges(
            5, [(0, 1)], [1.0], [], 1.0, AcoParams(), np.random.default_rng(0)
        )
        colony.ants[:] = [2, 3, 4, 4, 2]
        state = colony.rng.bit_generator.state
        assert colony.step().tolist() == [0]
        assert colony.ants.tolist() == [2, 3, 4, 4, 2]
        assert colony.rng.bit_generator.state == state

    def test_block_boundary_degrees_with_dead_rows(self):
        # several degree groups occupied in every step, all -inf rows among them
        rng = np.random.default_rng(33)
        vertex_count, inter, s, intra = star_network(rng)
        self.check(
            vertex_count, inter, s, intra, 0.5, AcoParams(), 5,
            lambda rng: rng.integers(0, vertex_count, size=vertex_count).tolist(),
            steps=8,
        )

    def test_large_pair_rows(self):
        # a 70 + 65 pair: every row has degree 134, past one pairwise block
        rng = np.random.default_rng(34)
        self.check_pair(rng.uniform(0.1, 30, size=(70, 65)), 9.0, AcoParams(), 6)


def pair_graph(q, e, params):
    return ColonyGraph.pair(edge_probabilities(q, e), params.beta)


class TestLocalAco:
    def test_concentrated_q_always_selected(self):
        params = AcoParams()
        q = np.ones((6, 7))
        q[2, 3] = 50.0
        graph = pair_graph(q, 3.0, params)
        hits = 0
        for seed in range(20):
            result = local_aco((6, 7), graph, params, np.random.default_rng(seed))
            hits += (3, 4) in result.cells
        assert hits >= 19  # >= 0.95 frequency

    def test_lambda_one_keeps_only_argmax(self):
        params = AcoParams(lambda_min=1.0)
        graph = pair_graph(np.ones((4, 4)), 4.0, params)
        result = local_aco((4, 4), graph, params, np.random.default_rng(1))
        colony = Colony(graph, params, np.random.default_rng(1))
        colony.run()
        tau = colony.tau[:16]
        max_cells = [(k // 4 + 1, k % 4 + 1) for k in np.flatnonzero(tau == tau.max())]
        assert sorted(result.cells) == max_cells

    def test_cells_are_the_tau_ratios_clearing_lambda_min(self):
        q = np.random.default_rng(7).uniform(1.0, 3.0, size=(4, 5))
        for lambda_min in (0.8, 0.3):
            params = AcoParams(lambda_min=lambda_min)
            graph = pair_graph(q, 4.0, params)
            result = local_aco((4, 5), graph, params, np.random.default_rng(1))
            colony = Colony(graph, params, np.random.default_rng(1))
            assert colony.run() == result.iterations
            ratio = colony.tau[:20] / colony.tau[:20].max()
            expected = [(k // 5 + 1, k % 5 + 1) for k in np.flatnonzero(ratio >= lambda_min)]
            assert list(result.cells) == expected

    def test_planted_signal_recovery(self):
        # one boosted cell per pair across several pairs: >= 80% recovered
        params = AcoParams()
        recovered = total = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q = np.ones((9, 9))
            r, c = int(rng.integers(9)), int(rng.integers(9))
            q[r, c] = 26.0
            result = local_aco((9, 9), pair_graph(q, 1.0, params), params, rng)
            total += 1
            recovered += (r + 1, c + 1) in result.cells
        assert recovered / total >= 0.8

    def test_graph_of_another_pair_shape_rejected(self):
        params = AcoParams()
        graph = pair_graph(np.ones((3, 5)), 2.0, params)
        with pytest.raises(ValueError, match="15 inter-SSE edges, not 3 x 4"):
            local_aco((3, 4), graph, params, np.random.default_rng(0))

    def test_one_graph_serves_every_simulation(self):
        # colonies only read their graph: sharing it equals one graph each
        params = AcoParams()
        q = np.random.default_rng(2).uniform(1, 9, size=(5, 6))
        graph = pair_graph(q, 3.0, params)
        for seed in range(4):
            shared = local_aco((5, 6), graph, params, np.random.default_rng(seed))
            own = local_aco((5, 6), pair_graph(q, 3.0, params), params, np.random.default_rng(seed))
            assert shared == own


class TestColonyGraph:
    def test_pair_slot_layout(self):
        n, m = 3, 4
        s = np.arange(1.0, 13.0).reshape(n, m)
        graph = ColonyGraph.pair(s, 2.0)
        assert graph.degree.tolist() == [n + m - 1] * (n + m)
        assert graph.s.tolist() == s.ravel().tolist()
        for v in range(n + m):
            nbrs = graph.neighbors[v].tolist()
            assert nbrs == [w for w in range(n + m) if w != v]
            for w, slot in zip(nbrs, graph.slots[v].tolist()):
                x, y = min(v, w), max(v, w)
                if x < n <= y:  # X-Y: cell (x, y - n)
                    assert slot == x * m + (y - n)
                else:  # X-X or Y-Y: the shared intra slot
                    assert slot == n * m
        expected = [2.0 * math.log(x) for x in [*s.ravel().tolist(), float(s.mean())]]
        assert graph.s_term.tolist() == expected

    def test_no_inter_edge_rejected(self):
        with pytest.raises(ValueError, match="at least one inter-SSE edge"):
            ColonyGraph.from_edges(3, [], [], [(0, 1)], 1.0, 12.0)

    def test_edge_outside_the_vertices_rejected(self):
        with pytest.raises(ValueError, match="leaves the vertices 0..2"):
            ColonyGraph.from_edges(3, [(0, 3)], [1.0], [], 1.0, 12.0)


def reference_global_aco(vertices, intra_edges, candidates, e_p, params, rng):
    """The dict-keyed stage two, kept as the oracle of `global_aco`: an index
    dict over the sorted vertices, slots in sorted edge order, and a sort of
    every candidate by (-normalized tau, edge).  Returns (selected,
    normalized tau per candidate, shortfall, iterations)."""
    if e_p <= 0:
        raise ValueError(f"number of edges to predict must be positive, got {e_p}")
    cand = {(min(u, v), max(u, v)): float(w) for (u, v), w in candidates.items()}
    if not cand:
        return (), {}, e_p, 0
    inter = sorted(cand)
    s = [cand[e] for e in inter]
    index = {v: i for i, v in enumerate(sorted(vertices))}
    graph = ColonyGraph.from_edges(
        len(index),
        [(index[u], index[v]) for u, v in inter],
        s,
        [(index[u], index[v]) for u, v in intra_edges],
        left_sum(s) / len(s),
        params.beta,
    )
    colony = Colony(graph, params, rng)
    iterations = colony.run()
    taus = colony.tau[: len(inter)]
    tau_max = float(taus.max())
    normalized = {e: tau / tau_max for e, tau in zip(inter, taus.tolist())}
    ranked = sorted(normalized, key=lambda e: (-normalized[e], e))
    selected = tuple(sorted(ranked[: min(e_p, len(ranked))]))
    shortfall = max(0, e_p - len(selected))
    return selected, normalized, shortfall, iterations


class TestGlobalAco:
    def network(self):
        """The planted query's SSE-IN: intra-SSE edges plus true shortcuts."""
        instance = make_planted_instance(
            "net", (6, 6, 6, 6), np.random.default_rng(5), boost_fraction=1.0
        )
        return instance.query

    def run(self, query, edges, e_p, seed):
        edges = np.array(edges, dtype=np.intp)
        return global_aco(
            query, edges, np.ones(len(edges)), e_p, AcoParams(), np.random.default_rng(seed)
        )

    def test_candidates_below_budget_returned_whole(self):
        query = self.network()
        result = self.run(query, query.shortcut_edges[:2], 5, 0)
        assert result.selected == query.shortcut_edges[:2]
        assert result.shortfall == 3

    def test_budget_one_takes_top_pheromone(self):
        query = self.network()
        result = self.run(query, query.shortcut_edges, 1, 0)
        assert len(result.selected) == 1
        assert result.selected_tau == (1.0,)

    def test_output_size_is_min(self):
        query = self.network()
        count = len(query.shortcut_edges)
        for e_p in (1, 2, count, count + 3):
            result = self.run(query, query.shortcut_edges, e_p, 1)
            assert len(result.selected) == len(result.selected_tau) == min(e_p, count)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            self.run(self.network(), [(1, 7)], 0, 0)

    def test_empty_candidate_set_rejected(self):
        edges = np.empty((0, 2), dtype=np.intp)
        with pytest.raises(ValueError, match="non-empty candidate set"):
            global_aco(
                self.network(), edges, np.empty(0), 3, AcoParams(), np.random.default_rng(0)
            )

    def test_matches_the_dict_reference(self):
        """Random candidate sets on planted queries, passed in shuffled
        order: the same picks, taus, iteration count, shortfall and
        generator state as the dict-keyed reference."""
        rng = np.random.default_rng(41)
        cut_ties = 0
        for case in range(20):
            sizes = tuple(int(x) for x in rng.integers(3, 9, size=int(rng.integers(2, 6))))
            query = make_planted_instance(
                f"g{case}", sizes, np.random.default_rng(case), boost_fraction=1.0
            ).query
            ranges = query.sse_ranges
            cross = [
                (u, v)
                for a in range(len(ranges))
                for b in range(a + 1, len(ranges))
                for u in range(ranges[a][0], ranges[a][1] + 1)
                for v in range(ranges[b][0], ranges[b][1] + 1)
            ]
            picked = rng.permutation(len(cross))[: int(rng.integers(1, 40))]
            edges = np.array([cross[i] for i in picked], dtype=np.intp)
            if case % 2:  # tied weights
                s = rng.choice([0.25, 1.0], size=len(edges))
            else:
                s = rng.uniform(0.05, 3.0, size=len(edges))
            e_p = [1, len(edges) + 2, int(rng.integers(1, len(edges) + 1))][case % 3]
            params = AcoParams(max_iterations=int(rng.integers(2, 40)))

            new_rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
            result = global_aco(query, edges, s, e_p, params, new_rng)
            selected, normalized, shortfall, iterations = reference_global_aco(
                query.vertices,
                query.intra_edges,
                dict(zip(map(tuple, edges.tolist()), s.tolist())),
                e_p,
                params,
                ref_rng,
            )
            assert result.selected == selected
            assert result.selected_tau == tuple(normalized[e] for e in selected)
            assert (result.iterations, result.shortfall) == (iterations, shortfall)
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state
            ranked = sorted(normalized.values(), reverse=True)
            cut_ties += e_p < len(ranked) and ranked[e_p - 1] == ranked[e_p]
        # ties at the E_p cut are decided by edge, so they must occur
        assert cut_ties >= 3


class TestValidateBuiltNetwork:
    def test_template_accepts_itself(self):
        graph = make_planted_instance("v", (7, 7, 7, 7), np.random.default_rng(2)).query
        profile = topological_profile(graph.vertices, graph.edges)
        assert validate_built_network(profile, profile, tol=0.2)

    def test_gross_distortion_rejected(self):
        graph = make_planted_instance("v", (7, 7, 7, 7), np.random.default_rng(2)).query
        profile = topological_profile(graph.vertices, graph.edges)
        # strip every shortcut: the graph falls apart into SSE chains
        stripped = replace(graph, shortcut_edges=())
        built = topological_profile(stripped.vertices, stripped.edges)
        assert not validate_built_network(built, profile, tol=0.2)

    def test_acceptance_degrades_with_perturbation(self):
        inst = make_planted_instance(
            "v", (7, 7, 7, 7), np.random.default_rng(2), shortcuts_per_pair=2
        )
        truth = inst.query
        profile = topological_profile(truth.vertices, truth.edges)
        rng = np.random.default_rng(9)
        acceptance = []
        shortcuts = list(truth.shortcut_edges)
        for removed in range(len(shortcuts) + 1):
            accepted = 0
            for _ in range(10):
                keep_idx = rng.choice(
                    len(shortcuts), size=len(shortcuts) - removed, replace=False
                )
                kept = tuple(shortcuts[i] for i in sorted(keep_idx))
                graph = replace(truth, shortcut_edges=kept)
                built = topological_profile(graph.vertices, graph.edges)
                accepted += validate_built_network(built, profile, tol=0.2)
            acceptance.append(accepted)
        assert acceptance[0] == 10  # unperturbed always accepted
        assert acceptance[-1] < 10  # fully stripped mostly rejected
        assert all(a >= acceptance[-1] for a in acceptance[:2])


class TestTemplateProtein:
    def test_position_mapping(self):
        # residues 1 and 4 are the ends of SSE 1, residue 5 the start of SSE 2
        template = template_from_sizes((4, 6), [((1, 1), (2, 1)), ((1, 4), (2, 6))])
        assert template.shortcut_edges == ((1, 5), (4, 10))
        (first_u, first_w), (last_u, last_w) = template.shortcut_cells()
        assert first_u == (1, pytest.approx(0.25))
        assert first_w == (2, pytest.approx(1 / 6))
        assert last_u == (1, pytest.approx(1.0))
        assert last_w == (2, pytest.approx(1.0))

    def test_position_table_matches_range_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            template = random_template(rng, 6, 40)
            cells = template.shortcut_cells()
            assert len(cells) == len(template.shortcut_edges)
            for (u, w), (cell_u, cell_w) in zip(template.shortcut_edges, cells):
                assert cell_u == reference_sse_position(template, u)
                assert cell_w == reference_sse_position(template, w)

    @settings(max_examples=60)
    @given(st.integers(2, 8), st.integers(0, 25), st.integers(0, 2**32 - 1))
    def test_sse_links_match_sse_id_adjacency(self, sse_count, edges, seed):
        template = random_template(np.random.default_rng(seed), sse_count, edges)
        links = template.sse_links()
        assert links == reference_sse_links(template)
        assert all(type(k) is int for link in links for k in link)

    def test_sse_links_of_a_parsed_structure(self):
        # four packed helices in a row: only consecutive helices touch
        text, _ = multi_helix_protein(4)
        template = build_contact_map(parse_pdb_detailed(text, "four").structure)
        assert template.sse_links() == [(1, 2), (2, 3), (3, 4)]
        assert template.sse_links() == reference_sse_links(template)

    def test_stray_vertex_rejected_by_sse_links(self):
        # the SSE-IN rejects the stray vertex, so no template reaches sse_links
        with pytest.raises(ValueError, match=r"edge \(2, 9\): vertex 9 is outside every SSE"):
            stray_vertex_template().sse_links()

    # before the first SSE, in the gap between the two, after the last
    @pytest.mark.parametrize("stray", [1, 5, 9])
    def test_vertex_outside_every_range_rejected(self, stray):
        edge = (min(stray, 4), max(stray, 4))
        with pytest.raises(ValueError, match=f"vertex {stray} is outside every SSE range"):
            SseInGraph(("A", "B"), ((3, 4), (7, 8)), (), (edge,))

    def test_mismatched_ranges_rejected(self):
        with pytest.raises(ValueError, match="sse_ids and sse_ranges must align"):
            SseInGraph(("A",), ((1, 2), (3, 4)), (), ())
        # out of order, overlapping, reversed, before residue 1
        for ranges in (((3, 4), (1, 2)), ((1, 2), (2, 3)), ((1, 2), (4, 3)), ((0, 2), (3, 4))):
            with pytest.raises(ValueError, match="does not follow the previous SSE"):
                SseInGraph(("A", "B"), ranges, (), ())

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AcoParams(rho=1.5)
        with pytest.raises(ValueError):
            AcoParams(lambda_min=0.0)
        with pytest.raises(ValueError):
            AcoParams(delta_tau=-1.0)

    @pytest.mark.parametrize("name", ["alpha", "beta", "delta_tau", "e_stop", "initial_tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AcoParams(**{name: value})

    @pytest.mark.parametrize("e_stop", [1.0, 0.5, 0.0, -3.0])
    def test_e_stop_at_most_one_rejected(self, e_stop):
        # the stop rule would hold after the first update, keeping every cell
        with pytest.raises(ValueError, match=f"e_stop must be > 1, got {e_stop}"):
            AcoParams(e_stop=e_stop)
