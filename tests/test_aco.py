import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssein.aco import (
    AcoParams,
    FamilyMatchError,
    Colony,
    HeuristicMatrix,
    TemplateProtein,
    allele_distance,
    allocate_pair_budgets,
    build_occurrence_matrix,
    edge_probabilities,
    estimate_edge_budget,
    global_aco,
    local_aco,
    pair_colony,
    round_half_up,
    validate_built_network,
)
from ssein.contact import SseInGraph
from ssein.metrics import left_sum, topological_profile
from ssein.synth import make_planted_instance


def template_from_sizes(protein_id, sizes, shortcut_cells=(), intra_span=2):
    """TemplateProtein with chain-style intra edges and given shortcut cells.

    shortcut_cells: ((sse_a, pos_a), (sse_b, pos_b)) with 1-based positions.
    """
    ranges = []
    start = 1
    for s in sizes:
        ranges.append((start, start + s - 1))
        start += s
    sse_of = {}
    ids = [f"E{i + 1}" for i in range(len(sizes))]
    for k, (first, last) in enumerate(ranges):
        for v in range(first, last + 1):
            sse_of[v] = ids[k]
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
    graph = SseInGraph(tuple(sorted(sse_of)), tuple(intra), tuple(shortcuts), sse_of)
    return TemplateProtein(protein_id, tuple(sizes), tuple(ranges), graph)


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
        template = template_from_sizes("t", (10, 12, 8), cells)
        assert template.shortcut_count == 12
        assert template.residue_total == 30
        assert estimate_edge_budget((11, 12, 9), [template]) == 13

    def test_identical_sequence_returns_own_count(self):
        cells = [((1, 1), (2, 2)), ((1, 3), (2, 4)), ((2, 5), (3, 1))]
        template = template_from_sizes("t", (8, 9, 7), cells)
        assert estimate_edge_budget((8, 9, 7), [template]) == 3

    def test_uniform_rate_family_converges(self):
        rng = np.random.default_rng(11)
        rate = 0.25
        templates = []
        for t in range(6):
            sizes = tuple(int(s) for s in rng.integers(8, 13, size=3))
            count = round_half_up(rate * sum(sizes))
            cells = []
            for c in range(count):
                cells.append(((1, 1 + c % sizes[0]), (2, 1 + c % sizes[1])))
            cells = list(dict.fromkeys(cells))
            templates.append(template_from_sizes(f"t{t}", sizes, cells))
        sequence = (10, 10, 10)
        e_p = estimate_edge_budget(sequence, templates)
        assert e_p / sum(sequence) == pytest.approx(rate, abs=0.07)

    def test_no_matching_sse_count(self):
        template = template_from_sizes("t", (5, 5), [((1, 1), (2, 1))])
        with pytest.raises(FamilyMatchError):
            estimate_edge_budget((5, 5, 5), [template])


class TestOccurrenceMatrix:
    def test_no_evidence_gives_uniform(self):
        template = template_from_sizes("t", (6, 7))
        q = build_occurrence_matrix([template], (1, 2), 6, 7)
        assert np.array_equal(q, np.ones((6, 7)))

    def test_central_edge_maps_to_central_cell(self):
        # edge at relative position (0.5, 0.5) of a 10x10 pair
        template = template_from_sizes("t", (10, 10), [((1, 5), (2, 5))])
        q = build_occurrence_matrix([template], (1, 2), 10, 10)
        assert q[4, 4] == 2.0
        assert q.sum() == 101.0

    def test_counting_oracle_with_rescaling(self):
        # template SSEs sized 10, query pair sized 5: position u maps to
        # round_half_up(u/10 * 5)
        cells = [((1, u), (2, u)) for u in (1, 5, 10)]
        template = template_from_sizes("t", (10, 10), cells)
        q = build_occurrence_matrix([template, template], (1, 2), 5, 5)
        assert q[0, 0] == 3.0  # 1/10 -> cell 1, two templates
        assert q[2, 2] == 3.0  # 5/10 -> cell ceil(2.5) = 3
        assert q[4, 4] == 3.0  # 10/10 -> cell 5
        assert q.sum() == 25 + 6

    def test_orientation_swap(self):
        template = template_from_sizes("t", (4, 6), [((2, 3), (1, 2))])
        q = build_occurrence_matrix([template], (1, 2), 4, 6)
        assert q[1, 2] == 2.0  # stored as (pair SSE1 pos 2, SSE2 pos 3)


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
    h = HeuristicMatrix.from_q(q, e)
    assert h.s.shape == (n, m)
    return pair_colony(h, params, np.random.default_rng(seed)), h


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
        colony, h = pair_state(1, 3, np.array([[1.0, 2.0, 3.0]]), 6.0, params)
        taus = [2.0, 1.0, 3.0]  # x1-y1, x1-y2, x1-y3
        colony.tau[:3] = taus
        nbrs, probs = row(colony, 0)
        weights = [
            Fraction(int(taus[j - 1])) ** 25 * Fraction(h.s[0, j - 1]).limit_denominator(10**12) ** 12
            for j in nbrs
        ]
        total = sum(weights)
        for p, w in zip(probs, weights):
            assert p == pytest.approx(float(w / total), rel=1e-9)

    def test_stability_at_published_exponents(self):
        params = AcoParams()
        rng = np.random.default_rng(4)
        colony, _ = pair_state(4, 5, rng.uniform(0.5, 50, size=(4, 5)), 5.0, params)
        for slot in range(colony.n_inter):
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
            counts = np.array([int(rng.integers(0, 3)) for _ in range(colony.n_inter)])
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
        colony = Colony.from_edges(vertex_count, inter, s, intra, s_intra, params, rng)
        colony.tau[:] = rng.uniform(1.0, 1e4, size=colony.tau.size)
        tau = dict(zip(inter, colony.tau.tolist()))
        s_of = dict(zip(inter, s))
        adjacency = reference_adjacency(vertex_count, [*inter, *intra])
        log_weights = colony.log_weights()
        for d in sorted(set(colony.degree.tolist()) - {0}):
            group = np.flatnonzero(colony.degree == d)
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
        colony = Colony.from_edges(
            4, [(0, 1), (1, 2)], [1.0, 1.0], [(2, 3)], 1.0, AcoParams(),
            np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="one degree"):
            colony.rows(np.array([0, 1]), colony.log_weights())


class TestColonyOracle:
    """Colony steps against the per-ant reference: same ant positions, move
    counts, pheromone and generator state after every step."""

    def check(self, vertex_count, inter, s, intra, s_intra, params, seed, ants, steps=40):
        colony = Colony.from_edges(
            vertex_count, inter, s, intra, s_intra, params, np.random.default_rng(seed)
        )
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
        h = HeuristicMatrix.from_q(q, e)
        n, m = h.s.shape
        colony = pair_colony(h, params, np.random.default_rng(seed))
        inter = [(x, y) for x in range(n) for y in range(n, n + m)]
        assert colony.n_inter == len(inter)
        intra = [(u, v) for u in range(n + m) for v in range(u + 1, n + m) if (u < n) == (v < n)]
        self.check(
            n + m, inter, h.s.ravel().tolist(), intra, float(h.s.mean()), params, seed,
            # pair ants were drawn as 1-based residue ids
            lambda rng: [int(v) - 1 for v in rng.integers(1, n + m + 1, size=n + m)],
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
        colony = Colony.from_edges(
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


class TestLocalAco:
    def test_concentrated_q_always_selected(self):
        params = AcoParams()
        hits = 0
        for seed in range(20):
            q = np.ones((6, 7))
            q[2, 3] = 50.0
            h = HeuristicMatrix.from_q(q, 3.0)
            result = local_aco((6, 7), h, params, np.random.default_rng(seed))
            hits += (3, 4) in result.cells
        assert hits >= 19  # >= 0.95 frequency

    def test_lambda_one_keeps_only_argmax(self):
        params = AcoParams(lambda_min=1.0)
        h = HeuristicMatrix.from_q(np.ones((4, 4)), 4.0)
        result = local_aco((4, 4), h, params, np.random.default_rng(1))
        max_cells = [(int(i) + 1, int(j) + 1) for i, j in np.argwhere(result.normalized_tau == 1.0)]
        assert sorted(result.cells) == sorted(max_cells)

    def test_planted_signal_recovery(self):
        # one boosted cell per pair across several pairs: >= 80% recovered
        params = AcoParams()
        recovered = total = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q = np.ones((9, 9))
            r, c = int(rng.integers(9)), int(rng.integers(9))
            q[r, c] = 26.0
            h = HeuristicMatrix.from_q(q, 1.0)
            result = local_aco((9, 9), h, params, rng)
            total += 1
            recovered += (r + 1, c + 1) in result.cells
        assert recovered / total >= 0.8

    def test_normalized_tau_in_unit_interval(self):
        params = AcoParams()
        h = HeuristicMatrix.from_q(np.ones((5, 5)), 5.0)
        result = local_aco((5, 5), h, params, np.random.default_rng(3))
        values = result.normalized_tau.ravel()
        assert max(values) == pytest.approx(1.0)
        assert all(0 <= v <= 1 + 1e-12 for v in values)


class TestGlobalAco:
    def network(self):
        instance = make_planted_instance(
            "net", (6, 6, 6, 6), np.random.default_rng(5), boost_fraction=1.0
        )
        return instance

    def test_candidates_below_budget_returned_whole(self):
        inst = self.network()
        candidates = {e: 1.0 for e in inst.true_shortcuts[:2]}
        result = global_aco(
            inst.graph.vertices,
            inst.graph.intra_edges,
            candidates,
            5,
            AcoParams(),
            np.random.default_rng(0),
        )
        assert set(result.selected) == set(candidates)
        assert result.shortfall == 3

    def test_budget_one_takes_top_pheromone(self):
        inst = self.network()
        candidates = {e: 1.0 for e in inst.true_shortcuts}
        result = global_aco(
            inst.graph.vertices,
            inst.graph.intra_edges,
            candidates,
            1,
            AcoParams(),
            np.random.default_rng(0),
        )
        assert len(result.selected) == 1
        top = max(result.normalized_tau.values())
        assert result.normalized_tau[result.selected[0]] == pytest.approx(top)

    def test_output_size_is_min(self):
        inst = self.network()
        candidates = {e: 1.0 for e in inst.true_shortcuts}
        for e_p in (1, 2, len(candidates), len(candidates) + 3):
            result = global_aco(
                inst.graph.vertices,
                inst.graph.intra_edges,
                candidates,
                e_p,
                AcoParams(),
                np.random.default_rng(1),
            )
            assert len(result.selected) == min(e_p, len(candidates))

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            global_aco([1, 2], [], {(1, 2): 1.0}, 0, AcoParams(), np.random.default_rng(0))


class TestValidateBuiltNetwork:
    def test_template_accepts_itself(self):
        inst = make_planted_instance("v", (7, 7, 7, 7), np.random.default_rng(2))
        profile = topological_profile(inst.graph.vertices, inst.graph.edges)
        assert validate_built_network(profile, profile, tol=0.2)

    def test_gross_distortion_rejected(self):
        inst = make_planted_instance("v", (7, 7, 7, 7), np.random.default_rng(2))
        profile = topological_profile(inst.graph.vertices, inst.graph.edges)
        # strip every shortcut: the graph falls apart into SSE chains
        stripped = SseInGraph(
            inst.graph.vertices, inst.graph.intra_edges, (), inst.graph.sse_of
        )
        built = topological_profile(stripped.vertices, stripped.edges)
        assert not validate_built_network(built, profile, tol=0.2)

    def test_acceptance_degrades_with_perturbation(self):
        inst = make_planted_instance(
            "v", (7, 7, 7, 7), np.random.default_rng(2), shortcuts_per_pair=2
        )
        profile = topological_profile(inst.graph.vertices, inst.graph.edges)
        rng = np.random.default_rng(9)
        acceptance = []
        shortcuts = list(inst.graph.shortcut_edges)
        for removed in range(len(shortcuts) + 1):
            accepted = 0
            for _ in range(10):
                keep_idx = rng.choice(
                    len(shortcuts), size=len(shortcuts) - removed, replace=False
                )
                kept = tuple(shortcuts[i] for i in sorted(keep_idx))
                graph = SseInGraph(
                    inst.graph.vertices, inst.graph.intra_edges, kept, inst.graph.sse_of
                )
                built = topological_profile(graph.vertices, graph.edges)
                accepted += validate_built_network(built, profile, tol=0.2)
            acceptance.append(accepted)
        assert acceptance[0] == 10  # unperturbed always accepted
        assert acceptance[-1] < 10  # fully stripped mostly rejected
        assert all(a >= acceptance[-1] for a in acceptance[:2])


class TestTemplateProtein:
    def test_position_mapping(self):
        template = template_from_sizes("t", (4, 6))
        assert template.sse_position(1) == (1, pytest.approx(0.25))
        assert template.sse_position(4) == (1, pytest.approx(1.0))
        assert template.sse_position(5) == (2, pytest.approx(1 / 6))

    def test_mismatched_ranges_rejected(self):
        graph = SseInGraph((1, 2), (), (), {1: "A", 2: "A"})
        with pytest.raises(ValueError):
            TemplateProtein("t", (2,), ((1, 3),), graph)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AcoParams(rho=1.5)
        with pytest.raises(ValueError):
            AcoParams(lambda_min=0.0)
        with pytest.raises(ValueError):
            AcoParams(delta_tau=-1.0)


class TestEdgeBudget:
    def test_heuristic_matrix_conservation_enforced(self):
        with pytest.raises(ValueError):
            HeuristicMatrix(np.ones((2, 2)), np.ones((2, 2)), 1.0)
