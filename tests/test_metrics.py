import itertools
import random
from collections import deque
from typing import Hashable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import upper_triangle_edges
from ssein.metrics import (
    TopologicalProfile,
    incidence_matrix,
    link_error_rate,
    prediction_accuracy,
    profile_deviation,
    topological_profile,
)
from ssein.aco import GATE_TOLERANCE, validate_built_network
from ssein.moga import decode, gene_links, modularity


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return list(range(n)), edges


def floyd_warshall(n, edges):
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def profile_oracle(n, edges):
    """Independent profile: Floyd-Warshall distances plus direct triangle counts."""
    dist = floyd_warshall(n, edges)
    components = []
    seen = set()
    for v in range(n):
        if v in seen:
            continue
        comp = [u for u in range(n) if dist[v][u] != float("inf")]
        seen.update(comp)
        components.append(comp)
    comp = max(components, key=len)
    pair_dists = [dist[u][v] for u in comp for v in comp if u != v]
    diameter = max(pair_dists) if pair_dists else 0
    cpl = sum(pair_dists) / len(pair_dists) if pair_dists else 0.0
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    mean_degree = sum(len(a) for a in adj.values()) / n
    cc = 0.0
    for v in range(n):
        k = len(adj[v])
        if k < 2:
            continue
        tri = sum(
            1 for a, b in itertools.combinations(adj[v], 2) if b in adj[a]
        )
        cc += tri / (k * (k - 1) / 2)
    return float(diameter), cpl, mean_degree, cc / n


class TestIncidenceEdges:
    def test_row_major_upper_triangle(self):
        m = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
        assert upper_triangle_edges(m) == [(1, 2), (1, 3), (2, 4), (3, 4)]
        assert np.array_equal(incidence_matrix([(1, 2), (1, 3), (2, 4), (3, 4)], 4), m)

    @settings(max_examples=40)
    @given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 2**16))
    def test_matches_nested_loop_order(self, n, p, seed):
        upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, k=1)
        m = (upper | upper.T).astype(np.int8)
        expected = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if m[i, j]]
        assert upper_triangle_edges(m) == expected
        assert np.array_equal(incidence_matrix(expected, n), m)


class TestTopologicalProfile:
    def test_path_graph_p4(self):
        p = topological_profile(range(4), [(0, 1), (1, 2), (2, 3)])
        assert p.diameter == 3
        assert p.mean_degree == 1.5
        assert p.clustering_coeff == 0
        assert p.char_path_length == pytest.approx(10 / 6)

    def test_complete_graph_k4(self):
        p = topological_profile(range(4), list(itertools.combinations(range(4), 2)))
        assert p.diameter == 1
        assert p.char_path_length == 1
        assert p.clustering_coeff == 1
        assert p.mean_degree == 3

    def test_matches_floyd_warshall_oracle(self):
        for seed in range(10):
            n = 50
            vertices, edges = random_graph(n, 0.08, seed)
            p = topological_profile(vertices, edges)
            diameter, cpl, mean_degree, cc = profile_oracle(n, edges)
            assert p.diameter == diameter
            assert p.char_path_length == cpl
            assert p.mean_degree == mean_degree
            assert p.clustering_coeff == pytest.approx(cc, abs=1e-12)

    def test_disconnected_uses_largest_component(self):
        # triangle plus isolated edge
        p = topological_profile(range(5), [(0, 1), (1, 2), (0, 2), (3, 4)])
        assert p.diameter == 1
        assert p.char_path_length == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            topological_profile([], [])

    def test_single_vertex(self):
        p = topological_profile([1], [])
        assert p.diameter == 0
        assert p.mean_degree == 0

    @settings(max_examples=25)
    @given(st.integers(3, 12), st.integers(0, 10_000))
    def test_invariant_under_relabeling(self, n, seed):
        vertices, edges = random_graph(n, 0.4, seed)
        p1 = topological_profile(vertices, edges)
        rng = np.random.default_rng(seed)
        perm = {v: int(w) for v, w in zip(vertices, rng.permutation(n))}
        p2 = topological_profile(
            [perm[v] for v in vertices], [(perm[u], perm[v]) for u, v in edges]
        )
        assert p1 == p2

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            TopologicalProfile(1.0, 2.0, 1.0, 0.5)  # cpl > diameter
        with pytest.raises(ValueError):
            TopologicalProfile(1.0, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError, match="mean_degree must be nonnegative, got -1.0"):
            TopologicalProfile(1.0, 1.0, -1.0, 0.5)


def reference_adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        if u not in adj or v not in adj:
            raise ValueError(f"edge ({u!r}, {v!r}) endpoint outside vertex set")
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reference_bfs_distances(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_largest_component(adj):
    seen = set()
    best = []
    for v in adj:
        if v in seen:
            continue
        component = list(reference_bfs_distances(adj, v))
        seen |= set(component)
        if len(component) > len(best):
            best = component
    return best


def reference_profile(vertices, edges):
    """The per-source BFS profile: one dict-and-deque BFS per vertex of the
    first largest component, pair counts and triangle links by set lookups,
    floats summed left to right in vertex order."""
    adj = reference_adjacency(vertices, edges)
    if not adj:
        raise ValueError("graph has no vertices")

    component = reference_largest_component(adj)
    diameter = 0
    path_sum = 0
    pair_count = 0
    for v in component:
        dist = reference_bfs_distances(adj, v)
        for u, d in dist.items():
            if u != v:
                path_sum += d
                pair_count += 1
                diameter = max(diameter, d)
    cpl = path_sum / pair_count if pair_count else 0.0

    degree_total = sum(len(nbrs) for nbrs in adj.values())
    mean_degree = degree_total / len(adj)

    clustering_sum = 0.0
    for v, nbrs in adj.items():
        k = len(nbrs)
        if k < 2:
            continue
        links = 0
        nbr_list = list(nbrs)
        for a in range(len(nbr_list)):
            for b in range(a + 1, len(nbr_list)):
                if nbr_list[b] in adj[nbr_list[a]]:
                    links += 1
        clustering_sum += links / (k * (k - 1) / 2)
    clustering = clustering_sum / len(adj)

    return TopologicalProfile(float(diameter), cpl, mean_degree, clustering)


LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"r{i}",
    "tuple": lambda i: ("A", i),
}


def labelled_graph(rng, sizes, density, isolated, label):
    """Connected components of the given sizes plus isolated vertices, in
    shuffled vertex order, edges reversed at random and some listed twice."""
    edges = []
    first = 0
    for size in sizes:
        members = list(range(first, first + size))
        for i in range(1, size):  # a random spanning tree keeps it connected
            edges.append((members[i], members[rng.randrange(i)]))
        for a, b in itertools.combinations(members, 2):
            if rng.random() < density:
                edges.append((a, b))
        first += size
    order = list(range(first + isolated))
    rng.shuffle(order)
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    edges += [(b, a) for a, b in rng.sample(edges, len(edges) // 4)]
    rng.shuffle(edges)
    return [label(v) for v in order], [(label(a), label(b)) for a, b in edges]


@st.composite
def profile_graphs(draw):
    """Components of random sizes or of one shared size (so the tie rule
    decides), up to ~200 vertices, with int, string or tuple labels."""
    count = draw(st.integers(1, 4))
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, 50))] * count
    else:
        sizes = draw(st.lists(st.integers(1, 50), min_size=count, max_size=count))
    return labelled_graph(
        random.Random(draw(st.integers(0, 2**32 - 1))),
        sizes,
        draw(st.floats(0.0, 0.3)),
        draw(st.integers(0, 5)),
        LABELS[draw(st.sampled_from(sorted(LABELS)))],
    )


class TestProfileOracle:
    """The all-sources bitset BFS against the per-source BFS reference:
    every field equal, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(profile_graphs())
    def test_matches_per_source_bfs(self, graph):
        vertices, edges = graph
        got = topological_profile(vertices, edges)
        assert got.as_dict() == reference_profile(vertices, edges).as_dict()

    def test_matches_per_source_bfs_near_200_vertices(self):
        rng = random.Random(8)
        for trial in range(12):
            size = rng.randint(45, 50)
            sizes = [size] * 4 if trial % 2 else [rng.randint(30, 50) for _ in range(4)]
            label = LABELS[sorted(LABELS)[trial % 3]]
            vertices, edges = labelled_graph(rng, sizes, rng.uniform(0, 0.1), 3, label)
            got = topological_profile(vertices, edges)
            assert got.as_dict() == reference_profile(vertices, edges).as_dict()

    @pytest.mark.parametrize("star_first", [True, False])
    def test_first_largest_component_wins(self, star_first):
        path = [("p", i) for i in range(4)]
        star = [("s", i) for i in range(4)]
        edges = [(path[i], path[i + 1]) for i in range(3)] + [(star[0], v) for v in star[1:]]
        vertices = star + path if star_first else path + star
        got = topological_profile(vertices, edges)
        assert got.diameter == (2.0 if star_first else 3.0)
        assert got == reference_profile(vertices, edges)

    def test_duplicate_vertices_and_edges_collapse(self):
        got = topological_profile([1, 2, 3, 2, 1], [(1, 2), (2, 1), (2, 3), (1, 2)])
        assert got == topological_profile([1, 2, 3], [(1, 2), (2, 3)])

    def test_errors(self):
        with pytest.raises(ValueError, match="self-loop at 'a'"):
            topological_profile(["a", "b"], [("a", "b"), ("a", "a")])
        with pytest.raises(ValueError, match=r"edge \('a', 'z'\) endpoint outside"):
            topological_profile(["a", "b"], [("a", "z")])
        with pytest.raises(ValueError, match="graph has no vertices"):
            topological_profile([], [])


class TestLargeGraphProfiles:
    """Closed forms on large graphs; exact, since each field is one
    correctly rounded division of integers."""

    @pytest.mark.parametrize("n", [2, 3, 10, 2000])
    def test_path(self, n):
        p = topological_profile(range(n), [(i, i + 1) for i in range(n - 1)])
        assert p.diameter == n - 1
        assert p.char_path_length == (n + 1) / 3
        assert p.mean_degree == 2 * (n - 1) / n
        assert p.clustering_coeff == 0.0

    @pytest.mark.parametrize("n", [4, 7, 1000, 1001])
    def test_cycle(self, n):
        k = n // 2
        per_vertex = k * k if n % 2 == 0 else k * (k + 1)  # distance sum from one vertex
        p = topological_profile(range(n), [(i, (i + 1) % n) for i in range(n)])
        assert p.diameter == k
        assert p.char_path_length == per_vertex / (n - 1)
        assert p.mean_degree == 2.0
        assert p.clustering_coeff == 0.0

    @pytest.mark.parametrize("n", [3, 10, 2000])
    def test_star(self, n):
        p = topological_profile(range(n), [(0, i) for i in range(1, n)])
        assert p.diameter == 2
        assert p.char_path_length == 2 * (n - 1) / n
        assert p.mean_degree == 2 * (n - 1) / n
        assert p.clustering_coeff == 0.0

    @pytest.mark.parametrize("n", [2, 3, 60, 400])
    def test_complete(self, n):
        p = topological_profile(range(n), list(itertools.combinations(range(n), 2)))
        assert p.diameter == 1
        assert p.char_path_length == 1.0
        assert p.mean_degree == n - 1
        assert p.clustering_coeff == (1.0 if n > 2 else 0.0)


class TestIsCompatible:
    """The family gate, `aco.validate_built_network`: is a built profile
    compatible with the family's?"""

    TEMPLATE = TopologicalProfile(5.0, 2.5, 4.0, 0.5)

    def test_identical_profiles(self):
        assert validate_built_network(self.TEMPLATE, self.TEMPLATE)

    def test_one_field_25_percent_off(self):
        candidate = TopologicalProfile(5.0, 2.5, 5.0, 0.5)  # mean_degree +25%
        assert not validate_built_network(candidate, self.TEMPLATE)

    def test_exactly_20_percent_is_inclusive(self):
        assert GATE_TOLERANCE == 0.2
        candidate = TopologicalProfile(6.0, 3.0, 4.8, 0.6)  # all fields +20%
        assert validate_built_network(candidate, self.TEMPLATE)

    def test_self_compatibility_any_tol(self):
        # a profile deviates by 0 from itself, so no tolerance can reject it
        for template in (self.TEMPLATE, TopologicalProfile(1.0, 1.0, 0.5, 1.0)):
            assert profile_deviation(template, template) == 0.0
            assert validate_built_network(template, template)

    def test_profile_deviation_zero_template_field(self):
        zero = TopologicalProfile(0.0, 0.0, 0.0, 0.0)
        assert profile_deviation(zero, zero) == 0.0
        assert profile_deviation(self.TEMPLATE, zero) == float("inf")


def reference_modularity(vertices, edges, clustering):
    """Newman-Girvan modularity of any vertex partition; the GA's
    component-only `modularity` must give the same float."""
    adj = reference_adjacency(vertices, edges)
    for v in adj:
        if v not in clustering:
            raise ValueError(f"vertex {v!r} has no cluster assignment")
    m = sum(len(nbrs) for nbrs in adj.values()) // 2
    if m == 0:
        return 0.0
    intra: dict[Hashable, int] = {}
    degree: dict[Hashable, int] = {}
    for v, nbrs in adj.items():
        c = clustering[v]
        degree[c] = degree.get(c, 0) + len(nbrs)
        for w in nbrs:
            if clustering[w] == c:
                intra[c] = intra.get(c, 0) + 1
    q = 0.0
    for c, d in degree.items():
        e_c = intra.get(c, 0) / 2  # each intra edge seen from both ends
        q += e_c / m - (d / (2 * m)) ** 2
    return q


def reference_matrix_error_rate(predicted, truth):
    """Fraction of differing entries between two symmetric 0-1 matrices."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {truth.shape}")
    for name, m in (("predicted", predicted), ("truth", truth)):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"{name} matrix must be square")
        if np.any(np.diag(m)) or not np.array_equal(m, m.T):
            raise ValueError(f"{name} matrix must be symmetric with zero diagonal")
    n = predicted.shape[0]
    return float(np.sum(predicted != truth)) / (n * n)


chromosomes = st.integers(1, 24).flatmap(
    lambda m: st.one_of(
        st.tuples(*[st.integers(1, m)] * m),
        st.just(tuple(range(1, m + 1))),  # all self-loops: no links
    )
)


def random_links(rng, n, p):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]


class TestModularity:
    """The GA's modularity of a chromosome over `decode`'s clusters."""

    def test_single_cluster_is_zero(self):
        ring = (2, 3, 4, 5, 6, 7, 8, 1)  # one connected component
        assert len(set(decode(ring).values())) == 1
        assert modularity(ring) == pytest.approx(0.0, abs=1e-15)

    def test_two_disjoint_triangles(self):
        genes = (2, 3, 1, 5, 6, 4)  # triangles 1-2-3 and 4-5-6
        assert gene_links(genes) == ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6))
        assert modularity(genes) == pytest.approx(0.5)

    def test_edgeless_graph_is_zero(self):
        assert modularity((1, 2, 3, 4, 5)) == 0.0

    def test_matches_per_edge_oracle(self):
        for seed in range(8):
            n = 12
            rng = np.random.default_rng(seed)
            genes = tuple(int(g) for g in rng.integers(1, n + 1, size=n))
            clustering = decode(genes)
            edges = gene_links(genes)
            # oracle: Q = (1/2m) sum_ij (A_ij - k_i k_j / 2m) delta(c_i, c_j)
            if not edges:
                continue
            m = len(edges)
            adj = np.zeros((n + 1, n + 1))
            for u, v in edges:
                adj[u, v] = adj[v, u] = 1
            deg = adj.sum(axis=1)
            expected = 0.0
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if clustering[i] == clustering[j]:
                        expected += adj[i, j] - deg[i] * deg[j] / (2 * m)
            expected /= 2 * m
            assert modularity(genes) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=500)
    @given(chromosomes)
    @example((1,))
    @example((1, 2, 3))
    def test_equals_general_reference(self, genes):
        m = len(genes)
        expected = reference_modularity(range(1, m + 1), gene_links(genes), decode(genes))
        assert modularity(genes) == expected


class TestMatrixErrorRate:
    """`link_error_rate`: the incidence-matrix error rate read from links."""

    def test_identical(self):
        assert link_error_rate([(1, 2)], [(1, 2)], 2) == 0.0

    def test_symmetric_difference_counted_twice(self):
        assert link_error_rate([], [(1, 2)], 3) == pytest.approx(2 / 9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 8
            a = random_links(rng, n, 0.5)
            b = random_links(rng, n, 0.5)
            ma, mb = incidence_matrix(a, n), incidence_matrix(b, n)
            expected = sum(
                1 for i in range(n) for j in range(n) if ma[i, j] != mb[i, j]
            ) / (n * n)
            assert link_error_rate(a, b, n) == pytest.approx(expected)
            assert link_error_rate(a, b, n) == link_error_rate(b, a, n)

    def test_equals_matrix_reference(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            a = random_links(rng, n, rng.random())
            b = random_links(rng, n, rng.random())
            expected = reference_matrix_error_rate(incidence_matrix(a, n), incidence_matrix(b, n))
            assert link_error_rate(a, b, n) == expected


class TestPredictionAccuracy:
    def test_exact(self):
        assert prediction_accuracy(100, 100) == 1.0

    def test_under(self):
        assert prediction_accuracy(90, 100) == pytest.approx(0.9)

    def test_negative_allowed(self):
        assert prediction_accuracy(250, 100) == pytest.approx(-0.5)
