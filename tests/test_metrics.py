import itertools
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssein.metrics import (
    TopologicalProfile,
    incidence_edges,
    incidence_matrix,
    is_compatible,
    matrix_error_rate,
    modularity,
    prediction_accuracy,
    profile_deviation,
    topological_profile,
)


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
        assert incidence_edges(m) == [(1, 2), (1, 3), (2, 4), (3, 4)]

    @settings(max_examples=40)
    @given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 2**16))
    def test_matches_nested_loop_order(self, n, p, seed):
        upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, k=1)
        m = (upper | upper.T).astype(np.int8)
        expected = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if m[i, j]]
        assert incidence_edges(m) == expected
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
    TEMPLATE = TopologicalProfile(5.0, 2.5, 4.0, 0.5)

    def test_identical_profiles(self):
        assert is_compatible(self.TEMPLATE, self.TEMPLATE, 0.2)

    def test_one_field_25_percent_off(self):
        candidate = TopologicalProfile(5.0, 2.5, 5.0, 0.5)  # mean_degree +25%
        assert not is_compatible(candidate, self.TEMPLATE, 0.2)

    def test_exactly_20_percent_is_inclusive(self):
        candidate = TopologicalProfile(6.0, 3.0, 4.8, 0.6)  # all fields +20%
        assert is_compatible(candidate, self.TEMPLATE, 0.2)

    def test_self_compatibility_any_tol(self):
        for tol in (0.01, 0.1, 0.5, 0.99):
            assert is_compatible(self.TEMPLATE, self.TEMPLATE, tol)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            is_compatible(self.TEMPLATE, self.TEMPLATE, 0.0)
        zero = TopologicalProfile(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            is_compatible(self.TEMPLATE, zero, 0.2)

    def test_profile_deviation_zero_template_field(self):
        zero = TopologicalProfile(0.0, 0.0, 0.0, 0.0)
        assert profile_deviation(zero, zero) == 0.0
        assert profile_deviation(self.TEMPLATE, zero) == float("inf")


class TestModularity:
    def test_single_cluster_is_zero(self):
        vertices, edges = random_graph(8, 0.5, 3)
        q = modularity(vertices, edges, {v: 0 for v in vertices})
        assert q == pytest.approx(0.0, abs=1e-15)

    def test_two_disjoint_triangles(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        clustering = {0: "a", 1: "a", 2: "a", 3: "b", 4: "b", 5: "b"}
        assert modularity(range(6), edges, clustering) == pytest.approx(0.5)

    def test_edgeless_graph_is_zero(self):
        assert modularity(range(5), [], {v: v for v in range(5)}) == 0.0

    def test_matches_per_edge_oracle(self):
        for seed in range(8):
            n = 12
            vertices, edges = random_graph(n, 0.3, seed)
            rng = np.random.default_rng(seed)
            clustering = {v: int(rng.integers(0, 3)) for v in vertices}
            # oracle: Q = (1/2m) sum_ij (A_ij - k_i k_j / 2m) delta(c_i, c_j)
            if not edges:
                continue
            m = len(edges)
            adj = np.zeros((n, n))
            for u, v in edges:
                adj[u, v] = adj[v, u] = 1
            deg = adj.sum(axis=1)
            expected = 0.0
            for i in range(n):
                for j in range(n):
                    if clustering[i] == clustering[j]:
                        expected += adj[i, j] - deg[i] * deg[j] / (2 * m)
            expected /= 2 * m
            assert modularity(vertices, edges, clustering) == pytest.approx(
                expected, abs=1e-12
            )

    def test_missing_assignment(self):
        with pytest.raises(ValueError):
            modularity(range(3), [(0, 1)], {0: 0, 1: 0})


class TestMatrixErrorRate:
    def test_identical(self):
        m = np.array([[0, 1], [1, 0]])
        assert matrix_error_rate(m, m) == 0.0

    def test_symmetric_difference_counted_twice(self):
        a = np.zeros((3, 3), dtype=int)
        b = np.zeros((3, 3), dtype=int)
        b[0, 1] = b[1, 0] = 1
        assert matrix_error_rate(a, b) == pytest.approx(2 / 9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 8
            a = np.triu(rng.integers(0, 2, size=(n, n)), k=1)
            a = a + a.T
            b = np.triu(rng.integers(0, 2, size=(n, n)), k=1)
            b = b + b.T
            expected = sum(
                1 for i in range(n) for j in range(n) if a[i, j] != b[i, j]
            ) / (n * n)
            assert matrix_error_rate(a, b) == pytest.approx(expected)
            assert matrix_error_rate(a, b) == matrix_error_rate(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matrix_error_rate(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_asymmetric_rejected(self):
        bad = np.array([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            matrix_error_rate(bad, np.zeros((2, 2), dtype=int))


class TestPredictionAccuracy:
    def test_exact(self):
        assert prediction_accuracy(100, 100) == 1.0

    def test_under(self):
        assert prediction_accuracy(90, 100) == pytest.approx(0.9)

    def test_negative_allowed(self):
        assert prediction_accuracy(250, 100) == pytest.approx(-0.5)

    def test_zero_predicted_is_error(self):
        with pytest.raises(ValueError):
            prediction_accuracy(10, 0)
