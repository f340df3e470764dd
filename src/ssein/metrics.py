"""Graph topology measurements, the family compatibility gate and error scores.

The topological profile (diameter, characteristic path length, mean degree,
clustering coefficient) summarizes a graph; families of proteins accept a
candidate network when every profile field deviates at most 20% from the
family template.  Hop distances come from one breadth-first search run from
all sources at once over per-vertex bitsets.  Of equal largest components,
the one holding the earliest vertex in input order is measured, and float
sums run left to right in vertex order, so profiles are exact across Python
versions (builtin `sum` over floats is compensated from 3.12 on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

Vertex = Hashable
Edge = tuple[int, int]


@dataclass(frozen=True)
class TopologicalProfile:
    diameter: float
    char_path_length: float
    mean_degree: float
    clustering_coeff: float

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if self.clustering_coeff > 1:
            raise ValueError(f"clustering_coeff must be <= 1, got {self.clustering_coeff}")
        if self.char_path_length > self.diameter:
            raise ValueError("characteristic path length cannot exceed diameter")

    def as_dict(self) -> dict[str, float]:
        return {
            "diameter": self.diameter,
            "char_path_length": self.char_path_length,
            "mean_degree": self.mean_degree,
            "clustering_coeff": self.clustering_coeff,
        }


def left_sum(values: Iterable[float]) -> float:
    """Float sum taken left to right without compensation, as builtin `sum`
    took it before Python 3.12, so results are the same on every version."""
    total = 0.0
    for x in values:
        total += x
    return total


def incidence_edges(matrix: np.ndarray) -> list[Edge]:
    """Nonzero upper-triangle cells of a square matrix as 1-based (i, j)
    pairs with i < j, in row-major order."""
    rows, cols = np.nonzero(matrix)
    return [(i + 1, j + 1) for i, j in zip(rows.tolist(), cols.tolist()) if i < j]


def incidence_matrix(edges: Iterable[Edge], size: int) -> np.ndarray:
    """Symmetric 0/1 int8 matrix of 1-based edges: the inverse of
    `incidence_edges`."""
    matrix = np.zeros((size, size), dtype=np.int8)
    for i, j in edges:
        matrix[i - 1, j - 1] = matrix[j - 1, i - 1] = 1
    return matrix


def _adjacency(
    vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]
) -> dict[Vertex, set[Vertex]]:
    adj: dict[Vertex, set[Vertex]] = {v: set() for v in vertices}
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        if u not in adj or v not in adj:
            raise ValueError(f"edge ({u!r}, {v!r}) endpoint outside vertex set")
        adj[u].add(v)
        adj[v].add(u)
    return adj


def topological_profile(
    vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]
) -> TopologicalProfile:
    """Profile of an undirected graph.

    Diameter and characteristic path length are hop counts over the largest
    connected component; mean degree is 2|E|/|V| over the whole graph; the
    clustering coefficient averages per-vertex triangle density, counting 0
    for vertices of degree < 2.
    """
    adj = _adjacency(vertices, edges)
    if not adj:
        raise ValueError("graph has no vertices")

    index = {v: i for i, v in enumerate(adj)}
    nbrs = [[index[u] for u in adj[v]] for v in adj]
    n = len(nbrs)

    # Bit s of reached[v]: source s is within the current level of v (hop
    # distance is symmetric); frontier[v]: the sources new at the last level.
    # A vertex that gains no source at a level has none left to gain.
    frontier = [1 << v for v in range(n)]
    reached = frontier[:]
    dist_sum = [0] * n
    ecc = [0] * n
    active = [v for v in range(n) if nbrs[v]]
    level = 0
    while active:
        level += 1
        gained = [0] * n
        still = []
        for v in active:
            new = 0
            for u in nbrs[v]:
                new |= frontier[u]
            new &= ~reached[v]
            if new:
                gained[v] = new
                reached[v] |= new
                dist_sum[v] += level * new.bit_count()
                ecc[v] = level
                still.append(v)
        frontier, active = gained, still

    # reached[v] is now v's component; ties go to the first in vertex order.
    size = [r.bit_count() for r in reached]
    largest = max(size)
    component = reached[size.index(largest)]
    members = [v for v in range(n) if component >> v & 1]
    diameter = max(ecc[v] for v in members)
    pair_count = largest * (largest - 1)
    cpl = sum(dist_sum[v] for v in members) / pair_count if pair_count else 0.0

    mean_degree = sum(len(nb) for nb in nbrs) / n

    # Neighbour masks count each triangle at v twice.
    mask = [sum(1 << u for u in nb) for nb in nbrs]
    clustering_sum = 0.0
    for v, nb in enumerate(nbrs):
        k = len(nb)
        if k < 2:
            continue
        links = sum((mask[u] & mask[v]).bit_count() for u in nb) // 2
        clustering_sum += links / (k * (k - 1) / 2)
    clustering = clustering_sum / n

    return TopologicalProfile(float(diameter), cpl, mean_degree, clustering)


def is_compatible(
    candidate: TopologicalProfile, template: TopologicalProfile, tol: float
) -> bool:
    """Every profile field within a relative tolerance of the template.

    The boundary is inclusive: a field deviating exactly `tol` still passes.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    cand = candidate.as_dict()
    temp = template.as_dict()
    for name, t in temp.items():
        if t <= 0:
            raise ValueError(f"template {name} must be positive, got {t}")
        if abs(cand[name] - t) / t > tol:
            return False
    return True


def profile_deviation(candidate: TopologicalProfile, template: TopologicalProfile) -> float:
    """Largest per-field relative deviation from the template profile."""
    worst = 0.0
    cand = candidate.as_dict()
    for name, t in template.as_dict().items():
        if t == 0:
            worst = max(worst, 0.0 if cand[name] == 0 else float("inf"))
        else:
            worst = max(worst, abs(cand[name] - t) / t)
    return worst


def modularity(
    vertices: Iterable[Vertex],
    edges: Iterable[tuple[Vertex, Vertex]],
    clustering: Mapping[Vertex, Hashable],
) -> float:
    """Newman-Girvan modularity of a vertex partition.

    Q = sum over clusters of e_c/m - (d_c/2m)^2 with m total edges, e_c
    intra-cluster edges and d_c the cluster degree sum.  An edgeless graph
    has Q = 0 for every partition.
    """
    adj = _adjacency(vertices, edges)
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


def matrix_error_rate(predicted: np.ndarray, truth: np.ndarray) -> float:
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


def prediction_accuracy(e_real: int, e_pred: int) -> float:
    """AC = 1 - |E_R - E_p| / E_p; may be negative and is reported as-is."""
    if e_pred <= 0:
        raise ValueError(f"predicted edge count must be positive, got {e_pred}")
    return 1.0 - abs(e_real - e_pred) / e_pred
