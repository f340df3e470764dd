"""Graph topology measurements, profile deviation and error scores.

The topological profile (diameter, characteristic path length, mean degree,
clustering coefficient) summarizes a graph; `profile_deviation` is the
largest relative field deviation from a family template, which the family
gate, `aco.validate_built_network`, bounds.  Hop distances come from one
breadth-first search run from all sources at once over per-vertex bitsets.
Of equal largest components, the one holding the earliest vertex in input
order is measured, and float sums run left to right in vertex order, so
profiles are exact across Python versions (builtin `sum` over floats is
compensated from 3.12 on).

The error rate reads SSE graphs as link sets; `incidence_matrix` builds
the M x M matrix only for the report files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

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


def incidence_matrix(edges: Iterable[Edge], size: int) -> np.ndarray:
    """Symmetric 0/1 int8 matrix of 1-based edges, for the one consumer
    that needs a matrix: the incidence outputs of `predict`."""
    matrix = np.zeros((size, size), dtype=np.int8)
    for i, j in edges:
        matrix[i - 1, j - 1] = matrix[j - 1, i - 1] = 1
    return matrix


def _neighbour_sets(
    vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]
) -> tuple[dict[Vertex, int], list[set[int]]]:
    """(Each distinct vertex's position in first-seen order, each one's
    neighbours as positions.)  A self-loop or an endpoint outside the
    vertices raises, at the first edge that has one."""
    index = {v: i for i, v in enumerate(dict.fromkeys(vertices))}
    nbrs: list[set[int]] = [set() for _ in index]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        iu, iv = index.get(u), index.get(v)
        if iu is None or iv is None:
            raise ValueError(f"edge ({u!r}, {v!r}) endpoint outside vertex set")
        nbrs[iu].add(iv)
        nbrs[iv].add(iu)
    return index, nbrs


def topological_profile(
    vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]
) -> TopologicalProfile:
    """Profile of an undirected graph.

    Diameter and characteristic path length are hop counts over the largest
    connected component; mean degree is 2|E|/|V| over the whole graph; the
    clustering coefficient averages per-vertex triangle density, counting 0
    for vertices of degree < 2.
    """
    _, sets = _neighbour_sets(vertices, edges)
    n = len(sets)
    if not n:
        raise ValueError("graph has no vertices")
    nbrs = [list(nb) for nb in sets]

    # Bit s of unreached[v]: source s is not yet within the current level of
    # v (hop distance is symmetric); frontier[v]: the sources new at the last
    # level.  A vertex that gains no source at a level has none left to gain,
    # so its eccentricity is the level before.
    frontier = [1 << v for v in range(n)]
    full = (1 << n) - 1
    unreached = [full ^ bit for bit in frontier]
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
            new &= unreached[v]
            if new:
                gained[v] = new
                unreached[v] ^= new
                dist_sum[v] += level * new.bit_count()
                still.append(v)
            else:
                ecc[v] = level - 1
        frontier, active = gained, still

    # v's component is full ^ unreached[v]; ties go to the first in vertex order.
    size = [n - r.bit_count() for r in unreached]
    largest = max(size)
    if largest == n:
        diameter, total = max(ecc), sum(dist_sum)
    else:
        component = full ^ unreached[size.index(largest)]
        members = [v for v in range(n) if component >> v & 1]
        diameter = max(ecc[v] for v in members)
        total = sum(dist_sum[v] for v in members)
    pair_count = largest * (largest - 1)
    cpl = total / pair_count if pair_count else 0.0

    mean_degree = sum(len(nb) for nb in nbrs) / n

    # Neighbour masks count each triangle at v twice.
    masks = []
    for nb in nbrs:
        mask = 0
        for u in nb:
            mask |= 1 << u
        masks.append(mask)
    clustering_sum = 0.0
    for v, nb in enumerate(nbrs):
        k = len(nb)
        if k < 2:
            continue
        mask = masks[v]
        twice = 0
        for u in nb:
            twice += (masks[u] & mask).bit_count()
        clustering_sum += twice // 2 / (k * (k - 1) / 2)
    clustering = clustering_sum / n

    return TopologicalProfile(float(diameter), cpl, mean_degree, clustering)


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


def link_error_rate(predicted: Iterable[Edge], truth: Iterable[Edge], size: int) -> float:
    """Fraction of differing entries between the size x size incidence
    matrices of two 1-based link sets, i < j: each link in one set only
    differs in two mirrored entries."""
    return 2 * len(set(predicted) ^ set(truth)) / (size * size)


def prediction_accuracy(e_real: int, e_pred: int) -> float:
    """AC = 1 - |E_R - E_p| / E_p for E_p > 0; may be negative and is
    reported as-is."""
    return 1.0 - abs(e_real - e_pred) / e_pred
