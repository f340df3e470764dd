"""Synthetic planted instances for the benchmark harness.

Each instance plants a ground-truth SSE graph (two clusters of SSEs chained
by consecutive links) plus residue-level shortcut edges, and fabricates a
family of template proteins whose occurrence evidence boosts a chosen
fraction of the true shortcuts.  SSE features are built so that truth-linked
pairs sit close in space with matching backbone angles, while cross-cluster
links are far apart with clashing angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aco import TemplateProtein, round_half_up
from .contact import Edge, SseInGraph
from .metrics import incidence_matrix
from .moga import SseContext

# Per-cluster (phi, psi) signatures: same-cluster pairs have zero torsion
# difference, cross-cluster pairs a large one.
_CLUSTER_ANGLES = [(-57.0, -47.0), (80.0, 120.0), (-130.0, 150.0), (20.0, -100.0)]


@dataclass(frozen=True)
class PlantedInstance:
    instance_id: str
    sse_sizes: tuple[int, ...]
    sse_ranges: tuple[tuple[int, int], ...]
    sse_ids: tuple[str, ...]
    incidence_pairs: tuple[tuple[int, int], ...]  # 1-based SSE pairs, a < b
    true_incidence: np.ndarray
    true_shortcuts: tuple[Edge, ...]
    boosted_shortcuts: tuple[Edge, ...]
    graph: SseInGraph
    templates: tuple[TemplateProtein, ...]
    ctx: SseContext
    boost_fraction: float

    @property
    def sse_count(self) -> int:
        return len(self.sse_sizes)

    @property
    def e_real(self) -> int:
        return len(self.true_shortcuts)


def _cluster_split(m: int, clusters: int) -> list[list[int]]:
    clusters = max(1, min(clusters, m))
    sizes = [m // clusters + (1 if i < m % clusters else 0) for i in range(clusters)]
    groups = []
    start = 1
    for s in sizes:
        groups.append(list(range(start, start + s)))
        start += s
    return groups


def _intra_edges(first: int, last: int) -> list[Edge]:
    # Helix-like local contacts: neighbours up to three positions apart.
    return [
        (u, v)
        for u in range(first, last + 1)
        for v in range(u + 1, min(u + 3, last) + 1)
    ]


def make_planted_instance(
    instance_id: str,
    sse_sizes: tuple[int, ...],
    rng: np.random.Generator,
    *,
    shortcuts_per_pair: int = 1,
    boost_fraction: float = 1.0,
    q_boost: int | None = None,
    n_templates: int = 25,
    clusters: int = 2,
) -> PlantedInstance:
    """Build a planted instance with its fabricated template family.

    `boost_fraction` controls which share of the true shortcut edges shows
    up in the templates (and hence in the occurrence matrix Q); `q_boost`
    caps how many of the `n_templates` templates carry that evidence
    (default: all of them).
    """
    m = len(sse_sizes)
    if m < 2:
        raise ValueError("planted instances need at least 2 SSEs")
    if not 0.0 <= boost_fraction <= 1.0:
        raise ValueError("boost_fraction must be in [0, 1]")
    if n_templates < 1:
        raise ValueError("need at least one template")
    carriers = n_templates if q_boost is None else min(q_boost, n_templates)

    ranges = []
    start = 1
    for size in sse_sizes:
        if size < 1:
            raise ValueError("SSE sizes must be positive")
        ranges.append((start, start + size - 1))
        start += size
    sse_ranges = tuple(ranges)
    sse_ids = tuple(f"E{i}" for i in range(1, m + 1))

    groups = _cluster_split(m, clusters)
    pairs = tuple(
        (group[i], group[i + 1]) for group in groups for i in range(len(group) - 1)
    )
    incidence = incidence_matrix(pairs, m)

    shortcuts: list[Edge] = []
    for a, b in pairs:
        na, nb = sse_sizes[a - 1], sse_sizes[b - 1]
        count = min(shortcuts_per_pair, na, nb)
        rows = sorted(int(r) + 1 for r in rng.choice(na, size=count, replace=False))
        cols = sorted(int(c) + 1 for c in rng.choice(nb, size=count, replace=False))
        first_a, first_b = sse_ranges[a - 1][0], sse_ranges[b - 1][0]
        shortcuts.extend((first_a + r - 1, first_b + c - 1) for r, c in zip(rows, cols))
    true_shortcuts = tuple(shortcuts)

    boosted_count = round_half_up(boost_fraction * len(true_shortcuts))
    order = [int(i) for i in rng.permutation(len(true_shortcuts))]
    boosted = tuple(sorted(true_shortcuts[i] for i in order[:boosted_count]))

    intra: list[Edge] = []
    for first, last in sse_ranges:
        intra.extend(_intra_edges(first, last))
    sse_of = {
        v: sse_ids[k]
        for k, (first, last) in enumerate(sse_ranges)
        for v in range(first, last + 1)
    }
    vertices = tuple(sorted(sse_of))
    graph = SseInGraph(vertices, tuple(intra), true_shortcuts, sse_of)

    templates = []
    for t in range(n_templates):
        t_shortcuts = boosted if t < carriers else ()
        t_graph = SseInGraph(vertices, tuple(intra), t_shortcuts, sse_of)
        templates.append(
            TemplateProtein(f"{instance_id}-T{t + 1}", sse_sizes, sse_ranges, t_graph)
        )

    cluster_of = {sse: c for c, group in enumerate(groups) for sse in group}
    centroids = np.zeros((m, 3))
    mean_phi = np.zeros(m)
    mean_psi = np.zeros(m)
    for sse in range(1, m + 1):
        c = cluster_of[sse]
        t = groups[c].index(sse)
        centroids[sse - 1] = (1000.0 * c + 5.0 * t, 0.0, 0.0)
        phi, psi = _CLUSTER_ANGLES[c % len(_CLUSTER_ANGLES)]
        mean_phi[sse - 1] = phi
        mean_psi[sse - 1] = psi
    ctx = SseContext(centroids, mean_phi, mean_psi, np.full(m, 2.5), sse_sizes)

    return PlantedInstance(
        instance_id,
        sse_sizes,
        sse_ranges,
        sse_ids,
        pairs,
        incidence,
        true_shortcuts,
        boosted,
        graph,
        tuple(templates),
        ctx,
        boost_fraction,
    )
