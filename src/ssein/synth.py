"""Synthetic planted instances for the benchmark harness.

Each instance plants a ground-truth SSE graph (two clusters of SSEs chained
by consecutive links) plus residue-level shortcut edges, and fabricates a
family of template proteins whose occurrence evidence boosts a chosen
fraction of the true shortcuts.  The truth is the query's SSE-IN, as in
`predict`: it holds the true shortcuts, so the planted SSE graph is
`query.sse_links()` and the true shortcuts are `query.shortcut_edges`.
The family maps every template id to one shared SSE-IN, built once.  SSE
features are built so that truth-linked pairs
sit close in space with matching backbone angles, while cross-cluster links
are far apart with clashing angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aco import round_half_up
from .contact import Edge, SseInGraph
from .moga import SseContext

# Per-cluster (phi, psi) signatures: same-cluster pairs have zero torsion
# difference, cross-cluster pairs a large one.
_CLUSTER_ANGLES = [(-57.0, -47.0), (80.0, 120.0), (-130.0, 150.0), (20.0, -100.0)]

# Templates per planted family, with ids <instance>-T1 .. -T25.
TEMPLATE_COUNT = 25


@dataclass(frozen=True)
class PlantedInstance:
    """The planted query's SSE-IN, its fabricated template family (protein
    id to SSE-IN) and the SSE features the GA reads."""

    instance_id: str
    query: SseInGraph
    templates: dict[str, SseInGraph]
    ctx: SseContext


def _cluster_split(m: int) -> list[list[int]]:
    """SSEs 1..m in two runs of consecutive SSEs, the first one longer on odd m."""
    split = m - m // 2
    return [list(range(1, split + 1)), list(range(split + 1, m + 1))]


def planted_pairs(m: int) -> list[Edge]:
    """The planted SSE graph over m SSEs: consecutive SSEs within each
    cluster.  Two SSEs make two one-SSE clusters, so m = 2 plants no pair
    and hence no shortcut edge; every larger m plants m - 2 pairs."""
    return [(group[i], group[i + 1]) for group in _cluster_split(m) for i in range(len(group) - 1)]


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
) -> PlantedInstance:
    """Build a planted query, whose SSE-IN holds the true shortcuts, with
    its fabricated family of `TEMPLATE_COUNT` templates.

    `boost_fraction` controls which share of the true shortcut edges shows
    up in the templates, every one of them (and hence in the occurrence
    matrix Q).  Benchmark rows reach it through `pipeline.ManifestRow`,
    which holds the generator's rules.
    """
    m = len(sse_sizes)
    ranges = []
    start = 1
    for size in sse_sizes:
        ranges.append((start, start + size - 1))
        start += size
    sse_ranges = tuple(ranges)

    groups = _cluster_split(m)
    pairs = planted_pairs(m)

    shortcuts: list[Edge] = []
    for a, b in pairs:
        na, nb = sse_sizes[a - 1], sse_sizes[b - 1]
        count = min(shortcuts_per_pair, na, nb)
        rows = sorted(int(r) + 1 for r in rng.choice(na, size=count, replace=False))
        cols = sorted(int(c) + 1 for c in rng.choice(nb, size=count, replace=False))
        first_a, first_b = sse_ranges[a - 1][0], sse_ranges[b - 1][0]
        shortcuts.extend((first_a + r - 1, first_b + c - 1) for r, c in zip(rows, cols))

    boosted_count = round_half_up(boost_fraction * len(shortcuts))
    order = [int(i) for i in rng.permutation(len(shortcuts))]
    boosted = tuple(sorted(shortcuts[i] for i in order[:boosted_count]))

    intra = tuple(edge for first, last in sse_ranges for edge in _intra_edges(first, last))
    sse_ids = tuple(f"E{k}" for k in range(1, m + 1))
    query = SseInGraph(sse_ids, sse_ranges, intra, tuple(shortcuts))
    # Every template has the same SSE-IN, the boosted truth.
    family_graph = SseInGraph(sse_ids, sse_ranges, intra, boosted)
    templates = {f"{instance_id}-T{t + 1}": family_graph for t in range(TEMPLATE_COUNT)}

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
    ctx = SseContext(centroids, mean_phi, mean_psi, np.full(m, 2.5))

    return PlantedInstance(instance_id, query, templates, ctx)
