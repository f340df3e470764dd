"""Residue contact maps and the SSE-induced interaction network.

Two residues are in contact when their Cα atoms lie strictly below a distance
threshold (7 Å by default).  The SSE interaction network (SSE-IN) is the
subgraph of the contact map induced by residues belonging to a secondary
structure element; its inter-SSE edges are the shortcut edges the ant colony
stage predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ingest import ProteinStructure
from .metrics import Edge, incidence_edges


@dataclass(frozen=True, eq=False)
class ContactMap:
    """Symmetric 0-1 residue adjacency with a zero diagonal."""

    bits: np.ndarray

    def __post_init__(self):
        b = self.bits
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("contact map must be square")
        if np.any(np.diag(b)):
            raise ValueError("contact map diagonal must be zero")
        if not np.array_equal(b, b.T):
            raise ValueError("contact map must be symmetric")

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    def edges(self) -> list[Edge]:
        """Contact pairs as 1-based (i, j) with i < j."""
        return incidence_edges(self.bits)


def build_contact_map(protein: ProteinStructure, threshold: float = 7.0) -> ContactMap:
    """Contact map over Cα distances; strict `< threshold` comparison."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    coords = np.array([r.ca for r in protein.residues], dtype=float)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    bits = (dist < threshold).astype(np.uint8)
    np.fill_diagonal(bits, 0)
    return ContactMap(bits)


@dataclass(frozen=True)
class SseInGraph:
    """Contact subgraph induced by SSE residues, edges split by SSE identity.

    Shortcut edges join residues of different SSEs; intra edges stay inside
    one SSE.  Vertices keep their 1-based residue indices.
    """

    vertices: tuple[int, ...]
    intra_edges: tuple[Edge, ...]
    shortcut_edges: tuple[Edge, ...]
    sse_of: dict[int, str]

    def __post_init__(self):
        vset = set(self.vertices)
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if i not in vset or j not in vset:
                raise ValueError(f"edge ({i}, {j}) endpoint outside vertex set")
        for i, j in self.intra_edges:
            if self.sse_of[i] != self.sse_of[j]:
                raise ValueError(f"intra edge ({i}, {j}) spans two SSEs")
        for i, j in self.shortcut_edges:
            if self.sse_of[i] == self.sse_of[j]:
                raise ValueError(f"shortcut edge ({i}, {j}) stays inside one SSE")

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.intra_edges + self.shortcut_edges

    def sse_adjacency(self, sse_order: Iterable[str]) -> np.ndarray:
        """0-1 SSE-level adjacency implied by the shortcut edges."""
        order = list(sse_order)
        pos = {sse_id: k for k, sse_id in enumerate(order)}
        m = np.zeros((len(order), len(order)), dtype=np.int8)
        for i, j in self.shortcut_edges:
            a, b = pos[self.sse_of[i]], pos[self.sse_of[j]]
            m[a, b] = m[b, a] = 1
        return m


def induce_sse_in(cmap: ContactMap, protein: ProteinStructure) -> SseInGraph:
    """Induce the SSE-IN from a contact map and the protein's annotations."""
    if cmap.n != len(protein.residues):
        raise ValueError(
            f"contact map size {cmap.n} != residue count {len(protein.residues)}"
        )
    sse_of = {r.index: r.sse_id for r in protein.residues if r.sse_id is not None}
    vertices = tuple(sorted(sse_of))
    intra: list[Edge] = []
    shortcut: list[Edge] = []
    for i, j in cmap.edges():
        if i in sse_of and j in sse_of:
            (intra if sse_of[i] == sse_of[j] else shortcut).append((i, j))
    return SseInGraph(vertices, tuple(intra), tuple(shortcut), sse_of)
