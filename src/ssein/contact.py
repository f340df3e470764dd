"""Residue contact maps and the SSE-induced interaction network.

Two residues are in contact when their Cα atoms lie strictly below a distance
threshold (7 Å by default).  The SSE interaction network (SSE-IN) is the
subgraph of the contact map induced by residues belonging to a secondary
structure element; its inter-SSE edges are the shortcut edges the ant colony
stage predicts.

The map is built in blocks of `BLOCK_ROWS` rows, one coordinate axis at a
time: the squared distance is `(dx*dx + dy*dy) + dz*dz`, the association
numpy's length-3 `sum` over an (N, N, 3) difference array uses, then `sqrt`
and the strict comparison.  The bits are those of the full-array formula,
while memory stays at the (N, N) uint8 map plus a few (64, N) float rows.
`ContactMap` checks symmetry in the same row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import ProteinStructure
from .metrics import Edge

BLOCK_ROWS = 64


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
        # Block by block, so no N x N temporary is made.
        for start in range(0, b.shape[0], BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            if not np.array_equal(b[rows], b[:, rows].T):
                raise ValueError("contact map must be symmetric")

    @property
    def n(self) -> int:
        return self.bits.shape[0]


def build_contact_map(protein: ProteinStructure, threshold: float = 7.0) -> ContactMap:
    """Contact map over Cα distances; strict `< threshold` comparison."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    x, y, z = np.array([r.ca for r in protein.residues], dtype=float).reshape(-1, 3).T.copy()
    n = len(x)
    bits = np.empty((n, n), dtype=np.uint8)
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        dist = _axis_square(x[rows], x)
        dist += _axis_square(y[rows], y)
        dist += _axis_square(z[rows], z)
        np.sqrt(dist, out=dist)
        np.less(dist, threshold, out=bits[rows])
    np.fill_diagonal(bits, 0)
    return ContactMap(bits)


def _axis_square(block: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """(len(block), len(axis)) squared coordinate differences on one axis."""
    d = block[:, None] - axis[None, :]
    return np.multiply(d, d, out=d)


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


def induce_sse_in(cmap: ContactMap, protein: ProteinStructure) -> SseInGraph:
    """Induce the SSE-IN from a contact map and the protein's annotations."""
    if cmap.n != len(protein.residues):
        raise ValueError(
            f"contact map size {cmap.n} != residue count {len(protein.residues)}"
        )
    sse_of = {r.index: r.sse_id for r in protein.residues if r.sse_id is not None}
    vertices = tuple(sorted(sse_of))
    # Residue indices run 1..N, so the sorted vertices are increasing rows of
    # the map; the induced submatrix keeps the row-major edge order.
    rows = np.array(vertices, dtype=np.intp) - 1
    label_of = {sse_id: k for k, sse_id in enumerate(dict.fromkeys(sse_of.values()))}
    labels = np.array([label_of[sse_of[v]] for v in vertices], dtype=np.intp)
    i, j = np.nonzero(np.triu(cmap.bits[np.ix_(rows, rows)], 1))
    same = labels[i] == labels[j]
    return SseInGraph(
        vertices,
        _edge_tuple(rows[i[same]], rows[j[same]]),
        _edge_tuple(rows[i[~same]], rows[j[~same]]),
        sse_of,
    )


def _edge_tuple(i: np.ndarray, j: np.ndarray) -> tuple[Edge, ...]:
    """0-based row and column arrays as 1-based (i, j) Python-int pairs."""
    return tuple(zip((i + 1).tolist(), (j + 1).tolist()))
