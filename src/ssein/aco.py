"""Two-stage ant colony prediction of inter-SSE shortcut edges.

Stage one works per SSE pair: a complete bipartite candidate graph between
the two SSEs is weighted by the family occurrence matrix, a colony of
n + m ants reinforces pheromone on the edges it crosses, and edges whose
normalized pheromone clears lambda_min survive as candidates.  Stage two
runs the same dynamics over the whole candidate network and keeps the E_p
top-pheromone edges, where E_p comes from family template edge rates.

Pheromone updates follow tau = (1 - rho) tau + n_moves * delta_tau on
inter-SSE edges, while intra-SSE edges stay pinned to the inter-SSE mean.
Transition weights tau^alpha * s^beta are evaluated in log space so the
published exponents (alpha = 25, beta = 12) cannot overflow.

Both stages run one array-backed `Colony`.  Its random draws, in order:
V ant starts from one integers(0, V); then per step one random(k) for the
k ants not on an isolated vertex, in ant order, each inverted through its
vertex's cumulative transition row exactly as Generator.choice(p=row) would.
A step computes the rows of all occupied vertices together, in one 2-D pass
per vertex degree.  Rows are grouped by degree, never padded: padding would
regroup numpy's pairwise row sum and move its last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .contact import Edge, SseInGraph, build_contact_map, induce_sse_in
from .ingest import ProteinStructure
from .metrics import TopologicalProfile, is_compatible, left_sum


class FamilyMatchError(ValueError):
    """No family template has the SSE count required by the query."""


@dataclass(frozen=True)
class AcoParams:
    alpha: float = 25.0
    beta: float = 12.0
    rho: float = 0.7
    delta_tau: float = 4000.0
    e_stop: float = 2.0
    lambda_min: float = 0.8
    max_iterations: int = 200
    initial_tau: Optional[float] = None  # default: delta_tau * |inter edges| / (1 - rho)

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if self.delta_tau <= 0:
            raise ValueError("delta_tau must be positive")
        if not 0.0 < self.lambda_min <= 1.0:
            raise ValueError(f"lambda_min must be in (0, 1], got {self.lambda_min}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.initial_tau is not None and self.initial_tau <= 0:
            raise ValueError("initial_tau must be positive")

    def resolve_initial_tau(self, inter_edge_count: int) -> float:
        if self.initial_tau is not None:
            return self.initial_tau
        # Large enough that the stop ratio measures concentration of the
        # colony, not the very first deposit.
        return self.delta_tau * max(1, inter_edge_count) / (1.0 - self.rho)


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def allele_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """L1 distance between two size vectors, allele by allele."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(abs(x - y) for x, y in zip(a, b))


@dataclass(frozen=True)
class TemplateProtein:
    """A family member reduced to what the comparative model needs."""

    protein_id: str
    sse_sizes: tuple[int, ...]
    sse_ranges: tuple[tuple[int, int], ...]  # residue-index span per SSE, in order
    graph: SseInGraph

    def __post_init__(self):
        if len(self.sse_sizes) != len(self.sse_ranges):
            raise ValueError("sse_sizes and sse_ranges must align")
        for size, (first, last) in zip(self.sse_sizes, self.sse_ranges):
            if last - first + 1 != size:
                raise ValueError(f"range ({first}, {last}) does not match size {size}")

    @property
    def sse_count(self) -> int:
        return len(self.sse_sizes)

    @property
    def residue_total(self) -> int:
        return sum(self.sse_sizes)

    @property
    def shortcut_count(self) -> int:
        return len(self.graph.shortcut_edges)

    @property
    def shortcut_rate(self) -> float:
        return self.shortcut_count / self.residue_total

    def sse_position(self, vertex: int) -> tuple[int, float]:
        """(1-based SSE index, relative position in (0, 1]) of a residue."""
        for k, (first, last) in enumerate(self.sse_ranges, start=1):
            if first <= vertex <= last:
                return k, (vertex - first + 1) / (last - first + 1)
        raise ValueError(f"vertex {vertex} is outside every SSE range")

    def sse_adjacency(self) -> np.ndarray:
        order = [self.graph.sse_of[first] for first, _ in self.sse_ranges]
        return self.graph.sse_adjacency(order)

    @classmethod
    def from_structure(cls, protein: ProteinStructure, threshold: float = 7.0) -> "TemplateProtein":
        cmap = build_contact_map(protein, threshold)
        graph = induce_sse_in(cmap, protein)
        ranges = tuple((a.first_residue, a.last_residue) for a in protein.sse_list)
        return cls(protein.id, protein.sse_sizes(), ranges, graph)


def estimate_edge_budget(
    sequence_sizes: Sequence[int], templates: Sequence[TemplateProtein]
) -> int:
    """Predicted shortcut-edge total E_p from family template edge rates.

    The nearest template (by allele distance) closer than 20% of the
    sequence's cumulated size lends its shortcut-edge rate; otherwise the
    family-mean rate applies.  Either way E_p scales the rate by the
    sequence's cumulated size.
    """
    matching = [t for t in templates if t.sse_count == len(sequence_sizes)]
    if not matching:
        raise FamilyMatchError(
            f"no template with SSE count {len(sequence_sizes)} in the family"
        )
    cumulated = sum(sequence_sizes)
    ranked = sorted(
        matching, key=lambda t: (allele_distance(sequence_sizes, t.sse_sizes), t.protein_id)
    )
    for t in ranked:
        if allele_distance(sequence_sizes, t.sse_sizes) < 0.2 * cumulated:
            return round_half_up(t.shortcut_rate * cumulated)
    mean_rate = left_sum(t.shortcut_rate for t in matching) / len(matching)
    return round_half_up(mean_rate * cumulated)


def build_occurrence_matrix(
    templates: Sequence[TemplateProtein], pair: tuple[int, int], n: int, m: int
) -> np.ndarray:
    """Occurrence matrix Q for an SSE pair, with add-one smoothing.

    Template shortcut edges between the pair's SSEs are mapped by nearest
    relative position onto the n x m query cells and counted; the +1
    smoothing keeps every transition weight positive.
    """
    a, b = pair
    counts = np.zeros((n, m), dtype=float)
    for t in templates:
        for u, w in t.graph.shortcut_edges:
            ku, ru = t.sse_position(u)
            kw, rw = t.sse_position(w)
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


def edge_probabilities(q: np.ndarray, e: float) -> np.ndarray:
    """Normalize Q into edge weights S with sum(S) = e."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("occurrence matrix must be nonnegative")
    total = float(q.sum())
    if e < 0:
        raise ValueError(f"edge budget must be nonnegative, got {e}")
    if total <= 0:
        raise ValueError("occurrence matrix sums to zero")
    return e * q / total


@dataclass(frozen=True)
class HeuristicMatrix:
    """Occurrence counts Q and the derived edge weights S for one SSE pair."""

    q: np.ndarray
    s: np.ndarray
    e: float

    def __post_init__(self):
        if self.q.shape != self.s.shape:
            raise ValueError("Q and S must have the same shape")
        if abs(float(self.s.sum()) - self.e) > 1e-9:
            raise ValueError("edge weights must sum to the pair budget")

    @classmethod
    def from_q(cls, q: np.ndarray, e: float) -> "HeuristicMatrix":
        return cls(np.asarray(q, dtype=float), edge_probabilities(q, e), float(e))


def allocate_pair_budgets(e_total: int, masses: Sequence[float]) -> list[int]:
    """Split E_p across SSE pairs proportionally to Q mass (largest remainder)."""
    if e_total < 0:
        raise ValueError("edge total must be nonnegative")
    if not masses:
        return []
    total = float(left_sum(masses))
    if total <= 0:
        quotas = [e_total / len(masses)] * len(masses)
    else:
        quotas = [e_total * m / total for m in masses]
    base = [math.floor(q) for q in quotas]
    remainder = e_total - sum(base)
    order = sorted(range(len(masses)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:remainder]:
        base[i] += 1
    return base


# choice(p=...) rejects a row whose sum misses 1 by more than this.
_ROW_SUM_TOL = math.sqrt(np.finfo(float).eps)


class Colony:
    """Ant-colony state over vertices 0..V-1 and numbered edge slots.

    Slots 0..E-1 are the inter-SSE edges, each with its own tau and s;
    slot E is shared by every intra-SSE edge, whose tau is pinned to the
    inter-SSE mean after each update and whose s is s_intra.  Row v of the
    (V, max degree) tables `neighbors` and `slots` holds vertex v's
    degree[v] neighbours in ascending order and the slot of each edge; the
    rest of the row is padding.  V ants start on uniformly random vertices.
    """

    def __init__(
        self,
        neighbors: np.ndarray,
        slots: np.ndarray,
        degree: np.ndarray,
        s: Sequence[float],
        s_intra: float,
        params: AcoParams,
        rng: np.random.Generator,
    ):
        e = len(s)
        if e == 0:
            raise ValueError("a colony needs at least one inter-SSE edge")
        self.neighbors = neighbors
        self.slots = slots
        self.degree = degree
        self.n_inter = e
        self.params = params
        self.rng = rng
        self.tau = np.full(e + 1, params.resolve_initial_tau(e))
        self._s_term = params.beta * _logs([*s, s_intra]) if params.beta > 0 else np.zeros(e + 1)
        self.ants = rng.integers(0, len(degree), size=len(degree))

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        inter_edges: Sequence[Edge],
        s: Sequence[float],
        intra_edges: Iterable[Edge],
        s_intra: float,
        params: AcoParams,
        rng: np.random.Generator,
    ) -> "Colony":
        """The colony of a graph given as edge lists over 0..vertex_count-1;
        an intra-SSE edge that is also an inter-SSE edge is inter."""
        e = len(inter_edges)
        ends = np.array([*inter_edges, *intra_edges], dtype=np.intp).reshape(-1, 2)
        slot = np.minimum(np.arange(len(ends)), e)
        src = np.concatenate([ends[:, 0], ends[:, 1]])
        dst = np.concatenate([ends[:, 1], ends[:, 0]])
        slot = np.concatenate([slot, slot])
        # Ascending (vertex, neighbour), the inter slot first among duplicates.
        order = np.lexsort((slot, dst, src))
        src, dst, slot = src[order], dst[order], slot[order]
        first = np.ones(src.size, dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst, slot = src[first], dst[first], slot[first]
        degree = np.bincount(src, minlength=vertex_count)
        if degree.size != vertex_count:
            raise ValueError(f"an edge leaves the vertices 0..{vertex_count - 1}")
        column = np.arange(src.size) - (np.cumsum(degree) - degree)[src]
        width = int(degree.max(initial=0))
        neighbors = np.zeros((vertex_count, width), dtype=np.intp)
        slots = np.zeros((vertex_count, width), dtype=np.intp)
        neighbors[src, column] = dst
        slots[src, column] = slot
        return cls(neighbors, slots, degree, s, s_intra, params, rng)

    def log_weights(self) -> np.ndarray:
        """alpha ln tau + beta ln s per slot; a zero tau or s gives -inf."""
        if self.params.alpha <= 0:
            return self._s_term
        return self.params.alpha * _logs(self.tau.tolist()) + self._s_term

    def rows(self, vertices: np.ndarray, log_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Move probabilities from vertices of one degree d, as (k, d) arrays
        of neighbours and probabilities: p_ij ~ tau_ij^alpha * s_ij^beta.

        Computed as exp(w - max w) so the published exponents stay finite;
        zero-weight candidates get probability zero, and a vertex whose
        every candidate is zero-weight moves uniformly.  Each row is summed
        on its own, never padded, so it is bit for bit the 1-D computation.
        """
        degrees = self.degree[vertices]
        d = int(degrees[0])
        if not (degrees == d).all():
            raise ValueError("rows takes vertices of one degree")
        w = log_weights[self.slots[vertices, :d]]
        peak = w.max(axis=1, keepdims=True)
        if peak.min() == -math.inf:
            # All zero-weight: shift by 0 from 0, never -inf - -inf; the row
            # of ones sums to d exactly, so each entry becomes 1 / d.
            dead = peak[:, 0] == -math.inf
            w[dead] = peak[dead] = 0.0
        probs = np.exp(w - peak)
        probs /= probs.sum(axis=1, keepdims=True)
        return self.neighbors[vertices, :d], probs

    def update(self, move_counts: np.ndarray) -> None:
        """Evaporate and deposit on inter-SSE slots, then re-pin intra-SSE tau."""
        e = self.n_inter
        self.tau[:e] = (1.0 - self.params.rho) * self.tau[:e] + move_counts * self.params.delta_tau
        self.tau[e] = left_sum(self.tau[:e].tolist()) / e

    def step(self) -> np.ndarray:
        """Move every ant once; returns the move count per inter-SSE slot.

        Ants on isolated vertices stay put and draw nothing.  The others
        take one uniform each, in ant order, from a single draw, and invert
        their vertex's cumulative row with it, as Generator.choice(p=row)
        would.  The rows of the occupied vertices are built in one pass
        per degree.
        """
        e = self.n_inter
        live = self.degree[self.ants].nonzero()[0]
        u = self.rng.random(live.size)
        if not live.size:
            return np.zeros(e, dtype=np.intp)
        at = self.ants[live]
        occupied = np.zeros(self.degree.size, dtype=bool)
        occupied[at] = True
        verts = occupied.nonzero()[0]
        verts = verts[self.degree[verts].argsort(kind="stable")]
        degrees = self.degree[verts]
        row_at = np.empty(self.degree.size, dtype=np.intp)
        row_at[verts] = np.arange(verts.size)
        bounds = [0, verts.size]
        if degrees[0] != degrees[-1]:
            bounds[1:1] = ((degrees[1:] != degrees[:-1]).nonzero()[0] + 1).tolist()
        # Each degree group's cumulative rows, computed unpadded, are stored
        # over a padding above every uniform, so a pick counts real entries.
        cdf = np.full((verts.size, degrees[-1]), 2.0)
        log_weights = self.log_weights()
        for start, stop in zip(bounds, bounds[1:]):
            _, probs = self.rows(verts[start:stop], log_weights)
            rows = probs.cumsum(axis=1)
            miss = np.abs(rows[:, -1] - 1.0)
            if not (probs.min() >= 0 and miss.max() <= _ROW_SUM_TOL):
                bad = ~((probs.min(axis=1) >= 0) & (miss <= _ROW_SUM_TOL))
                vertex = int(verts[start + bad.argmax()])
                raise ValueError(f"transition row of vertex {vertex} is not a distribution")
            rows /= rows[:, -1:]
            cdf[start:stop, : rows.shape[1]] = rows
        # searchsorted(side="right") on each ant's non-decreasing row
        pick = (cdf[row_at[at]] <= u[:, None]).sum(axis=1)
        self.ants[live] = self.neighbors[at, pick]
        crossed = self.slots[at, pick]
        return np.bincount(crossed, minlength=e + 1)[:e]

    def run(self) -> int:
        """Iterate moves and updates until max tau >= e_stop * mean tau, or the
        iteration cap; returns the iterations executed."""
        e = self.n_inter
        for iteration in range(1, self.params.max_iterations + 1):
            self.update(self.step())
            if self.tau[:e].max() >= self.params.e_stop * self.tau[e]:
                return iteration
        return self.params.max_iterations


def _logs(values: list[float]) -> np.ndarray:
    """ln of each value, -inf for a zero.  math.log, not np.log: the two
    differ in the last bit on some inputs."""
    try:
        return np.array(list(map(math.log, values)))
    except ValueError:  # a zero
        return np.array([math.log(x) if x > 0 else -math.inf for x in values])


@dataclass(frozen=True)
class LocalResult:
    """Per-pair candidates: cells are (position in X, position in Y), 1-based;
    normalized_tau[i - 1, j - 1] is cell (i, j)'s tau / max tau."""

    cells: tuple[tuple[int, int], ...]
    normalized_tau: np.ndarray
    iterations: int


def pair_colony(h: HeuristicMatrix, params: AcoParams, rng: np.random.Generator) -> Colony:
    """The colony of one SSE pair, complete on its n + m residues.

    X = 0..n-1 and Y = n..n+m-1, so ants can also wander within one SSE;
    the X-Y edges are the inter-SSE slots, cell (i, j) at slot i * m + j.
    """
    n, m = h.s.shape
    v = n + m
    vertex = np.arange(v)[:, None]
    neighbors = np.arange(v - 1)[None, :]
    neighbors = neighbors + (neighbors >= vertex)  # every other vertex, ascending
    x, y = np.minimum(vertex, neighbors), np.maximum(vertex, neighbors)
    slots = np.where((x < n) & (y >= n), x * m + y - n, n * m)
    degree = np.full(v, v - 1)
    return Colony(neighbors, slots, degree, h.s.ravel().tolist(), float(h.s.mean()), params, rng)


def local_aco(
    pair_sizes: tuple[int, int],
    h: HeuristicMatrix,
    params: AcoParams,
    rng: np.random.Generator,
) -> LocalResult:
    """Stage one: keep pair edges whose tau / max tau clears lambda_min."""
    n, m = pair_sizes
    if n < 1 or m < 1:
        raise ValueError("both SSEs must be non-empty")
    if h.s.shape != (n, m):
        raise ValueError(f"heuristic matrix shape {h.s.shape} != ({n}, {m})")
    colony = pair_colony(h, params, rng)
    iterations = colony.run()
    tau = colony.tau[: n * m]
    normalized = tau.reshape(n, m) / tau.max()
    cells = tuple((int(i) + 1, int(j) + 1) for i, j in np.argwhere(normalized >= params.lambda_min))
    return LocalResult(cells, normalized, iterations)


@dataclass(frozen=True)
class GlobalResult:
    selected: tuple[Edge, ...]
    normalized_tau: dict[Edge, float]
    shortfall: int
    iterations: int


def global_aco(
    vertices: Iterable[int],
    intra_edges: Iterable[Edge],
    candidates: Mapping[Edge, float],
    e_p: int,
    params: AcoParams,
    rng: np.random.Generator,
) -> GlobalResult:
    """Stage two: rank all candidates by whole-network pheromone, keep E_p.

    When fewer than E_p candidates exist, all of them are returned and the
    shortfall is reported.
    """
    if e_p <= 0:
        raise ValueError(f"number of edges to predict must be positive, got {e_p}")
    cand = {(min(u, v), max(u, v)): float(w) for (u, v), w in candidates.items()}
    if not cand:
        return GlobalResult((), {}, e_p, 0)
    inter = sorted(cand)
    s = [cand[e] for e in inter]
    index = {v: i for i, v in enumerate(sorted(vertices))}
    colony = Colony.from_edges(
        len(index),
        [(index[u], index[v]) for u, v in inter],
        s,
        ((index[u], index[v]) for u, v in intra_edges),
        left_sum(s) / len(s),
        params,
        rng,
    )
    iterations = colony.run()
    taus = colony.tau[: len(inter)]
    tau_max = float(taus.max())
    normalized = {e: tau / tau_max for e, tau in zip(inter, taus.tolist())}
    ranked = sorted(normalized, key=lambda e: (-normalized[e], e))
    selected = tuple(sorted(ranked[: min(e_p, len(ranked))]))
    shortfall = max(0, e_p - len(selected))
    return GlobalResult(selected, normalized, shortfall, iterations)


def validate_built_network(
    built_profile: TopologicalProfile, family_profile: TopologicalProfile, tol: float = 0.2
) -> bool:
    """Accept a built SSE-IN iff its topological profile is family-compatible."""
    return is_compatible(built_profile, family_profile, tol)
