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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .contact import Edge, SseInGraph, build_contact_map, induce_sse_in
from .ingest import ProteinStructure
from .metrics import TopologicalProfile, is_compatible


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
    mean_rate = sum(t.shortcut_rate for t in matching) / len(matching)
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
    total = float(sum(masses))
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


def _key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass
class PheromoneState:
    """Colony state: graph, heuristic weights, pheromone field and ants.

    Inter-SSE edges carry individual tau values; every intra-SSE edge is
    pinned to the mean inter-SSE tau after each update.
    """

    neighbors: dict[int, tuple[int, ...]]
    sse_of: dict[int, object]
    inter_edges: tuple[Edge, ...]
    s: dict[Edge, float]
    s_intra: float
    tau: dict[Edge, float]
    tau_intra: float
    ants: list[int]

    @classmethod
    def for_pair(
        cls,
        n: int,
        m: int,
        h: HeuristicMatrix,
        params: AcoParams,
        rng: np.random.Generator,
    ) -> "PheromoneState":
        """Complete bipartite pair graph: X = 1..n, Y = n+1..n+m.

        Vertices of one SSE are mutually reachable so ants can wander
        within it; n + m ants start on uniformly random vertices.
        """
        if n < 1 or m < 1:
            raise ValueError("both SSEs must be non-empty")
        if h.s.shape != (n, m):
            raise ValueError(f"heuristic matrix shape {h.s.shape} != ({n}, {m})")
        x_vertices = list(range(1, n + 1))
        y_vertices = list(range(n + 1, n + m + 1))
        neighbors = {}
        for v in x_vertices:
            neighbors[v] = tuple(u for u in x_vertices if u != v) + tuple(y_vertices)
        for v in y_vertices:
            neighbors[v] = tuple(x_vertices) + tuple(u for u in y_vertices if u != v)
        sse_of = {v: 0 for v in x_vertices}
        sse_of.update({v: 1 for v in y_vertices})
        inter = tuple((x, y) for x in x_vertices for y in y_vertices)
        s = {(x, y): float(h.s[x - 1, y - n - 1]) for x, y in inter}
        tau0 = params.resolve_initial_tau(len(inter))
        tau = {e: tau0 for e in inter}
        count = n + m
        ants = [int(v) for v in rng.integers(1, count + 1, size=count)]
        return cls(neighbors, sse_of, inter, s, float(h.s.mean()), tau, tau0, ants)

    @classmethod
    def for_network(
        cls,
        vertices: Iterable[int],
        sse_of: Mapping[int, object],
        intra_edges: Iterable[Edge],
        candidates: Mapping[Edge, float],
        params: AcoParams,
        rng: np.random.Generator,
    ) -> "PheromoneState":
        """Network over candidate shortcut edges plus fixed intra-SSE edges."""
        verts = sorted(vertices)
        adjacency: dict[int, set[int]] = {v: set() for v in verts}
        inter = tuple(sorted(_key(u, v) for u, v in candidates))
        for u, v in inter:
            adjacency[u].add(v)
            adjacency[v].add(u)
        for u, v in intra_edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        neighbors = {v: tuple(sorted(adjacency[v])) for v in verts}
        s = {e: float(candidates[e]) for e in inter}
        s_intra = sum(s.values()) / len(s) if s else 0.0
        tau0 = params.resolve_initial_tau(len(inter))
        tau = {e: tau0 for e in inter}
        ants = [verts[int(i)] for i in rng.integers(0, len(verts), size=len(verts))]
        return cls(neighbors, dict(sse_of), inter, s, s_intra, tau, tau0, ants)


def transition_distribution(
    vertex: int, state: PheromoneState, params: AcoParams
) -> tuple[tuple[int, ...], np.ndarray]:
    """Move probabilities from a vertex: p_ij ~ tau_ij^alpha * s_ij^beta.

    Computed as exp(alpha ln tau + beta ln s - max) so the published
    exponents stay finite; zero-weight candidates get probability zero,
    and a vertex whose every candidate is zero-weight moves uniformly.
    """
    nbrs = state.neighbors[vertex]
    if not nbrs:
        return nbrs, np.zeros(0)
    logw = np.empty(len(nbrs))
    for idx, j in enumerate(nbrs):
        e = _key(vertex, j)
        if e in state.s:
            tau, s = state.tau[e], state.s[e]
        else:
            tau, s = state.tau_intra, state.s_intra
        term = 0.0
        if params.alpha > 0:
            term += params.alpha * (math.log(tau) if tau > 0 else -math.inf)
        if params.beta > 0:
            term += params.beta * (math.log(s) if s > 0 else -math.inf)
        logw[idx] = term
    peak = logw.max()
    if peak == -math.inf:
        probs = np.full(len(nbrs), 1.0 / len(nbrs))
    else:
        probs = np.exp(logw - peak)
        probs /= probs.sum()
    return nbrs, probs


def update_pheromone(
    state: PheromoneState, move_counts: Mapping[Edge, int], params: AcoParams
) -> None:
    """Evaporate and deposit on inter-SSE edges, then re-pin intra-SSE tau."""
    for e in state.inter_edges:
        state.tau[e] = (1.0 - params.rho) * state.tau[e] + move_counts.get(e, 0) * params.delta_tau
    if state.tau:
        state.tau_intra = sum(state.tau.values()) / len(state.tau)


def step_colony(
    state: PheromoneState, params: AcoParams, rng: np.random.Generator
) -> dict[Edge, int]:
    """Move every ant once; returns inter-SSE move counts for the update."""
    counts: dict[Edge, int] = {}
    for idx, vertex in enumerate(state.ants):
        nbrs, probs = transition_distribution(vertex, state, params)
        if not nbrs:
            continue  # isolated vertex: the ant stays put this iteration
        j = int(rng.choice(np.array(nbrs), p=probs))
        e = _key(vertex, j)
        if e in state.s:
            counts[e] = counts.get(e, 0) + 1
        state.ants[idx] = j
    return counts


def run_colony(state: PheromoneState, params: AcoParams, rng: np.random.Generator) -> int:
    """Iterate moves and updates until max tau >= e_stop * mean tau, or the
    iteration cap; returns the iterations executed."""
    if not state.inter_edges:
        return 0
    for iteration in range(1, params.max_iterations + 1):
        counts = step_colony(state, params, rng)
        update_pheromone(state, counts, params)
        values = state.tau.values()
        if max(values) >= params.e_stop * (sum(values) / len(values)):
            return iteration
    return params.max_iterations


@dataclass(frozen=True)
class LocalResult:
    """Per-pair candidates: cells are (position in X, position in Y), 1-based."""

    cells: tuple[tuple[int, int], ...]
    normalized_tau: dict[tuple[int, int], float]
    iterations: int


def local_aco(
    pair_sizes: tuple[int, int],
    h: HeuristicMatrix,
    params: AcoParams,
    rng: np.random.Generator,
) -> LocalResult:
    """Stage one: keep pair edges whose tau / max tau clears lambda_min."""
    n, m = pair_sizes
    state = PheromoneState.for_pair(n, m, h, params, rng)
    iterations = run_colony(state, params, rng)
    tau_max = max(state.tau.values())
    normalized = {
        (x, y - n): state.tau[(x, y)] / tau_max for x, y in state.inter_edges
    }
    cells = tuple(sorted(c for c, v in normalized.items() if v >= params.lambda_min))
    return LocalResult(cells, normalized, iterations)


@dataclass(frozen=True)
class GlobalResult:
    selected: tuple[Edge, ...]
    normalized_tau: dict[Edge, float]
    shortfall: int
    iterations: int


def global_aco(
    vertices: Iterable[int],
    sse_of: Mapping[int, object],
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
    cand = {_key(u, v): float(w) for (u, v), w in candidates.items()}
    if not cand:
        return GlobalResult((), {}, e_p, 0)
    state = PheromoneState.for_network(vertices, sse_of, intra_edges, cand, params, rng)
    iterations = run_colony(state, params, rng)
    tau_max = max(state.tau.values())
    normalized = {e: state.tau[e] / tau_max for e in state.inter_edges}
    ranked = sorted(normalized, key=lambda e: (-normalized[e], e))
    selected = tuple(sorted(ranked[: min(e_p, len(ranked))]))
    shortfall = max(0, e_p - len(selected))
    return GlobalResult(selected, normalized, shortfall, iterations)


def validate_built_network(
    built_profile: TopologicalProfile, family_profile: TopologicalProfile, tol: float = 0.2
) -> bool:
    """Accept a built SSE-IN iff its topological profile is family-compatible."""
    return is_compatible(built_profile, family_profile, tol)
