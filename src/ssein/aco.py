"""Two-stage ant colony prediction of inter-SSE shortcut edges.

Stage one works per SSE pair: a complete bipartite candidate graph between
the two SSEs is weighted by the family occurrence matrix, a colony of
n + m ants reinforces pheromone on the edges it crosses, and edges whose
normalized pheromone clears lambda_min survive as candidates.  Stage two
runs the same dynamics over the query's SSE-IN, an array of candidate
residue edges as its inter-SSE edges, and keeps the E_p top-pheromone
edges, where E_p comes from family template edge rates.

A family is a mapping from protein id to each template's SSE-IN
(`SseInGraph`).  A template's shortcut edges are placed in its SSEs in one
place, `SseInGraph.shortcut_cells`, through the graph's ranges: each edge
becomes two (SSE index, relative position) cells.  The occurrence matrices
count those cells, and the template's SSE graph is their sorted set of SSE
links (`sse_links`); no SSE-level adjacency matrix is built.  The edge
budget reads each template's shortcut rate and breaks distance ties by
protein id, the mapping's key.

Pheromone updates follow tau = (1 - rho) tau + n_moves * delta_tau on
inter-SSE edges, while intra-SSE edges stay pinned to the inter-SSE mean.
Transition weights tau^alpha * s^beta are evaluated in log space so the
published exponents (alpha = 25, beta = 12) cannot overflow.

Both stages run one array-backed `Colony` on a `ColonyGraph`.  The graph
(neighbour and slot tables, degrees and beta ln s) depends only on the
edges and their weights, so each pair's graph is built once per run and
shared by every simulation, which only sets tau and places its ants.  A
colony's random draws, in order: V ant starts from one integers(0, V);
then per step one random(k) for the k ants not on an isolated vertex, in
ant order, each inverted through its vertex's cumulative transition row
exactly as Generator.choice(p=row) would.
A step computes the rows of all occupied vertices together, in one padded
2-D pass in (degree, vertex) order.  Only the row sum runs per degree, over
each group's real columns: summing a padded row would regroup numpy's
pairwise sum and move its last bit.  The -inf padding weighs exactly 0, so
every other part of the pass gives the unpadded bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .contact import Edge, SseInGraph
from .metrics import TopologicalProfile, left_sum, profile_deviation


class FamilyMatchError(ValueError):
    """No family template has the SSE count required by the query."""


@dataclass(frozen=True)
class AcoParams:
    """The colony's settings; `initial_tau` works out the starting pheromone."""

    alpha: float = 25.0
    beta: float = 12.0
    rho: float = 0.7
    delta_tau: float = 4000.0
    e_stop: float = 2.0
    lambda_min: float = 0.8
    max_iterations: int = 200

    def __post_init__(self):
        for name in ("alpha", "beta", "delta_tau", "e_stop"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.e_stop <= 1:
            # max tau >= e_stop * mean tau would hold after the first update
            raise ValueError(f"e_stop must be > 1, got {self.e_stop}")
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

    def initial_tau(self, inter_edge_count: int) -> float:
        """Every slot's starting pheromone, delta_tau * |inter edges| /
        (1 - rho): large enough that the stop ratio measures concentration
        of the colony, not the very first deposit.  Positive, since every
        `ColonyGraph` has at least one inter-SSE edge."""
        return self.delta_tau * inter_edge_count / (1.0 - self.rho)


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def allele_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """L1 distance between two size vectors of one length, allele by allele."""
    return sum(abs(x - y) for x, y in zip(a, b))


def estimate_edge_budget(
    sequence_sizes: Sequence[int], templates: Mapping[str, SseInGraph]
) -> int:
    """Predicted shortcut-edge total E_p from family template edge rates.

    `templates` maps protein id to SSE-IN, each with as many SSEs as the
    sequence.  The nearest template (by allele distance, ties by protein
    id) lends its shortcut-edge rate if it is closer than 20% of the
    sequence's cumulated size; otherwise the family-mean rate applies.
    Either way E_p scales the rate by the sequence's cumulated size.
    """
    cumulated = sum(sequence_sizes)
    distance, _, nearest = min(
        ((allele_distance(sequence_sizes, t.sse_sizes), pid, t) for pid, t in templates.items()),
        key=lambda ranked: ranked[:2],
    )
    if distance < 0.2 * cumulated:
        return round_half_up(nearest.shortcut_rate * cumulated)
    mean_rate = left_sum(t.shortcut_rate for t in templates.values()) / len(templates)
    return round_half_up(mean_rate * cumulated)


def occurrence_matrices(
    templates: Iterable[SseInGraph],
    pairs: Sequence[tuple[int, int]],
    sizes: Sequence[int],
) -> list[np.ndarray]:
    """Occurrence matrix Q per SSE pair (a, b), with add-one smoothing.

    Q is sizes[a - 1] x sizes[b - 1].  Template shortcut edges between SSEs
    a and b, in either orientation, are mapped by nearest relative position
    onto the query cells and counted; the +1 smoothing keeps every
    transition weight positive.  Pairs must be distinct, with a != b.
    """
    index = {pair: k for k, pair in enumerate(pairs)}
    counts = [np.zeros((sizes[a - 1], sizes[b - 1])) for a, b in pairs]
    for t in templates:
        for (ku, ru), (kw, rw) in t.shortcut_cells():
            for pair, ra, rb in (((ku, kw), ru, rw), ((kw, ku), rw, ru)):
                k = index.get(pair)
                if k is None:
                    continue
                n, m = counts[k].shape
                i = min(max(round_half_up(ra * n), 1), n)
                j = min(max(round_half_up(rb * m), 1), m)
                counts[k][i - 1, j - 1] += 1
    return [q + 1.0 for q in counts]


def edge_probabilities(q: np.ndarray, e: float) -> np.ndarray:
    """Normalize Q, a smoothed occurrence matrix (every cell >= 1), into
    edge weights S with sum(S) = e for a budget e >= 0."""
    return e * q / float(q.sum())


def allocate_pair_budgets(e_total: int, masses: Sequence[float]) -> list[int]:
    """Split E_p >= 0 across SSE pairs proportionally to their positive Q
    masses (largest remainder)."""
    total = float(left_sum(masses))
    quotas = [e_total * m / total for m in masses]
    base = [math.floor(q) for q in quotas]
    remainder = e_total - sum(base)
    order = sorted(range(len(masses)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:remainder]:
        base[i] += 1
    return base


# choice(p=...) rejects a row whose sum misses 1 by more than this.
_ROW_SUM_TOL = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class ColonyGraph:
    """A colony's fixed graph over vertices 0..V-1 and numbered edge slots.

    Slots 0..E-1 are the inter-SSE edges, each with its own tau and s;
    slot E is shared by every intra-SSE edge, whose tau is pinned to the
    inter-SSE mean after each update and whose s is s_intra.  Row v of the
    (V, max degree) tables `neighbors` and `slots` holds vertex v's
    degree[v] neighbours in ascending order and the slot of each edge; the
    rest of the row is padding.  `s_term` is beta ln s per slot.
    `by_degree` lists the vertices in stable degree order.
    """

    neighbors: np.ndarray
    slots: np.ndarray
    degree: np.ndarray
    s: np.ndarray
    s_term: np.ndarray
    by_degree: np.ndarray

    @property
    def n_inter(self) -> int:
        return len(self.s)

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        inter_edges: Sequence[Edge] | np.ndarray,
        s: Sequence[float] | np.ndarray,
        intra_edges: Sequence[Edge] | np.ndarray,
        s_intra: float,
        beta: float,
    ) -> "ColonyGraph":
        """The graph given as (k, 2) edge lists over 0..vertex_count-1: at
        least one inter-SSE edge, every edge distinct and in one list only."""
        e = len(inter_edges)
        ends = np.concatenate(
            [np.asarray(edges, dtype=np.intp).reshape(-1, 2) for edges in (inter_edges, intra_edges)]
        )
        slot = np.minimum(np.arange(len(ends)), e)
        src = np.concatenate([ends[:, 0], ends[:, 1]])
        dst = np.concatenate([ends[:, 1], ends[:, 0]])
        slot = np.concatenate([slot, slot])
        order = np.lexsort((dst, src))  # ascending (vertex, neighbour)
        src, dst, slot = src[order], dst[order], slot[order]
        degree = np.bincount(src, minlength=vertex_count)
        column = np.arange(src.size) - (np.cumsum(degree) - degree)[src]
        width = int(degree.max(initial=0))
        neighbors = np.zeros((vertex_count, width), dtype=np.intp)
        slots = np.zeros((vertex_count, width), dtype=np.intp)
        neighbors[src, column] = dst
        slots[src, column] = slot
        s = np.asarray(s, dtype=float)
        s_term = beta * _logs([*s.tolist(), s_intra]) if beta > 0 else np.zeros(e + 1)
        return cls(neighbors, slots, degree, s, s_term, degree.argsort(kind="stable"))

    @classmethod
    def pair(cls, s: np.ndarray, beta: float) -> "ColonyGraph":
        """The graph of one SSE pair with (n, m) edge weights s, complete on
        its n + m residues.

        X = 0..n-1 and Y = n..n+m-1, so ants can also wander within one SSE;
        the X-Y edges are the inter-SSE slots, cell (i, j) at slot i * m + j.
        """
        n, m = s.shape
        ends = np.column_stack(np.triu_indices(n + m, 1))  # row-major
        inter = (ends[:, 0] < n) & (ends[:, 1] >= n)
        return cls.from_edges(n + m, ends[inter], s.ravel(), ends[~inter], float(s.mean()), beta)


class Colony:
    """One simulation on a `ColonyGraph`: a tau per slot, and V ants that
    start on uniformly random vertices."""

    def __init__(self, graph: ColonyGraph, params: AcoParams, rng: np.random.Generator):
        e = graph.n_inter
        self.graph = graph
        self.params = params
        self.rng = rng
        self.tau = np.full(e + 1, params.initial_tau(e))
        self.ants = rng.integers(0, len(graph.degree), size=len(graph.degree))

    def log_weights(self) -> np.ndarray:
        """alpha ln tau + beta ln s per slot; a zero tau or s gives -inf."""
        if self.params.alpha <= 0:
            return self.graph.s_term
        return self.params.alpha * _logs(self.tau.tolist()) + self.graph.s_term

    def rows(self, vertices: np.ndarray, log_weights: np.ndarray) -> np.ndarray:
        """Move probabilities from vertices of degree >= 1 in (degree,
        vertex) order, as a (k, width) array, width the largest degree:
        p_ij ~ tau_ij^alpha * s_ij^beta.  Column c of vertex v's row is the
        move to `graph.neighbors[v, c]`.

        Computed as exp(w - max w) so the published exponents stay finite;
        zero-weight candidates get probability zero, and a vertex whose
        every candidate is zero-weight moves uniformly.  A row of degree d
        is padded past column d with probability 0.  The padding enters as
        w = -inf, which moves no row max and gives exp 0, and each row is
        summed over its d real columns only, one degree at a time, so row
        for row it is bit for bit the 1-D computation.
        """
        graph = self.graph
        degrees = graph.degree[vertices]
        width = int(degrees[-1])
        w = log_weights[graph.slots[vertices, :width]]
        bounds = [0, len(vertices)]
        mixed = degrees[0] != width
        if mixed:
            padding = np.arange(width) >= degrees[:, None]
            w[padding] = -math.inf
            bounds[1:1] = ((degrees[1:] != degrees[:-1]).nonzero()[0] + 1).tolist()
        peak = w.max(axis=1, keepdims=True)
        if peak.min() == -math.inf:
            # All zero-weight: shift by 0 from 0, never -inf - -inf; the d
            # real ones sum to d exactly, so each entry becomes 1 / d.
            dead = peak[:, 0] == -math.inf
            w[dead] = peak[dead] = 0.0
            if mixed:
                w[padding] = -math.inf
        probs = np.exp(w - peak)
        for start, stop in zip(bounds, bounds[1:]):
            probs[start:stop] /= probs[start:stop, : degrees[start]].sum(axis=1, keepdims=True)
        return probs

    def update(self, move_counts: np.ndarray) -> None:
        """Evaporate and deposit on inter-SSE slots, then re-pin intra-SSE tau."""
        e = self.graph.n_inter
        self.tau[:e] = (1.0 - self.params.rho) * self.tau[:e] + move_counts * self.params.delta_tau
        self.tau[e] = left_sum(self.tau[:e].tolist()) / e

    def step(self) -> np.ndarray:
        """Move every ant once; returns the move count per inter-SSE slot.

        Ants on isolated vertices stay put and draw nothing.  The others
        take one uniform each, in ant order, from a single draw, and invert
        their vertex's cumulative row with it, as Generator.choice(p=row)
        would.  The rows of the occupied vertices are built in one padded
        pass; a padded cumulative entry repeats the row's last, so after
        dividing by it the padding reads 1.0, above every uniform.
        """
        graph = self.graph
        e = graph.n_inter
        live = graph.degree[self.ants].nonzero()[0]
        u = self.rng.random(live.size)
        if not live.size:
            return np.zeros(e, dtype=np.intp)
        at = self.ants[live]
        occupied = np.zeros(graph.degree.size, dtype=bool)
        occupied[at] = True
        verts = graph.by_degree[occupied[graph.by_degree]]
        probs = self.rows(verts, self.log_weights())
        rows = probs.cumsum(axis=1)
        miss = np.abs(rows[:, -1] - 1.0)
        if not (probs.min() >= 0 and miss.max() <= _ROW_SUM_TOL):
            bad = ~((probs.min(axis=1) >= 0) & (miss <= _ROW_SUM_TOL))
            vertex = int(verts[bad.argmax()])
            raise ValueError(f"transition row of vertex {vertex} is not a distribution")
        rows /= rows[:, -1:]
        row_at = np.empty(graph.degree.size, dtype=np.intp)
        row_at[verts] = np.arange(verts.size)
        # searchsorted(side="right") on each ant's non-decreasing row
        pick = (rows[row_at[at]] <= u[:, None]).sum(axis=1)
        self.ants[live] = graph.neighbors[at, pick]
        crossed = graph.slots[at, pick]
        return np.bincount(crossed, minlength=e + 1)[:e]

    def run(self) -> int:
        """Iterate moves and updates until max tau >= e_stop * mean tau, or the
        iteration cap; returns the iterations executed."""
        e = self.graph.n_inter
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


@dataclass(frozen=True, eq=False)
class LocalResult:
    """Per-pair candidates: `cells` a (k, 2) array of 0-based (row in X,
    column in Y) in row-major order, and `weights` their s."""

    cells: np.ndarray
    weights: np.ndarray
    iterations: int


def local_aco(
    pair_sizes: tuple[int, int],
    graph: ColonyGraph,
    params: AcoParams,
    rng: np.random.Generator,
) -> LocalResult:
    """Stage one: keep pair edges whose tau / max tau clears lambda_min.
    `graph` is the pair's, built from an (n, m) = `pair_sizes` weight matrix."""
    n, m = pair_sizes
    colony = Colony(graph, params, rng)
    iterations = colony.run()
    tau = colony.tau[: n * m]
    kept = np.flatnonzero(tau / tau.max() >= params.lambda_min)
    return LocalResult(np.column_stack(np.divmod(kept, m)), graph.s[kept], iterations)


@dataclass(frozen=True)
class GlobalResult:
    selected: tuple[Edge, ...]
    selected_tau: tuple[float, ...]
    shortfall: int
    iterations: int


def global_aco(
    query: SseInGraph,
    inter_edges: np.ndarray,
    s: np.ndarray,
    e_p: int,
    params: AcoParams,
    rng: np.random.Generator,
) -> GlobalResult:
    """Stage two: rank all candidates by whole-network pheromone and keep
    E_p, ties to the smaller edge, each with its tau over the largest.

    The candidates are a non-empty (k, 2) array of distinct shortcut edges
    (u, v), u < v, of the query, in any order, with weights s.  The slots
    hold them in ascending order; a residue's vertex is its position in
    `query.vertices`.  E_p is positive; fewer than E_p candidates are all
    kept, the shortfall reported.
    """
    order = np.lexsort(inter_edges.T[::-1])
    edges, s = inter_edges[order], s[order]
    vertices = np.asarray(query.vertices, dtype=np.intp)
    graph = ColonyGraph.from_edges(
        len(vertices),
        np.searchsorted(vertices, edges),
        s,
        query.intra_positions,
        left_sum(s.tolist()) / len(s),
        params.beta,
    )
    colony = Colony(graph, params, rng)
    iterations = colony.run()
    taus = colony.tau[: len(s)]
    normalized = taus / taus.max()
    kept = np.sort(np.lexsort((edges[:, 1], edges[:, 0], -normalized))[:e_p])
    selected = tuple(map(tuple, edges[kept].tolist()))
    shortfall = max(0, e_p - len(selected))
    return GlobalResult(selected, tuple(normalized[kept].tolist()), shortfall, iterations)


GATE_TOLERANCE = 0.2


def validate_built_network(
    built_profile: TopologicalProfile, family_profile: TopologicalProfile
) -> bool:
    """The family gate: accept a built SSE-IN iff every field of its
    topological profile is within `GATE_TOLERANCE` of the family's, the
    boundary included.  The family's fields are positive: `pipeline`
    refuses a family otherwise."""
    return profile_deviation(built_profile, family_profile) <= GATE_TOLERANCE
