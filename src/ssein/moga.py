"""Multi-objective evolutionary prediction of the SSE interaction graph.

Chromosomes use locus-based adjacency: gene i holds an allele j in 1..M,
read as an undirected link between SSE nodes i and j.  An individual's one
derived view is its sorted link set: the objectives sum over it, and the
topological deviation from the family profile profiles it as a graph,
memoized per link set.  Selection is strength-Pareto: raw rank sums the
strengths of an individual's dominators, density is the inverse k-th nearest
neighbour distance in normalized objective space, and the archive is
truncated by that deviation.  Only the final archive is decoded into
clusters (connected components of the links); the returned solution is the
member whose clustering has the highest modularity over its own links, and
its links are the predicted SSE graph.

Ranks and densities are computed from (n, n) arrays, one objective column
at a time; the squared distance adds the columns in numpy's length-3 sum
order, (d0² + d1²) + d2², so the values are those of a sum over an
(n, n, 3) array, bit for bit.

Breeding (binary tournaments, the crossover mask, mutation) draws through
`PcgDraws`, which replays numpy's `random()` and `integers(low, high,
size)` from the PCG64 generator's raw output: the same values in the same
order, at a fraction of numpy's per-call cost, with the generator synced
back at the end of `run_moga`.  The crossover mask is one sized draw,
replayed as the top bits of M 32-bit draws.  `breed` lists the draw order.

The per-SSE features the objectives read come from the parser's output:
`SseContext.from_structure` computes backbone dihedrals from each residue's
N / Cα / C atoms, and hydrophobicity, for the SSE members only.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .ingest import KYTE_DOOLITTLE, ProteinStructure, backbone_dihedrals
from .metrics import (
    Edge,
    TopologicalProfile,
    left_sum,
    profile_deviation,
    topological_profile,
)

Genes = tuple[int, ...]
# (o_distance, o_torsion, o_hydro), all minimized.
Objectives = tuple[float, float, float]

# Objective sentinel for chromosomes that imply no links at all.
WORST_OBJECTIVE = sys.float_info.max


@dataclass
class Individual:
    genes: Genes
    objectives: Optional[Objectives] = None
    rank: Optional[float] = None
    sigma_k: Optional[float] = None
    fitness: Optional[float] = None
    links: tuple[Edge, ...] = field(init=False)
    key: int = field(init=False)  # one bit per link, smaller than the tuple

    def __post_init__(self):
        m = len(self.genes)
        self.links = gene_links(self.genes)
        self.key = sum(1 << (i * m + j) for i, j in self.links)


@dataclass(frozen=True)
class GaParams:
    population_size: int = 20
    archive_size: int = 12
    generations: int = 150
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.archive_size < 1:
            raise ValueError("archive_size must be >= 1")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def k(self) -> int:
        """The density neighbour, floor(sqrt(N_p + N_E)) as in SPEA2; at
        least 1, since N_p >= 2 and N_E >= 1."""
        return int(math.sqrt(self.population_size + self.archive_size))


@dataclass(frozen=True)
class SseContext:
    """Per-SSE features consumed by the objective functions."""

    centroids: np.ndarray  # (M, 3) Cα centroids
    mean_phi: np.ndarray  # (M,) degrees
    mean_psi: np.ndarray  # (M,) degrees
    mean_hydro: np.ndarray  # (M,)

    def __post_init__(self):
        m = self.centroids.shape[0]
        if self.centroids.shape != (m, 3):
            raise ValueError("centroids must have shape (M, 3)")
        for name in ("mean_phi", "mean_psi", "mean_hydro"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must have shape (M,)")

    @property
    def sse_count(self) -> int:
        return self.centroids.shape[0]

    @cached_property
    def pair_terms(self) -> dict[tuple[int, int], tuple[float, float, float]]:
        """(distance, torsion, hydro) objective terms of each 1-based SSE
        pair i < j, computed once per context.  The distance is
        sqrt((dx*dx + dy*dy) + dz*dz) in Python floats, the contact map's
        association: no BLAS kernel, chosen per CPU, sets its last bit."""
        centroids = self.centroids.tolist()
        terms = {}
        for a in range(self.sse_count):
            for b in range(a + 1, self.sse_count):
                dx, dy, dz = (p - q for p, q in zip(centroids[a], centroids[b]))
                dphi = _wrap_degrees(self.mean_phi[a] - self.mean_phi[b])
                dpsi = _wrap_degrees(self.mean_psi[a] - self.mean_psi[b])
                terms[a + 1, b + 1] = (
                    math.sqrt((dx * dx + dy * dy) + dz * dz),
                    float((dphi + dpsi) / 2.0),
                    float(self.mean_hydro[a] * self.mean_hydro[b]),
                )
        return terms

    @classmethod
    def from_structure(cls, protein: ProteinStructure) -> "SseContext":
        """Per SSE: the Cα centroid, the means of its members' defined phi
        and psi (0 where none is), and the mean Kyte-Doolittle value."""
        centroids = []
        mean_phi = []
        mean_psi = []
        mean_hydro = []
        for a in protein.sse_list:
            members = protein.residues[a.first_residue - 1 : a.last_residue]
            coords = np.array([r.ca for r in members], dtype=float)
            centroids.append(coords.mean(axis=0))
            angles = [backbone_dihedrals(protein.residues, r.index) for r in members]
            phis = [phi for phi, _ in angles if phi is not None]
            psis = [psi for _, psi in angles if psi is not None]
            mean_phi.append(left_sum(phis) / len(phis) if phis else 0.0)
            mean_psi.append(left_sum(psis) / len(psis) if psis else 0.0)
            mean_hydro.append(left_sum(KYTE_DOOLITTLE[r.code] for r in members) / len(members))
        return cls(
            np.array(centroids, dtype=float),
            np.array(mean_phi, dtype=float),
            np.array(mean_psi, dtype=float),
            np.array(mean_hydro, dtype=float),
        )


def gene_links(genes: Genes) -> tuple[Edge, ...]:
    """The sorted distinct SSE links (min(i, g_i), max(i, g_i)) with i != g_i,
    every allele g_i in 1..M."""
    links = {(i, g) if i < g else (g, i) for i, g in enumerate(genes, start=1) if g != i}
    return tuple(sorted(links))


def decode(genes: Genes) -> dict[int, int]:
    """Cluster label of every SSE: the connected components of the gene
    links via union-find, each labelled by its smallest member index."""
    parent = list(range(len(genes) + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, g in gene_links(genes):
        ri, rg = find(i), find(g)
        if ri != rg:
            parent[max(ri, rg)] = min(ri, rg)
    return {i: find(i) for i in range(1, len(genes) + 1)}


def modularity(genes: Genes) -> float:
    """Newman-Girvan modularity of `decode`'s clusters over the gene links.

    Q = sum over clusters of e_c/m - (d_c/2m)^2, with m links, e_c links
    inside cluster c and d_c its degree sum.  The clusters are the links'
    connected components, so every link lies inside one: e_c = d_c/2, and
    Q sums (d_c/2)/m - (d_c/2m)^2 over the clusters in label order.  A
    link-free chromosome has Q = 0.
    """
    links = gene_links(genes)
    if not links:
        return 0.0
    labels = decode(genes)
    degree = [0] * (len(genes) + 1)  # by cluster label
    for i, _ in links:
        degree[labels[i]] += 2
    m = len(links)
    q = 0.0
    for d in degree:
        if d:
            q += d / 2 / m - (d / (2 * m)) ** 2
    return q


def _wrap_degrees(delta: float) -> float:
    """Absolute angular difference folded into [0, 180]."""
    d = abs(delta) % 360.0
    return 360.0 - d if d > 180.0 else d


def evaluate_objectives(links: Sequence[Edge], ctx: SseContext) -> Objectives:
    """Mean link quality over the sorted SSE links (all minimized).

    o_distance: mean centroid distance; o_torsion: mean of the wrapped
    (|dphi| + |dpsi|)/2; o_hydro: negated mean hydrophobicity product, each
    summed over the links in order.  A link-free chromosome gets the
    worst-possible sentinel on all three.
    """
    if not links:
        return WORST_OBJECTIVE, WORST_OBJECTIVE, WORST_OBJECTIVE
    terms = ctx.pair_terms
    dist_sum = 0.0
    torsion_sum = 0.0
    hydro_sum = 0.0
    for pair in links:
        distance, torsion, hydro = terms[pair]
        dist_sum += distance
        torsion_sum += torsion
        hydro_sum += hydro
    n = len(links)
    return dist_sum / n, torsion_sum / n, -hydro_sum / n


def strength_ranks(pool: Sequence[Individual]) -> list[float]:
    """Raw rank r(x): sum of strengths of everything dominating x.

    Strength s(y) counts the pool members y dominates, so every
    non-dominated individual ends up with r = 0.
    """
    c0, c1, c2 = np.array([ind.objectives for ind in pool], dtype=float).reshape(-1, 3).T
    a0, a1, a2 = c0[:, None], c1[:, None], c2[:, None]
    # dom[i, j]: i dominates j.  One 2-D compare per objective column.
    dom = ((a0 <= c0) & (a1 <= c1) & (a2 <= c2)) & ((a0 < c0) | (a1 < c1) | (a2 < c2))
    # Integer sums, so exact: r(j) = sum of s(i) over every i dominating j.
    return (dom.sum(axis=1) @ dom).astype(float).tolist()


def density(pool: Sequence[Individual], k: int) -> list[tuple[float, float]]:
    """(sigma_k, m) per individual: m = 1 / (sigma_k + 1).

    Distances are Euclidean in min-max normalized objective space; pools
    with a constant objective normalize that coordinate to zero.  The
    squared distance adds the objectives' squared differences as
    (d0² + d1²) + d2², the order numpy's sum over a length-3 axis uses; a
    constant objective adds an exact 0 and is skipped.  k < len(pool).
    """
    n = len(pool)
    # Halved before differencing so the link-free sentinel cannot overflow.
    half = np.array([ind.objectives for ind in pool], dtype=float) / 2.0
    lo = half.min(axis=0)
    span = (half.max(axis=0) - lo).tolist()
    square = np.zeros((n, n))
    for c in range(3):
        if span[c] > 0:
            z = (half[:, c] - lo[c]) / span[c]
            d = z[:, None] - z
            square = square + d * d
    sigmas = np.sort(np.sqrt(square), axis=1)[:, k].tolist()  # column 0 is the self distance 0
    return [(sigma, 1.0 / (sigma + 1.0)) for sigma in sigmas]


def assign_fitness(pool: Sequence[Individual], k: int) -> None:
    """Set rank, sigma_k and fitness = rank + density in place."""
    for ind, r, (sigma, m) in zip(pool, strength_ranks(pool), density(pool, k)):
        ind.rank = r
        ind.sigma_k = sigma
        ind.fitness = r + m


def _deviation(
    ind: Individual, family_profile: TopologicalProfile, memo: dict[int, float]
) -> float:
    """Profile deviation of the link graph, memoized by the link-set key:
    many chromosomes share a link set."""
    if ind.key not in memo:
        profile = topological_profile(range(1, len(ind.genes) + 1), ind.links)
        memo[ind.key] = profile_deviation(profile, family_profile)
    return memo[ind.key]


def environmental_selection(
    pool: Sequence[Individual],
    archive_size: int,
    family_profile: TopologicalProfile,
    deviations: dict[int, float],
) -> list[Individual]:
    """Build the next archive from an evaluated pool.

    All non-dominated individuals are copied.  Over capacity, the member
    whose link graph deviates most from the family profile is removed
    first (ties: smaller sigma_k, then lowest gene vector); under capacity,
    the best dominated individuals fill up by (fitness, deviation, genes).
    `deviations` memoizes the deviation per link set across calls.
    """

    def deviation(ind: Individual) -> float:
        return _deviation(ind, family_profile, deviations)

    non_dominated = [ind for ind in pool if ind.rank == 0]
    dominated = [ind for ind in pool if ind.rank != 0]
    if len(non_dominated) > archive_size:
        # Removal order: worst deviation first, denser (smaller sigma) first.
        ordered = sorted(
            non_dominated,
            key=lambda ind: (-deviation(ind), ind.sigma_k, ind.genes),
        )
        return sorted(ordered[len(non_dominated) - archive_size :], key=lambda i: i.genes)
    archive = list(non_dominated)
    fill = archive_size - len(archive)
    if fill > 0 and dominated:
        dominated.sort(key=lambda ind: (ind.fitness, deviation(ind), ind.genes))
        archive.extend(dominated[:fill])
    return archive


class PcgDraws:
    """`random()` and `integers(low, high, size)` of a PCG64 `Generator`,
    replayed in Python from blocks of its raw 64-bit output, value for value
    as numpy computes them: a double is an output's top 53 bits times 2**-53;
    a 32-bit draw is an output's low half, then its high half, held over as
    the state's `has_uint32` / `uinteger`; a bounded integer multiplies a
    32-bit draw by the range and rejects below numpy's threshold (Lemire's
    method), and a range of one value draws nothing.  A sized draw is a list
    drawn as that many scalar draws.  A numpy call costs microseconds of
    overhead per draw; this costs a fraction of one.

    The generator runs ahead by the unused rest of a block until `sync()`
    sets it back to exactly where the same numpy calls would have left it.
    A block is small (a few kB of Python ints) and replaced when used up,
    so memory stays flat.
    """

    def __init__(self, rng: np.random.Generator, block: int = 256):
        if type(rng.bit_generator) is not np.random.PCG64:
            raise TypeError(f"replay needs a PCG64 generator, got {rng.bit_generator!r}")
        self._bits = rng.bit_generator
        self._block = block
        self._start = self._bits.state  # the state the current block began at
        self._has_half = self._start["has_uint32"]
        self._half = self._start["uinteger"]
        self._raw: list[int] = []
        self._unused = iter(self._raw)

    def _refill(self) -> int:
        """The next block's first output; the block replaces the last one."""
        self._start = self._bits.state
        self._raw = self._bits.random_raw(self._block).tolist()
        self._unused = iter(self._raw)
        return next(self._unused)

    def _next32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        x = next(self._unused, None)
        if x is None:
            x = self._refill()
        self._has_half, self._half = 1, x >> 32
        return x & 0xFFFFFFFF

    def random(self) -> float:
        x = next(self._unused, None)
        if x is None:
            x = self._refill()
        return (x >> 11) * _2_POW_M53

    def integers(
        self, low: int, high: Optional[int] = None, size: Optional[int] = None
    ) -> int | list[int]:
        if high is None:
            low, high = 0, low
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError(f"range [{low}, {high}) must hold 1 to 2**32 values")
        if size is not None:
            return self._sized(low, span, size)
        if span == 1:
            return low
        m = self._next32() * span
        if m & 0xFFFFFFFF < span:
            threshold = (0xFFFFFFFF - (span - 1)) % span
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def _sized(self, low: int, span: int, size: int) -> list[int]:
        """`size` draws as a list, consumed as `size` scalar calls would.  A
        power-of-two range never rejects (numpy's threshold is 0), so each
        value is the top bits of one 32-bit draw."""
        if span == 1 or span & (span - 1):
            return [self.integers(low, low + span) for _ in range(size)]
        shift = 33 - span.bit_length()
        return [low + (self._next32() >> shift) for _ in range(size)]

    def sync(self) -> None:
        """Replay the used part of the block on the generator and set its
        held-over half, so the stream continues as numpy's would."""
        self._bits.state = self._start
        self._bits.random_raw(len(self._raw) - operator.length_hint(self._unused))
        state = self._bits.state
        self._start = {**state, "has_uint32": self._has_half, "uinteger": self._half}
        self._bits.state = self._start
        self._raw = []
        self._unused = iter(self._raw)


_2_POW_M53 = 1.0 / 9007199254740992.0


def breed(
    archive: Sequence[Individual], params: GaParams, rng: np.random.Generator | PcgDraws
) -> list[Individual]:
    """One offspring population.  Per offspring the draws are, in order:
    two binary tournaments, each two `integers(0, len(archive))` with the
    lower fitness winning and ties going to the first draw; one `random()`
    against the crossover rate and, when it crosses, one
    `integers(0, 2, size=M)` for the uniform crossover mask (gene i comes
    from the second parent where bit i is 1); then per gene one `random()`
    against the mutation rate and, when it fires, one `integers(1, M)` that
    picks a different allele.  The sized mask draw consumes the stream as M
    scalar `integers(0, 2)` would; `PcgDraws` replays it as the top bits of
    M 32-bit draws.  A one-gene chromosome is never mutated and draws
    nothing for it.  The archive is non-empty."""
    n = len(archive)
    m = len(archive[0].genes)
    integers, random = rng.integers, rng.random
    crossover_rate, mutation_rate = params.crossover_rate, params.mutation_rate
    offspring = []
    for _ in range(params.population_size):
        a, b = archive[integers(n)], archive[integers(n)]
        p1 = (a if a.fitness <= b.fitness else b).genes
        a, b = archive[integers(n)], archive[integers(n)]
        p2 = (a if a.fitness <= b.fitness else b).genes
        if random() < crossover_rate:
            genes = [y if bit else x for x, y, bit in zip(p1, p2, integers(0, 2, size=m))]
        else:
            genes = list(p1)
        if m > 1:
            for i in range(m):
                if random() < mutation_rate:
                    v = int(integers(1, m))  # 1..m-1, then skip the current allele
                    genes[i] = v if v < genes[i] else v + 1
        offspring.append(Individual(tuple(genes)))
    return offspring


def run_moga(
    ctx: SseContext,
    params: GaParams,
    family_profile: TopologicalProfile,
    rng: np.random.Generator,
) -> Individual:
    """Evolve SSE-graph chromosomes for a fixed generation budget.

    Each generation evaluates population plus archive, re-selects the
    archive, and breeds a new population from it by binary tournament,
    uniform crossover and mutation.  The initial population draws from `rng`
    directly; breeding draws from a `PcgDraws` replay of it, synced back
    before returning, so `rng` ends where numpy's own calls would leave it.
    Only the non-dominated final archive is decoded: its member of highest
    clustering modularity (ties to the lowest gene vector) is returned, and
    its `links` are the SSE graph.
    """
    m = ctx.sse_count
    if m < 2:
        raise ValueError("need at least 2 SSEs to predict links")
    k = params.k

    population = [Individual(tuple(range(1, m + 1)))]
    while len(population) < params.population_size:
        population.append(Individual(tuple(int(g) for g in rng.integers(1, m + 1, size=m))))

    archive: list[Individual] = []
    deviations: dict[int, float] = {}
    draws = PcgDraws(rng)
    try:
        for generation in range(params.generations):
            pool = population + archive
            for ind in pool:
                if ind.objectives is None:
                    ind.objectives = evaluate_objectives(ind.links, ctx)
            assign_fitness(pool, min(k, len(pool) - 1))
            archive = environmental_selection(
                pool, params.archive_size, family_profile, deviations
            )
            if generation < params.generations - 1:
                population = breed(archive, params, draws)
    finally:
        draws.sync()

    final = [ind for ind in archive if ind.rank == 0]
    return min(final, key=lambda ind: (-modularity(ind.genes), ind.genes))
