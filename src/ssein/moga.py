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
member whose clustering has the highest modularity over its own links.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .ingest import ProteinStructure
from .metrics import (
    Edge,
    TopologicalProfile,
    incidence_matrix,
    left_sum,
    modularity,
    profile_deviation,
    topological_profile,
)

Genes = tuple[int, ...]

# Objective sentinel for chromosomes that imply no links at all.
WORST_OBJECTIVE = sys.float_info.max


class ObjectiveVector(tuple):
    """(o_distance, o_torsion, o_hydro) triple, all minimized."""

    def __new__(cls, o_distance: float, o_torsion: float, o_hydro: float):
        return super().__new__(cls, (float(o_distance), float(o_torsion), float(o_hydro)))

    @property
    def o_distance(self) -> float:
        return self[0]

    @property
    def o_torsion(self) -> float:
        return self[1]

    @property
    def o_hydro(self) -> float:
        return self[2]


@dataclass
class Individual:
    genes: Genes
    objectives: Optional[ObjectiveVector] = None
    rank: Optional[float] = None
    sigma_k: Optional[float] = None
    density: Optional[float] = None
    fitness: Optional[float] = None

    @cached_property
    def links(self) -> tuple[Edge, ...]:
        return gene_links(self.genes)


@dataclass(frozen=True)
class GaParams:
    population_size: int = 20
    archive_size: int = 12
    generations: int = 150
    k: Optional[int] = None  # density neighbour; default floor(sqrt(N_p + N_E))
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    tournament_replacement: bool = True

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.archive_size < 1:
            raise ValueError("archive_size must be >= 1")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    def effective_k(self) -> int:
        if self.k is not None:
            return self.k
        return max(1, int(math.sqrt(self.population_size + self.archive_size)))


@dataclass(frozen=True)
class SseContext:
    """Per-SSE features consumed by the objective functions."""

    centroids: np.ndarray  # (M, 3) Cα centroids
    mean_phi: np.ndarray  # (M,) degrees
    mean_psi: np.ndarray  # (M,) degrees
    mean_hydro: np.ndarray  # (M,)
    sse_sizes: tuple[int, ...]

    def __post_init__(self):
        m = self.centroids.shape[0]
        if self.centroids.shape != (m, 3):
            raise ValueError("centroids must have shape (M, 3)")
        for name in ("mean_phi", "mean_psi", "mean_hydro"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must have shape (M,)")
        if len(self.sse_sizes) != m:
            raise ValueError("sse_sizes length must match centroid count")

    @property
    def sse_count(self) -> int:
        return self.centroids.shape[0]

    @cached_property
    def pair_terms(self) -> dict[tuple[int, int], tuple[float, float, float]]:
        """(distance, torsion, hydro) objective terms of each 1-based SSE
        pair i < j, computed once per context."""
        terms = {}
        for a in range(self.sse_count):
            for b in range(a + 1, self.sse_count):
                dphi = _wrap_degrees(self.mean_phi[a] - self.mean_phi[b])
                dpsi = _wrap_degrees(self.mean_psi[a] - self.mean_psi[b])
                terms[a + 1, b + 1] = (
                    float(np.linalg.norm(self.centroids[a] - self.centroids[b])),
                    float((dphi + dpsi) / 2.0),
                    float(self.mean_hydro[a] * self.mean_hydro[b]),
                )
        return terms

    @classmethod
    def from_structure(cls, protein: ProteinStructure) -> "SseContext":
        centroids = []
        mean_phi = []
        mean_psi = []
        mean_hydro = []
        sizes = []
        for a in protein.sse_list:
            members = protein.residues[a.first_residue - 1 : a.last_residue]
            coords = np.array([r.ca for r in members], dtype=float)
            centroids.append(coords.mean(axis=0))
            phis = [r.phi for r in members if r.phi is not None]
            psis = [r.psi for r in members if r.psi is not None]
            mean_phi.append(left_sum(phis) / len(phis) if phis else 0.0)
            mean_psi.append(left_sum(psis) / len(psis) if psis else 0.0)
            mean_hydro.append(left_sum(r.hydrophobicity for r in members) / len(members))
            sizes.append(a.size)
        return cls(
            np.array(centroids, dtype=float),
            np.array(mean_phi, dtype=float),
            np.array(mean_psi, dtype=float),
            np.array(mean_hydro, dtype=float),
            tuple(sizes),
        )


def gene_links(genes: Genes) -> tuple[Edge, ...]:
    """The sorted distinct SSE links (min(i, g_i), max(i, g_i)) with i != g_i."""
    m = len(genes)
    for g in genes:
        if not 1 <= g <= m:
            raise ValueError(f"allele {g} out of range 1..{m}")
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


def _wrap_degrees(delta: float) -> float:
    """Absolute angular difference folded into [0, 180]."""
    d = abs(delta) % 360.0
    return 360.0 - d if d > 180.0 else d


def evaluate_objectives(links: Sequence[Edge], ctx: SseContext) -> ObjectiveVector:
    """Mean link quality over the sorted SSE links (all minimized).

    o_distance: mean centroid distance; o_torsion: mean of the wrapped
    (|dphi| + |dpsi|)/2; o_hydro: negated mean hydrophobicity product, each
    summed over the links in order.  A link-free chromosome gets the
    worst-possible sentinel on all three.
    """
    if not links:
        return ObjectiveVector(WORST_OBJECTIVE, WORST_OBJECTIVE, WORST_OBJECTIVE)
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
    return ObjectiveVector(dist_sum / n, torsion_sum / n, -hydro_sum / n)


def strength_ranks(pool: Sequence[Individual]) -> list[float]:
    """Raw rank r(x): sum of strengths of everything dominating x.

    Strength s(y) counts the pool members y dominates, so every
    non-dominated individual ends up with r = 0.
    """
    obj = np.array([ind.objectives for ind in pool], dtype=float).reshape(-1, 3)
    a, b = obj[:, None, :], obj[None, :, :]
    dom = (a <= b).all(axis=-1) & (a < b).any(axis=-1)  # dom[i, j]: i dominates j
    # Integer sums, so exact: r(j) = sum of s(i) over every i dominating j.
    return (dom.sum(axis=1) @ dom).astype(float).tolist()


def _normalized_objectives(pool: Sequence[Individual]) -> np.ndarray:
    # Halved before differencing so the link-free sentinel cannot overflow.
    obj = np.array([pool[i].objectives for i in range(len(pool))], dtype=float)
    half = obj / 2.0
    lo = half.min(axis=0)
    hi = half.max(axis=0)
    span = hi - lo
    out = np.zeros_like(half)
    for c in range(half.shape[1]):
        if span[c] > 0:
            out[:, c] = (half[:, c] - lo[c]) / span[c]
    return out


def density(pool: Sequence[Individual], k: int) -> list[tuple[float, float]]:
    """(sigma_k, m) per individual: m = 1 / (sigma_k + 1).

    Distances are Euclidean in min-max normalized objective space; pools
    with a constant objective normalize that coordinate to zero.
    """
    n = len(pool)
    if k >= n:
        raise ValueError(f"k = {k} must be smaller than pool size {n}")
    coords = _normalized_objectives(pool)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    sigmas = np.sort(dist, axis=1)[:, k].tolist()  # column 0 is the self distance 0
    return [(sigma, 1.0 / (sigma + 1.0)) for sigma in sigmas]


def assign_fitness(pool: Sequence[Individual], k: int) -> list[float]:
    """Compute rank, sigma_k, density and fitness = rank + density in place."""
    ranks = strength_ranks(pool)
    dens = density(pool, k)
    fitnesses = []
    for ind, r, (sigma, m) in zip(pool, ranks, dens):
        ind.rank = r
        ind.sigma_k = sigma
        ind.density = m
        ind.fitness = r + m
        fitnesses.append(ind.fitness)
    return fitnesses


def _deviation(
    ind: Individual, family_profile: TopologicalProfile, memo: dict[int, float]
) -> float:
    """Profile deviation of the link graph, memoized by an int with one bit
    per link: many chromosomes share a link set, and the int is smaller than
    the link tuple."""
    m = len(ind.genes)
    key = sum(1 << (i * m + j) for i, j in ind.links)
    if key not in memo:
        profile = topological_profile(range(1, m + 1), ind.links)
        memo[key] = profile_deviation(profile, family_profile)
    return memo[key]


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


def binary_tournament(archive: Sequence[Individual], rng: np.random.Generator) -> Individual:
    """Two uniform draws with replacement; the lower fitness wins, ties to
    the first draw."""
    if not archive:
        raise ValueError("archive is empty")
    a = archive[int(rng.integers(len(archive)))]
    b = archive[int(rng.integers(len(archive)))]
    return a if a.fitness <= b.fitness else b


def uniform_crossover(p1: Genes, p2: Genes, mask: Sequence[int]) -> Genes:
    """Offspring gene i comes from p1 when mask_i = 0, otherwise from p2."""
    if len(p1) != len(p2) or len(p1) != len(mask):
        raise ValueError("parents and mask must have equal lengths")
    return tuple(p2[i] if mask[i] else p1[i] for i in range(len(p1)))


def mutate(genes: Genes, rate: float, rng: np.random.Generator) -> Genes:
    """Each gene reassigns, with probability rate, to a different allele."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    m = len(genes)
    if m < 2:
        return genes
    out = list(genes)
    for i in range(m):
        if rng.random() < rate:
            v = int(rng.integers(1, m))  # 1..m-1, then skip the current allele
            out[i] = v if v < out[i] else v + 1
    return tuple(out)


@dataclass(frozen=True)
class MogaResult:
    best: Individual
    incidence: np.ndarray
    archive: tuple[Individual, ...]


def run_moga(
    ctx: SseContext,
    params: GaParams,
    family_profile: TopologicalProfile,
    rng: np.random.Generator,
) -> MogaResult:
    """Evolve SSE-graph chromosomes for a fixed generation budget.

    Each generation evaluates population plus archive, re-selects the
    archive, and breeds a new population from it by binary tournament,
    uniform crossover and mutation.  Only the non-dominated final archive is
    decoded: its member of highest clustering modularity is returned
    together with that archive.
    """
    m = ctx.sse_count
    if m < 2:
        raise ValueError("need at least 2 SSEs to predict links")
    k = params.effective_k()

    population = [Individual(tuple(range(1, m + 1)))]
    while len(population) < params.population_size:
        population.append(Individual(tuple(int(g) for g in rng.integers(1, m + 1, size=m))))

    archive: list[Individual] = []
    deviations: dict[int, float] = {}
    for generation in range(params.generations):
        pool = population + archive
        for ind in pool:
            if ind.objectives is None:
                ind.objectives = evaluate_objectives(ind.links, ctx)
        assign_fitness(pool, min(k, len(pool) - 1))
        archive = environmental_selection(pool, params.archive_size, family_profile, deviations)
        if generation == params.generations - 1:
            break
        offspring = []
        for _ in range(params.population_size):
            p1 = binary_tournament(archive, rng)
            p2 = binary_tournament(archive, rng)
            if rng.random() < params.crossover_rate:
                mask = rng.integers(0, 2, size=m)
                genes = uniform_crossover(p1.genes, p2.genes, mask)
            else:
                genes = p1.genes
            genes = mutate(genes, params.mutation_rate, rng)
            offspring.append(Individual(genes))
        population = offspring

    final = [ind for ind in archive if ind.rank == 0]
    scored = [(modularity(range(1, m + 1), ind.links, decode(ind.genes)), ind) for ind in final]
    scored.sort(key=lambda pair: (-pair[0], pair[1].genes))
    best = scored[0][1]
    return MogaResult(best, incidence_matrix(best.links, m), tuple(final))

