import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ScriptedDraws,
    chain_break_protein,
    dominates,
    helix_record,
    make_ga_instance,
    two_helix_protein,
)
from ssein.ingest import KYTE_DOOLITTLE, PEPTIDE_BOND_MAX, dihedral_angle, parse_pdb_detailed
from ssein.metrics import TopologicalProfile, incidence_matrix, left_sum
from ssein.moga import (
    WORST_OBJECTIVE,
    GaParams,
    Individual,
    PcgDraws,
    SseContext,
    assign_fitness,
    breed,
    _deviation,
    decode,
    density,
    environmental_selection,
    evaluate_objectives,
    gene_links,
    run_moga,
    strength_ranks,
)
from ssein.pipeline import family_sse_profile


def components_oracle(genes):
    """Brute-force connected components by BFS over the gene links."""
    m = len(genes)
    adj = {i: set() for i in range(1, m + 1)}
    for i, g in enumerate(genes, start=1):
        if g != i:
            adj[i].add(g)
            adj[g].add(i)
    label = {}
    for start in range(1, m + 1):
        if start in label:
            continue
        queue = deque([start])
        members = []
        seen = {start}
        while queue:
            v = queue.popleft()
            members.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        root = min(members)
        for v in members:
            label[v] = root
    return label


def incidence_oracle(genes):
    """Symmetric incidence of the gene links, as the GA once decoded it."""
    m = len(genes)
    incidence = np.zeros((m, m), dtype=np.int8)
    for i, g in enumerate(genes, start=1):
        if not 1 <= g <= m:
            raise ValueError(f"allele {g} out of range 1..{m}")
        if g != i:
            incidence[i - 1, g - 1] = incidence[g - 1, i - 1] = 1
    return incidence


def upper_pairs(matrix):
    n = matrix.shape[0]
    return [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if matrix[i, j]]


chromosomes = st.integers(1, 12).flatmap(
    lambda m: st.tuples(*[st.integers(1, m) for _ in range(m)])
)


def mk(objectives):
    ind = Individual(genes=(1,))
    ind.objectives = tuple(map(float, objectives))
    return ind


def mk2(a, b):
    # two-objective reduction: third coordinate held constant
    return mk((a, b, 0.0))


class TestDecode:
    def test_seven_node_example(self):
        genes = (2, 1, 2, 3, 6, 7, 5)
        groups = {}
        for node, label in decode(genes).items():
            groups.setdefault(label, set()).add(node)
        assert sorted(groups.values(), key=min) == [{1, 2, 3, 4}, {5, 6, 7}]
        links = gene_links(genes)
        assert (1, 2) in links and (5, 6) in links
        assert all(i < j for i, j in links)

    def test_all_self_loops(self):
        assert len(set(decode((1, 2, 3)).values())) == 3
        assert gene_links((1, 2, 3)) == ()

    @settings(max_examples=100)
    @given(chromosomes)
    def test_matches_bfs_oracle(self, genes):
        labels = decode(genes)
        assert labels == components_oracle(genes)
        assert len(set(labels.values())) <= len(genes)
        assert decode(genes) == labels

    def test_incidence_has_exactly_gene_pairs(self):
        # gene 2 repeats link (2, 3) from gene 3's side; gene 4 is a self-loop
        assert gene_links((3, 3, 1, 4)) == ((1, 3), (2, 3))

    @settings(max_examples=200)
    @given(chromosomes)
    def test_links_match_incidence_oracle(self, genes):
        incidence = incidence_oracle(genes)
        links = gene_links(genes)
        assert list(links) == upper_pairs(incidence)
        assert np.array_equal(incidence_matrix(links, len(genes)), incidence)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda m: st.tuples(*[st.tuples(*[st.integers(1, m)] * m)] * 2)
    ))
    def test_deviation_memo_key_is_the_link_set(self, pair):
        # two chromosomes share one memo entry exactly when their links agree
        memo = {}
        a, b = (Individual(genes) for genes in pair)
        first = _deviation(a, FAMILY, memo)
        second = _deviation(b, FAMILY, memo)
        assert (len(memo) == 1) == (a.links == b.links)
        assert (len(memo) == 1) == (upper_pairs(incidence_oracle(a.genes))
                                    == upper_pairs(incidence_oracle(b.genes)))
        if len(memo) == 1:
            assert first == second


class TestObjectives:
    def ctx_two_sse(self):
        return SseContext(
            centroids=np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]),
            mean_phi=np.array([-57.0, -57.0]),
            mean_psi=np.array([-47.0, -47.0]),
            mean_hydro=np.array([2.0, 3.0]),
        )

    def test_self_loops_get_sentinel(self):
        obj = evaluate_objectives(gene_links((1, 2)), self.ctx_two_sse())
        assert obj == (WORST_OBJECTIVE,) * 3

    def test_single_pair_means(self):
        distance, torsion, hydro = evaluate_objectives(gene_links((2, 1)), self.ctx_two_sse())
        assert distance == pytest.approx(10.0)
        assert torsion == pytest.approx(0.0)
        assert hydro == pytest.approx(-6.0)

    def test_angle_wrap(self):
        ctx = SseContext(
            centroids=np.zeros((2, 3)),
            mean_phi=np.array([170.0, -170.0]),  # 20 apart across the seam
            mean_psi=np.array([0.0, 0.0]),
            mean_hydro=np.ones(2),
        )
        _, torsion, _ = evaluate_objectives(gene_links((2, 1)), ctx)
        assert torsion == pytest.approx(10.0)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(8)
        m = 6
        ctx = SseContext(
            centroids=rng.uniform(-20, 20, size=(m, 3)),
            mean_phi=rng.uniform(-180, 180, size=m),
            mean_psi=rng.uniform(-180, 180, size=m),
            mean_hydro=rng.uniform(-4.5, 4.5, size=m),
        )
        genes = (3, 3, 5, 1, 2, 6)
        pairs = {(min(i, g), max(i, g)) for i, g in enumerate(genes, 1) if g != i}

        def wrap(d):
            d = abs(d) % 360
            return 360 - d if d > 180 else d

        dist = np.mean(
            [np.linalg.norm(ctx.centroids[i - 1] - ctx.centroids[j - 1]) for i, j in pairs]
        )
        torsion = np.mean(
            [
                (wrap(ctx.mean_phi[i - 1] - ctx.mean_phi[j - 1])
                 + wrap(ctx.mean_psi[i - 1] - ctx.mean_psi[j - 1])) / 2
                for i, j in pairs
            ]
        )
        hydro = -np.mean([ctx.mean_hydro[i - 1] * ctx.mean_hydro[j - 1] for i, j in pairs])
        obj = evaluate_objectives(gene_links(genes), ctx)
        assert obj == pytest.approx((dist, torsion, hydro), abs=1e-9)

    def test_pair_distances_bit_for_bit_without_blas(self):
        """np.linalg.norm's last bit depends on the BLAS kernel the CPU
        selects; the distance term must be this one formula on every machine."""
        rng = np.random.default_rng(21)
        m = 40
        centroids = rng.normal(scale=20.0, size=(m, 3))
        ctx = SseContext(centroids, np.zeros(m), np.zeros(m), np.zeros(m))
        expected = {}
        for i, j in itertools.combinations(range(1, m + 1), 2):
            dx, dy, dz = (ctx.centroids[i - 1] - ctx.centroids[j - 1]).tolist()
            expected[i, j] = math.sqrt((dx * dx + dy * dy) + dz * dz)
        assert {pair: terms[0] for pair, terms in ctx.pair_terms.items()} == expected


def reference_context(structure):
    """SSE features built the long way: phi/psi for every residue of the
    chain first, then the means over each SSE's members."""
    residues = structure.residues
    angles = {}
    for k, here in enumerate(residues):
        prev = residues[k - 1] if k > 0 else None
        nxt = residues[k + 1] if k + 1 < len(residues) else None
        phi = psi = None
        if here.n and here.ca and here.c:
            if prev is not None and prev.c and math.dist(prev.c, here.n) <= PEPTIDE_BOND_MAX:
                phi = dihedral_angle(prev.c, here.n, here.ca, here.c)
            if nxt is not None and nxt.n and math.dist(here.c, nxt.n) <= PEPTIDE_BOND_MAX:
                psi = dihedral_angle(here.n, here.ca, here.c, nxt.n)
        angles[here.index] = (phi, psi)
    centroids, mean_phi, mean_psi, mean_hydro = [], [], [], []
    for a in structure.sse_list:
        members = structure.residues[a.first_residue - 1 : a.last_residue]
        centroids.append(np.array([r.ca for r in members], dtype=float).mean(axis=0))
        phis = [angles[r.index][0] for r in members if angles[r.index][0] is not None]
        psis = [angles[r.index][1] for r in members if angles[r.index][1] is not None]
        mean_phi.append(left_sum(phis) / len(phis) if phis else 0.0)
        mean_psi.append(left_sum(psis) / len(psis) if psis else 0.0)
        mean_hydro.append(left_sum(KYTE_DOOLITTLE[r.code] for r in members) / len(members))
    return [np.array(x, dtype=float) for x in (centroids, mean_phi, mean_psi, mean_hydro)]


# One helix across the chain break (residues 2-9), one after it.
CHAIN_BREAK_HELICES = (
    helix_record(1, "ALA", "ALA", "A", 2, 9),
    helix_record(2, "ALA", "ALA", "A", 10, 12),
)


class TestFromStructure:
    @pytest.mark.parametrize(
        "text",
        [two_helix_protein()[0], chain_break_protein(CHAIN_BREAK_HELICES)],
        ids=["two_helix", "chain_break"],
    )
    def test_matches_every_residue_reference(self, text):
        parsed = parse_pdb_detailed(text)
        ctx = SseContext.from_structure(parsed.structure)
        expected = reference_context(parsed.structure)
        got = [ctx.centroids, ctx.mean_phi, ctx.mean_psi, ctx.mean_hydro]
        assert len(parsed.structure.sse_list) == 2
        for g, e in zip(got, expected):
            assert g.shape == e.shape and np.array_equal(g, e)


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))

    def test_incomparable(self):
        a, b = (1.0, 3.0, 1.0), (3.0, 1.0, 1.0)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_irreflexive(self):
        a = (1.0, 2.0, 3.0)
        assert not dominates(a, a)


def strength_oracle(pool):
    n = len(pool)
    strengths = [
        sum(
            1
            for j in range(n)
            if i != j and dominates(pool[i].objectives, pool[j].objectives)
        )
        for i in range(n)
    ]
    return [
        float(
            sum(
                strengths[i]
                for i in range(n)
                if i != j and dominates(pool[i].objectives, pool[j].objectives)
            )
        )
        for j in range(n)
    ]


def reference_strength_ranks(pool):
    """`strength_ranks` as it broadcast to (n, n, 3), kept as the exact
    reference of the column-at-a-time version."""
    obj = np.array([ind.objectives for ind in pool], dtype=float).reshape(-1, 3)
    a, b = obj[:, None, :], obj[None, :, :]
    dom = (a <= b).all(axis=-1) & (a < b).any(axis=-1)  # dom[i, j]: i dominates j
    # Integer sums, so exact: r(j) = sum of s(i) over every i dominating j.
    return (dom.sum(axis=1) @ dom).astype(float).tolist()


def reference_density(pool, k):
    """`density` as it broadcast to (n, n, 3), normalization included, kept
    as the exact reference of the column-at-a-time version."""

    def _normalized_objectives(pool):
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

    n = len(pool)
    if k >= n:
        raise ValueError(f"k = {k} must be smaller than pool size {n}")
    coords = _normalized_objectives(pool)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    sigmas = np.sort(dist, axis=1)[:, k].tolist()  # column 0 is the self distance 0
    return [(sigma, 1.0 / (sigma + 1.0)) for sigma in sigmas]


@st.composite
def objective_pools(draw):
    """A pool of 2-64 members and a density neighbour k: small integer
    objectives, so ties and duplicates occur, some constant columns and
    some link-free members on the worst-objective sentinel."""
    n = draw(st.integers(2, 64))
    constant = draw(st.sets(st.integers(0, 2)))
    worst = draw(st.sets(st.integers(0, n - 1), max_size=4))
    pool = []
    for i in range(n):
        row = draw(st.tuples(*[st.integers(0, 9)] * 3))
        if i in worst:
            row = (WORST_OBJECTIVE,) * 3
        else:
            row = tuple(5 if c in constant else v for c, v in enumerate(row))
        pool.append(mk(row))
    return pool, draw(st.integers(1, n - 1))


class TestStrengthRanks:
    def test_mutually_non_dominated(self):
        pool = [mk2(1, 3), mk2(2, 2), mk2(3, 1)]
        assert strength_ranks(pool) == [0, 0, 0]

    def test_four_point_example(self):
        pool = [mk2(1, 1), mk2(2, 2), mk2(1, 3), mk2(3, 1)]
        assert strength_ranks(pool) == [0, 3, 3, 3]

    def test_random_pools_match_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            pool = [mk(tuple(rng.integers(0, 5, size=3).tolist())) for _ in range(n)]
            assert strength_ranks(pool) == strength_oracle(pool)


class TestDensity:
    def test_identical_pair(self):
        pool = [mk((1, 1, 1)), mk((1, 1, 1))]
        out = density(pool, 1)
        assert out[0] == (0.0, 1.0)

    def test_unit_distance_gives_half(self):
        # normalized space: coordinates 0 and 1 apart in one objective
        pool = [mk((0, 0, 0)), mk((1, 0, 0))]
        sigma, m = density(pool, 1)[0]
        assert sigma == pytest.approx(1.0)
        assert m == pytest.approx(0.5)

    def test_matches_sorting_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            k = int(rng.integers(1, n))
            objs = rng.uniform(0, 10, size=(n, 3))
            pool = [mk(tuple(row)) for row in objs]
            lo, hi = objs.min(axis=0), objs.max(axis=0)
            span = np.where(hi > lo, hi - lo, 1.0)
            norm = np.where((hi > lo), (objs - lo) / span, 0.0)
            result = density(pool, k)
            for i in range(n):
                dists = sorted(np.linalg.norm(norm - norm[i], axis=1))
                assert result[i][0] == pytest.approx(dists[k], abs=1e-12)
                assert result[i][1] == pytest.approx(1 / (dists[k] + 1), abs=1e-12)

    def test_sentinel_objectives_do_not_overflow(self):
        pool = [mk((WORST_OBJECTIVE,) * 3), mk((1.0, 1.0, 1.0)), mk((2.0, 2.0, 2.0))]
        for sigma, m in density(pool, 1):
            assert np.isfinite(sigma)
            assert 0 < m <= 1


class TestFitness:
    @settings(max_examples=300, deadline=None)
    @given(objective_pools())
    def test_equals_the_broadcast_references_exactly(self, pool_and_k):
        pool, k = pool_and_k
        ranks = reference_strength_ranks(pool)
        densities = reference_density(pool, k)
        assert strength_ranks(pool) == ranks
        assert density(pool, k) == densities
        assign_fitness(pool, k)
        assert [ind.rank for ind in pool] == ranks
        assert [ind.sigma_k for ind in pool] == [sigma for sigma, _ in densities]
        assert [ind.fitness for ind in pool] == [r + m for r, (_, m) in zip(ranks, densities)]

    def test_sum_of_rank_and_density(self):
        pool = [mk2(1, 1), mk2(2, 2)]
        assign_fitness(pool, 1)
        (_, m0), (_, m1) = density(pool, 1)
        assert pool[0].rank == 0
        assert pool[1].rank == 1
        assert pool[0].fitness == pytest.approx(m0)
        assert pool[1].fitness == pytest.approx(1 + m1)

    def test_fitness_below_one_iff_non_dominated(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            # distinct objective vectors keep sigma_k positive
            objs = {tuple(rng.integers(0, 50, size=3).tolist()) for _ in range(n)}
            pool = [mk(o) for o in objs]
            if len(pool) < 2:
                continue
            assign_fitness(pool, 1)
            for ind in pool:
                assert (ind.fitness < 1) == (ind.rank == 0)


FAMILY = TopologicalProfile(2.0, 1.5, 1.0, 0.1)


def evaluated_pool(objective_rows, genes_len=4):
    rng = np.random.default_rng(41)
    pool = []
    for row in objective_rows:
        genes = tuple(int(g) for g in rng.integers(1, genes_len + 1, size=genes_len))
        ind = Individual(genes)
        ind.objectives = tuple(map(float, row))
        pool.append(ind)
    assign_fitness(pool, 1)
    return pool


class TestEnvironmentalSelection:
    def test_fill_with_best_dominated(self):
        rows = [(1, 2, 0), (2, 1, 0), (0, 3, 1)] + [(4, 4, i) for i in range(4)]
        pool = evaluated_pool(rows)
        non_dominated = [i for i in pool if i.rank == 0]
        assert len(non_dominated) == 3
        archive = environmental_selection(pool, 5, FAMILY, {})
        assert len(archive) == 5
        assert all(any(ind is member for member in archive) for ind in non_dominated)
        filler = sorted(i.fitness for i in archive if i.rank != 0)
        skipped = sorted(i.fitness for i in pool if not any(i is a for a in archive))
        assert filler and skipped and filler[-1] <= skipped[0]

    def test_truncation_keeps_lowest_deviation(self):
        rows = [(1, 8 - i, i) for i in range(8)]  # eight mutually non-dominated
        pool = evaluated_pool(rows, genes_len=5)
        archive = environmental_selection(pool, 5, FAMILY, {})
        assert len(archive) == 5
        kept = sorted(_deviation(i, FAMILY, {}) for i in archive)
        dropped = sorted(
            _deviation(i, FAMILY, {}) for i in pool if i not in archive
        )
        assert kept[-1] <= dropped[0] + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(6, 20), st.integers(0, 1000))
    def test_archive_size_exact_once_pool_large_enough(self, n, seed):
        rng = np.random.default_rng(seed)
        rows = [tuple(rng.uniform(0, 5, size=3)) for _ in range(n)]
        pool = evaluated_pool(rows)
        archive = environmental_selection(pool, 5, FAMILY, {})
        assert len(archive) == 5

    def test_truncated_archive_is_mutually_non_dominated(self):
        rows = [(1, 8 - i, i) for i in range(8)] + [(9, 9, 9)]
        pool = evaluated_pool(rows)
        archive = environmental_selection(pool, 4, FAMILY, {})
        for a, b in itertools.permutations(archive, 2):
            assert not dominates(a.objectives, b.objectives)


def bred_genes(genes, params, rng, fitness=None):
    """Offspring chromosomes bred from an archive of the given chromosomes,
    all of fitness 0 unless `fitness` says otherwise."""
    archive = [Individual(g) for g in genes]
    for ind, f in zip(archive, fitness or [0.0] * len(archive)):
        ind.fitness = f
    return [ind.genes for ind in breed(archive, params, rng)]


# Breeding with neither crossover nor mutation: each offspring is its first
# tournament's winner.
SELECT_ONLY = GaParams(population_size=2, crossover_rate=0.0, mutation_rate=0.0)


class TestBinaryTournament:
    def test_singleton(self):
        assert bred_genes([(2, 1, 3)], SELECT_ONLY, np.random.default_rng(0)) == [(2, 1, 3)] * 2

    def test_better_fitness_wins(self):
        # The first tournament draws `first` then `second`: the lower
        # fitness wins, a tie goes to the first draw.
        archive = [(1, 1), (2, 1)]
        for first, second, fitness, winner in [
            (0, 1, [0.2, 5.0], 0),
            (1, 0, [0.2, 5.0], 0),
            (1, 0, [1.0, 1.0], 1),
        ]:
            draws = ScriptedDraws([first, second, 0, 0, 0.5, 0.5, 0.5] * 2)
            assert bred_genes(archive, SELECT_ONLY, draws, fitness) == [archive[winner]] * 2

    def test_selection_frequency(self):
        a, b = (1, 1), (2, 1)
        params = GaParams(population_size=10_000, crossover_rate=0.0, mutation_rate=0.0)
        children = bred_genes([a, b], params, np.random.default_rng(1234), [0.2, 5.0])
        assert children.count(a) / 10_000 == pytest.approx(0.75, abs=0.02)


def crossover_script(mask):
    """One offspring's draws: tournaments pick archive members 0 then 1,
    the crossover fires with `mask`, and no gene mutates."""
    return [0, 0, 1, 1, 0.0, list(mask)] + [0.5] * len(mask)


class TestCrossover:
    def crossed(self, p1, p2, mask):
        draws = ScriptedDraws(crossover_script(mask) * 2)
        children = bred_genes([p1, p2], GaParams(population_size=2, mutation_rate=0.0), draws)
        assert not draws.values
        assert ("integers", 0, 2, len(mask)) in draws.calls  # one sized mask draw
        assert children[0] == children[1]
        return children[0]

    def test_worked_uniform_crossover_example(self):
        offspring = self.crossed(
            (4, 3, 2, 2, 6, 5, 6), (3, 3, 1, 5, 4, 7, 6), (0, 1, 1, 0, 0, 1, 1)
        )
        assert offspring == (4, 3, 1, 2, 6, 7, 6)

    def test_zero_mask_copies_first_parent(self):
        p1, p2 = (1, 2, 3), (3, 2, 1)
        assert self.crossed(p1, p2, (0, 0, 0)) == p1

    def test_ones_mask_copies_second_parent(self):
        p1, p2 = (1, 2, 3), (3, 2, 1)
        assert self.crossed(p1, p2, (1, 1, 1)) == p2

    @given(
        st.integers(2, 8).flatmap(
            lambda m: st.tuples(
                st.tuples(*[st.integers(1, m)] * m),
                st.tuples(*[st.integers(1, m)] * m),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    def test_gene_provenance(self, args):
        p1, p2, seed = args
        params = GaParams(population_size=20, crossover_rate=1.0, mutation_rate=0.0)
        for child in bred_genes([p1, p2], params, PcgDraws(np.random.default_rng(seed))):
            for i, gene in enumerate(child):
                assert gene in (p1[i], p2[i])


def mutated(genes, rate, rng, n=2):
    """`n` offspring of a one-member archive: only mutation changes them."""
    return bred_genes([genes], GaParams(population_size=n, mutation_rate=rate), rng)


class TestMutate:
    def test_rate_zero_is_identity(self):
        genes = (1, 3, 2, 4)
        assert mutated(genes, 0.0, np.random.default_rng(0), n=20) == [genes] * 20

    def test_rate_one_flips_binary(self):
        assert mutated((1, 2), 1.0, np.random.default_rng(0), n=20) == [(2, 1)] * 20

    def test_empirical_rate(self):
        genes = (1, 1, 1, 1, 1, 1, 1, 1)
        trials = 10_000
        children = mutated(genes, 0.1, PcgDraws(np.random.default_rng(7)), n=trials)
        flips = sum(a != b for child in children for a, b in zip(genes, child))
        assert flips / (trials * len(genes)) == pytest.approx(0.1, abs=0.01)

    @given(
        st.integers(2, 9).flatmap(
            lambda m: st.tuples(st.tuples(*[st.integers(1, m)] * m), st.integers(0, 2**32 - 1))
        )
    )
    def test_alleles_stay_valid(self, args):
        genes, seed = args
        m = len(genes)
        for child in mutated(genes, 0.5, np.random.default_rng(seed), n=10):
            assert all(1 <= g <= m for g in child)


# Ranges of the replay's bounded integers: a single value (no draw), the
# crossover mask's 2, a small range, 2**31 + 1 (rejects about half the
# draws, so the rejection loop runs) and the full 32 bits.
SPANS = (1, 2, 12, 2**31 + 1, 2**32)

replay_ops = st.lists(
    st.one_of(
        st.just(("random",)),
        st.tuples(st.just("integers"), st.integers(-3, 3), st.sampled_from(SPANS)),
        st.tuples(st.just("below"), st.sampled_from(SPANS)),
        st.tuples(st.just("sized"), st.integers(-3, 3), st.sampled_from(SPANS), st.integers(0, 9)),
        st.just(("sync",)),
    ),
    max_size=80,
)

# Crossover masks of the sizes a chromosome takes, mixed with doubles and
# mid-sequence syncs.
mask_ops = st.lists(
    st.one_of(st.sampled_from([1, 2, 3, 8, 24]), st.just("sync"), st.just("random")),
    max_size=30,
)


class TestPcgDraws:
    """The replay against numpy's own calls on a twin generator: every value
    and the generator state it leaves behind."""

    @settings(max_examples=300, deadline=None)
    @given(replay_ops, st.integers(0, 2**64 - 1), st.integers(0, 2), st.sampled_from([1, 3, 256]))
    def test_values_and_state_equal_numpy(self, ops, seed, warmup, block):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        # 1 warm-up draw leaves a uint32 buffered, 2 leave none but a stale one
        for _ in range(warmup):
            rng.integers(0, 2)
            ref.integers(0, 2)
        draws = PcgDraws(rng, block=block)
        for op in ops:
            if op[0] == "random":
                assert draws.random() == ref.random()
            elif op[0] == "integers":
                low, span = op[1:]
                value = draws.integers(low, low + span)
                assert type(value) is int
                assert value == ref.integers(low, low + span)
            elif op[0] == "below":
                assert draws.integers(op[1]) == ref.integers(op[1])
            elif op[0] == "sized":
                low, span, size = op[1:]
                values = draws.integers(low, low + span, size=size)
                assert values == ref.integers(low, low + span, size=size).tolist()
            else:
                draws.sync()
                assert rng.bit_generator.state == ref.bit_generator.state
        draws.sync()
        assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(mask_ops, st.integers(0, 2**64 - 1), st.integers(0, 2), st.sampled_from([1, 3, 256]))
    def test_mask_draw_equals_numpy(self, ops, seed, warmup, block):
        """`integers(0, 2, size=M)`, read from the top bits of M 32-bit
        draws, gives numpy's values and leaves numpy's state, starting with
        no held half (warm-up 0), a buffered one (1) or a stale one (2)."""
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(warmup):
            rng.integers(0, 2)
            ref.integers(0, 2)
        draws = PcgDraws(rng, block=block)
        for op in ops:
            if op == "sync":
                draws.sync()
                assert rng.bit_generator.state == ref.bit_generator.state
            elif op == "random":
                assert draws.random() == ref.random()
            else:
                mask = draws.integers(0, 2, size=op)
                assert all(type(bit) is int for bit in mask)
                assert mask == ref.integers(0, 2, size=op).tolist()
        draws.sync()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_block_is_replaced_not_grown(self):
        draws = PcgDraws(np.random.default_rng(0), block=8)
        for _ in range(100):
            draws.random()
        assert len(draws._raw) == 8

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937(0), np.random.Philox(0), np.random.PCG64DXSM(0)]
    )
    def test_other_bit_generator_rejected(self, bit_generator):
        with pytest.raises(TypeError, match="PCG64"):
            PcgDraws(np.random.Generator(bit_generator))

    @pytest.mark.parametrize("low, high", [(0, 2**32 + 1), (-1, 2**32), (3, 3), (5, 4)])
    def test_range_outside_one_to_two_pow_32_values_rejected(self, low, high):
        draws = PcgDraws(np.random.default_rng(0))
        with pytest.raises(ValueError, match="must hold 1 to 2\\*\\*32 values"):
            draws.integers(low, high)
        with pytest.raises(ValueError, match="must hold 1 to 2\\*\\*32 values"):
            draws.integers(low, high, size=3)


def numpy_breed(archive, params, rng):
    """The breeding loop as numpy calls on the generator: the reference the
    replay must match draw for draw."""
    m = len(archive[0].genes)
    offspring = []
    for _ in range(params.population_size):
        parents = []
        for _ in range(2):
            a = archive[int(rng.integers(len(archive)))]
            b = archive[int(rng.integers(len(archive)))]
            parents.append(a if a.fitness <= b.fitness else b)
        p1, p2 = parents
        if rng.random() < params.crossover_rate:
            mask = rng.integers(0, 2, size=m)
            genes = [p2.genes[i] if mask[i] else p1.genes[i] for i in range(m)]
        else:
            genes = list(p1.genes)
        for i in range(m):
            if rng.random() < params.mutation_rate:
                v = int(rng.integers(1, m))
                genes[i] = v if v < genes[i] else v + 1
        offspring.append(tuple(genes))
    return offspring


class TestBreed:
    @pytest.mark.parametrize("m", [2, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mutation_rate", [0.1, 0.6])
    def test_one_generation_matches_numpy_calls(self, m, seed, mutation_rate):
        setup = np.random.default_rng(100 + seed)
        archive = []
        for _ in range(int(setup.integers(1, 9))):
            ind = Individual(tuple(int(g) for g in setup.integers(1, m + 1, size=m)))
            ind.fitness = float(setup.integers(0, 4)) / 2  # ties happen
            archive.append(ind)
        params = GaParams(population_size=20, crossover_rate=0.7, mutation_rate=mutation_rate)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = PcgDraws(rng)
        assert [ind.genes for ind in breed(archive, params, draws)] == numpy_breed(
            archive, params, ref
        )
        draws.sync()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_a_generator_still_breeds(self):
        archive = [Individual((2, 1, 3))]
        archive[0].fitness = 0.0
        params = GaParams(population_size=4)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        assert [ind.genes for ind in breed(archive, params, rng)] == numpy_breed(
            archive, params, ref
        )
        assert rng.bit_generator.state == ref.bit_generator.state


class TestRunMoga:
    def small_ctx(self):
        return SseContext(
            centroids=np.array([[0.0, 0.0, 0.0], [8.0, 0.0, 0.0]]),
            mean_phi=np.array([-57.0, -57.0]),
            mean_psi=np.array([-47.0, -47.0]),
            mean_hydro=np.array([2.0, 2.0]),
        )

    def test_two_sse_forced_link(self):
        profile = TopologicalProfile(1.0, 1.0, 1.0, 0.01)
        params = GaParams(population_size=8, archive_size=4, generations=10)
        best = run_moga(self.small_ctx(), params, profile, np.random.default_rng(0))
        assert best.links == ((1, 2),)

    def test_single_sse_rejected(self):
        ctx = SseContext(
            centroids=np.zeros((1, 3)),
            mean_phi=np.zeros(1),
            mean_psi=np.zeros(1),
            mean_hydro=np.zeros(1),
        )
        with pytest.raises(ValueError):
            run_moga(ctx, GaParams(), TopologicalProfile(1, 1, 1, 0.1), np.random.default_rng(0))

    def test_same_seed_same_output(self):
        instance = make_ga_instance(np.random.default_rng(2))
        profile = family_sse_profile(instance.templates.values())
        params = GaParams(population_size=12, archive_size=8, generations=30)
        b1 = run_moga(instance.ctx, params, profile, np.random.default_rng(99))
        b2 = run_moga(instance.ctx, params, profile, np.random.default_rng(99))
        assert b1.genes == b2.genes
        assert b1.objectives == b2.objectives

    def test_best_has_rank_zero(self):
        instance = make_ga_instance(np.random.default_rng(2))
        profile = family_sse_profile(instance.templates.values())
        params = GaParams(population_size=12, archive_size=8, generations=15)
        best = run_moga(instance.ctx, params, profile, np.random.default_rng(1))
        assert best.rank == 0

    @pytest.mark.parametrize(
        "seed, genes, state, has_uint32, uinteger",
        [
            # recorded from the numpy-call breeding loop this replay replaced
            (99, (2, 1, 4, 4, 6, 5, 8, 8), 136955208279268629301566218210912347034, 0, 2682142607),
            (5, (1, 1, 2, 3, 6, 7, 6, 7), 234103996628527748493880751127434969627, 1, 1710360306),
        ],
    )
    def test_generator_left_where_numpy_calls_leave_it(
        self, seed, genes, state, has_uint32, uinteger
    ):
        instance = make_ga_instance(np.random.default_rng(2))
        profile = family_sse_profile(instance.templates.values())
        params = GaParams(population_size=12, archive_size=8, generations=30)
        rng = np.random.default_rng(seed)
        best = run_moga(instance.ctx, params, profile, rng)
        assert best.genes == genes
        after = rng.bit_generator.state  # the increment is fixed by the seed
        assert (after["state"]["state"], after["has_uint32"], after["uinteger"]) == (
            state, has_uint32, uinteger
        )
