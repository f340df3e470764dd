import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dominates, make_ga_instance
from ssein.metrics import TopologicalProfile, incidence_matrix
from ssein.moga import (
    WORST_OBJECTIVE,
    GaParams,
    Individual,
    ObjectiveVector,
    SseContext,
    assign_fitness,
    binary_tournament,
    _deviation,
    decode,
    density,
    environmental_selection,
    evaluate_objectives,
    gene_links,
    mutate,
    run_moga,
    strength_ranks,
    uniform_crossover,
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
    ind.objectives = ObjectiveVector(*objectives)
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

    @pytest.mark.parametrize("genes, allele", [((1, 5, 2), 5), ((0, 1), 0), ((2, 1, -1), -1)])
    def test_out_of_range_allele_is_named(self, genes, allele):
        message = f"allele {allele} out of range 1..{len(genes)}"
        with pytest.raises(ValueError, match=message):
            gene_links(genes)
        with pytest.raises(ValueError, match=message):
            decode(genes)

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
            sse_sizes=(5, 5),
        )

    def test_self_loops_get_sentinel(self):
        obj = evaluate_objectives(gene_links((1, 2)), self.ctx_two_sse())
        assert obj == (WORST_OBJECTIVE,) * 3

    def test_single_pair_means(self):
        obj = evaluate_objectives(gene_links((2, 1)), self.ctx_two_sse())
        assert obj.o_distance == pytest.approx(10.0)
        assert obj.o_torsion == pytest.approx(0.0)
        assert obj.o_hydro == pytest.approx(-6.0)

    def test_angle_wrap(self):
        ctx = SseContext(
            centroids=np.zeros((2, 3)),
            mean_phi=np.array([170.0, -170.0]),  # 20 apart across the seam
            mean_psi=np.array([0.0, 0.0]),
            mean_hydro=np.ones(2),
            sse_sizes=(3, 3),
        )
        obj = evaluate_objectives(gene_links((2, 1)), ctx)
        assert obj.o_torsion == pytest.approx(10.0)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(8)
        m = 6
        ctx = SseContext(
            centroids=rng.uniform(-20, 20, size=(m, 3)),
            mean_phi=rng.uniform(-180, 180, size=m),
            mean_psi=rng.uniform(-180, 180, size=m),
            mean_hydro=rng.uniform(-4.5, 4.5, size=m),
            sse_sizes=tuple([4] * m),
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
        assert obj.o_distance == pytest.approx(dist, abs=1e-9)
        assert obj.o_torsion == pytest.approx(torsion, abs=1e-9)
        assert obj.o_hydro == pytest.approx(hydro, abs=1e-9)


class TestDominance:
    def test_strict_dominance(self):
        assert dominates(ObjectiveVector(1, 1, 1), ObjectiveVector(2, 2, 2))

    def test_incomparable(self):
        a, b = ObjectiveVector(1, 3, 1), ObjectiveVector(3, 1, 1)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_irreflexive(self):
        a = ObjectiveVector(1, 2, 3)
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

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            density([mk((0, 0, 0))], 1)

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
    def test_sum_of_rank_and_density(self):
        pool = [mk2(1, 1), mk2(2, 2)]
        fitness = assign_fitness(pool, 1)
        assert pool[0].rank == 0
        assert pool[1].rank == 1
        assert fitness[0] == pytest.approx(pool[0].density)
        assert fitness[1] == pytest.approx(1 + pool[1].density)

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
        ind.objectives = ObjectiveVector(*row)
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


class TestBinaryTournament:
    def test_singleton(self):
        only = mk2(1, 1)
        only.fitness = 0.4
        rng = np.random.default_rng(0)
        assert binary_tournament([only], rng) is only

    def test_better_fitness_wins(self):
        a, b = mk2(1, 1), mk2(2, 2)
        a.fitness, b.fitness = 0.2, 5.0
        rng = np.random.default_rng(0)
        for _ in range(50):
            winner = binary_tournament([a, b], rng)
            assert winner.fitness in (0.2, 5.0)

    def test_selection_frequency(self):
        a, b = mk2(1, 1), mk2(2, 2)
        a.fitness, b.fitness = 0.2, 5.0
        rng = np.random.default_rng(1234)
        wins = sum(binary_tournament([a, b], rng) is a for _ in range(10_000))
        assert wins / 10_000 == pytest.approx(0.75, abs=0.02)

    def test_empty_archive(self):
        with pytest.raises(ValueError):
            binary_tournament([], np.random.default_rng(0))


class TestCrossover:
    def test_worked_uniform_crossover_example(self):
        offspring = uniform_crossover(
            (4, 3, 2, 2, 6, 5, 6), (3, 3, 1, 5, 4, 7, 6), (0, 1, 1, 0, 0, 1, 1)
        )
        assert offspring == (4, 3, 1, 2, 6, 7, 6)

    def test_zero_mask_copies_first_parent(self):
        p1, p2 = (1, 2, 3), (3, 2, 1)
        assert uniform_crossover(p1, p2, (0, 0, 0)) == p1

    def test_ones_mask_copies_second_parent(self):
        p1, p2 = (1, 2, 3), (3, 2, 1)
        assert uniform_crossover(p1, p2, (1, 1, 1)) == p2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            uniform_crossover((1, 2), (1, 2, 3), (0, 0, 0))

    @given(
        st.integers(2, 8).flatmap(
            lambda m: st.tuples(
                st.tuples(*[st.integers(1, m)] * m),
                st.tuples(*[st.integers(1, m)] * m),
                st.tuples(*[st.integers(0, 1)] * m),
            )
        )
    )
    def test_gene_provenance(self, args):
        p1, p2, mask = args
        child = uniform_crossover(p1, p2, mask)
        for i, gene in enumerate(child):
            assert gene in (p1[i], p2[i])


class TestMutate:
    def test_rate_zero_is_identity(self):
        genes = (1, 3, 2, 4)
        assert mutate(genes, 0.0, np.random.default_rng(0)) == genes

    def test_rate_one_flips_binary(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert mutate((1, 2), 1.0, rng) == (2, 1)

    def test_empirical_rate(self):
        rng = np.random.default_rng(7)
        genes = (1, 1, 1, 1, 1, 1, 1, 1)
        flips = 0
        trials = 10_000
        for _ in range(trials):
            mutated = mutate(genes, 0.1, rng)
            flips += sum(a != b for a, b in zip(genes, mutated))
        assert flips / (trials * len(genes)) == pytest.approx(0.1, abs=0.01)

    @given(
        st.integers(2, 9).flatmap(
            lambda m: st.tuples(st.tuples(*[st.integers(1, m)] * m), st.integers(0, 2**32 - 1))
        )
    )
    def test_alleles_stay_valid(self, args):
        genes, seed = args
        mutated = mutate(genes, 0.5, np.random.default_rng(seed))
        m = len(genes)
        assert all(1 <= g <= m for g in mutated)


class TestRunMoga:
    def small_ctx(self):
        return SseContext(
            centroids=np.array([[0.0, 0.0, 0.0], [8.0, 0.0, 0.0]]),
            mean_phi=np.array([-57.0, -57.0]),
            mean_psi=np.array([-47.0, -47.0]),
            mean_hydro=np.array([2.0, 2.0]),
            sse_sizes=(6, 6),
        )

    def test_two_sse_forced_link(self):
        profile = TopologicalProfile(1.0, 1.0, 1.0, 0.01)
        params = GaParams(population_size=8, archive_size=4, generations=10)
        result = run_moga(self.small_ctx(), params, profile, np.random.default_rng(0))
        assert result.incidence.tolist() == [[0, 1], [1, 0]]

    def test_single_sse_rejected(self):
        ctx = SseContext(
            centroids=np.zeros((1, 3)),
            mean_phi=np.zeros(1),
            mean_psi=np.zeros(1),
            mean_hydro=np.zeros(1),
            sse_sizes=(4,),
        )
        with pytest.raises(ValueError):
            run_moga(ctx, GaParams(), TopologicalProfile(1, 1, 1, 0.1), np.random.default_rng(0))

    def test_same_seed_same_output(self):
        instance = make_ga_instance(np.random.default_rng(2))
        profile = family_sse_profile(instance.templates)
        params = GaParams(population_size=12, archive_size=8, generations=30)
        r1 = run_moga(instance.ctx, params, profile, np.random.default_rng(99))
        r2 = run_moga(instance.ctx, params, profile, np.random.default_rng(99))
        assert np.array_equal(r1.incidence, r2.incidence)
        assert r1.best.genes == r2.best.genes
        assert [i.genes for i in r1.archive] == [i.genes for i in r2.archive]

    def test_archive_mutually_non_dominated_members_have_rank_zero(self):
        instance = make_ga_instance(np.random.default_rng(2))
        profile = family_sse_profile(instance.templates)
        params = GaParams(population_size=12, archive_size=8, generations=15)
        result = run_moga(instance.ctx, params, profile, np.random.default_rng(1))
        for ind in result.archive:
            assert ind.rank == 0
