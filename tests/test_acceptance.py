"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import itertools
import json
import statistics
import time
from collections import deque

import numpy as np
import pytest

from conftest import dominates, make_ga_instance, write_family
from ssein.aco import (
    AcoParams,
    HeuristicMatrix,
    edge_probabilities,
    pair_colony,
)
from ssein.cli import main
from ssein.metrics import matrix_error_rate, prediction_accuracy, topological_profile
from ssein.moga import (
    GaParams,
    Individual,
    ObjectiveVector,
    decode,
    run_moga,
    strength_ranks,
    uniform_crossover,
)
from ssein.pipeline import family_sse_profile


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_01_strength_rank_oracle():
    """500 random pools <= 20 match brute-force dominance enumeration, < 2 s."""
    rng = np.random.default_rng(20240001)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(1, 21))
        pool = []
        for _ in range(n):
            ind = Individual((1,))
            ind.objectives = ObjectiveVector(*rng.integers(0, 6, size=3).tolist())
            pool.append(ind)
        got = strength_ranks(pool)
        strengths = [
            sum(
                1
                for j in range(n)
                if i != j and dominates(pool[i].objectives, pool[j].objectives)
            )
            for i in range(n)
        ]
        expected = [
            float(
                sum(
                    strengths[i]
                    for i in range(n)
                    if i != j and dominates(pool[i].objectives, pool[j].objectives)
                )
            )
            for j in range(n)
        ]
        assert got == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report(f"criterion 1 PASS: strength ranks == oracle on 500 pools in {elapsed:.2f}s")


def test_criterion_02_decode_oracle():
    """500 random chromosomes (M <= 12) match brute-force components."""
    rng = np.random.default_rng(20240002)
    for _ in range(500):
        m = int(rng.integers(1, 13))
        genes = tuple(int(g) for g in rng.integers(1, m + 1, size=m))
        adj = {i: set() for i in range(1, m + 1)}
        for i, g in enumerate(genes, start=1):
            if g != i:
                adj[i].add(g)
                adj[g].add(i)
        expected = {}
        for start_v in range(1, m + 1):
            if start_v in expected:
                continue
            queue, members, seen = deque([start_v]), [], {start_v}
            while queue:
                v = queue.popleft()
                members.append(v)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            root = min(members)
            for v in members:
                expected[v] = root
        assert decode(genes) == expected
    report("criterion 2 PASS: decode == brute-force components on 500 chromosomes")


def test_criterion_03_crossover_conformance():
    """The worked uniform-crossover example reproduces exactly."""
    offspring = uniform_crossover(
        (4, 3, 2, 2, 6, 5, 6), (3, 3, 1, 5, 4, 7, 6), (0, 1, 1, 0, 0, 1, 1)
    )
    assert offspring == (4, 3, 1, 2, 6, 7, 6)
    report("criterion 3 PASS: crossover example -> (4,3,1,2,6,7,6)")


def test_criterion_04_edge_weight_conservation():
    """sum(S) == e within 1e-9 for 200 random positive Q and budgets."""
    rng = np.random.default_rng(20240004)
    worst = 0.0
    for _ in range(200):
        q = rng.uniform(0.01, 20, size=(int(rng.integers(1, 12)), int(rng.integers(1, 12))))
        e = float(rng.integers(0, 60))
        worst = max(worst, abs(float(edge_probabilities(q, e).sum()) - e))
    assert worst < 1e-9
    report(f"criterion 4 PASS: max |sum(S) - e| = {worst:.2e} over 200 matrices")


def test_criterion_05_transition_stability():
    """10^4 random states at alpha=25, beta=12: finite, sums within 1e-9."""
    params = AcoParams()  # published defaults
    rng = np.random.default_rng(20240005)
    worst = 0.0
    for _ in range(10_000):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        h = HeuristicMatrix.from_q(rng.uniform(0.1, 40, size=(n, m)), float(rng.integers(1, 9)))
        colony = pair_colony(h, params, rng)
        e = colony.n_inter
        for slot in range(e):
            colony.tau[slot] = float(rng.uniform(0.1, 10.0 ** rng.integers(0, 8)))
        colony.tau[e] = sum(colony.tau[:e].tolist()) / e
        vertex = int(rng.integers(0, n + m))
        _, (probs,) = colony.rows(np.array([vertex]), colony.log_weights())
        assert np.all(np.isfinite(probs))
        worst = max(worst, abs(float(probs.sum()) - 1.0))
    assert worst < 1e-9
    report(f"criterion 5 PASS: 10^4 transition rows, max |sum-1| = {worst:.2e}")


def test_criterion_06_pheromone_dynamics():
    """Eq substitution 8000.3 plus intra pinning over a 1000-step colony."""
    params = AcoParams(rho=0.7, delta_tau=4000.0)
    colony = pair_colony(
        HeuristicMatrix.from_q(np.ones((1, 1)), 1.0), params, np.random.default_rng(0)
    )
    colony.tau[0] = 1.0
    colony.update(np.array([2]))
    assert colony.tau[0] == pytest.approx(8000.3, abs=1e-12)

    rng = np.random.default_rng(20240006)
    colony = pair_colony(
        HeuristicMatrix.from_q(rng.uniform(0.5, 5, size=(4, 5)), 6.0), params, rng
    )
    e = colony.n_inter
    worst = 0.0
    for _ in range(1000):
        colony.update(np.array([int(rng.integers(0, 4)) for _ in range(e)]))
        mean = sum(colony.tau[:e].tolist()) / e
        worst = max(worst, abs(colony.tau[e] - mean) / mean)
    assert worst < 1e-9
    report(f"criterion 6 PASS: tau'=8000.3 and intra pinning rel err {worst:.2e}")


def test_criterion_07_accuracy_formula():
    assert prediction_accuracy(100, 100) == 1.0
    assert prediction_accuracy(90, 100) == pytest.approx(0.9, abs=1e-15)
    report("criterion 7 PASS: AC(100,100)=1.0, AC(90,100)=0.9")


def test_criterion_08_profile_oracle():
    """100 random graphs <= 50 vertices match Floyd-Warshall + triangles."""
    rng = np.random.default_rng(20240008)
    for trial in range(100):
        n = int(rng.integers(2, 51))
        p = float(rng.uniform(0.03, 0.4))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        profile = topological_profile(range(n), edges)

        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for u, v in edges:
            dist[u, v] = dist[v, u] = 1.0
        for k in range(n):
            dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
        seen: set[int] = set()
        best: list[int] = []
        for v in range(n):
            if v in seen:
                continue
            comp = [u for u in range(n) if np.isfinite(dist[v, u])]
            seen.update(comp)
            if len(comp) > len(best):
                best = comp
        sub = dist[np.ix_(best, best)]
        finite = sub[np.isfinite(sub) & (sub > 0)]
        diameter = float(finite.max()) if finite.size else 0.0
        cpl = float(finite.sum()) / finite.size if finite.size else 0.0

        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        cc = 0.0
        for v in range(n):
            k = len(adj[v])
            if k < 2:
                continue
            tri = sum(1 for a, b in itertools.combinations(sorted(adj[v]), 2) if b in adj[a])
            cc += tri / (k * (k - 1) / 2)
        cc /= n
        mean_degree = sum(len(a) for a in adj.values()) / n

        assert profile.diameter == diameter
        assert profile.char_path_length == pytest.approx(cpl, abs=1e-12)
        assert profile.mean_degree == mean_degree
        assert profile.clustering_coeff == pytest.approx(cc, abs=1e-12)
    report("criterion 8 PASS: profiles == Floyd-Warshall/triangle oracle on 100 graphs")


def test_criterion_09_ga_quality():
    """Shipped 8-SSE planted instance: median error < 10% over 10 seeds, < 60 s."""
    start = time.perf_counter()
    instance = make_ga_instance(np.random.default_rng(11))
    profile = family_sse_profile(instance.templates)
    params = GaParams(population_size=15, archive_size=12, generations=150)
    assert params.population_size >= 15
    errors = []
    for seed in range(10):
        result = run_moga(instance.ctx, params, profile, np.random.default_rng(seed))
        errors.append(matrix_error_rate(result.incidence, instance.true_incidence))
    elapsed = time.perf_counter() - start
    median = statistics.median(errors)
    assert median < 0.10
    assert elapsed < 60.0
    report(
        f"criterion 9 PASS: median SSE-matrix error {median:.3f} over 10 seeds "
        f"(max {max(errors):.3f}) in {elapsed:.1f}s"
    )


def test_criterion_10_aco_recovery(tmp_path):
    """Boost sweep via the benchmark harness: score >= 0.80 once boosted >= 80%,
    curve nondecreasing in median, < 3 min."""
    start = time.perf_counter()
    sweep = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    manifest = tmp_path / "sweep.tsv"
    manifest.write_text(
        "".join(
            f"sweep-{int(f * 100)}\t{100 + i}\t9,8,10,9,8,10,9,8\t{f}\n"
            for i, f in enumerate(sweep)
        )
    )
    out = tmp_path / "bench"
    code = main(
        ["benchmark", "--manifest", str(manifest), "--seed", "7",
         "--simulations", "20", "--out", str(out)]
    )
    assert code == 0
    table_rows = (out / "benchmark_table.tsv").read_text().strip().splitlines()
    header = table_rows[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in table_rows[1:]]
    by_id = {row["instance"]: row for row in rows}
    for f in (0.8, 0.9, 1.0):
        median_score = float(by_id[f"sweep-{int(f * 100)}"]["score_median"])
        assert median_score >= 0.80, f"boost {f}: median score {median_score}"

    curve_lines = (out / "figure3_curve.csv").read_text().strip().splitlines()
    assert curve_lines[0] == "local_recovery,global_score"
    points = [tuple(map(float, line.split(","))) for line in curve_lines[1:]]
    assert points == sorted(points)  # emitted sorted by recovery
    scores = [s for _, s in points]
    assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    report(
        f"criterion 10 PASS: sweep medians {[f'{s:.2f}' for s in scores]}, "
        f"nondecreasing, >=0.80 from 80% boost, in {elapsed:.1f}s"
    )


def test_criterion_11_report_determinism(tmp_path):
    """Two predict runs with identical config and seed emit identical bytes."""
    query, index = write_family(tmp_path)
    args = [
        "predict", "--pdb", str(query), "--family", str(index),
        "--simulations", "10", "--seed", "41",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    bytes1 = (out1 / "report.json").read_bytes()
    bytes2 = (out2 / "report.json").read_bytes()
    # the config echo contains the differing output directory; normalize it
    payload1 = json.loads(bytes1)
    payload2 = json.loads(bytes2)
    assert payload1["config"].pop("output_dir") == str(out1)
    assert payload2["config"].pop("output_dir") == str(out2)
    assert payload1 == payload2

    # and with the very same output directory the bytes are identical
    assert main(args + ["--out", str(out1)]) == 0
    assert (out1 / "report.json").read_bytes() == bytes1
    report("criterion 11 PASS: report.json byte-identical across reruns")
