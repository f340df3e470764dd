"""End-to-end prediction pipeline, benchmark harness and report emission.

Prediction and benchmark share one path.  `_family_profiles` profiles the
template family (failing fast on a family the topology gate cannot use);
`_ga_stage` splits the seed, runs the evolutionary SSE-graph stage and
estimates the edge budget.  `gated_attempts` then yields one colony
simulation at a time: the two-stage ant colony, the built SSE-IN, its
topological profile (computed once) and the family gate's verdict.
`run_predict` stops at the first accepted attempt and reports it, or the
last attempt if none passes;
`run_benchmark` consumes every attempt of each planted instance and scores
the GA against the planted incidence and the colonies (fed the planted
incidence, mirroring how the stages are analysed separately) against the
planted shortcut edges.

Reports serialize deterministically: with an identical config and seed the
emitted JSON and TSV bytes are identical run to run.  Stage timings are
logged, never written into the report files.
"""

from __future__ import annotations

import json
import logging
import statistics
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .aco import (
    AcoParams,
    FamilyMatchError,
    HeuristicMatrix,
    TemplateProtein,
    allocate_pair_budgets,
    build_occurrence_matrix,
    estimate_edge_budget,
    global_aco,
    local_aco,
    validate_built_network,
)
from .contact import Edge, SseInGraph, build_contact_map, induce_sse_in
from .ingest import (
    FamilyIndex,
    compute_backbone_dihedrals,
    load_family_index,
    parse_pdb_detailed,
)
from .metrics import (
    TopologicalProfile,
    incidence_edges,
    left_sum,
    matrix_error_rate,
    prediction_accuracy,
    topological_profile,
)
from .moga import GaParams, MogaResult, SseContext, run_moga
from .synth import PlantedInstance, make_planted_instance

logger = logging.getLogger("ssein")


class DegenerateFamilyError(ValueError):
    """A family residue profile has a zero field, so the relative topology
    gate cannot compare anything against it."""


@dataclass(frozen=True)
class RunConfig:
    pdb_path: Optional[str] = None
    family_index_path: Optional[str] = None
    manifest_path: Optional[str] = None
    threshold: float = 7.0
    ga: GaParams = GaParams()
    aco: AcoParams = AcoParams()
    seed: int = 0
    simulations: int = 150
    output_dir: str = "."

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.simulations < 1:
            raise ValueError("simulations must be >= 1")

    def echo(self) -> dict:
        """Full parameter echo with every default resolved."""
        return {
            "pdb_path": self.pdb_path,
            "family_index_path": self.family_index_path,
            "manifest_path": self.manifest_path,
            "threshold": self.threshold,
            "seed": self.seed,
            "simulations": self.simulations,
            "output_dir": self.output_dir,
            "ga": {**asdict(self.ga), "k": self.ga.effective_k()},
            "aco": asdict(self.aco),
        }


def mean_profile(profiles: Sequence[TopologicalProfile]) -> TopologicalProfile:
    if not profiles:
        raise ValueError("no profiles to average")
    n = len(profiles)
    return TopologicalProfile(
        left_sum(p.diameter for p in profiles) / n,
        left_sum(p.char_path_length for p in profiles) / n,
        left_sum(p.mean_degree for p in profiles) / n,
        left_sum(p.clustering_coeff for p in profiles) / n,
    )


def family_sse_profile(templates: Sequence[TemplateProtein]) -> TopologicalProfile:
    """Mean profile of the templates' SSE-level adjacency graphs."""
    return mean_profile(
        [
            topological_profile(range(1, t.sse_count + 1), incidence_edges(t.sse_adjacency()))
            for t in templates
        ]
    )


def family_residue_profile(templates: Sequence[TemplateProtein]) -> TopologicalProfile:
    """Mean profile of the templates' residue-level SSE-IN graphs."""
    return mean_profile(
        [topological_profile(t.graph.vertices, t.graph.edges) for t in templates]
    )


def load_templates(
    index: FamilyIndex, base_dir: Path, threshold: float
) -> list[TemplateProtein]:
    """Parse every family entry; paths resolve relative to the index file."""
    templates = []
    for entry in index.entries:
        path = Path(entry.path)
        if not path.is_absolute():
            path = base_dir / path
        parsed = parse_pdb_detailed(path.read_text(), protein_id=entry.protein_id)
        template = TemplateProtein.from_structure(parsed.structure, threshold)
        if template.sse_count != entry.sse_count:
            logger.info(
                "template %s: index says %d SSEs, file has %d",
                entry.protein_id,
                entry.sse_count,
                template.sse_count,
            )
        templates.append(template)
    return templates


@dataclass(frozen=True)
class AttemptOutcome:
    """One colony-stage simulation: stage-one candidates and the final pick."""

    candidates: tuple[Edge, ...]
    selected: tuple[Edge, ...]
    normalized_tau: dict[Edge, float]
    shortfall: int


def pair_heuristics(
    pairs: Sequence[tuple[int, int]],
    sse_sizes: Sequence[int],
    templates: Sequence[TemplateProtein],
    e_total: int,
) -> list[HeuristicMatrix]:
    """Per-pair occurrence matrices with the edge budget split by Q mass."""
    positions = [t.sse_positions() for t in templates]
    qs = [
        build_occurrence_matrix(
            templates, (a, b), sse_sizes[a - 1], sse_sizes[b - 1], positions
        )
        for a, b in pairs
    ]
    budgets = allocate_pair_budgets(e_total, [float(q.sum()) for q in qs])
    return [HeuristicMatrix.from_q(q, e) for q, e in zip(qs, budgets)]


def aco_attempt(
    pairs: Sequence[tuple[int, int]],
    heuristics: Sequence[HeuristicMatrix],
    sse_ranges: Sequence[tuple[int, int]],
    graph_vertices: Sequence[int],
    intra_edges: Sequence[Edge],
    e_p: int,
    params: AcoParams,
    seed_seq: np.random.SeedSequence,
) -> AttemptOutcome:
    """One full colony simulation: local stage per pair, then the global pick."""
    streams = seed_seq.spawn(len(pairs) + 1)
    candidates: dict[Edge, float] = {}
    for k, ((a, b), h) in enumerate(zip(pairs, heuristics)):
        n, m = h.s.shape
        rng = np.random.default_rng(streams[k])
        result = local_aco((n, m), h, params, rng)
        first_a, first_b = sse_ranges[a - 1][0], sse_ranges[b - 1][0]
        for i, j in result.cells:
            u, v = first_a + i - 1, first_b + j - 1
            edge = (u, v) if u < v else (v, u)
            candidates[edge] = float(h.s[i - 1, j - 1])
    if e_p <= 0 or not candidates:
        return AttemptOutcome(tuple(sorted(candidates)), (), {}, max(e_p, 0))
    rng_global = np.random.default_rng(streams[-1])
    result = global_aco(graph_vertices, intra_edges, candidates, e_p, params, rng_global)
    return AttemptOutcome(
        tuple(sorted(candidates)), result.selected, result.normalized_tau, result.shortfall
    )


@dataclass
class RunReport:
    protein_id: str
    sse_count: int
    sse_sizes: tuple[int, ...]
    incidence: np.ndarray
    e_p: int
    e_candidates: int
    e_selected: int
    e_real: Optional[int]
    ac: Optional[float]
    shortcut_score: Optional[float]
    incidence_error_rate: Optional[float]
    built_profile: Optional[TopologicalProfile]
    family_profile: TopologicalProfile
    verdict: str
    attempts: int
    seed: int
    config: dict
    shortcut_rows: list[tuple[int, int, str, str, float]] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Deterministic report payload (timings deliberately excluded)."""
        return {
            "protein_id": self.protein_id,
            "sse_count": self.sse_count,
            "sse_sizes": list(self.sse_sizes),
            "incidence": self.incidence.astype(int).tolist(),
            "e_p": self.e_p,
            "e_candidates": self.e_candidates,
            "e_selected": self.e_selected,
            "e_real": self.e_real,
            "ac": self.ac,
            "shortcut_score": self.shortcut_score,
            "incidence_error_rate": self.incidence_error_rate,
            "built_profile": self.built_profile.as_dict() if self.built_profile else None,
            "family_profile": self.family_profile.as_dict(),
            "shortcut_edges": [[u, v] for u, v, *_ in self.shortcut_rows],
            "verdict": self.verdict,
            "attempts": self.attempts,
            "seed": self.seed,
            "config": self.config,
        }


def emit_report(report: RunReport) -> str:
    """Serialize a report as stable-keyed JSON."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def incidence_to_tsv(incidence: np.ndarray) -> str:
    return "".join(
        "\t".join(str(int(x)) for x in row) + "\n" for row in np.asarray(incidence)
    )


def shortcut_edges_to_tsv(rows: Sequence[tuple[int, int, str, str, float]]) -> str:
    header = "res_i\tres_j\tsse_i\tsse_j\tpheromone_normalized\n"
    return header + "".join(
        f"{u}\t{v}\t{si}\t{sj}\t{tau:.9f}\n" for u, v, si, sj, tau in rows
    )


def _family_profiles(
    templates: Sequence[TemplateProtein], family: str
) -> tuple[TopologicalProfile, TopologicalProfile]:
    """The family's SSE-level and residue-level mean profiles; fails on a
    residue-level field of 0, which the topology gate cannot use."""
    profile_sse = family_sse_profile(templates)
    profile_residue = family_residue_profile(templates)
    for name, value in profile_residue.as_dict().items():
        if value <= 0:
            raise DegenerateFamilyError(
                f"family {family}: residue-level {name} is {value}; "
                "the topology gate needs every profile field positive"
            )
    return profile_sse, profile_residue


def _ga_stage(
    ctx: SseContext,
    templates: Sequence[TemplateProtein],
    profile_sse: TopologicalProfile,
    config: RunConfig,
    seed_seq: np.random.SeedSequence,
) -> tuple[MogaResult, int, list[np.random.SeedSequence]]:
    """Everything between the family profiles and the colony stage: split
    the seed into the GA stream and one stream per simulation, run the GA
    and estimate the edge budget E_p.

    Returns (GA result, E_p, simulation streams).
    """
    moga_seq, *sim_seqs = seed_seq.spawn(1 + config.simulations)
    moga = run_moga(ctx, config.ga, profile_sse, np.random.default_rng(moga_seq))
    e_p = estimate_edge_budget(ctx.sse_sizes, templates)
    return moga, e_p, sim_seqs


def gated_attempts(
    graph: SseInGraph,
    sse_ranges: Sequence[tuple[int, int]],
    pairs: Sequence[tuple[int, int]],
    heuristics: Sequence[HeuristicMatrix],
    e_p: int,
    family_profile: TopologicalProfile,
    params: AcoParams,
    sim_seqs: Sequence[np.random.SeedSequence],
) -> Iterator[tuple[AttemptOutcome, TopologicalProfile, bool]]:
    """One colony simulation per stream, each built into an SSE-IN over the
    query's intra-SSE edges and gated against the family profile.

    Yields (outcome, built profile, accepted) per attempt, lazily, so a
    caller may stop at the first accepted one.
    """
    for seq in sim_seqs:
        outcome = aco_attempt(
            pairs,
            heuristics,
            sse_ranges,
            graph.vertices,
            graph.intra_edges,
            e_p,
            params,
            seq,
        )
        built = SseInGraph(graph.vertices, graph.intra_edges, outcome.selected, graph.sse_of)
        profile = topological_profile(built.vertices, built.edges)
        yield outcome, profile, validate_built_network(profile, family_profile, tol=0.2)


def run_predict(config: RunConfig) -> RunReport:
    """Full pipeline on one query structure against its family index."""
    if not config.pdb_path or not config.family_index_path:
        raise ValueError("predict needs both a structure file and a family index")
    t_start = time.perf_counter()

    pdb_path = Path(config.pdb_path)
    parsed = parse_pdb_detailed(pdb_path.read_text(), protein_id=pdb_path.stem)
    protein = compute_backbone_dihedrals(parsed.structure, parsed.backbone)
    if parsed.dropped_residues:
        logger.info("%s: dropped %d residues without usable Cα",
                    protein.id, parsed.dropped_residues)
    if len(protein.sse_list) < 2:
        raise ValueError(f"{protein.id}: need at least 2 SSEs, found {len(protein.sse_list)}")

    cmap = build_contact_map(protein, config.threshold)
    truth_graph = induce_sse_in(cmap, protein)

    index_path = Path(config.family_index_path)
    index = load_family_index(index_path.read_text(), family_id=index_path.stem)
    templates = load_templates(index, index_path.parent, config.threshold)
    matching = [t for t in templates if t.sse_count == len(protein.sse_list)]
    if not matching:
        raise FamilyMatchError(
            f"family {index.family_id} has no template with {len(protein.sse_list)} SSEs"
        )
    t_ingest = time.perf_counter()

    ctx = SseContext.from_structure(protein)
    profile_sse, profile_residue = _family_profiles(matching, index.family_id)
    moga, e_p, sim_seqs = _ga_stage(
        ctx, matching, profile_sse, config, np.random.SeedSequence(config.seed)
    )
    t_moga = time.perf_counter()

    sse_sizes = protein.sse_sizes()
    sse_ranges = [(a.first_residue, a.last_residue) for a in protein.sse_list]
    pairs = moga.best.links
    heuristics = pair_heuristics(pairs, sse_sizes, matching, e_p)
    gated = gated_attempts(
        truth_graph, sse_ranges, pairs, heuristics, e_p, profile_residue, config.aco, sim_seqs
    )
    # simulations >= 1, so the loop always binds the reported attempt
    for attempt, (outcome, built_profile, accepted) in enumerate(gated, start=1):
        if accepted:
            break
    verdict = "accepted" if accepted else "rejected"
    t_aco = time.perf_counter()

    e_real = len(truth_graph.shortcut_edges)
    truth_incidence = truth_graph.sse_adjacency([a.sse_id for a in protein.sse_list])
    score = None
    if e_real:
        score = len(set(outcome.selected) & set(truth_graph.shortcut_edges)) / e_real
    rows = [
        (
            u,
            v,
            truth_graph.sse_of[u],
            truth_graph.sse_of[v],
            outcome.normalized_tau.get((u, v), 0.0),
        )
        for u, v in outcome.selected
    ]
    report = RunReport(
        protein_id=protein.id,
        sse_count=len(protein.sse_list),
        sse_sizes=sse_sizes,
        incidence=moga.incidence,
        e_p=e_p,
        e_candidates=len(outcome.candidates),
        e_selected=len(outcome.selected),
        e_real=e_real,
        ac=prediction_accuracy(e_real, e_p) if e_p > 0 else None,
        shortcut_score=score,
        incidence_error_rate=matrix_error_rate(moga.incidence, truth_incidence),
        built_profile=built_profile,
        family_profile=profile_residue,
        verdict=verdict,
        attempts=attempt,
        seed=config.seed,
        config=config.echo(),
        shortcut_rows=rows,
        timings={
            "ingest_s": t_ingest - t_start,
            "moga_s": t_moga - t_ingest,
            "aco_s": t_aco - t_moga,
        },
    )
    logger.info(
        "%s: verdict=%s attempts=%d timings=%s", protein.id, verdict, attempt, report.timings
    )
    return report


@dataclass(frozen=True)
class ManifestRow:
    instance_id: str
    gen_seed: int
    sse_sizes: tuple[int, ...]
    boost_fraction: float
    shortcuts_per_pair: int = 1


def parse_manifest(text: str) -> list[ManifestRow]:
    """Benchmark manifest: id, generator seed, SSE sizes csv, boost fraction,
    optional shortcuts per pair; tab-separated, # comments allowed."""
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (4, 5):
            raise ValueError(f"manifest line {line_no}: expected 4 or 5 fields")
        try:
            sizes = tuple(int(x) for x in parts[2].split(","))
            row = ManifestRow(
                parts[0],
                int(parts[1]),
                sizes,
                float(parts[3]),
                int(parts[4]) if len(parts) == 5 else 1,
            )
        except ValueError as exc:
            raise ValueError(f"manifest line {line_no}: {exc}") from None
        rows.append(row)
    if not rows:
        raise ValueError("manifest has no instances")
    return rows


@dataclass
class InstanceResult:
    instance_id: str
    n_templates: int
    residues: int
    sse_count: int
    e_real: int
    e_p: int
    simulations: int
    score_mean: float
    score_stddev: float
    score_median: float
    local_recovery_median: float
    ac: float
    incidence_error_rate: float
    accepted_fraction: float


@dataclass
class BenchmarkResult:
    rows: list[InstanceResult]
    curve: list[tuple[float, float]]  # (local recovery, global score) medians

    def table_tsv(self) -> str:
        header = (
            "instance\tproteins\tresidues\tsse_count\te_real\te_p\tsimulations\t"
            "score\taverage_deviation\tscore_median\tlocal_recovery_median\t"
            "ac\tincidence_error_rate\taccepted_fraction\n"
        )
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.instance_id}\t{r.n_templates}\t{r.residues}\t{r.sse_count}\t"
                f"{r.e_real}\t{r.e_p}\t{r.simulations}\t{r.score_mean:.6f}\t"
                f"{r.score_stddev:.6f}\t{r.score_median:.6f}\t"
                f"{r.local_recovery_median:.6f}\t{r.ac:.6f}\t"
                f"{r.incidence_error_rate:.6f}\t{r.accepted_fraction:.6f}\n"
            )
        return "".join(lines)

    def curve_csv(self) -> str:
        lines = ["local_recovery,global_score\n"]
        for recovery, score in self.curve:
            lines.append(f"{recovery:.6f},{score:.6f}\n")
        return "".join(lines)


def benchmark_instance(
    instance: PlantedInstance,
    config: RunConfig,
    seed_seq: np.random.SeedSequence,
) -> InstanceResult:
    """Score one planted instance: GA once, colony stage per simulation.

    The colony stage is fed the planted incidence pairs so its scores
    isolate the edge-prediction stages, the way they are analysed.
    """
    profile_sse, profile_residue = _family_profiles(instance.templates, instance.instance_id)
    if instance.e_real == 0:
        raise ValueError(
            f"instance {instance.instance_id}: no planted shortcut edge to score against"
        )
    moga, e_p, sim_seqs = _ga_stage(
        instance.ctx, instance.templates, profile_sse, config, seed_seq
    )
    error_rate = matrix_error_rate(moga.incidence, instance.true_incidence)

    pairs = list(instance.incidence_pairs)
    heuristics = pair_heuristics(pairs, instance.sse_sizes, instance.templates, e_p)
    truth = set(instance.true_shortcuts)
    e_real = instance.e_real

    scores = []
    recoveries = []
    accepted = 0
    for outcome, _, passed in gated_attempts(
        instance.graph,
        instance.sse_ranges,
        pairs,
        heuristics,
        e_p,
        profile_residue,
        config.aco,
        sim_seqs,
    ):
        recoveries.append(len(set(outcome.candidates) & truth) / e_real)
        scores.append(len(set(outcome.selected) & truth) / e_real)
        accepted += passed

    stddev = statistics.stdev(scores) if len(scores) > 1 else 0.0
    return InstanceResult(
        instance_id=instance.instance_id,
        n_templates=len(instance.templates),
        residues=sum(instance.sse_sizes),
        sse_count=instance.sse_count,
        e_real=e_real,
        e_p=e_p,
        simulations=config.simulations,
        score_mean=statistics.fmean(scores),
        score_stddev=stddev,
        score_median=statistics.median(scores),
        local_recovery_median=statistics.median(recoveries),
        ac=prediction_accuracy(e_real, e_p) if e_p > 0 else float("nan"),
        incidence_error_rate=error_rate,
        accepted_fraction=accepted / len(sim_seqs),
    )


def run_benchmark(config: RunConfig) -> BenchmarkResult:
    """Run every manifest instance and assemble the table plus the
    local-recovery / global-score curve."""
    if not config.manifest_path:
        raise ValueError("benchmark needs a manifest file")
    manifest = parse_manifest(Path(config.manifest_path).read_text())
    master = np.random.SeedSequence(config.seed)
    streams = master.spawn(len(manifest))
    results = []
    for row, seq in zip(manifest, streams):
        instance = make_planted_instance(
            row.instance_id,
            row.sse_sizes,
            np.random.default_rng(row.gen_seed),
            shortcuts_per_pair=row.shortcuts_per_pair,
            boost_fraction=row.boost_fraction,
        )
        t0 = time.perf_counter()
        result = benchmark_instance(instance, config, seq)
        logger.info(
            "instance %s: score=%.3f in %.2fs",
            row.instance_id,
            result.score_mean,
            time.perf_counter() - t0,
        )
        results.append(result)
    curve = sorted(
        (r.local_recovery_median, r.score_median) for r in results
    )
    return BenchmarkResult(results, curve)
