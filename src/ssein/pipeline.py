"""End-to-end prediction pipeline, benchmark harness and report emission.

Prediction and benchmark share one path.  `_family_profiles` reads the
template family (failing fast on a family the topology gate cannot use);
`_stages` runs the rest in order: it splits the seed, runs the evolutionary
SSE-graph stage, estimates the edge budget, has `pair_heuristics` build
each SSE pair's colony graph once, and hands back `gated_attempts`, which
yields one colony simulation at a time: the two-stage ant colony, the
topological profile of the built SSE-IN (the query's intra-SSE edges plus
the selected shortcuts, each distinct one profiled once per run) and the
family gate's verdict.
`run_predict` stops at the first accepted attempt and reports it, or the
last attempt if none passes;
`run_benchmark` consumes every attempt of each planted instance and scores
the GA against the planted SSE graph and the colonies (fed the planted SSE
pairs, mirroring how the stages are analysed separately) against the
planted shortcut edges.  Both read a query's truth the same way: the
query is an `SseInGraph`, planted or induced from the structure, and its
`sse_links()` and `shortcut_edges` are the true SSE graph and shortcuts.

A template family is read as a stream of (protein id, SSE-IN):
`load_templates` parses one index entry at a time, and `_family_profiles`
skips the templates whose SSE count differs from the query's, adds each
kept one to the residue-level mean profile (each distinct graph profiled
once, keyed by the packed edges `SseInGraph.key` carries) and keeps only
its shortcut network, the part the SSE-level profile, the edge budget and
the occurrence matrices read.  So `predict` holds one template's full
SSE-IN at a time, plus the family's shortcut edges.

An SSE graph is a sorted set of 1-based SSE links throughout: the `links`
of the individual `run_moga` returns, and the query's and each template's
`sse_links()`; the error rate compares link sets.  The M x M incidence
matrix is built once, in `run_predict`, for `report.json` and
`sse_incidence.tsv`.

Reports serialize deterministically: with an identical config and seed the
emitted JSON and TSV bytes are identical run to run.  Stage timings are
logged, never written into the report files.
"""

from __future__ import annotations

import json
import logging
import math
import statistics
import time
from dataclasses import asdict, astuple, dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Collection, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .aco import (
    AcoParams,
    ColonyGraph,
    FamilyMatchError,
    allocate_pair_budgets,
    edge_probabilities,
    estimate_edge_budget,
    global_aco,
    local_aco,
    occurrence_matrices,
    validate_built_network,
)
from .contact import Edge, SseInGraph, build_contact_map
from .ingest import (
    EmptyStructureError,
    FamilyEntry,
    FamilyIndex,
    PdbParseError,
    PdbParseResult,
    load_family_index,
    parse_pdb_detailed,
)
from .metrics import (
    TopologicalProfile,
    incidence_matrix,
    left_sum,
    link_error_rate,
    prediction_accuracy,
    topological_profile,
)
from .moga import GaParams, Individual, SseContext, run_moga
from .synth import PlantedInstance, check_planted_shape, make_planted_instance, planted_pairs

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
        if not 0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.simulations < 1:
            raise ValueError("simulations must be >= 1")

    def echo(self) -> dict:
        """Full parameter echo with every default resolved."""
        # `breed` always draws its tournaments with replacement: a constant,
        # echoed so that report.json keeps its bytes until it is re-recorded.
        ga = {**asdict(self.ga), "k": self.ga.effective_k(), "tournament_replacement": True}
        return {**asdict(self), "ga": ga}


def mean_profile(profiles: Sequence[TopologicalProfile]) -> TopologicalProfile:
    """Field-wise mean of a non-empty sequence of profiles."""
    n = len(profiles)
    return TopologicalProfile(
        left_sum(p.diameter for p in profiles) / n,
        left_sum(p.char_path_length for p in profiles) / n,
        left_sum(p.mean_degree for p in profiles) / n,
        left_sum(p.clustering_coeff for p in profiles) / n,
    )


def family_sse_profile(templates: Collection[SseInGraph]) -> TopologicalProfile:
    """Mean profile of the templates' SSE graphs, given by their links.

    Each template object's links are read once, however many protein ids
    share it (a planted instance's ids share one shortcut network), and
    each distinct (SSE count, links) graph is profiled once.  The
    collection holds its objects, so no id is reused."""
    graphs: dict[int, tuple[tuple[int, tuple[Edge, ...]], range, tuple[Edge, ...]]] = {}
    for template in templates:
        if id(template) not in graphs:
            count, links = template.sse_count, tuple(template.sse_links())
            graphs[id(template)] = (count, links), range(1, count + 1), links
    return _mean_over_graphs(graphs[id(template)] for template in templates)


def family_residue_profile(templates: Iterable[SseInGraph]) -> TopologicalProfile:
    """Mean profile of the templates' residue-level SSE-IN graphs."""
    return _mean_over_graphs(map(attrgetter("key", "vertices", "edges"), templates))


def _mean_over_graphs(
    graphs: Iterable[tuple[Hashable, Sequence[int], Sequence[Edge]]],
) -> TopologicalProfile:
    """Mean profile of (key, vertices, edges) graphs, whose keys are equal
    only for equal graphs.  Each distinct key is profiled once; the mean
    still runs over every graph, repeats included, in order, so it adds the
    same values as profiling each one would.

    The graphs are read one at a time and none is held past its own
    profile: the memo keeps only the keys, which for a residue graph are
    its edges packed as bytes, not its edge tuples."""
    distinct: dict[Hashable, TopologicalProfile] = {}

    def profile_once(graph: tuple[Hashable, Sequence[int], Sequence[Edge]]) -> TopologicalProfile:
        key, vertices, edges = graph
        if key not in distinct:
            distinct[key] = topological_profile(vertices, edges)
        return distinct[key]

    return mean_profile(list(map(profile_once, graphs)))


def _parse_file(path: Path, protein_id: str, source: str) -> PdbParseResult:
    """Parse a structure file; a parse error names `source` before its line."""
    text = path.read_text()
    try:
        return parse_pdb_detailed(text, protein_id=protein_id)
    except (PdbParseError, EmptyStructureError) as exc:
        exc.args = (f"{source}: {exc}",)  # same type and line number, the file named
        raise


def load_templates(
    index: FamilyIndex, base_dir: Path, threshold: float
) -> Iterator[tuple[str, SseInGraph]]:
    """Parse the family entries into their SSE-INs one at a time, yielding
    (protein id, SSE-IN) in index order; paths resolve relative to the
    index file.  Nothing here holds a template once it is yielded."""
    for entry in index.entries:
        yield entry.protein_id, _read_template(entry, base_dir, threshold)


def _read_template(entry: FamilyEntry, base_dir: Path, threshold: float) -> SseInGraph:
    path = base_dir / entry.path  # an absolute entry path stays as it is
    source = f"{path} (template {entry.protein_id})"
    structure = _parse_file(path, entry.protein_id, source).structure
    template = build_contact_map(structure, threshold)
    if template.sse_count != entry.sse_count:
        logger.info(
            "template %s: index says %d SSEs, file has %d",
            entry.protein_id,
            entry.sse_count,
            template.sse_count,
        )
    return template


@dataclass(frozen=True)
class AttemptOutcome:
    """One colony simulation: stage-one candidates, the final pick and its taus."""

    candidates: tuple[Edge, ...]
    selected: tuple[Edge, ...]
    selected_tau: tuple[float, ...]


def pair_heuristics(
    pairs: Sequence[tuple[int, int]],
    sse_sizes: Sequence[int],
    templates: Iterable[SseInGraph],
    e_total: int,
    params: AcoParams,
) -> list[ColonyGraph]:
    """Per-pair colony graphs, built once per run: each pair's occurrence
    matrix Q normalized to its share of the edge budget, split by Q mass."""
    qs = occurrence_matrices(templates, pairs, sse_sizes)
    budgets = allocate_pair_budgets(e_total, [float(q.sum()) for q in qs])
    return [ColonyGraph.pair(edge_probabilities(q, e), params.beta) for q, e in zip(qs, budgets)]


def aco_attempt(
    query: SseInGraph,
    pairs: Sequence[tuple[int, int]],
    graphs: Sequence[ColonyGraph],
    e_p: int,
    params: AcoParams,
    seed_seq: np.random.SeedSequence,
) -> AttemptOutcome:
    """One full colony simulation on the query: local stage per SSE pair,
    then the global pick over the query's SSE-IN.  Pairs (a, b) have a < b,
    so a kept cell is a residue edge (u, v) with u < v."""
    streams = seed_seq.spawn(len(pairs) + 1)
    ends = [np.empty((0, 2), dtype=np.intp)]
    weights = [np.empty(0)]
    for (a, b), pair_graph, stream in zip(pairs, graphs, streams):
        n, m = query.sse_sizes[a - 1], query.sse_sizes[b - 1]
        result = local_aco((n, m), pair_graph, params, np.random.default_rng(stream))
        ends.append(result.cells + (query.sse_ranges[a - 1][0], query.sse_ranges[b - 1][0]))
        weights.append(result.weights)
    edges = np.concatenate(ends)
    candidates = tuple(zip(*edges.T.tolist()))
    if e_p <= 0 or not candidates:
        return AttemptOutcome(candidates, (), ())
    rng_global = np.random.default_rng(streams[-1])
    result = global_aco(query, edges, np.concatenate(weights), e_p, params, rng_global)
    return AttemptOutcome(candidates, result.selected, result.selected_tau)


@dataclass
class RunReport:
    protein_id: str
    sse_count: int
    sse_sizes: tuple[int, ...]
    incidence: np.ndarray
    e_p: int
    e_candidates: int
    e_selected: int
    e_real: int
    ac: Optional[float]
    shortcut_score: Optional[float]
    incidence_error_rate: float
    built_profile: TopologicalProfile
    family_profile: TopologicalProfile
    verdict: str
    attempts: int
    seed: int
    config: dict
    shortcut_rows: list[tuple[int, int, str, str, float]] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Deterministic report payload: every field but the timings, with
        the shortcut rows reduced to their edges."""
        payload = asdict(self)
        del payload["timings"]
        payload.update(
            sse_sizes=list(self.sse_sizes),
            incidence=self.incidence.astype(int).tolist(),
            shortcut_edges=[[u, v] for u, v, *_ in payload.pop("shortcut_rows")],
        )
        return payload


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
    templates: Iterable[tuple[str, SseInGraph]], sse_count: int, family: str
) -> tuple[dict[str, SseInGraph], tuple[TopologicalProfile, TopologicalProfile]]:
    """Read a family of (protein id, SSE-IN) once, one template at a time.

    Templates whose SSE count differs from the query's are skipped.  Each
    kept template adds to the residue-level mean profile, and only its
    shortcut network (the same ranges and shortcut edges, no intra edges)
    is kept: that is all the SSE-level profile, the edge budget and the
    occurrence matrices read.  Templates with equal SSE ids, ranges and
    shortcut edges share one network, keyed by those tuples.

    Returns (the shortcut networks by protein id, (the SSE-level profile,
    the residue-level profile)).  Fails, before any profile, when no
    template is left, and on a residue-level field of 0, which the
    topology gate cannot use.
    """
    kept: dict[str, SseInGraph] = {}
    networks: dict[tuple, SseInGraph] = {}

    def matching() -> Iterator[SseInGraph]:
        for protein_id, template in templates:
            if template.sse_count == sse_count:
                key = (template.sse_ids, template.sse_ranges, template.shortcut_edges)
                if key not in networks:
                    networks[key] = replace(template, intra_edges=())
                kept[protein_id] = networks[key]
                yield template
            del template  # unreachable before the next template is read
        if not kept:
            raise FamilyMatchError(f"family {family} has no template with {sse_count} SSEs")

    # The residue-level profile consumes the read, so its call's time covers it.
    profile_residue = family_residue_profile(matching())
    profile_sse = family_sse_profile(kept.values())
    for name, value in profile_residue.as_dict().items():
        if value <= 0:
            raise DegenerateFamilyError(
                f"family {family}: residue-level {name} is {value}; "
                "the topology gate needs every profile field positive"
            )
    return kept, (profile_sse, profile_residue)


def _stages(
    query: SseInGraph,
    ctx: SseContext,
    family: Mapping[str, SseInGraph],
    profiles: tuple[TopologicalProfile, TopologicalProfile],
    config: RunConfig,
    seed_seq: np.random.SeedSequence,
    pairs: Optional[Sequence[tuple[int, int]]] = None,
) -> tuple[Individual, int, Iterator[tuple[AttemptOutcome, TopologicalProfile, bool]]]:
    """Both stages after the family read: split the seed into the GA
    stream and one stream per simulation, run the GA, estimate the edge
    budget E_p from the family's shortcut networks, build the colony
    graphs of `pairs` (the GA's links by default) and hand back the gated
    attempts, still lazy.

    Returns (the GA's best individual, E_p, the attempts).
    """
    profile_sse, profile_residue = profiles
    moga_seq, *sim_seqs = seed_seq.spawn(1 + config.simulations)
    best = run_moga(ctx, config.ga, profile_sse, np.random.default_rng(moga_seq))
    e_p = estimate_edge_budget(query.sse_sizes, family)
    if pairs is None:
        pairs = best.links
    graphs = pair_heuristics(pairs, query.sse_sizes, family.values(), e_p, config.aco)
    attempts = gated_attempts(query, pairs, graphs, e_p, profile_residue, config.aco, sim_seqs)
    return best, e_p, attempts


def gated_attempts(
    query: SseInGraph,
    pairs: Sequence[tuple[int, int]],
    graphs: Sequence[ColonyGraph],
    e_p: int,
    family_profile: TopologicalProfile,
    params: AcoParams,
    sim_seqs: Sequence[np.random.SeedSequence],
) -> Iterator[tuple[AttemptOutcome, TopologicalProfile, bool]]:
    """One colony simulation per stream, each built into an SSE-IN over the
    query's intra-SSE edges and gated against the family profile.

    Yields (outcome, built profile, accepted) per attempt, lazily, so a
    caller may stop at the first accepted one.  The intra-SSE edges are
    fixed, so a built graph is its (sorted) selected edges, and each
    distinct one is profiled once per run.
    """
    built: dict[tuple[Edge, ...], TopologicalProfile] = {}
    for seq in sim_seqs:
        outcome = aco_attempt(query, pairs, graphs, e_p, params, seq)
        if outcome.selected not in built:
            built[outcome.selected] = topological_profile(
                query.vertices, query.intra_edges + outcome.selected
            )
        profile = built[outcome.selected]
        yield outcome, profile, validate_built_network(profile, family_profile)


def run_predict(config: RunConfig) -> RunReport:
    """Full pipeline on one query structure against its family index."""
    if not config.pdb_path or not config.family_index_path:
        raise ValueError("predict needs both a structure file and a family index")
    t_start = time.perf_counter()

    pdb_path = Path(config.pdb_path)
    parsed = _parse_file(pdb_path, pdb_path.stem, config.pdb_path)
    protein = parsed.structure
    if parsed.dropped_residues or parsed.skipped_annotations:
        logger.info(
            "%s: dropped %d residues without usable Cα, skipped %d HELIX/SHEET records",
            protein.id, parsed.dropped_residues, parsed.skipped_annotations,
        )
    if len(protein.sse_list) < 2:
        raise ValueError(f"{protein.id}: need at least 2 SSEs, found {len(protein.sse_list)}")

    query = build_contact_map(protein, config.threshold)

    index_path = Path(config.family_index_path)
    index = load_family_index(index_path.read_text(), family_id=index_path.stem)
    family, profiles = _family_profiles(
        load_templates(index, index_path.parent, config.threshold),
        query.sse_count,
        index.family_id,
    )
    t_ingest = time.perf_counter()

    ctx = SseContext.from_structure(protein)
    best, e_p, gated = _stages(
        query, ctx, family, profiles, config, np.random.SeedSequence(config.seed)
    )
    t_moga = time.perf_counter()  # the colony graphs count here, the attempts below

    # simulations >= 1, so the loop always binds the reported attempt
    for attempt, (outcome, built_profile, accepted) in enumerate(gated, start=1):
        if accepted:
            break
    verdict = "accepted" if accepted else "rejected"
    t_aco = time.perf_counter()

    e_real = len(query.shortcut_edges)
    score = None
    if e_real:
        score = len(set(outcome.selected) & set(query.shortcut_edges)) / e_real
    sse_ids = query.sse_ids
    sse_k = query.sse_index(outcome.selected)
    rows = [
        (u, v, sse_ids[ku - 1], sse_ids[kv - 1], tau)
        for (u, v), (ku, kv), tau in zip(outcome.selected, sse_k.tolist(), outcome.selected_tau)
    ]
    report = RunReport(
        protein_id=protein.id,
        sse_count=query.sse_count,
        sse_sizes=query.sse_sizes,
        incidence=incidence_matrix(best.links, query.sse_count),
        e_p=e_p,
        e_candidates=len(outcome.candidates),
        e_selected=len(outcome.selected),
        e_real=e_real,
        ac=prediction_accuracy(e_real, e_p) if e_p > 0 else None,
        shortcut_score=score,
        incidence_error_rate=link_error_rate(best.links, query.sse_links(), query.sse_count),
        built_profile=built_profile,
        family_profile=profiles[1],
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

    def __post_init__(self):
        if self.gen_seed < 0:
            raise ValueError(f"generator seed must be non-negative, got {self.gen_seed}")
        check_planted_shape(
            self.instance_id, self.sse_sizes, self.boost_fraction, self.shortcuts_per_pair
        )
        if not planted_pairs(len(self.sse_sizes)):
            raise ValueError(
                f"instance {self.instance_id}: {len(self.sse_sizes)} SSEs plant no "
                "shortcut edge to score against"
            )


def parse_manifest(text: str) -> list[ManifestRow]:
    """Benchmark manifest: id, generator seed, SSE sizes csv, boost fraction,
    optional shortcuts per pair; tab-separated, # comments allowed.  Ids
    must be distinct, and each row must pass the generator's rules, so a
    bad row fails, naming its line, before any instance runs."""
    rows = []
    seen: set[str] = set()
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
        if row.instance_id in seen:
            raise ValueError(f"manifest line {line_no}: duplicate instance id {row.instance_id!r}")
        seen.add(row.instance_id)
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
        for row in self.rows:
            cells = (f"{x:.6f}" if isinstance(x, float) else str(x) for x in astuple(row))
            lines.append("\t".join(cells) + "\n")
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

    The colony stage is fed the planted SSE pairs so its scores isolate the
    edge-prediction stages, the way they are analysed.  The instance plants
    at least one shortcut edge: `ManifestRow` refuses a row that plants none.
    """
    query = instance.query
    family, profiles = _family_profiles(
        instance.templates.items(), query.sse_count, instance.instance_id
    )
    e_real = len(query.shortcut_edges)
    pairs = query.sse_links()
    best, e_p, attempts = _stages(
        query, instance.ctx, family, profiles, config, seed_seq, pairs
    )
    truth = set(query.shortcut_edges)

    scores = []
    recoveries = []
    accepted = 0
    for outcome, _, passed in attempts:
        recoveries.append(len(set(outcome.candidates) & truth) / e_real)
        scores.append(len(set(outcome.selected) & truth) / e_real)
        accepted += passed

    stddev = statistics.stdev(scores) if len(scores) > 1 else 0.0
    return InstanceResult(
        instance_id=instance.instance_id,
        n_templates=len(family),
        residues=len(query.vertices),
        sse_count=query.sse_count,
        e_real=e_real,
        e_p=e_p,
        simulations=config.simulations,
        score_mean=statistics.fmean(scores),
        score_stddev=stddev,
        score_median=statistics.median(scores),
        local_recovery_median=statistics.median(recoveries),
        ac=prediction_accuracy(e_real, e_p) if e_p > 0 else float("nan"),
        incidence_error_rate=link_error_rate(best.links, pairs, query.sse_count),
        accepted_fraction=accepted / config.simulations,
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
