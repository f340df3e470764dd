"""Spans and counters at the program's module boundaries, for the traced run.

`Tracer.installed()` replaces each public function listed in `LAYERS` with
a wrapper that records a span (name, start, end, parent) in memory and,
where a counter is defined, counts work from the call's arguments and
result.  The wrapper is bound under every name the function has in the
`ssein` modules, so calls through `from .x import f` are traced as well,
and everything is restored on exit.  The program's own code is unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

Counter = Callable[["Tracer", tuple, dict, object], None]


def _count_strength_ranks(t, args, kwargs, result):
    n = len(args[0])
    t.counters["moga.dominance_tests"] += n * (n - 1)


def _count_evaluate(t, args, kwargs, result):
    t.counters["moga.evaluations"] += 1


def _count_local(t, args, kwargs, result):
    (n, m), params = args[0], args[2]
    t.counters["aco.local_iterations"] += result.iterations
    t.counters["aco.local_cap_hits"] += result.iterations >= params.max_iterations
    t.counters["aco.local_ant_steps"] += result.iterations * (n + m)
    t.counters["aco.local_cells"] += n * m
    t.counters["aco.local_kept"] += len(result.cells)


def _count_global(t, args, kwargs, result):
    t.counters["aco.global_iterations"] += result.iterations
    t.counters["aco.global_shortfall"] += result.shortfall


def _count_profile(t, args, kwargs, result):
    vertices = args[0]
    if hasattr(vertices, "__len__"):  # never consume a one-shot iterator
        t.counters["metrics.profile_vertices"] += len(vertices)


def _count_gate(t, args, kwargs, result):
    t.counters["metrics.gates"] += 1
    t.counters["metrics.gates_passed"] += bool(result)


def _count_parse(t, args, kwargs, result):
    t.counters["ingest.residues"] += len(result.structure.residues)


def _count_cmap(t, args, kwargs, result):
    # Bytes of the N x N x 3 float64 difference array the map is built
    # from, computed from N rather than measured.
    n = len(args[0].residues)
    t.counters["contact.cmap_bytes"] += n * n * 3 * 8


def _count_attempt(t, args, kwargs, result):
    t.counters["pipeline.attempts"] += 1


# (module, attribute, span name, counter).  A dotted attribute names a method.
LAYERS: tuple[tuple[str, str, str, Optional[Counter]], ...] = (
    ("ssein.cli", "main", "cli.main", None),
    ("ssein.ingest", "parse_pdb_detailed", "ingest.parse", _count_parse),
    ("ssein.contact", "build_contact_map", "contact.cmap", _count_cmap),
    ("ssein.pipeline", "load_templates", "pipeline.templates", None),
    ("ssein.pipeline", "family_sse_profile", "metrics.family", None),
    ("ssein.pipeline", "family_residue_profile", "metrics.family", None),
    ("ssein.metrics", "topological_profile", "metrics.profile", _count_profile),
    ("ssein.aco", "validate_built_network", "metrics.gate", _count_gate),
    ("ssein.moga", "run_moga", "moga.run", None),
    ("ssein.moga", "evaluate_objectives", "moga.evaluate", _count_evaluate),
    ("ssein.moga", "strength_ranks", "moga.strength_ranks", _count_strength_ranks),
    ("ssein.moga", "density", "moga.density", None),
    ("ssein.moga", "environmental_selection", "moga.selection", None),
    ("ssein.pipeline", "pair_heuristics", "aco.heuristics", None),
    ("ssein.pipeline", "aco_attempt", "pipeline.attempt", _count_attempt),
    ("ssein.aco", "local_aco", "aco.local", _count_local),
    ("ssein.aco", "global_aco", "aco.global", _count_global),
    ("ssein.synth", "make_planted_instance", "synth.instance", None),
    ("ssein.pipeline", "emit_report", "pipeline.emit", None),
    ("ssein.pipeline", "incidence_to_tsv", "pipeline.emit", None),
    ("ssein.pipeline", "shortcut_edges_to_tsv", "pipeline.emit", None),
    ("ssein.pipeline", "BenchmarkResult.table_tsv", "pipeline.emit", None),
    ("ssein.pipeline", "BenchmarkResult.curve_csv", "pipeline.emit", None),
)

# Per-layer metric -> span whose self time it reports.
SELF_TIMES = {
    "moga.run_s": "moga.run",
    "moga.strength_ranks_s": "moga.strength_ranks",
    "moga.selection_s": "moga.selection",
    "moga.evaluate_s": "moga.evaluate",
    "moga.density_s": "moga.density",
    "aco.local_s": "aco.local",
    "aco.global_s": "aco.global",
    "aco.heuristics_s": "aco.heuristics",
    "ingest.parse_s": "ingest.parse",
    "contact.cmap_s": "contact.cmap",
    "pipeline.templates_s": "pipeline.templates",
    "pipeline.emit_s": "pipeline.emit",
    "synth.instance_s": "synth.instance",
}
# Per-layer times that do not overlap, so they add up: the self times and
# the topology profiles split by the stage that asked for them.
# (`metrics.gate_s` includes the gate's own profile and is left out.)
EXCLUSIVE_TIMES = (
    *SELF_TIMES,
    "metrics.profile_family_s",
    "metrics.profile_ga_s",
    "metrics.profile_gate_s",
)
COUNTS = (
    "moga.dominance_tests",
    "moga.evaluations",
    "aco.local_iterations",
    "aco.local_cap_hits",
    "aco.local_ant_steps",
    "aco.global_iterations",
    "aco.global_shortfall",
    "metrics.profile_vertices",
    "ingest.residues",
    "contact.cmap_bytes",
    "pipeline.attempts",
)


class Tracer:
    """In-memory spans for one traced call: [name, start, end, parent]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block."""
        modules = {name: importlib.import_module(name) for name, *_ in LAYERS}
        undo: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, span, counter in LAYERS:
                owner_name, _, fn_name = attr.rpartition(".")
                home = modules[module_name]
                if owner_name:  # a method: patch the class attribute
                    owner = getattr(home, owner_name)
                    original = getattr(owner, fn_name)
                    undo.append((owner, fn_name, original))
                    setattr(owner, fn_name, self.wrap(span, original, counter))
                    continue
                original = getattr(home, fn_name)
                wrapper = self.wrap(span, original, counter)
                for module in modules.values():
                    for key, value in vars(module).items():
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time covered by its children."""
        selfs = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def _bucket(self, index: int) -> str:
        """Which caller a topology profile serves: family, GA or gate."""
        parent = self.spans[index][3]
        while parent >= 0:
            name = self.spans[parent][0]
            if name == "metrics.family":
                return "family"
            if name.startswith("moga."):
                return "ga"
            parent = self.spans[parent][3]
        return "gate"

    def layer_metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        by_name: defaultdict[str, float] = defaultdict(float)
        profile = {"family": 0.0, "ga": 0.0, "gate": 0.0}
        gate_total = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            by_name[name] += selfs[i]
            if name == "metrics.profile":
                profile[self._bucket(i)] += selfs[i]
            elif name == "metrics.gate":
                gate_total += end - start
        # The family means only average profiles, so their own self time
        # counts with the profiles they average.
        profile["family"] += by_name["metrics.family"]
        c = self.counters
        metrics = {metric: by_name[span] for metric, span in SELF_TIMES.items()}
        metrics.update({name: c[name] for name in COUNTS})
        metrics.update(
            {
                "aco.local_keep_ratio": _ratio(c["aco.local_kept"], c["aco.local_cells"]),
                "metrics.profile_family_s": profile["family"],
                "metrics.profile_ga_s": profile["ga"],
                "metrics.profile_gate_s": profile["gate"],
                "metrics.gate_s": gate_total,
                "pipeline.accept_ratio": _ratio(c["metrics.gates_passed"], c["metrics.gates"]),
                "trace.spans": float(len(self.spans)),
                "trace.unattributed_s": by_name["cli.main"],
            }
        )
        return metrics

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps(
                    {"id": i, "name": name, "start": start - t0, "end": end - t0,
                     "parent": parent}
                ) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_shares(values: dict[str, float]) -> dict[str, float]:
    """Self time per layer: the exclusive times summed by name prefix."""
    layers: defaultdict[str, float] = defaultdict(float)
    for name in EXCLUSIVE_TIMES:
        layers[name.split(".")[0]] += values[name]
    return dict(layers)


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}
