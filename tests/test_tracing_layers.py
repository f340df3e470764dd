"""The benchmark's traced layers must name functions the program has, and
its counters must keep counting.

`perfbench/tracing.py` binds its wrappers by module and attribute name and
computes its counters from the traced calls' arguments and results, so a
renamed function, a moved argument or a changed call count would otherwise
show up only as a crashed or silently wrong traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from ssein import cli
from test_metamorphic import predict_outputs

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Counters of the one-row traced benchmark below (4 SSEs, seed 3, 2 simulations).
WORK = {
    "moga.evaluations": 3000,
    # strength_ranks once per generation on the whole pool, n(n - 1) each:
    # 20 x 19 for the first generation's population, then 149 x 32 x 31.
    "moga.dominance_tests": 148_188,
    "aco.local_ant_steps": 271,
    # 2 simulations x 2 pair colonies (72 and 90 cells) keep 4 of their
    # 324 cells, one each.
    "aco.local_keep_ratio": 4 / 324,
    "aco.global_iterations": 60,
    # Each distinct graph profiled once: 1 SSE-level family profile x 4
    # vertices, 1 residue-level x 36, 1 gate (both attempts select the
    # same edges) x 36 and 21 GA link graphs x 4.
    "metrics.profile_vertices": 160,
    "pipeline.attempts": 2,
}

# Counters of the traced four-helix predict run (seed 13, 10 simulations):
# 4 files of 52 residues, parsed and built into SSE-INs once each.
PREDICT_WORK = {
    "ingest.residues": 208,
    "contact.cmap_bytes": 259_584,
    "pipeline.attempts": 2,
}


def tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    layers = tracing_module().LAYERS
    assert layers
    for module_name, attr, _, _ in layers:
        assert module_name.startswith("ssein."), module_name
        target = importlib.import_module(module_name)
        for part in attr.split("."):  # a dotted attribute names a method
            assert hasattr(target, part), f"{module_name}.{attr}: no {part!r}"
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr} is not callable"


def test_traced_benchmark_counts_work_and_keeps_the_bytes(tmp_path):
    tracing = tracing_module()
    manifest = tmp_path / "m.tsv"
    manifest.write_text("one\t11\t9,8,10,9\t1.0\n")

    def benchmark(out):
        argv = ["benchmark", "--manifest", str(manifest), "--seed", "3",
                "--simulations", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        return [(out / name).read_bytes() for name in ("benchmark_table.tsv", "figure3_curve.csv")]

    plain = benchmark(tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = benchmark(tmp_path / "traced")
    metrics = tracer.layer_metrics()
    assert set(tracing.COUNTS) <= set(metrics)
    # The amount of work of this run, pinned: a change that does more or
    # less of it shows here, not only in the benchmark.
    assert {name: metrics[name] for name in WORK} == WORK
    assert traced == plain


def test_traced_predict_counts_work_and_keeps_the_bytes(tmp_path):
    tracing = tracing_module()
    plain = predict_outputs(tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = predict_outputs(tmp_path / "traced")
    metrics = tracer.layer_metrics()
    assert {name: metrics[name] for name in PREDICT_WORK} == PREDICT_WORK
    assert traced == plain
