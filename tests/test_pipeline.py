import gc
import hashlib
import json
import math
import sys
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import write_family
from test_golden import DESK_ARGV, DESK_SWEEP
from ssein import aco, contact, pipeline
from ssein.aco import AcoParams, Colony, ColonyGraph, FamilyMatchError, edge_probabilities
from ssein.cli import main
from ssein.contact import build_contact_map
from ssein.ingest import parse_pdb_detailed
from ssein.pipeline import (
    DegenerateFamilyError,
    InstanceResult,
    RunConfig,
    benchmark_instance,
    emit_report,
    incidence_to_tsv,
    mean_profile,
    parse_manifest,
    run_benchmark,
    run_predict,
    shortcut_edges_to_tsv,
)
from ssein.metrics import TopologicalProfile, topological_profile
from ssein.moga import GaParams
from ssein.synth import make_planted_instance


def predict_config(tmp_path, **overrides):
    query, index = write_family(tmp_path)
    defaults = dict(
        pdb_path=str(query),
        family_index_path=str(index),
        simulations=10,
        seed=5,
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestRunPredict:
    def test_self_recovery_smoke(self, tmp_path):
        report = run_predict(predict_config(tmp_path))
        assert report.verdict == "accepted"
        assert report.attempts <= 3
        assert report.shortcut_score == pytest.approx(1.0)
        assert report.incidence_error_rate == 0.0
        assert report.e_p >= 1
        assert report.ac is not None

    def test_mismatched_family_is_structured_error(self, tmp_path):
        query, _ = write_family(tmp_path)
        # family whose only template has no SSE annotations at all
        text = [l for l in query.read_text().splitlines() if not l.startswith("HELIX")]
        bare = tmp_path / "bare.pdb"
        bare.write_text("\n".join(text) + "\n")
        index = tmp_path / "bad_family.tsv"
        index.write_text(f"bare\t{bare.name}\t2\n")
        config = RunConfig(
            pdb_path=str(query), family_index_path=str(index), simulations=2
        )
        with pytest.raises(FamilyMatchError):
            run_predict(config)

    def test_degenerate_family_fails_before_the_ga(self, tmp_path, monkeypatch, capsys):
        from conftest import atom_line, helix_record

        query, _ = write_family(tmp_path)
        # two single-residue helices 20 Å apart: the template SSE-IN is edgeless
        lines = [
            helix_record(1, "ALA", "ALA", "A", 1, 1),
            helix_record(2, "LEU", "LEU", "A", 2, 2),
            atom_line(1, "CA", "ALA", "A", 1, (0.0, 0.0, 0.0)),
            atom_line(2, "CA", "LEU", "A", 2, (20.0, 0.0, 0.0)),
            "END",
        ]
        (tmp_path / "dot.pdb").write_text("\n".join(lines) + "\n")
        index = tmp_path / "dots.tsv"
        index.write_text("dot\tdot.pdb\t2\n")

        def no_ga(*args, **kwargs):
            raise AssertionError("the GA ran on a degenerate family")

        monkeypatch.setattr("ssein.pipeline.run_moga", no_ga)
        config = RunConfig(pdb_path=str(query), family_index_path=str(index))
        with pytest.raises(DegenerateFamilyError, match="family dots: residue-level diameter"):
            run_predict(config)
        code = main(["predict", "--pdb", str(query), "--family", str(index),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "family dots" in capsys.readouterr().err

    def test_deterministic_report_bytes(self, tmp_path):
        config = predict_config(tmp_path)
        first = emit_report(run_predict(config))
        second = emit_report(run_predict(config))
        assert first == second

    def test_skipped_annotations_are_logged(self, tmp_path, caplog):
        import logging

        from conftest import helix_record

        config = predict_config(tmp_path)
        plain = emit_report(run_predict(config))
        query = tmp_path / "query.pdb"
        query.write_text(helix_record(9, "ALA", "LEU", "B", 1, 5) + "\n" + query.read_text())
        with caplog.at_level(logging.INFO, logger="ssein"):
            report = run_predict(config)
        assert "query: dropped 0 residues without usable Cα, skipped 1 HELIX/SHEET records" in (
            caplog.messages
        )
        assert emit_report(report) == plain

    def test_seed_changes_streams_not_contract(self, tmp_path):
        report = run_predict(predict_config(tmp_path, seed=77))
        assert report.verdict in ("accepted", "rejected")
        assert report.config["seed"] == 77


class TestEmitReport:
    def test_json_roundtrip_and_stable_keys(self, tmp_path):
        report = run_predict(predict_config(tmp_path))
        text = emit_report(report)
        parsed = json.loads(text)
        assert parsed == report.to_dict()
        assert list(parsed) == sorted(parsed)
        assert emit_report(report) == text

    def test_report_key_set_is_pinned(self, tmp_path):
        # every RunReport field but the timings enters the report, the
        # shortcut rows as their edges; a new field must be added here
        report = run_predict(predict_config(tmp_path))
        assert sorted(json.loads(emit_report(report))) == [
            "ac", "attempts", "built_profile", "config", "e_candidates", "e_p", "e_real",
            "e_selected", "family_profile", "incidence", "incidence_error_rate",
            "protein_id", "seed", "shortcut_edges", "shortcut_score", "sse_count",
            "sse_sizes", "verdict",
        ]

    def test_incidence_tsv(self):
        text = incidence_to_tsv(np.array([[0, 1], [1, 0]]))
        assert text == "0\t1\n1\t0\n"

    def test_shortcut_tsv_header(self):
        text = shortcut_edges_to_tsv([(3, 18, "H1", "H2", 1.0)])
        lines = text.splitlines()
        assert lines[0] == "res_i\tres_j\tsse_i\tsse_j\tpheromone_normalized"
        assert lines[1].startswith("3\t18\tH1\tH2\t")


class TestManifest:
    def test_parse_rows(self):
        rows = parse_manifest("a\t3\t8,9,10\t0.8\nb\t4\t6,6,6\t1.0\t2\n")
        assert rows[0].sse_sizes == (8, 9, 10)
        assert rows[0].shortcuts_per_pair == 1
        assert rows[1].shortcuts_per_pair == 2

    def test_comments_skipped(self):
        rows = parse_manifest("# header\na\t3\t8,9,10\t0.5\n")
        assert len(rows) == 1

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError):
            parse_manifest("# nothing\n")

    def test_bad_row_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_manifest("a\t3\t8,9,10\t0.5\nb\tx\t8,9,10\t0.5\n")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("b\t2\t8\t0.5", "instance b: planted instances need at least 2 SSEs"),
            ("b\t2\t5,0,5\t0.5", "instance b: SSE sizes must be positive"),
            ("b\t2\t5,-3,5\t0.5", "instance b: SSE sizes must be positive"),
            ("b\t2\t5,5,5\t1.5", "instance b: boost_fraction must be in [0, 1]"),
            ("b\t2\t5,5,5\t-0.1", "instance b: boost_fraction must be in [0, 1]"),
            ("b\t2\t5,5,5\tnan", "instance b: boost_fraction must be in [0, 1]"),
            ("b\t2\t5,5,5\t0.5\t0", "instance b: shortcuts_per_pair must be >= 1, got 0"),
            ("b\t2\t5,5\t0.5", "instance b: 2 SSEs plant no shortcut edge to score against"),
        ],
        ids=["one-sse", "zero-size", "negative-size", "boost-above", "boost-below",
             "boost-nan", "no-shortcuts", "two-sses"],
    )
    def test_generator_rules_name_line(self, row, message):
        with pytest.raises(ValueError) as info:
            parse_manifest(f"a\t3\t8,9,10\t0.5\n{row}\n")
        assert str(info.value) == f"manifest line 2: {message}"


class TestBenchmark:
    def test_degenerate_family_names_the_instance(self):
        # one-link SSEs: the planted family has no triangle, clustering is 0
        instance = make_planted_instance("pairs", (2, 2), np.random.default_rng(0))
        config = RunConfig(simulations=2)
        with pytest.raises(DegenerateFamilyError, match="pairs: residue-level clustering_coeff"):
            benchmark_instance(instance, config, np.random.SeedSequence(0))

    def test_pair_graphs_built_once_per_run(self, monkeypatch):
        # every simulation reuses the run's pair graphs and only draws anew
        instance = make_planted_instance(
            "once", (9, 8, 10, 9), np.random.default_rng(11), boost_fraction=1.0
        )
        built, local = [], []
        pair, local_aco = ColonyGraph.pair, pipeline.local_aco
        monkeypatch.setattr(
            ColonyGraph, "pair", staticmethod(lambda s, beta: built.append(s.shape) or pair(s, beta))
        )
        monkeypatch.setattr(
            pipeline, "local_aco", lambda *args: local.append(args[0]) or local_aco(*args)
        )
        config = RunConfig(simulations=3, ga=GaParams(generations=5))
        benchmark_instance(instance, config, np.random.SeedSequence(0))
        pairs = instance.query.sse_links()
        sizes = instance.query.sse_sizes
        assert built == [(sizes[a - 1], sizes[b - 1]) for a, b in pairs]
        assert local == 3 * built

    def test_single_instance_row(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("one\t11\t9,8,10,9,8,10,9,8\t1.0\n")
        config = RunConfig(
            manifest_path=str(manifest), simulations=5, seed=2, output_dir=str(tmp_path)
        )
        result = run_benchmark(config)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert 0.0 <= row.score_mean <= 1.0
        assert 0.0 <= row.score_median <= 1.0
        assert row.e_real > 0
        assert row.simulations == 5
        table = result.table_tsv()
        assert table.splitlines()[0].startswith("instance\tproteins")
        assert "one\t" in table
        curve = result.curve_csv()
        assert curve.splitlines()[0] == "local_recovery,global_score"

    def test_table_has_one_column_per_result_field(self, tmp_path):
        # rows are written field by field, so the header must match them
        manifest = tmp_path / "m.tsv"
        manifest.write_text("one\t11\t9,8,10,9\t1.0\n")
        result = run_benchmark(RunConfig(manifest_path=str(manifest), simulations=2))
        header, row = result.table_tsv().splitlines()
        assert len(header.split("\t")) == len(fields(InstanceResult))
        assert len(row.split("\t")) == len(fields(InstanceResult))

    def test_benchmark_isolates_colony_stage(self):
        instance = make_planted_instance(
            "iso", (9, 8, 10, 9), np.random.default_rng(3), boost_fraction=1.0
        )
        result = benchmark_instance(
            instance, RunConfig(simulations=5), np.random.SeedSequence(4)
        )
        assert result.score_median == pytest.approx(1.0)
        assert result.incidence_error_rate <= 0.25


def test_desk_sweep_profiles_each_distinct_graph_once(tmp_path, monkeypatch):
    """README sweep, seed 7: the pipeline's 420 profile calls (150 family
    SSE-level, 150 residue-level, 120 gate) cover 6 + 6 + 11 distinct
    graphs, and only those are profiled.  The table keeps its digest."""
    calls = {"family SSE": 0, "family residue": 0, "gate": 0}
    profile = pipeline.topological_profile

    def counting(vertices, edges):
        caller = sys._getframe(1).f_code.co_name
        if caller == "gated_attempts":
            calls["gate"] += 1
        else:
            calls["family SSE" if isinstance(vertices, range) else "family residue"] += 1
        return profile(vertices, edges)

    monkeypatch.setattr(pipeline, "topological_profile", counting)
    monkeypatch.chdir(tmp_path)
    assert main(DESK_ARGV) == 0
    assert calls == {"family SSE": 6, "family residue": 6, "gate": 11}
    table = (tmp_path / "bench_out" / "benchmark_table.tsv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == DESK_SWEEP["benchmark_table.tsv"]


def test_family_is_read_one_template_at_a_time(tmp_path, monkeypatch):
    """While predict reads a family of 6 templates, no earlier template's
    SSE-IN is still reachable when the next one is built."""
    query, index = write_family(tmp_path, n_templates=6)
    templates = []  # weak references, in build order
    alive_at_build = []
    build = pipeline.build_contact_map

    def tracking(structure, threshold):
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in templates))
        graph = build(structure, threshold)
        if structure.id != query.stem:
            templates.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(pipeline, "build_contact_map", tracking)
    run_predict(RunConfig(pdb_path=str(query), family_index_path=str(index), simulations=2))
    assert len(templates) == 6
    assert alive_at_build == [0] * 7  # the query, then each template


def test_family_read_profiles_and_reduces_each_distinct_graph_once(tmp_path, monkeypatch):
    """An index listing one file under two non-adjacent ids: the two
    distinct residue graphs are profiled once each, the repeat shares its
    shortcut network, and the family profile still averages all three.
    The two networks have one SSE graph, which is profiled once: the
    SSE-level memo is keyed by content, not by object."""
    query, index = write_family(tmp_path, n_templates=2)
    index.write_text("first\ttmpl1.pdb\t2\nother\ttmpl2.pdb\t2\nagain\ttmpl1.pdb\t2\n")
    residue_profiles = sse_profiles = 0
    family = {}
    profile = pipeline.topological_profile
    budget = pipeline.estimate_edge_budget

    def counting(vertices, edges):
        nonlocal residue_profiles, sse_profiles
        gate = sys._getframe(1).f_code.co_name == "gated_attempts"
        residue_profiles += not gate and not isinstance(vertices, range)
        sse_profiles += not gate and isinstance(vertices, range)
        return profile(vertices, edges)

    def capturing(sizes, templates):
        family.update(templates)
        return budget(sizes, templates)

    monkeypatch.setattr(pipeline, "topological_profile", counting)
    monkeypatch.setattr(pipeline, "estimate_edge_budget", capturing)
    report = run_predict(
        RunConfig(pdb_path=str(query), family_index_path=str(index), simulations=2)
    )
    assert (residue_profiles, sse_profiles) == (2, 1)
    assert list(family) == ["first", "other", "again"]
    assert family["first"] is family["again"]
    assert family["first"] is not family["other"]
    assert all(t.intra_edges == () for t in family.values())
    graphs = [
        build_contact_map(parse_pdb_detailed((tmp_path / name).read_text()).structure)
        for name in ("tmpl1.pdb", "tmpl2.pdb", "tmpl1.pdb")
    ]
    for network, graph in zip(family.values(), graphs):
        assert network.sse_ranges == graph.sse_ranges
        assert network.shortcut_edges == graph.shortcut_edges
    assert report.family_profile == mean_profile(
        [profile(g.vertices, g.edges) for g in graphs]
    )


def test_family_skips_a_template_of_another_sse_count(tmp_path, monkeypatch):
    """An index listing a one-helix template between two kept entries: the
    skipped id never reaches the edge budget, the family profile averages
    the kept templates only, and the outputs equal those of the run on the
    index without that entry (`report.json` outside its `config` echo)."""
    query, index = write_family(tmp_path)
    text = (tmp_path / "tmpl2.pdb").read_text().splitlines()
    helix = next(i for i, line in enumerate(text) if line.startswith("HELIX"))
    (tmp_path / "one_helix.pdb").write_text("\n".join(text[:helix] + text[helix + 1 :]) + "\n")
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text(
        "tmpl1\ttmpl1.pdb\t2\ntmpl2\ttmpl2.pdb\t2\nodd\tone_helix.pdb\t1\ntmpl3\ttmpl3.pdb\t2\n"
    )
    families = []
    budget = pipeline.estimate_edge_budget

    def capturing(sizes, templates):
        families.append(list(templates))
        return budget(sizes, templates)

    monkeypatch.setattr(pipeline, "estimate_edge_budget", capturing)
    outputs = []
    for family_index in (mixed, index):
        out = tmp_path / family_index.stem
        argv = ["predict", "--pdb", str(query), "--family", str(family_index),
                "--simulations", "10", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        del report["config"]
        tsvs = [(out / name).read_text() for name in ("sse_incidence.tsv", "shortcut_edges.tsv")]
        outputs.append((report, tsvs))
    assert families == [["tmpl1", "tmpl2", "tmpl3"]] * 2
    graphs = [
        build_contact_map(parse_pdb_detailed((tmp_path / f"tmpl{t}.pdb").read_text()).structure)
        for t in (1, 2, 3)
    ]
    kept_mean = mean_profile([topological_profile(g.vertices, g.edges) for g in graphs])
    assert outputs[0][0]["family_profile"] == kept_mean.as_dict()
    assert outputs[0] == outputs[1]


def test_planted_family_packs_its_shared_graph_once(monkeypatch):
    """A planted instance maps its 25 template ids to one SSE-IN.  Its key,
    the edges packed as int32 bytes, is made once, when the graph is built,
    and the family read builds only the one shortcut network the ids share."""
    instance = make_planted_instance("p", (9, 8, 10, 9), np.random.default_rng(3))
    graph, *others = instance.templates.values()
    assert len(others) == 24 and all(t is graph for t in others)
    assert graph.key == (graph.sse_ranges, np.array(graph.edges, np.int32).tobytes())
    built = 0
    init = contact.SseInGraph.__post_init__

    def counting_builds(self):
        nonlocal built
        built += 1
        init(self)

    monkeypatch.setattr(contact.SseInGraph, "__post_init__", counting_builds)
    kept, _ = pipeline._family_profiles(instance.templates.items(), 4, "p")
    assert built == 1
    assert len(set(map(id, kept.values()))) == 1


def test_templates_differing_only_in_intra_edges_share_one_network():
    """The kept shortcut network is keyed by the SSEs and shortcut edges
    alone: two templates that differ only in an intra edge are two residue
    graphs but share one network; one that differs in a shortcut edge gets
    its own."""
    instance = make_planted_instance("p", (9, 8, 10, 9), np.random.default_rng(3))
    graph = instance.templates["p-T1"]
    fewer_intra = replace(graph, intra_edges=graph.intra_edges[:-1])
    fewer_shortcuts = replace(graph, shortcut_edges=graph.shortcut_edges[:-1])
    kept, _ = pipeline._family_profiles(
        [("a", graph), ("b", fewer_intra), ("c", fewer_shortcuts)], 4, "p"
    )
    assert kept["a"] is kept["b"]
    assert kept["c"] is not kept["a"]
    assert kept["a"].shortcut_edges == graph.shortcut_edges
    assert kept["c"].shortcut_edges == graph.shortcut_edges[:-1]


class TestMeanProfile:
    def test_field_means(self):
        p1 = TopologicalProfile(4.0, 2.0, 3.0, 0.2)
        p2 = TopologicalProfile(6.0, 4.0, 5.0, 0.4)
        mean = mean_profile([p1, p2])
        assert mean.diameter == pytest.approx(5.0)
        assert mean.char_path_length == pytest.approx(3.0)
        assert mean.mean_degree == pytest.approx(4.0)
        assert mean.clustering_coeff == pytest.approx(0.3)


class TestFloatSumsAcrossPythonVersions:
    """From Python 3.12 on builtin `sum` over floats is compensated, so a
    float mean taken with it changes the output bytes there.  A module-level
    `sum = math.fsum` stands in for 3.12 on older versions: the means that
    decide outputs must not move under it."""

    def test_mean_profile(self, monkeypatch):
        profiles = [TopologicalProfile(0.1 * k + 0.1, 0.1, 0.7, 0.1) for k in range(10)]
        expected = mean_profile(profiles)
        # on these fields the compensated and the left-to-right sums differ
        assert math.fsum(p.char_path_length for p in profiles) / 10 != expected.char_path_length
        monkeypatch.setattr(pipeline, "sum", math.fsum, raising=False)
        assert mean_profile(profiles) == expected

    def test_colony_update(self, monkeypatch):
        def updated_tau():
            s = edge_probabilities(np.ones((4, 5)), 2.0)
            colony = Colony(ColonyGraph.pair(s, 12.0), AcoParams(), np.random.default_rng(0))
            colony.tau[:20] = np.random.default_rng(3).uniform(1.0, 1e4, size=20)
            colony.update(np.arange(20) % 3)
            return colony.tau.tolist()

        expected = updated_tau()
        assert math.fsum(expected[:20]) / 20 != expected[20]
        monkeypatch.setattr(aco, "sum", math.fsum, raising=False)
        assert updated_tau() == expected


class TestCli:
    def test_usage_error_exits_one(self, capsys):
        assert main(["predict"]) == 1  # missing required flags

    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_predict_writes_outputs_and_exits_zero(self, tmp_path):
        query, index = write_family(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "predict",
                "--pdb", str(query),
                "--family", str(index),
                "--simulations", "10",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "sse_incidence.tsv").exists()
        assert (out / "shortcut_edges.tsv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "accepted"

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code = main(
            ["predict", "--pdb", str(tmp_path / "nope.pdb"), "--family", str(tmp_path / "f.tsv")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_insertion_code_exits_one(self, tmp_path, capsys):
        query, index = write_family(tmp_path)
        lines = query.read_text().splitlines()
        # the first ATOM line gains insertion code A
        at = next(i for i, line in enumerate(lines) if line.startswith("ATOM"))
        lines[at] = lines[at][:26] + "A" + lines[at][27:]
        query.write_text("\n".join(lines) + "\n")
        code = main(["predict", "--pdb", str(query), "--family", str(index),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"line {at + 1}: insertion code" in err

    def test_non_finite_coordinate_names_the_line(self, tmp_path, capsys):
        query, index = write_family(tmp_path)
        lines = query.read_text().splitlines()
        at = next(
            i for i, line in enumerate(lines)
            if line.startswith("ATOM") and line[12:16].strip() == "N" and int(line[22:26]) == 4
        )
        lines[at] = f"{lines[at][:30]}{'nan':>8}{lines[at][38:]}"
        query.write_text("\n".join(lines) + "\n")
        code = main(["predict", "--pdb", str(query), "--family", str(index),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"line {at + 1}: non-finite N coordinates for residue 4" in err

    @pytest.mark.parametrize("name, source", [
        ("query.pdb", "query.pdb"),
        ("tmpl2.pdb", "tmpl2.pdb (template tmpl2)"),
    ])
    def test_parse_error_names_the_file(self, tmp_path, capsys, monkeypatch, name, source):
        _, index = write_family(tmp_path, n_templates=2)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("ATOM"))
        lines[at] = f"{lines[at][:30]}{'abc.x':>8}{lines[at][38:]}"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(tmp_path)
        code = main(["predict", "--pdb", "query.pdb", "--family", index.name,
                     "--out", "out"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {source}: line {at + 1}: cannot parse x coordinate from 'abc.x'" in err

    def test_benchmark_cli(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("one\t11\t9,8,10,9,8,10,9,8\t1.0\n")
        out = tmp_path / "bench"
        code = main(
            ["benchmark", "--manifest", str(manifest), "--seed", "3",
             "--simulations", "4", "--out", str(out)]
        )
        assert code == 0
        assert (out / "benchmark_table.tsv").exists()
        assert (out / "figure3_curve.csv").exists()

    def test_benchmark_instance_without_shortcuts_exits_one(self, tmp_path, capsys):
        # two 4-residue SSEs fall into two one-SSE clusters: no planted edge
        manifest = tmp_path / "m.tsv"
        manifest.write_text("solo\t1\t4,4\t1.0\n")
        code = main(
            ["benchmark", "--manifest", str(manifest), "--simulations", "2",
             "--out", str(tmp_path / "bench")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "solo" in err
        assert "Traceback" not in err

    def test_negative_shortcuts_per_pair_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("neg\t1\t6,6,6,6\t1.0\t-1\n")
        code = main(
            ["benchmark", "--manifest", str(manifest), "--simulations", "2",
             "--out", str(tmp_path / "bench")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "instance neg: shortcuts_per_pair must be >= 1, got -1" in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("b\t2\t5,0,5\t0.5", "instance b: SSE sizes must be positive"),
            ("solo\t1\t4,4\t1.0", "instance solo: 2 SSEs plant no shortcut edge to score against"),
        ],
        ids=["zero-size", "two-sses"],
    )
    def test_bad_manifest_row_fails_before_any_instance_runs(
        self, tmp_path, capsys, monkeypatch, row, message
    ):
        ran = []
        monkeypatch.setattr(pipeline, "benchmark_instance", lambda *args: ran.append(args))
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"a\t1\t6,6,6,6\t1.0\n{row}\n")
        out = tmp_path / "bench"
        code = main(
            ["benchmark", "--manifest", str(manifest), "--simulations", "2", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: manifest line 2: {message}\n"
        assert ran == []
        assert not out.exists()

    def test_negative_generator_seed_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("ok\t1\t6,6,6,6\t1.0\nneg\t-4\t6,6,6,6\t1.0\n")
        code = main(
            ["benchmark", "--manifest", str(manifest), "--simulations", "2",
             "--out", str(tmp_path / "bench")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "manifest line 2: generator seed must be non-negative, got -4" in err

    def test_duplicate_instance_id_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("# id\tseed\tsizes\tboost\ntwin\t1\t6,6,6,6\t1.0\ntwin\t2\t6,6,6,6\t0.5\n")
        code = main(
            ["benchmark", "--manifest", str(manifest), "--simulations", "2",
             "--out", str(tmp_path / "bench")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "manifest line 3: duplicate instance id 'twin'" in err
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_one(self, tmp_path, capsys, threshold):
        query, index = write_family(tmp_path)
        code = main(["predict", "--pdb", str(query), "--family", str(index),
                     "--threshold", threshold, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"threshold must be positive and finite, got {threshold}" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_colony_parameter_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("one\t11\t9,8,10,9\t1.0\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[aco]\ne_stop = nan\n")
        out = tmp_path / "bench"
        code = main(["benchmark", "--manifest", str(manifest), "--config", str(cfg),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "e_stop must be finite, got nan" in err
        assert not out.exists()

    def test_zero_edge_budget_predict(self, tmp_path, monkeypatch):
        # E_p = 0: no colony edge survives, the gate rejects every attempt
        monkeypatch.setattr("ssein.pipeline.estimate_edge_budget", lambda *args: 0)
        query, index = write_family(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["predict", "--pdb", str(query), "--family", str(index),
             "--simulations", "10", "--seed", "5", "--out", str(out)]
        )
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert (report["e_p"], report["ac"], report["e_selected"]) == (0, None, 0)
        assert (report["verdict"], report["attempts"]) == ("rejected", 10)
        assert (out / "shortcut_edges.tsv").read_text() == (
            "res_i\tres_j\tsse_i\tsse_j\tpheromone_normalized\n"
        )

    def test_zero_edge_budget_benchmark(self, tmp_path, monkeypatch):
        monkeypatch.setattr("ssein.pipeline.estimate_edge_budget", lambda *args: 0)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("one\t11\t9,8,10,9,8,10,9,8\t1.0\n")
        out = tmp_path / "bench"
        code = main(
            ["benchmark", "--manifest", str(manifest), "--seed", "3",
             "--simulations", "4", "--out", str(out)]
        )
        assert code == 0
        header, row = (out / "benchmark_table.tsv").read_text().splitlines()
        fields = dict(zip(header.split("\t"), row.split("\t")))
        assert (fields["e_p"], fields["ac"], fields["score"]) == ("0", "nan", "0.000000")

    def test_config_file_applies_and_flags_win(self, tmp_path):
        query, index = write_family(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[run]\nseed = 11\nsimulations = 10\n\n[ga]\ngenerations = 20\n"
            "\n[aco]\nmax_iterations = 50\n"
        )
        out = tmp_path / "cfgout"
        code = main(
            ["predict", "--pdb", str(query), "--family", str(index),
             "--config", str(cfg), "--seed", "12", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 12  # flag beats file
        assert report["config"]["ga"]["generations"] == 20
        assert report["config"]["aco"]["max_iterations"] == 50

    @pytest.mark.parametrize(
        "config_text, flags, expected",
        [
            (None, [], 20),  # the benchmark's own default
            ("[run]\nsimulations = 3\n", [], 3),
            ("[run]\nsimulations = 3\n", ["--simulations", "2"], 2),
            (None, ["--simulations", "2"], 2),
        ],
        ids=["default", "file", "flag-over-file", "flag"],
    )
    def test_benchmark_simulations_default_file_and_flag(
        self, tmp_path, config_text, flags, expected
    ):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("small\t3\t5,5,5,5\t1.0\n")
        out = tmp_path / "bench"
        argv = ["benchmark", "--manifest", str(manifest), "--out", str(out), *flags]
        if config_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config_text)
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        header, row = (out / "benchmark_table.tsv").read_text().splitlines()
        assert dict(zip(header.split("\t"), row.split("\t")))["simulations"] == str(expected)

    @pytest.mark.parametrize(
        "config_text, message",
        [
            ("seed = 3\n", "no section headers"),
            ("[run]\nseed = 3\nseed = 4\n", "option 'seed' in section 'run' already exists"),
            ("[run]\noutput_dir = 50%\n", "'%' must be followed by"),
        ],
        ids=["no-section", "duplicate-key", "bad-interpolation"],
    )
    def test_malformed_config_exits_one(self, tmp_path, capsys, config_text, message):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("one\t11\t9,8,10,9\t1.0\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        code = main(["benchmark", "--manifest", str(manifest), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: malformed config file {str(cfg)!r}: ")
        assert message in err

    @pytest.mark.parametrize(
        "section, key, raw, kind",
        [
            ("ga", "population_size", "abc", "an integer"),
            ("ga", "mutation_rate", "often", "a number"),
            ("run", "seed", "4.5", "an integer"),
            ("aco", "alpha", "1,5", "a number"),
        ],
    )
    def test_unconvertible_config_value_names_file_section_and_key(
        self, tmp_path, capsys, section, key, raw, kind
    ):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("one\t11\t9,8,10,9\t1.0\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{key} = {raw}\n")
        out = tmp_path / "bench"
        code = main(["benchmark", "--manifest", str(manifest), "--config", str(cfg),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: config file {str(cfg)!r}: [{section}] {key} = {raw!r} is not {kind}\n"
        assert not out.exists()

    def test_e_stop_at_most_one_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("one\t11\t9,8,10,9\t1.0\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[aco]\ne_stop = 1\n")
        out = tmp_path / "bench"
        code = main(["benchmark", "--manifest", str(manifest), "--config", str(cfg),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "e_stop must be > 1, got 1.0" in err
        assert not out.exists()

    def test_bad_config_key_exits_one(self, tmp_path, capsys):
        query, index = write_family(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nbogus = 1\n")
        code = main(
            ["predict", "--pdb", str(query), "--family", str(index), "--config", str(cfg)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: config file {str(cfg)!r}: unknown key 'bogus' in [run]\n"

    def test_unknown_config_section_exits_one(self, tmp_path, capsys):
        query, index = write_family(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[colony]\nalpha = 1\n")
        code = main(
            ["predict", "--pdb", str(query), "--family", str(index), "--config", str(cfg)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: config file {str(cfg)!r}: unknown section [colony]\n"

    def test_ga_flags_land_under_their_config_keys(self, tmp_path):
        query, index = write_family(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"[run]\noutput_dir = {tmp_path / 'unused'}\n\n"
            "[ga]\npopulation_size = 30\narchive_size = 9\ngenerations = 40\n"
        )
        out = tmp_path / "flags"
        code = main(
            ["predict", "--pdb", str(query), "--family", str(index), "--config", str(cfg),
             "--pop", "10", "--archive", "6", "--generations", "5", "--out", str(out)]
        )
        assert code in (0, 2)
        echo = json.loads((out / "report.json").read_text())["config"]
        assert (echo["ga"]["population_size"], echo["ga"]["archive_size"]) == (10, 6)
        assert (echo["ga"]["generations"], echo["output_dir"]) == (5, str(out))

    def test_rejected_by_topology_exits_two(self, tmp_path):
        # query helices too far apart to support the dense family topology
        from conftest import two_helix_protein

        query_text, _ = two_helix_protein(separation=30.0, helix_len=6)
        query = tmp_path / "far.pdb"
        query.write_text(query_text)
        rng = np.random.default_rng(1)
        lines = []
        for t in range(1, 4):
            text, _ = two_helix_protein(jitter=rng, separation=7.5, helix_len=6)
            (tmp_path / f"t{t}.pdb").write_text(text)
            lines.append(f"t{t}\tt{t}.pdb\t2")
        index = tmp_path / "fam.tsv"
        index.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rejected"
        code = main(
            ["predict", "--pdb", str(query), "--family", str(index),
             "--simulations", "5", "--seed", "1", "--out", str(out)]
        )
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "rejected"
        assert report["attempts"] == 5  # every simulation was tried

    def test_four_helix_chain_end_to_end(self, tmp_path):
        from conftest import multi_helix_protein

        text, _ = multi_helix_protein(4)
        (tmp_path / "q.pdb").write_text(text)
        rng = np.random.default_rng(3)
        lines = []
        for t in range(1, 4):
            t_text, _ = multi_helix_protein(4, jitter=rng)
            (tmp_path / f"t{t}.pdb").write_text(t_text)
            lines.append(f"t{t}\tt{t}.pdb\t4")
        index = tmp_path / "fam.tsv"
        index.write_text("\n".join(lines) + "\n")
        config = RunConfig(
            pdb_path=str(tmp_path / "q.pdb"),
            family_index_path=str(index),
            simulations=10,
            seed=2,
        )
        report = run_predict(config)
        assert report.verdict == "accepted"
        assert report.sse_count == 4
        # the chain incidence (1-2, 2-3, 3-4) is recovered near-exactly
        assert report.incidence_error_rate <= 0.125
        assert report.e_p >= 3
        assert report.shortcut_score >= 0.5

    def test_unwritable_output_dir_exits_one(self, tmp_path, capsys):
        query, index = write_family(tmp_path)
        blocker = tmp_path / "occupied"
        blocker.write_text("a file where the output directory should go")
        code = main(
            ["predict", "--pdb", str(query), "--family", str(index),
             "--simulations", "5", "--out", str(blocker)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_log_env_var_controls_verbosity(self, tmp_path, monkeypatch, caplog):
        import logging

        monkeypatch.setenv("SSEIN_LOG", "info")
        query, index = write_family(tmp_path)
        with caplog.at_level(logging.INFO, logger="ssein"):
            code = main(
                ["predict", "--pdb", str(query), "--family", str(index),
                 "--simulations", "5", "--seed", "5", "--out", str(tmp_path / "o")]
            )
        assert code == 0
        assert any("verdict=accepted" in message for message in caplog.messages)
