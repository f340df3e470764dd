import json
import math

import numpy as np
import pytest

from conftest import write_family
from ssein import aco, pipeline
from ssein.aco import AcoParams, FamilyMatchError, HeuristicMatrix, pair_colony
from ssein.cli import main
from ssein.pipeline import (
    DegenerateFamilyError,
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
from ssein.metrics import TopologicalProfile
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
        rows = parse_manifest("a\t3\t8,9,10\t0.8\nb\t4\t6,6\t1.0\t2\n")
        assert rows[0].sse_sizes == (8, 9, 10)
        assert rows[0].shortcuts_per_pair == 1
        assert rows[1].shortcuts_per_pair == 2

    def test_comments_skipped(self):
        rows = parse_manifest("# header\na\t3\t8,9\t0.5\n")
        assert len(rows) == 1

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError):
            parse_manifest("# nothing\n")

    def test_bad_row_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_manifest("a\t3\t8,9\t0.5\nb\tx\t8,9\t0.5\n")


class TestBenchmark:
    def test_degenerate_family_names_the_instance(self):
        # one-link SSEs: the planted family has no triangle, clustering is 0
        instance = make_planted_instance("pairs", (2, 2), np.random.default_rng(0))
        config = RunConfig(simulations=2)
        with pytest.raises(DegenerateFamilyError, match="pairs: residue-level clustering_coeff"):
            benchmark_instance(instance, config, np.random.SeedSequence(0))

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

    def test_benchmark_isolates_colony_stage(self):
        instance = make_planted_instance(
            "iso", (9, 8, 10, 9), np.random.default_rng(3), boost_fraction=1.0
        )
        result = benchmark_instance(
            instance, RunConfig(simulations=5), np.random.SeedSequence(4)
        )
        assert result.score_median == pytest.approx(1.0)
        assert result.incidence_error_rate <= 0.25


class TestMeanProfile:
    def test_field_means(self):
        p1 = TopologicalProfile(4.0, 2.0, 3.0, 0.2)
        p2 = TopologicalProfile(6.0, 4.0, 5.0, 0.4)
        mean = mean_profile([p1, p2])
        assert mean.diameter == pytest.approx(5.0)
        assert mean.char_path_length == pytest.approx(3.0)
        assert mean.mean_degree == pytest.approx(4.0)
        assert mean.clustering_coeff == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_profile([])


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
            h = HeuristicMatrix.from_q(np.ones((4, 5)), 2.0)
            colony = pair_colony(h, AcoParams(), np.random.default_rng(0))
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

    def test_bad_config_key_exits_one(self, tmp_path, capsys):
        query, index = write_family(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nbogus = 1\n")
        code = main(
            ["predict", "--pdb", str(query), "--family", str(index), "--config", str(cfg)]
        )
        assert code == 1

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
