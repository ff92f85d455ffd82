"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import QUICK_CYCLES, build_parser, main
from repro.core.spec import ScenarioSpec


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        for name in ("fig2", "fig3", "fig5", "fig6", "table1", "table2", "robustness", "all"):
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_options(self):
        args = build_parser().parse_args(["fig5", "--cycles", "1000", "--quick"])
        assert args.cycles == 1000
        assert args.quick


class TestMain:
    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "98.0%" in output
        assert "experiment: table2" in output

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        assert "No Data Switching" in capsys.readouterr().out

    def test_fig2_runs(self, capsys):
        assert main(["fig2"]) == 0
        assert "WMARK" in capsys.readouterr().out

    def test_robustness_runs(self, capsys):
        assert main(["robustness"]) == 0
        assert "improved robustness demonstrated: True" in capsys.readouterr().out

    def test_fig5_quick_runs(self, capsys):
        assert main(["fig5", "--quick", "--cycles", "40000"]) == 0
        output = capsys.readouterr().out
        assert "chip1" in output and "chip2" in output

    def test_fig6_quick_runs(self, capsys):
        assert main(["fig6", "--quick", "--cycles", "40000", "--repetitions", "5"]) == 0
        assert "repetitions" in capsys.readouterr().out

    def test_invalid_cycles_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig5", "--cycles", "-5"])

    def test_invalid_repetitions_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--repetitions", "0"])


class TestRegistryCommands:
    def test_list_prints_every_scenario(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("fig2", "fig5/chip1-active", "fig6/chip2", "table2", "robustness"):
            assert name in output

    def test_list_json(self, tmp_path, capsys):
        path = tmp_path / "scenarios.json"
        assert main(["list", "--json", str(path)]) == 0
        capsys.readouterr()
        entries = json.loads(path.read_text())
        assert {"name", "paper_ref", "title"} <= set(entries[0])
        assert any(entry["name"] == "fig5" for entry in entries)

    def test_run_by_name_with_json_output(self, tmp_path, capsys):
        path = tmp_path / "result.json"
        assert main(["run", "table2", "--json", str(path)]) == 0
        output = capsys.readouterr().out
        assert "scenario: table2" in output
        assert "spec hash:" in output
        payload = json.loads(path.read_text())
        assert payload["scalars"]["headline_reduction"] == pytest.approx(0.98, abs=0.01)
        assert payload["provenance"]["spec_hash"] == ScenarioSpec.from_json_dict(
            payload["spec"]
        ).spec_hash()

    def test_run_spec_file(self, tmp_path, capsys):
        spec_path = ScenarioSpec(kind="fig2", name="from-file", seed=9).save(
            tmp_path / "spec.json"
        )
        assert main(["run", str(spec_path)]) == 0
        assert "scenario: from-file" in capsys.readouterr().out

    def test_run_spec_file_honours_options(self, tmp_path, capsys):
        spec_path = ScenarioSpec(kind="fig2", name="from-file", seed=9).save(
            tmp_path / "spec.json"
        )
        out_path = tmp_path / "out.json"
        assert main(["run", str(spec_path), "--seed", "5", "--json", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["spec"]["seed"] == 5

    def test_run_save_artifact(self, tmp_path, capsys):
        target = tmp_path / "artifact"
        assert main(["run", "fig2", "--save", str(target)]) == 0
        capsys.readouterr()
        assert (tmp_path / "artifact.json").exists()
        assert (tmp_path / "artifact.npz").exists()

    def test_run_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "fig3", "--quick", "--seed", "-1"], "--seed must be non-negative"),
            (["sweep", "fig2", "--grid-seeds", "1", "-2"], "--grid-seeds values"),
        ],
        ids=["run-seed", "sweep-grid-seeds"],
    )
    def test_negative_seed_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_seed_flag_changes_the_spec(self, tmp_path, capsys):
        default_path = tmp_path / "default.json"
        seeded_path = tmp_path / "seeded.json"
        assert main(["run", "fig2", "--json", str(default_path)]) == 0
        assert main(["run", "fig2", "--seed", "5", "--json", str(seeded_path)]) == 0
        capsys.readouterr()
        default = json.loads(default_path.read_text())
        seeded = json.loads(seeded_path.read_text())
        assert default["spec"]["seed"] == 9
        assert seeded["spec"]["seed"] == 5
        assert default["provenance"]["spec_hash"] != seeded["provenance"]["spec_hash"]

    def test_sweep_with_json_output(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        assert main(["sweep", "table1", "table2", "--json", str(path)]) == 0
        output = capsys.readouterr().out
        assert "scenario: table1" in output and "scenario: table2" in output
        assert "sweep of 2 scenarios" in output
        payload = json.loads(path.read_text())
        assert [entry["spec"]["name"] for entry in payload["results"]] == [
            "table1",
            "table2",
        ]

    def test_legacy_json_option(self, tmp_path, capsys):
        path = tmp_path / "table1.json"
        assert main(["table1", "--json", str(path)]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["spec"]["kind"] == "table1"


class TestSweepBackendsAndGrids:
    def test_sweep_process_backend(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "sweep", "fig2", "table2",
                    "--backend", "process", "--workers", "2",
                    "--json", str(path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "scenario: fig2" in output and "scenario: table2" in output
        payload = json.loads(path.read_text())
        assert [entry["spec"]["name"] for entry in payload["results"]] == [
            "fig2",
            "table2",
        ]
        assert all(entry["error"] is None for entry in payload["results"])

    def test_grid_flags_expand_scenarios(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        assert (
            main(["sweep", "fig2", "--grid-seeds", "1", "2", "3", "--json", str(path)])
            == 0
        )
        capsys.readouterr()
        payload = json.loads(path.read_text())
        names = [entry["spec"]["name"] for entry in payload["results"]]
        assert names == ["fig2[seed=1]", "fig2[seed=2]", "fig2[seed=3]"]
        assert [entry["spec"]["seed"] for entry in payload["results"]] == [1, 2, 3]

    def test_invalid_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "fig2", "--backend", "process", "--workers", "0"])

    def test_invalid_grid_length_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "fig2", "--grid-lengths", "-5"])

    def test_save_into_directory_uses_sanitized_stem(self, tmp_path, capsys):
        spec_path = ScenarioSpec(kind="fig2", name="demo/cell-1", seed=9).save(
            tmp_path / "spec.json"
        )
        out_dir = tmp_path / "artifacts"
        out_dir.mkdir()
        assert main(["run", str(spec_path), "--save", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "demo-cell-1.json").exists()
        assert not (out_dir / "demo").exists()

    def test_run_spec_file_without_json_suffix(self, tmp_path, capsys):
        spec_path = ScenarioSpec(kind="fig2", name="odd", seed=9).save(
            tmp_path / "scenario.spec"
        )
        assert main(["run", str(spec_path)]) == 0
        assert "scenario: odd" in capsys.readouterr().out

    def test_failed_cell_sets_exit_code(self, tmp_path, capsys):
        bad = ScenarioSpec(kind="fig5_panel", name="bad-cell").save(
            tmp_path / "bad.json"
        )
        assert main(["sweep", "fig2", str(bad)]) == 1
        output = capsys.readouterr().out
        assert "FAILED" in output and "(1 FAILED)" in output


class TestResultStoreCommands:
    def _sweep(self, store, json_path, resume=True):
        argv = ["sweep", "fig2", "table2", "--store", str(store)]
        if resume:
            argv.append("--resume")
        return main(argv + ["--json", str(json_path)])

    def test_warm_sweep_hits_and_matches_cold_report(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._sweep(store, tmp_path / "cold.json") == 0
        cold_out = capsys.readouterr().out
        assert "0 hit(s)" in cold_out and "2 written" in cold_out
        assert self._sweep(store, tmp_path / "warm.json") == 0
        warm_out = capsys.readouterr().out
        assert "2 hit(s), 0 miss(es)" in warm_out
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        del cold["elapsed_s"], warm["elapsed_s"]
        for entry in cold["results"] + warm["results"]:
            del entry["provenance"]["elapsed_s"]
        assert cold == warm

    def test_store_without_resume_only_records(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._sweep(store, tmp_path / "a.json", resume=False) == 0
        capsys.readouterr()
        assert self._sweep(store, tmp_path / "b.json", resume=False) == 0
        assert "0 hit(s)" in capsys.readouterr().out

    def test_run_command_uses_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = ["run", "table2", "--store", str(store), "--resume"]
        assert main(argv) == 0
        assert "1 written" in capsys.readouterr().out
        assert main(argv) == 0
        assert "1 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_resume_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "fig2", "--resume"])
        assert "--resume requires --store" in capsys.readouterr().err

    def test_store_stats_command(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._sweep(store, tmp_path / "sweep.json") == 0
        capsys.readouterr()
        assert main(["store", "stats", str(store)]) == 0
        output = capsys.readouterr().out
        assert "entries: 2" in output and "salt:" in output

    def test_store_verify_clean_and_corrupt(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._sweep(store, tmp_path / "sweep.json") == 0
        capsys.readouterr()
        assert main(["store", "verify", str(store)]) == 0
        assert "0 problem(s)" in capsys.readouterr().out
        npz = next(store.rglob("*.npz"))
        npz.write_bytes(b"garbage")
        assert main(["store", "verify", str(store)]) == 1
        output = capsys.readouterr().out
        assert "PROBLEM" in output

    def test_store_gc_removes_corrupt_entries(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._sweep(store, tmp_path / "sweep.json") == 0
        capsys.readouterr()
        next(store.rglob("*.npz")).write_bytes(b"garbage")
        assert main(["store", "gc", str(store)]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["store", "verify", str(store)]) == 0
