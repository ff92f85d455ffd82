"""Spec/result serialization: lossless round-trips and stable hashes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import DetectionConfig, MeasurementConfig, WatermarkConfig
from repro.core.spec import SPEC_SCHEMA_VERSION, ScenarioSpec
from repro.pipeline.artifacts import Provenance, ScenarioResult, SweepResult
from repro.pipeline.runner import ExperimentRunner


def _rich_spec() -> ScenarioSpec:
    return ScenarioSpec(
        kind="fig5_panel",
        name="fig5/chip2-inactive",
        chip="chip2",
        workload="memcopy",
        watermark=WatermarkConfig(lfsr_width=10, lfsr_seed=0x155, switching_registers=256),
        measurement=MeasurementConfig.quick(12_345),
        detection=DetectionConfig(detection_threshold=5.0, uniqueness_margin=0.9),
        watermark_active=False,
        seed=42,
        phase_offset=1_234,
        repetitions=7,
        m0_window_cycles=2_048,
        params={"levels": [0.1, 0.2], "nested": {"b": 2, "a": 1}, "flag": True},
    )


class TestScenarioSpec:
    def test_json_round_trip_is_lossless(self):
        spec = _rich_spec()
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.to_json_dict() == spec.to_json_dict()
        assert restored.params_dict() == spec.params_dict()

    def test_file_round_trip(self, tmp_path):
        spec = _rich_spec()
        path = spec.save(tmp_path / "spec.json")
        assert ScenarioSpec.load(path) == spec

    def test_spec_hash_stable_across_processes(self):
        spec = _rich_spec()
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.core.spec import ScenarioSpec\n"
            f"print(ScenarioSpec.from_json({spec.to_json()!r}).spec_hash())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == spec.spec_hash()

    def test_spec_hash_changes_with_content(self):
        spec = _rich_spec()
        assert spec.with_overrides(seed=43).spec_hash() != spec.spec_hash()
        assert spec.with_overrides(chip="chip1").spec_hash() != spec.spec_hash()

    def test_chip_aliases_canonicalised(self):
        for alias in ("chipII", "chip_two", "2", "II"):
            assert ScenarioSpec(kind="fig3", chip=alias).chip == "chip2"
        hash_alias = ScenarioSpec(kind="fig3", chip="chipII").spec_hash()
        hash_canonical = ScenarioSpec(kind="fig3", chip="chip2").spec_hash()
        assert hash_alias == hash_canonical

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            ScenarioSpec(kind="fig99")

    def test_unknown_chip_rejected_with_valid_names(self):
        with pytest.raises(ValueError, match="chip1"):
            ScenarioSpec(kind="fig3", chip="chip9")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            ScenarioSpec(kind="fig3", chip="chip1", workload="whetstone")

    @pytest.mark.parametrize(
        "seed, error",
        [(-1, ValueError), ("x", TypeError), (1.0, TypeError), (True, TypeError)],
    )
    def test_bad_seed_rejected(self, seed, error):
        with pytest.raises(error, match="seed must be"):
            ScenarioSpec(kind="fig3", chip="chip1", seed=seed)

    def test_unknown_field_rejected_on_load(self):
        payload = _rich_spec().to_json_dict()
        payload["turbo"] = True
        with pytest.raises(ValueError, match="unknown ScenarioSpec fields"):
            ScenarioSpec.from_json_dict(payload)

    def test_v1_payload_carrying_synthesis_rejected(self):
        payload = _rich_spec().to_json_dict()
        payload["schema_version"] = 1
        payload["synthesis"] = {"max_trials_per_chunk": 25}
        with pytest.raises(ValueError, match="unsupported spec schema version"):
            ScenarioSpec.from_json_dict(payload)

    def test_v2_payload_with_stray_synthesis_rejected(self):
        payload = _rich_spec().to_json_dict()
        assert payload["schema_version"] == SPEC_SCHEMA_VERSION == 2
        payload["synthesis"] = {"max_trials_per_chunk": 25}
        with pytest.raises(ValueError, match="unknown ScenarioSpec fields"):
            ScenarioSpec.from_json_dict(payload)

    def test_params_are_frozen_and_order_insensitive(self):
        a = ScenarioSpec(kind="table2", params={"x": 1, "y": [1, 2]})
        b = ScenarioSpec(kind="table2", params={"y": [1, 2], "x": 1})
        assert a == b and a.spec_hash() == b.spec_hash()
        assert a.param("x") == 1
        assert a.param("missing", "fallback") == "fallback"

    def test_mapping_params_thaw_back_to_dicts(self):
        spec = ScenarioSpec(
            kind="table2", params={"opts": {"a": 1, "b": [2, 3], "c": {"d": 4}}}
        )
        assert spec.param("opts") == {"a": 1, "b": [2, 3], "c": {"d": 4}}
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.param("opts")["c"]["d"] == 4
        assert restored == spec

    def test_experiment_config_round_trip(self):
        spec = _rich_spec()
        bundle = spec.experiment_config
        assert bundle.watermark == spec.watermark
        assert bundle.measurement == spec.measurement
        assert bundle.detection == spec.detection


class TestConfigSerialization:
    @pytest.mark.parametrize(
        "config",
        [
            WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D, switching_registers=128),
            MeasurementConfig.quick(9_999),
            DetectionConfig(detection_threshold=6.0),
        ],
        ids=["watermark", "measurement", "detection"],
    )
    def test_round_trip(self, config):
        assert type(config).from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown WatermarkConfig fields"):
            WatermarkConfig.from_dict({"lfsr_width": 12, "bogus": 1})


class TestScenarioResultArtifacts:
    def test_save_load_reproduces_arrays_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        result = ScenarioResult(
            spec=_rich_spec(),
            provenance=Provenance(spec_hash=_rich_spec().spec_hash()),
            scalars={"detected": True, "peak": 0.015},
            arrays={
                "f64": rng.standard_normal(257),
                "f32": rng.standard_normal(33).astype(np.float32),
                "ints": np.arange(7, dtype=np.int64),
                "flags": np.array([True, False, True]),
                "matrix": rng.standard_normal((5, 11)),
            },
            report="hello\nworld",
        )
        loaded = ScenarioResult.load(result.save(tmp_path / "artifact"))
        assert loaded.spec == result.spec
        assert loaded.scalars == result.scalars
        assert loaded.report == result.report
        assert loaded.provenance.spec_hash == result.provenance.spec_hash
        assert set(loaded.arrays) == set(result.arrays)
        for key, value in result.arrays.items():
            assert loaded.arrays[key].dtype == value.dtype
            assert np.array_equal(loaded.arrays[key], value)

    def test_executed_scenario_round_trips(self, tmp_path):
        result = ExperimentRunner().run(ScenarioSpec(kind="fig2", name="fig2", seed=9))
        loaded = ScenarioResult.load(result.save(tmp_path / "fig2"))
        assert loaded.report == result.report
        assert np.array_equal(loaded.arrays["wmark"], result.arrays["wmark"])
        assert loaded.provenance.spec_hash == result.spec.spec_hash()

    def test_provenance_stamps_commit_and_environment(self):
        provenance = Provenance(spec_hash="abc")
        assert provenance.commit  # "unknown" at worst, never empty
        assert provenance.environment["numpy"] == np.__version__
        assert provenance.created_at

    def test_json_dict_contains_array_metadata_only(self, tmp_path):
        result = ExperimentRunner().run(ScenarioSpec(kind="fig2", name="fig2", seed=9))
        payload = result.to_json_dict()
        assert payload["arrays"]["wmark"]["shape"] == [64]
        path = result.save(tmp_path / "fig2")
        on_disk = json.loads(path.read_text())
        assert on_disk["arrays_file"] == "fig2.npz"

    def test_sweep_round_trip(self, tmp_path):
        runner = ExperimentRunner()
        sweep = runner.run_many(
            [ScenarioSpec(kind="fig2", name="fig2", seed=9), "table2"]
        )
        loaded = SweepResult.load(sweep.save(tmp_path / "sweep"))
        assert loaded.names == sweep.names
        assert loaded.get("fig2").report == sweep.get("fig2").report
        for original, restored in zip(sweep, loaded):
            for key, value in original.arrays.items():
                assert np.array_equal(restored.arrays[key], value)
                assert restored.arrays[key].dtype == value.dtype


class TestGridAxisHelpers:
    def test_with_seed_and_name(self):
        base = ScenarioSpec(kind="fig2", name="base", seed=1)
        assert base.with_seed(7).seed == 7
        assert base.with_name("cell").name == "cell"
        assert base.seed == 1 and base.name == "base"  # copies, not mutation

    def test_with_chip_canonicalises(self):
        base = ScenarioSpec(kind="fig5_panel", chip="chip1")
        assert base.with_chip("chipII").chip == "chip2"

    def test_with_num_cycles_only_touches_length(self):
        base = ScenarioSpec(kind="fig5_panel", chip="chip1")
        longer = base.with_num_cycles(12_345)
        assert longer.measurement.num_cycles == 12_345
        assert longer.measurement.probe_noise_rms_v == base.measurement.probe_noise_rms_v
        with pytest.raises(ValueError, match="positive"):
            base.with_num_cycles(0)

    def test_with_noise_scale_zero_is_noiseless(self):
        quiet = ScenarioSpec(kind="fig5_panel", chip="chip1").with_noise_scale(0.0)
        assert quiet.measurement.probe_noise_rms_v == 0.0
        assert quiet.measurement.transient_noise_floor_w == 0.0
        assert quiet.measurement.transient_noise_fraction == 0.0
        with pytest.raises(ValueError, match="non-negative"):
            quiet.with_noise_scale(-1.0)

    def test_helpers_change_spec_hash(self):
        base = ScenarioSpec(kind="fig5_panel", chip="chip1", seed=1)
        assert base.with_seed(2).spec_hash() != base.spec_hash()
        assert base.with_num_cycles(9_999).spec_hash() != base.spec_hash()
