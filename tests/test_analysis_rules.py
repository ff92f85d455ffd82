"""repro-lint rule suite: per-rule fixtures plus the src/ self-check.

Every rule gets (at least) one minimal violating snippet -- asserting the
rule ID and the exact line -- and one clean or pragma'd snippet.  The
self-check then pins the acceptance criterion directly: the shipped
``src/`` tree has zero unsuppressed violations and every suppression
carries a reason.
"""

import dataclasses
import importlib.util
import json
import pathlib
import textwrap

import numpy as np
import pytest

from repro.analysis.engine import (
    META_RULE_ID,
    Finding,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    unsuppressed,
)
from repro.analysis.rules import (
    ALL_RULES,
    RULE_INDEX,
    SchemaManifestRule,
    schema_manifest_path,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def snippet(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def rule_ids(findings, include_suppressed: bool = False):
    return [
        f.rule_id
        for f in findings
        if include_suppressed or not f.suppressed
    ]


def the_finding(findings, rule_id: str) -> Finding:
    matches = [f for f in findings if f.rule_id == rule_id]
    assert len(matches) == 1, f"expected exactly one {rule_id}, got {matches}"
    return matches[0]


# -- RNG001 ----------------------------------------------------------------------


class TestRNG001:
    def test_global_numpy_randomness_is_flagged_with_line(self):
        findings = lint_source(
            snippet(
                """
                import numpy as np
                np.random.seed(0)
                x = np.random.normal(0.0, 1.0, 10)
                """
            ),
            "src/repro/power/noise.py",
        )
        assert rule_ids(findings) == ["RNG001", "RNG001"]
        assert [f.line for f in findings] == [2, 3]

    def test_stdlib_random_calls_and_imports_are_flagged(self):
        findings = lint_source(
            snippet(
                """
                import random
                value = random.random()
                """
            ),
            "src/repro/x.py",
        )
        assert rule_ids(findings) == ["RNG001", "RNG001"]

    def test_from_imports_of_global_state_are_flagged(self):
        findings = lint_source(
            "from random import shuffle\n", "src/repro/x.py"
        )
        assert rule_ids(findings) == ["RNG001"]
        findings = lint_source(
            "from numpy.random import normal\n", "src/repro/x.py"
        )
        assert rule_ids(findings) == ["RNG001"]

    def test_seeded_generator_draws_are_clean(self):
        findings = lint_source(
            snippet(
                """
                import numpy as np
                from numpy.random import default_rng
                rng = np.random.default_rng(7)
                x = rng.normal(0.0, 1.0, 10)
                y = np.random.Generator(np.random.PCG64(7)).integers(0, 4)
                """
            ),
            "src/repro/power/noise.py",
        )
        assert unsuppressed(findings) == []


# -- DET001 ----------------------------------------------------------------------


class TestDET001:
    def test_wall_clock_and_entropy_calls_are_flagged(self):
        findings = lint_source(
            snippet(
                """
                import datetime
                import os
                import time
                import uuid
                a = time.time()
                b = datetime.datetime.now()
                c = os.urandom(8)
                d = uuid.uuid4()
                """
            ),
            "src/repro/x.py",
        )
        assert rule_ids(findings) == ["DET001"] * 4
        assert [f.line for f in findings] == [5, 6, 7, 8]

    def test_monotonic_and_perf_counter_are_clean(self):
        findings = lint_source(
            snippet(
                """
                import time
                a = time.monotonic()
                b = time.perf_counter()
                time.sleep(0.01)
                """
            ),
            "src/repro/x.py",
        )
        assert unsuppressed(findings) == []

    def test_smuggling_from_import_is_flagged(self):
        findings = lint_source(
            "from time import time\n", "src/repro/x.py"
        )
        assert rule_ids(findings) == ["DET001"]

    def test_inline_pragma_suppresses_with_reason(self):
        findings = lint_source(
            snippet(
                """
                import time
                stamp = time.time()  # repro-lint: allow[DET001] provenance stamp
                """
            ),
            "src/repro/x.py",
        )
        assert unsuppressed(findings) == []
        suppressed = the_finding(findings, "DET001")
        assert suppressed.suppressed
        assert suppressed.suppression_reason == "provenance stamp"
        assert suppressed.line == 2


# -- HOT001 ----------------------------------------------------------------------

HOT_LOOP = snippet(
    """
    def fold(matrix, trials):
        total = 0.0
        for t in range(trials):
            total += matrix[t].sum()
        return total
    """
)


class TestHOT001:
    def test_trial_loop_in_hot_module_is_flagged(self):
        findings = lint_source(HOT_LOOP, "src/repro/detection/fold.py")
        assert rule_ids(findings) == ["HOT001"]
        assert the_finding(findings, "HOT001").line == 3

    def test_same_loop_outside_hot_modules_is_clean(self):
        assert lint_source(HOT_LOOP, "src/repro/experiments/fold.py") == []

    def test_soc_chip_and_cpu_are_hot(self):
        for path in ("src/repro/soc/chip.py", "src/repro/soc/cpu.py"):
            assert rule_ids(lint_source(HOT_LOOP, path)) == ["HOT001"]

    def test_closed_form_watermark_modules_are_hot(self):
        for module in ("architectures", "clock_modulation", "lfsr", "load_circuit", "wgc"):
            path = f"src/repro/core/{module}.py"
            assert rule_ids(lint_source(HOT_LOOP, path)) == ["HOT001"], path
        assert lint_source(HOT_LOOP, "src/repro/core/spec.py") == []

    def test_while_loop_over_cycles_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                def run(num_cycles):
                    cycle = 0
                    while cycle < num_cycles:
                        cycle += 1
                """
            ),
            "src/repro/power/sim.py",
        )
        assert rule_ids(findings) == ["HOT001"]
        assert the_finding(findings, "HOT001").line == 3

    def test_comprehension_over_trials_is_flagged(self):
        findings = lint_source(
            "def f(trials):\n    return [t * t for t in range(trials)]\n",
            "src/repro/detection/x.py",
        )
        assert rule_ids(findings) == ["HOT001"]

    def test_standalone_pragma_suppresses_next_line(self):
        findings = lint_source(
            snippet(
                """
                def fold(matrix, trials):
                    total = 0.0
                    # repro-lint: allow[HOT001] golden reference path
                    for t in range(trials):
                        total += matrix[t].sum()
                    return total
                """
            ),
            "src/repro/detection/fold.py",
        )
        assert unsuppressed(findings) == []
        assert the_finding(findings, "HOT001").suppression_reason == (
            "golden reference path"
        )

    def test_loops_over_other_ranges_are_clean(self):
        findings = lint_source(
            "def f(items):\n    return [x + 1 for x in items]\n",
            "src/repro/detection/x.py",
        )
        assert findings == []


# -- CACHE001 --------------------------------------------------------------------


class TestCACHE001:
    def test_unfrozen_compute_function_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                def serve(cache, key):
                    def build():
                        return make_array()
                    return cache.get_or_compute(key, build)
                """
            ),
            "src/repro/soc/windows.py",
        )
        assert rule_ids(findings) == ["CACHE001"]
        assert the_finding(findings, "CACHE001").line == 4

    def test_freezing_compute_function_is_clean(self):
        findings = lint_source(
            snippet(
                """
                def serve(cache, key):
                    def build():
                        array = make_array()
                        array.flags.writeable = False
                        return array
                    return cache.get_or_compute(key, build)
                """
            ),
            "src/repro/soc/windows.py",
        )
        assert findings == []

    def test_lambda_delegating_to_freezer_is_clean(self):
        findings = lint_source(
            snippet(
                """
                def frozen_copy(array):
                    out = array.copy()
                    out.setflags(write=False)
                    return out

                def serve(cache, key, simulate):
                    return cache.get_or_compute(key, lambda: frozen_copy(simulate()))
                """
            ),
            "src/repro/soc/windows.py",
        )
        assert findings == []

    def test_transitive_freeze_through_local_helper_is_clean(self):
        findings = lint_source(
            snippet(
                """
                def freeze(array):
                    array.flags.writeable = False
                    return array

                def build():
                    return freeze(make_array())

                def serve(cache, key):
                    return cache.get_or_compute(key, build)
                """
            ),
            "src/repro/soc/windows.py",
        )
        assert findings == []

    def test_unresolvable_compute_is_flagged_and_pragma_escapes(self):
        source = snippet(
            """
            def serve(cache, key, builder):
                return cache.get_or_compute(key, builder.make)
            """
        )
        findings = lint_source(source, "src/repro/soc/windows.py")
        assert rule_ids(findings) == ["CACHE001"]
        pragma = source.replace(
            "    return cache.get_or_compute",
            "    # repro-lint: allow[CACHE001] serves objects, not arrays\n"
            "    return cache.get_or_compute",
        )
        assert unsuppressed(lint_source(pragma, "src/repro/soc/windows.py")) == []

    def test_rethawing_an_array_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                def thaw(array):
                    array.flags.writeable = True
                    return array

                def thaw2(array):
                    array.setflags(write=True)
                    return array
                """
            ),
            "src/repro/soc/windows.py",
        )
        assert rule_ids(findings) == ["CACHE001", "CACHE001"]
        assert sorted(f.line for f in findings) == [2, 6]


# -- EXC001 ----------------------------------------------------------------------


class TestEXC001:
    def test_bare_except_in_pipeline_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except:
                        pass
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert rule_ids(findings) == ["EXC001"]
        assert the_finding(findings, "EXC001").line == 4

    def test_except_base_exception_is_always_flagged(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except BaseException:
                        raise
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert rule_ids(findings) == ["EXC001"]

    def test_broad_except_exception_without_reraise_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except Exception:
                        log()
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert rule_ids(findings) == ["EXC001"]
        assert the_finding(findings, "EXC001").line == 4

    def test_broad_except_with_bare_reraise_is_clean(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except Exception:
                        log()
                        raise
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert findings == []

    def test_sibling_control_flow_handler_exempts_broad_catch(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except (faults.CellTimeout, faults.SweepInterrupted):
                        raise
                    except Exception:
                        record()
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert findings == []

    def test_narrow_catches_are_clean(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except (KeyError, ValueError):
                        record()
                """
            ),
            "src/repro/pipeline/x.py",
        )
        assert findings == []

    def test_rule_is_scoped_to_pipeline(self):
        findings = lint_source(
            snippet(
                """
                def f():
                    try:
                        work()
                    except Exception:
                        pass
                """
            ),
            "src/repro/experiments/x.py",
        )
        assert findings == []

    def test_service_request_handlers_are_in_scope(self):
        source = snippet(
            """
            def handle():
                try:
                    dispatch()
                except Exception:
                    respond_500()
            """
        )
        findings = lint_source(source, "src/repro/service/server.py")
        assert rule_ids(findings) == ["EXC001"]
        # The sanctioned handler shape: supervision control flow is
        # re-raised by an explicit sibling before the broad catch.
        safe = snippet(
            """
            def handle():
                try:
                    dispatch()
                except (CellTimeout, SweepInterrupted):
                    raise
                except Exception:
                    respond_500()
            """
        )
        assert lint_source(safe, "src/repro/service/server.py") == []


# -- SCHEMA001 -------------------------------------------------------------------

SPEC_MANIFEST = {
    "spec_schema_version": 1,
    "ScenarioSpec": ["kind", "name", "seed"],
}

SPEC_SOURCE = snippet(
    """
    SPEC_SCHEMA_VERSION = 1

    @dataclass(frozen=True)
    class ScenarioSpec:
        kind: str
        name: str = ""
        seed: int = 0
    """
)


class TestSCHEMA001:
    def rule(self, manifest):
        return [SchemaManifestRule(manifest=manifest)]

    def test_matching_fields_and_version_are_clean(self):
        findings = lint_source(
            SPEC_SOURCE, "src/repro/core/spec.py", rules=self.rule(SPEC_MANIFEST)
        )
        assert findings == []

    def test_field_drift_without_bump_is_flagged(self):
        drifted = SPEC_SOURCE.replace("    seed: int = 0", "    seed: int = 0\n    extra: int = 1")
        findings = lint_source(
            drifted, "src/repro/core/spec.py", rules=self.rule(SPEC_MANIFEST)
        )
        finding = the_finding(findings, "SCHEMA001")
        assert "ScenarioSpec" in finding.message
        assert "extra" in finding.message
        assert "SPEC_SCHEMA_VERSION" in finding.message
        assert finding.line == 4  # the class statement

    def test_version_mismatch_with_manifest_is_flagged(self):
        findings = lint_source(
            SPEC_SOURCE.replace(
                "SPEC_SCHEMA_VERSION = 1", "SPEC_SCHEMA_VERSION = 2"
            ),
            "src/repro/core/spec.py",
            rules=self.rule(SPEC_MANIFEST),
        )
        finding = the_finding(findings, "SCHEMA001")
        assert finding.line == 1

    def test_rule_is_scoped_to_schema_modules(self):
        findings = lint_source(
            SPEC_SOURCE, "src/repro/core/other.py", rules=self.rule(SPEC_MANIFEST)
        )
        assert findings == []

    def test_shipped_manifest_matches_the_real_dataclasses(self):
        from repro.core.spec import SPEC_SCHEMA_VERSION, ScenarioSpec
        from repro.pipeline.artifacts import (
            ARTIFACT_SCHEMA_VERSION,
            Provenance,
            ScenarioResult,
        )

        manifest = json.loads(schema_manifest_path().read_text())
        assert manifest["spec_schema_version"] == SPEC_SCHEMA_VERSION
        assert manifest["artifact_schema_version"] == ARTIFACT_SCHEMA_VERSION
        for cls in (ScenarioSpec, ScenarioResult, Provenance):
            names = [f.name for f in dataclasses.fields(cls)]
            assert manifest[cls.__name__] == names, cls.__name__

    def test_shipped_spec_and_artifacts_modules_pass(self):
        for module in ("core/spec.py", "pipeline/artifacts.py"):
            path = SRC / "repro" / module
            findings = lint_source(
                path.read_text(),
                str(path),
                rules=[SchemaManifestRule()],
            )
            assert unsuppressed(findings) == [], module


# -- FROZEN001 -------------------------------------------------------------------


class TestFROZEN001:
    def test_unfrozen_dataclass_is_flagged(self):
        findings = lint_source(
            snippet(
                """
                @dataclass
                class MeasurementConfig:
                    trials: int = 16
                """
            ),
            "src/repro/core/config.py",
        )
        finding = the_finding(findings, "FROZEN001")
        assert finding.line == 2
        assert "MeasurementConfig" in finding.message

    def test_mutable_defaults_are_flagged(self):
        findings = lint_source(
            snippet(
                """
                @dataclass(frozen=True)
                class DetectionConfig:
                    taps: list = []
                    weights: dict = {}
                    template: np.ndarray = np.zeros(4)
                """
            ),
            "src/repro/core/config.py",
        )
        assert rule_ids(findings) == ["FROZEN001"] * 3
        assert [f.line for f in findings] == [3, 4, 5]

    def test_frozen_with_default_factory_is_clean(self):
        findings = lint_source(
            snippet(
                """
                @dataclass(frozen=True)
                class DetectionConfig:
                    trials: int = 16
                    taps: Tuple[int, ...] = (3, 1)
                    weights: Dict[str, float] = field(default_factory=dict)
                """
            ),
            "src/repro/core/config.py",
        )
        assert findings == []

    def test_rule_is_scoped_to_config_modules(self):
        findings = lint_source(
            "@dataclass\nclass Loose:\n    x: int = 0\n",
            "src/repro/pipeline/x.py",
        )
        assert findings == []


# -- LINT001 (pragma meta-rule) --------------------------------------------------


class TestLINT001:
    def test_reasonless_pragma_is_a_finding_and_does_not_suppress(self):
        findings = lint_source(
            snippet(
                """
                import time
                stamp = time.time()  # repro-lint: allow[DET001]
                """
            ),
            "src/repro/x.py",
        )
        ids = sorted(rule_ids(findings))
        assert ids == ["DET001", "LINT001"]

    def test_unknown_rule_id_is_a_finding(self):
        findings = lint_source(
            "x = 1  # repro-lint: allow[NOPE-99] because\n",
            "src/repro/x.py",
        )
        assert rule_ids(findings) == [META_RULE_ID]

    def test_malformed_pragma_is_a_finding(self):
        findings = lint_source(
            "x = 1  # repro-lint: silence everything\n",
            "src/repro/x.py",
        )
        assert rule_ids(findings) == [META_RULE_ID]

    def test_lint001_itself_cannot_be_suppressed(self):
        findings = lint_source(
            "x = 1  # repro-lint: allow[LINT001] nice try\n",
            "src/repro/x.py",
        )
        assert rule_ids(findings) == [META_RULE_ID]

    def test_unparseable_file_is_a_finding(self):
        findings = lint_source("def broken(:\n", "src/repro/x.py")
        assert rule_ids(findings) == [META_RULE_ID]
        assert "does not parse" in findings[0].message


# -- reporters & CLI -------------------------------------------------------------


class TestReporting:
    def test_text_report_format(self):
        findings = lint_source("import time\nt = time.time()\n", "src/repro/x.py")
        text = render_text(findings, files_checked=1)
        assert "src/repro/x.py:2: DET001" in text
        assert "1 violation(s), 0 suppressed across 1 file(s)" in text

    def test_json_report_shape(self):
        findings = lint_source("import time\nt = time.time()\n", "src/repro/x.py")
        payload = json.loads(render_json(findings, files_checked=1))
        assert payload["tool"] == "repro-lint"
        assert payload["summary"] == {
            "files": 1, "violations": 1, "suppressed": 0,
        }
        (entry,) = payload["findings"]
        assert entry["rule"] == "DET001"
        assert entry["line"] == 2
        assert entry["suppressed"] is False

    def test_cli_flags_violations_with_exit_1(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(bad)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_cli_clean_file_exits_0_json(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good), "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["violations"] == 0

    def test_cli_usage_errors_exit_2(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        assert main([]) == 2
        assert main([str(tmp_path / "missing.py")]) == 2
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good), "--rules", "BOGUS"]) == 2

    def test_cli_rule_selection_and_listing(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(bad), "--rules", "RNG001"]) == 0
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out


# -- the self-check: the shipped tree is clean -----------------------------------


class TestSrcTreeSelfCheck:
    @staticmethod
    def _gated_findings():
        """The tree's findings as the CI gate sees them: baseline applied."""
        from repro.analysis.baseline import apply_baseline, default_baseline_path
        from repro.analysis.engine import iter_python_files

        findings, files_checked = lint_paths([str(SRC)])
        linted = [str(path) for path in iter_python_files([str(SRC)])]
        findings = apply_baseline(
            findings, default_baseline_path(), linted_paths=linted
        )
        return findings, files_checked

    def test_src_has_zero_unsuppressed_violations(self):
        findings, files_checked = self._gated_findings()
        assert files_checked > 50  # the whole tree, not a subset
        problems = unsuppressed(findings)
        assert problems == [], render_text(findings, files_checked)

    def test_src_is_clean_from_any_working_directory(self, tmp_path, monkeypatch, capsys):
        # Baseline entries are repo-relative and anchored at the checkout,
        # not the cwd: linting src/ by absolute path from elsewhere gates
        # exactly as from the repo root.
        from repro.analysis.__main__ import main

        monkeypatch.chdir(tmp_path)
        exit_code = main([str(SRC), "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["violations"] == 0, report["summary"]
        assert exit_code == 0

    def test_every_suppression_carries_a_reason(self):
        findings, _ = self._gated_findings()
        suppressed = [f for f in findings if f.suppressed]
        assert suppressed, "expected the documented pragma sites to exist"
        for finding in suppressed:
            assert finding.suppression_reason, finding

    def test_baseline_entries_are_all_justified_rng002(self):
        # The committed baseline exists to absorb the pinned seed-stream
        # findings, nothing else: every entry is RNG002 with a reason.
        from repro.analysis.baseline import default_baseline_path, load_baseline

        entries, problems = load_baseline(default_baseline_path())
        assert problems == []
        assert entries, "expected the committed RNG002 baseline"
        for entry in entries:
            assert entry["rule"] == "RNG002"
            assert str(entry["justification"]).strip()

    def test_src_concurrency_rules_are_live_on_the_tree(self):
        # Without the baseline the pinned RNG002 collisions must surface:
        # proof the project pass actually runs over src/, not a no-op.
        findings, _ = lint_paths([str(SRC)])
        assert "RNG002" in {f.rule_id for f in unsuppressed(findings)}

    def test_rule_inventory_is_complete(self):
        assert sorted(RULE_INDEX) == [
            "CACHE001",
            "CONC001",
            "CONC002",
            "CONC003",
            "DEAD001",
            "DET001",
            "EXC001",
            "FROZEN001",
            "HOT001",
            "RNG001",
            "RNG002",
            "SCHEMA001",
        ]
        for rule in ALL_RULES:
            assert rule.title and rule.rationale


# -- satellite fixes -------------------------------------------------------------


class TestSatelliteFixes:
    def test_provenance_clock_is_the_single_patch_point(self, monkeypatch):
        from repro.pipeline import artifacts

        monkeypatch.setattr(
            artifacts, "provenance_clock", lambda: "2026-01-01T00:00:00+00:00"
        )
        prov = artifacts.Provenance(spec_hash="abc")
        assert prov.created_at == "2026-01-01T00:00:00+00:00"

    def test_provenance_clock_returns_utc_iso8601(self):
        from repro.pipeline.artifacts import provenance_clock

        stamp = provenance_clock()
        assert stamp.endswith("+00:00")

    def test_periodic_template_is_served_read_only(self):
        from repro.power.synthesis import PeriodicPowerTemplate
        from repro.rtl.signals import Clock

        template = PeriodicPowerTemplate(
            name="t", clock=Clock(name="clk", frequency_hz=1e6), power_w=np.ones(8)
        )
        assert not template.power_w.flags.writeable
        with pytest.raises(ValueError):
            template.power_w[0] = 2.0

    def test_freezing_does_not_alias_the_caller_array(self):
        from repro.power.synthesis import PeriodicPowerTemplate
        from repro.rtl.signals import Clock

        mine = np.ones(8)
        PeriodicPowerTemplate(
            name="t", clock=Clock(name="clk", frequency_hz=1e6), power_w=mine
        )
        assert mine.flags.writeable  # the template froze its own copy
        mine[0] = 5.0  # and my array still works

    def test_store_rebuild_errors_exclude_exception(self):
        from repro.pipeline.store import _REBUILD_ERRORS

        assert Exception not in _REBUILD_ERRORS
        assert BaseException not in _REBUILD_ERRORS
        assert ValueError in _REBUILD_ERRORS


# -- mypy (CI installs it; the container image does not ship it) -----------------


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed in this environment (CI installs it)",
)
def test_mypy_passes_on_the_typed_core():
    from mypy import api

    stdout, stderr, status = api.run(
        ["--config-file", str(REPO_ROOT / "mypy.ini")]
    )
    assert status == 0, f"mypy failed:\n{stdout}\n{stderr}"
