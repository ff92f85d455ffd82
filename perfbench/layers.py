"""Which public calls of the program the traced run wraps, layer by layer.

:func:`install` wraps every call below with one :class:`tracing.Tracer`;
the span names are the per-layer metric prefixes listed in
``BENCHMARK.json``.  Only public functions and methods are wrapped, so a
change inside a layer shows up in that layer's span without touching the
benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from tracing import Tracer, counter_delta, hit_ratio, self_times


def _spec_hash(pipeline: Any, *args: Any, **kwargs: Any) -> str:
    return pipeline.spec.spec_hash()


def _service_request_id(service: Any, payload: Any, *args: Any, **kwargs: Any) -> Any:
    if isinstance(payload, dict):
        return [payload.get("client_id"), payload.get("nonce")]
    return None


def _trials(result: Any, *args: Any, **kwargs: Any) -> Optional[int]:
    return int(len(result.detected)) if result is not None else None


def _store_hit(result: Any, *args: Any, **kwargs: Any) -> int:
    return int(result is not None)


def _bytes_written(path: Any, *args: Any, **kwargs: Any) -> Optional[int]:
    if path is None:
        return None
    npz = path.with_suffix(".npz")
    return path.stat().st_size + (npz.stat().st_size if npz.is_file() else 0)


def install(tracer: Tracer) -> None:
    """Wrap the compute, pipeline and service layers' public calls."""
    from repro.core.architectures import WatermarkArchitecture
    from repro.detection.batch import BatchCPADetector
    from repro.detection.cpa import CPADetector
    from repro.measurement.acquisition import AcquisitionCampaign
    from repro.pipeline import artifacts, runner, store
    from repro.power.synthesis import TraceSynthesizer
    from repro.service import ledger, protocol, server, transcripts
    from repro.soc import chip, registry

    tracer.wrap_method(WatermarkArchitecture, "periodic_activity", "core.periodic_activity")
    tracer.wrap_method(chip.ChipModel, "m0_activity", "soc.m0_window")
    tracer.wrap_method(chip.ChipModel, "background_power", "soc.background_power")
    tracer.wrap_function(registry, "build_registered_chip", "soc.chip_build")
    tracer.wrap_method(AcquisitionCampaign, "measure_chip", "measurement.measure_chip")
    tracer.wrap_method(
        AcquisitionCampaign, "measure_chip_many", "measurement.measure_chip_many"
    )
    tracer.wrap_method(TraceSynthesizer, "synthesize_trials", "power.synthesize_trials")
    tracer.wrap_method(CPADetector, "detect", "detection.detect")
    tracer.wrap_method(BatchCPADetector, "detect_many", "detection.detect_many", value=_trials)
    tracer.wrap_method(runner.ExperimentRunner, "run", "pipeline.run")
    tracer.wrap_method(runner.Pipeline, "execute", "pipeline.execute", request_id=_spec_hash)
    tracer.wrap_method(store.ResultStore, "get", "pipeline.store_get", value=_store_hit)
    tracer.wrap_method(store.ResultStore, "put", "pipeline.store_put", value=_bytes_written)
    tracer.wrap_method(artifacts.ScenarioResult, "to_wire", "pipeline.to_wire")
    tracer.wrap_function(protocol, "validate_request", "service.validate")
    tracer.wrap_function(protocol, "check_ticket", "service.ticket_check")
    tracer.wrap_method(server.DetectionService, "resolve_spec", "service.resolve_spec")
    tracer.wrap_method(
        server.DetectionService, "handle_verify", "service.verify",
        request_id=_service_request_id,
    )
    tracer.wrap_method(
        server.DetectionService, "handle_issue", "service.issue",
        request_id=_service_request_id,
    )
    tracer.wrap_function(transcripts, "build_verify_transcript", "service.transcript")
    tracer.wrap_function(transcripts, "build_issue_transcript", "service.transcript")
    tracer.wrap_function(transcripts, "sign_transcript", "service.transcript")
    tracer.wrap_method(ledger.Ledger, "append", "service.ledger_append")


def cache_counters(experiment_runner: Any = None) -> Dict[str, Dict[str, int]]:
    """Snapshot of every cache counter the public stats functions expose."""
    from repro.soc.chip import background_template_cache_stats
    from repro.soc.cpu import m0_window_cache_stats

    counters = {
        "soc.m0_window_cache": m0_window_cache_stats(),
        "soc.background_template_cache": background_template_cache_stats(),
    }
    if experiment_runner is not None:
        counters["pipeline.chip_cache"] = experiment_runner.chip_cache_stats()
    return counters


#: Seconds -> a self-time metric's unit.
_SELF_TIME_UNIT = {"s": 1.0, "ms": 1000.0}


def span_metrics(spans: List[Dict[str, Any]], units: int,
                 names: Iterable[str]) -> Dict[str, float]:
    """Per-unit call counts, self times, trials, store hit ratio and bytes.

    ``names`` are the per-layer metric names of ``BENCHMARK.json``; every
    ``<span>.calls``, ``<span>.self_s`` and ``<span>.self_ms`` among them is
    filled in (0 for a span that never ran).  Counts and times are per unit
    of work: one interpreter (cold-start), one grid (sweep-grid) or one
    request (verify-mix).
    """
    table = self_times(spans)
    units = max(1, units)
    metrics: Dict[str, float] = {}
    for name in names:
        prefix, _, field = name.rpartition(".")
        row = table.get(prefix)
        if field == "calls":
            metrics[name] = row["calls"] / units if row else 0.0
        elif field in ("self_s", "self_ms"):
            scale = _SELF_TIME_UNIT[field[len("self_"):]]
            metrics[name] = row["self_s"] * scale / units if row else 0.0
    many = table.get("detection.detect_many")
    metrics["detection.detect_many.trials"] = many["value"] / units if many else 0.0
    gets = table.get("pipeline.store_get")
    metrics["pipeline.store.hit_ratio"] = gets["value"] / gets["calls"] if gets else 0.0
    puts = table.get("pipeline.store_put")
    metrics["pipeline.store.bytes_written"] = puts["value"] / units if puts else 0.0
    return metrics


def counter_metrics(deltas: Dict[str, Dict[str, int]], units: int) -> Dict[str, float]:
    """Hit ratios and per-unit evictions from summed cache-counter deltas."""
    metrics = {
        f"{cache}.hit_ratio": hit_ratio(delta) for cache, delta in deltas.items()
    }
    background = deltas.get("soc.background_template_cache", {})
    metrics["soc.background_template_cache.evictions"] = (
        background.get("evictions", 0) / max(1, units)
    )
    return metrics


def add_deltas(total: Dict[str, Dict[str, int]], before: Dict[str, Dict[str, int]],
               after: Dict[str, Dict[str, int]]) -> None:
    """Accumulate ``after - before`` of every cache into ``total``."""
    for cache, counters in after.items():
        delta = counter_delta(before.get(cache, {}), counters)
        into = total.setdefault(cache, {"hits": 0, "misses": 0, "evictions": 0})
        for key, value in delta.items():
            into[key] += value
