"""Benchmark: warm (cache-hit) ``/verify`` vs cold end-to-end latency.

Acceptance pin for the serving layer: a ``/verify`` of a scenario already
in the service's result store -- full HTTP round trip, PoW ticket check,
transcript signing, ledger append included -- must beat the cold request
(same scenario, store empty, module-level simulation caches dropped) by
at least 10x.  The warm path trades the whole pipeline execution for a
store read, so the remaining cost is protocol overhead; if the speedup
collapses, the serving layer started recomputing or the store lookup
regressed.  The cold request starts from empty M0-window, background-
template and sequence caches so it executes the whole pipeline no matter
which tests ran earlier in the same process.

Both requests run over a real localhost server through the stdlib
client, exactly like production traffic.
"""

import json
import os
import threading
import time

from record import record_benchmark

from repro.core.lfsr import clear_sequence_cache
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, build_server
from repro.soc.chip import clear_background_template_cache
from repro.soc.cpu import clear_m0_window_cache

SCENARIO = "fig5/chip1-active"
OVERRIDES = {"quick": True}
DIFFICULTY = 8
MIN_SPEEDUP = 10.0

RELAXED = os.environ.get("REPRO_BENCH_RELAXED") == "1"


def test_bench_warm_verify_beats_cold(tmp_path, report):
    config = ServiceConfig(
        port=0, data_dir=tmp_path / "service-data", difficulty=DIFFICULTY
    )
    server = build_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(
            server.url, client_id="bench@local", difficulty=DIFFICULTY
        )

        clear_m0_window_cache()
        clear_background_template_cache()
        clear_sequence_cache()
        start = time.perf_counter()
        cold = client.verify(scenario=SCENARIO, overrides=OVERRIDES)
        cold_s = time.perf_counter() - start
        assert cold["ok"] and cold["cache_hit"] is False

        start = time.perf_counter()
        warm = client.verify(scenario=SCENARIO, overrides=OVERRIDES)
        warm_s = time.perf_counter() - start
        assert warm["ok"] and warm["cache_hit"] is True

        # The warm response is the same signed detection, byte for byte.
        assert warm["signature"] == cold["signature"]
        assert json.dumps(warm["transcript"], sort_keys=True) == json.dumps(
            cold["transcript"], sort_keys=True
        )
        stats = server.service.store.stats()
        assert stats.writes == 1, "the warm request must recompute nothing"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    lines = [
        f"scenario: {SCENARIO} (quick), difficulty {DIFFICULTY} bits",
        f"cold /verify (store empty): {cold_s:.3f} s (pipeline executed)",
        f"warm /verify (store hit):   {warm_s * 1e3:.1f} ms (zero recompute)",
        f"speedup: {speedup:.1f}x (floor {MIN_SPEEDUP}x, relaxed={RELAXED})",
    ]
    report("Detection service: warm vs cold /verify", "\n".join(lines))
    record_benchmark(
        "service_verify",
        {
            "scenario": SCENARIO,
            "difficulty_bits": DIFFICULTY,
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup": round(speedup, 1),
            "transcripts_identical": True,
            "relaxed": RELAXED,
        },
    )

    if not RELAXED:
        assert speedup >= MIN_SPEEDUP, (
            f"warm /verify ({warm_s:.4f} s) should beat the cold request "
            f"({cold_s:.3f} s) by at least {MIN_SPEEDUP}x, got {speedup:.1f}x"
        )
