"""The detection HTTP server: stdlib ``http.server``, no framework.

Four routes:

========== ====== ==========================================================
``/verify``  POST  execute (or cache-serve) a detection scenario; returns a
                   signed transcript, the wire-form result and a ledger anchor
``/issue``   POST  embed a watermark config; returns the full config to the
                   requester and logs only a salted seed commitment (201)
``/healthz`` GET   liveness + protocol/difficulty discovery
``/metrics`` GET   request counts, cache-hit rate, latency percentiles
========== ====== ==========================================================

Requests are JSON bodies gated three ways before any compute happens:
schema validation, a per-client token bucket, and the hashcash PoW ticket
(see :mod:`repro.service.protocol`).  ``/verify`` is memoized through the
content-addressed :class:`repro.pipeline.store.ResultStore`: concurrent
identical requests coalesce on a per-``spec_hash`` in-flight lock, the
first computes, the rest are served from the store -- byte-identical
transcripts, zero recompute.  Execution itself is serialized under one
compute lock because :class:`repro.pipeline.runner.ExperimentRunner`
shares mutable chip caches across scenarios.

:class:`ServiceServer` is a :class:`~http.server.ThreadingHTTPServer`
whose concurrency is bounded by a ``--workers`` semaphore; handler
threads are daemons, so ``shutdown()`` never hangs on a stuck client.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import logging
import math
import pathlib
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union

from repro.caching import LRUCache
from repro.core.spec import ScenarioSpec
from repro.pipeline.artifacts import ScenarioResult, current_commit
from repro.pipeline.faults import CellTimeout, SweepInterrupted
from repro.pipeline.registry import DEFAULT_REGISTRY, RunOptions
from repro.pipeline.runner import ExperimentRunner
from repro.pipeline.store import ResultStore
from repro.service.ledger import Ledger
from repro.service.protocol import (
    ISSUE_ENDPOINT,
    PROTOCOL_VERSION,
    VERIFY_ENDPOINT,
    ServiceError,
    TokenBucket,
    check_ticket,
    schema_versions,
    validate_request,
)
from repro.service.transcripts import (
    build_issue_transcript,
    build_verify_transcript,
    redacted_watermark,
    seed_commitment,
    server_key,
    server_salt,
    sign_transcript,
    transcript_digest,
)

__all__ = [
    "DetectionService",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceServer",
    "build_server",
]

logger = logging.getLogger(__name__)

#: Routes answering GET (anything else on them is 405, not 404).
_GET_ROUTES = ("/healthz", "/metrics")

#: Bound on the per-spec-hash coalescing lock table.  Far above the
#: worker-slot count, so concurrent distinct specs never contend for
#: table space; far below "one lock per spec ever seen".
_INFLIGHT_LOCKS = 256
_POST_ROUTES = (VERIFY_ENDPOINT, ISSUE_ENDPOINT)

#: Most bytes of a rejected oversized body read and dropped before the
#: connection closes.  Draining lets the client finish sending and read
#: the 413; a client still sending past this bound gets a reset instead.
_MAX_DISCARD_BYTES = 32 * 1_048_576
_DISCARD_CHUNK_BYTES = 65_536


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Everything the service needs to start, in one frozen record.

    ``port=0`` binds an ephemeral port (tests read it back off the bound
    server).  ``store_dir``/``ledger_path`` default to living under
    ``data_dir`` next to the server key and commitment salt, so one
    ``--data-dir`` flag relocates the whole service state.
    ``difficulty <= 0`` disables the PoW gate (useful for local demos).
    """

    host: str = "127.0.0.1"
    port: int = 0
    data_dir: Union[str, pathlib.Path] = "service-data"
    store_dir: Optional[Union[str, pathlib.Path]] = None
    ledger_path: Optional[Union[str, pathlib.Path]] = None
    difficulty: int = 12
    workers: int = 4
    max_body_bytes: int = 1_048_576
    rate_capacity: float = 30.0
    rate_refill_per_s: float = 10.0
    request_timeout_s: float = 60.0

    def resolved_data_dir(self) -> pathlib.Path:
        return pathlib.Path(self.data_dir)

    def resolved_store_dir(self) -> pathlib.Path:
        if self.store_dir is not None:
            return pathlib.Path(self.store_dir)
        return self.resolved_data_dir() / "store"

    def resolved_ledger_path(self) -> pathlib.Path:
        if self.ledger_path is not None:
            return pathlib.Path(self.ledger_path)
        return self.resolved_data_dir() / "ledger.jsonl"


def _percentile(sorted_values: "list[float]", q: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    rank = max(1, min(len(sorted_values), math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


class ServiceMetrics:
    """Thread-safe request/cache/latency counters behind ``/metrics``.

    Latencies are kept as a bounded *sorted* sample (insertion via
    ``bisect``), so percentile reads are O(1) and memory stays flat on a
    long-lived server.
    """

    def __init__(self, max_samples: int = 4096) -> None:
        self._lock = threading.Lock()
        self._max_samples = max_samples
        self._by_endpoint: Dict[str, int] = {}
        self._errors = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._latencies_ms: "list[float]" = []
        self._latency_count = 0
        self._latency_max = 0.0

    def observe(self, endpoint: str, status: int, elapsed_ms: float) -> None:
        """Record one finished request."""
        with self._lock:
            self._by_endpoint[endpoint] = self._by_endpoint.get(endpoint, 0) + 1
            if status >= 400:
                self._errors += 1
            self._latency_count += 1
            self._latency_max = max(self._latency_max, elapsed_ms)
            bisect.insort(self._latencies_ms, elapsed_ms)
            if len(self._latencies_ms) > self._max_samples:
                # Drop the middle element: keeps both tails, which is what
                # the percentile readout cares about.
                del self._latencies_ms[len(self._latencies_ms) // 2]

    def cache_event(self, hit: bool) -> None:
        """Record one ``/verify`` cache outcome."""
        with self._lock:
            if hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1

    def snapshot(self) -> Dict[str, Any]:
        """The JSON document ``/metrics`` serves."""
        with self._lock:
            total_cache = self._cache_hits + self._cache_misses
            latency: Dict[str, Any] = {"count": self._latency_count}
            if self._latencies_ms:
                latency.update(
                    p50=_percentile(self._latencies_ms, 0.50),
                    p90=_percentile(self._latencies_ms, 0.90),
                    p99=_percentile(self._latencies_ms, 0.99),
                    max=self._latency_max,
                )
            return {
                "requests": {
                    "total": sum(self._by_endpoint.values()),
                    "by_endpoint": dict(sorted(self._by_endpoint.items())),
                    "errors": self._errors,
                },
                "cache": {
                    "hits": self._cache_hits,
                    "misses": self._cache_misses,
                    "hit_rate": (
                        self._cache_hits / total_cache if total_cache else 0.0
                    ),
                },
                "latency_ms": latency,
            }


class DetectionService:
    """The transport-independent core: request dicts in, (status, body) out.

    Owns the runner, result store, ledger, signing key, commitment salt,
    rate buckets and metrics; the HTTP handler below is a thin shell
    around :meth:`handle_verify`/:meth:`handle_issue`.  Tests can drive
    this class directly without a socket.
    """

    def __init__(
        self, config: ServiceConfig, runner: Optional[ExperimentRunner] = None
    ) -> None:
        self.config = config
        self.runner = runner if runner is not None else ExperimentRunner()
        data_dir = config.resolved_data_dir()
        data_dir.mkdir(parents=True, exist_ok=True)
        self.store = ResultStore(config.resolved_store_dir())
        self.ledger = Ledger(config.resolved_ledger_path())
        self.metrics = ServiceMetrics()
        self._key = server_key(data_dir)
        self._salt = server_salt(data_dir)
        self._bucket = TokenBucket(config.rate_capacity, config.rate_refill_per_s)
        # Concurrent /verify of the same spec coalesce on a per-hash lock;
        # actual execution is additionally serialized because the runner's
        # chip caches are shared mutable state.  The lock table is a
        # bounded LRUCache, not a dict: a long-lived server sees millions
        # of distinct specs and must not grow a lock per hash forever.
        # Evicting a lock mid-wait is safe -- the loser of the split
        # computes redundantly and the store write stays first-wins.
        self._inflight: LRUCache = LRUCache(max_entries=_INFLIGHT_LOCKS)
        self._compute_lock = threading.Lock()

    @property
    def signing_key(self) -> bytes:
        """The transcript HMAC key (tests verify signatures offline)."""
        return self._key

    # -- spec resolution -------------------------------------------------------

    def resolve_spec(self, payload: Dict[str, Any]) -> ScenarioSpec:
        """The spec a validated request names, with overrides applied."""
        overrides = payload.get("overrides") or {}
        options = RunOptions(
            quick=bool(overrides.get("quick", False)),
            cycles=overrides.get("cycles"),
            repetitions=overrides.get("repetitions"),
            seed=overrides.get("seed"),
        )
        scenario = payload.get("scenario")
        if scenario is not None:
            if not DEFAULT_REGISTRY.has(scenario):
                raise ServiceError(
                    404,
                    "unknown_scenario",
                    f"unknown scenario {scenario!r}; registered: "
                    f"{', '.join(DEFAULT_REGISTRY.names())}",
                )
        else:
            try:
                spec = ScenarioSpec.from_json_dict(payload["spec"])
            except (KeyError, TypeError, ValueError) as error:
                raise ServiceError(
                    400, "bad_request", f"invalid spec document: {error}"
                ) from error
        try:
            if scenario is not None:
                spec = DEFAULT_REGISTRY.build(scenario, options)
            else:
                spec = options.apply_to(spec)
            if "chip" in overrides:
                spec = spec.with_chip(str(overrides["chip"]))
            if "noise_scale" in overrides:
                spec = spec.with_noise_scale(float(overrides["noise_scale"]))
            if "watermark_active" in overrides:
                spec = spec.with_overrides(
                    watermark_active=bool(overrides["watermark_active"])
                )
        except (TypeError, ValueError) as error:
            raise ServiceError(
                400, "bad_request", f"invalid override value: {error}"
            ) from error
        return spec

    # -- execution with store coalescing ---------------------------------------

    def _inflight_lock(self, key: str) -> threading.Lock:
        # repro-lint: allow[CACHE001] caches Lock objects, not arrays
        return self._inflight.get_or_compute(key, threading.Lock)

    def _execute(self, spec: ScenarioSpec) -> Tuple[ScenarioResult, bool]:
        """Run ``spec`` through the store; returns (result, cache_hit)."""
        label = spec.name or spec.kind
        key = spec.spec_hash()
        cached = self.store.get(spec)
        if cached is not None:
            self.metrics.cache_event(hit=True)
            logger.info("verify %s: store hit (%s)", label, key[:12])
            return cached, True
        with self._inflight_lock(key):
            cached = self.store.get(spec)
            if cached is not None:
                # A sibling request computed this cell while we waited.
                self.metrics.cache_event(hit=True)
                logger.info("verify %s: store hit after wait (%s)", label, key[:12])
                return cached, True
            start = time.perf_counter()
            with self._compute_lock:
                result = self.runner.run(spec, store=self.store, resume=True)
            self.metrics.cache_event(hit=False)
            logger.info(
                "verify %s: computed in %.3f s (%s)",
                label, time.perf_counter() - start, key[:12],
            )
            return result, False

    # -- endpoints -------------------------------------------------------------

    def handle_verify(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """POST ``/verify``: detection as a service."""
        payload = validate_request(payload, VERIFY_ENDPOINT)
        client_id = payload["client_id"]
        self._bucket.check(client_id)
        ticket = check_ticket(
            client_id, VERIFY_ENDPOINT, payload, self.config.difficulty
        )
        spec = self.resolve_spec(payload)
        result, cache_hit = self._execute(spec)
        if not result.ok:
            raise ServiceError(
                422,
                "scenario_failed",
                f"scenario {result.name!r} failed: {result.error}",
            )
        transcript = build_verify_transcript(result)
        signature = sign_transcript(transcript, self._key)
        anchor = self.ledger.append(
            {
                "type": "verify",
                "client_id": client_id,
                "scenario": result.name,
                "spec_hash": transcript["spec_hash"],
                "ticket": ticket,
                "cache_hit": cache_hit,
                "transcript_sha256": transcript_digest(transcript),
                "signature": signature,
            }
        )
        wire = result.to_wire()
        return 200, {
            "ok": True,
            "cache_hit": cache_hit,
            "transcript": transcript,
            "signature": signature,
            "ledger": anchor.to_json_dict(),
            "result_json": wire["json"],
            "schema_versions": schema_versions(),
        }

    def handle_issue(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """POST ``/issue``: embed a watermark, commit to its seed."""
        payload = validate_request(payload, ISSUE_ENDPOINT)
        client_id = payload["client_id"]
        self._bucket.check(client_id)
        ticket = check_ticket(
            client_id, ISSUE_ENDPOINT, payload, self.config.difficulty
        )
        spec = self.resolve_spec(payload)
        commitment = seed_commitment(spec.watermark.lfsr_seed, self._salt)
        transcript = build_issue_transcript(spec, commitment)
        signature = sign_transcript(transcript, self._key)
        anchor = self.ledger.append(
            {
                "type": "issue",
                "client_id": client_id,
                "scenario": transcript["scenario"],
                "spec_hash": transcript["spec_hash"],
                "ticket": ticket,
                "commitment": commitment,
                "watermark": redacted_watermark(spec),
                "transcript_sha256": transcript_digest(transcript),
                "signature": signature,
            }
        )
        # The full config (raw LFSR seed included) goes only to the
        # requester; the ledger and transcript carry the commitment.
        return 201, {
            "ok": True,
            "transcript": transcript,
            "signature": signature,
            "ledger": anchor.to_json_dict(),
            "watermark": spec.watermark.to_dict(),
            "commitment": commitment,
            "schema_versions": schema_versions(),
        }

    def handle_healthz(self) -> Tuple[int, Dict[str, Any]]:
        """GET ``/healthz``: liveness plus protocol discovery."""
        return 200, {
            "status": "ok",
            "protocol_version": PROTOCOL_VERSION,
            "difficulty": self.config.difficulty,
            "commit": current_commit(),
            "schema_versions": schema_versions(),
            "scenarios": DEFAULT_REGISTRY.names(),
            "ledger_records": self.ledger.count,
        }

    def handle_metrics(self) -> Tuple[int, Dict[str, Any]]:
        """GET ``/metrics``: counters, cache-hit rate, latency percentiles."""
        document = self.metrics.snapshot()
        document["store"] = dataclasses.asdict(self.store.stats())
        document["ledger"] = {
            "records": self.ledger.count,
            "tip_digest": self.ledger.tip_digest,
        }
        return 200, document


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP shell over :class:`DetectionService`."""

    server_version = "repro-detection/1"
    protocol_version = "HTTP/1.1"

    # Typed alias the routing code below relies on.
    server: "ServiceServer"

    def setup(self) -> None:
        self.timeout = self.server.service.config.request_timeout_s
        # Declared size of a body rejected unread (drained after the reply).
        self._rejected_body_bytes: Optional[int] = None
        super().setup()

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self._rejected_body_bytes is not None:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _discard_body(self) -> None:
        """Read and drop a rejected body, bounded in size and time.

        Closing a socket with unread input makes the kernel reset the
        connection, and a client still sending its body then fails with a
        broken pipe before it can read the 413.
        """
        remaining = min(self._rejected_body_bytes or 0, _MAX_DISCARD_BYTES)
        self._rejected_body_bytes = None
        deadline = time.perf_counter() + self.server.service.config.request_timeout_s
        try:
            while remaining > 0 and time.perf_counter() < deadline:
                chunk = self.rfile.read1(min(remaining, _DISCARD_CHUNK_BYTES))
                if not chunk:
                    break
                remaining -= len(chunk)
        except OSError:
            logger.debug("client went away while its rejected body was drained")

    def _read_body(self) -> bytes:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise ServiceError(411, "length_required", "Content-Length is required")
        try:
            length = int(length_header)
        except ValueError:
            raise ServiceError(
                400, "bad_request", "Content-Length must be an integer"
            ) from None
        limit = self.server.service.config.max_body_bytes
        if length < 0 or length > limit:
            self.close_connection = True
            self._rejected_body_bytes = max(length, 0)
            raise ServiceError(
                413,
                "payload_too_large",
                f"request body of {length} byte(s) exceeds the "
                f"{limit}-byte limit",
            )
        return self.rfile.read(length)

    def _dispatch(self, method: str) -> None:
        service = self.server.service
        path = self.path.split("?", 1)[0]
        start = time.perf_counter()
        try:
            status, body = self._route(service, method, path)
        except ServiceError as error:
            status, body = error.status, error.to_json_dict()
        except (CellTimeout, SweepInterrupted):
            # Supervision control flow is never swallowed into a 500.
            raise
        except Exception:
            logger.exception("unhandled error serving %s %s", method, path)
            status, body = 500, {
                "error": {
                    "code": "internal_error",
                    "message": "unhandled server error; see the server log",
                }
            }
        try:
            self._send_json(status, body)
        except (BrokenPipeError, ConnectionResetError):
            logger.debug("client went away before the response for %s", path)
        if self._rejected_body_bytes is not None:
            self._discard_body()
        service.metrics.observe(path, status, (time.perf_counter() - start) * 1e3)

    def _route(
        self, service: DetectionService, method: str, path: str
    ) -> Tuple[int, Dict[str, Any]]:
        if method == "GET":
            if path == "/healthz":
                return service.handle_healthz()
            if path == "/metrics":
                return service.handle_metrics()
            if path in _POST_ROUTES:
                raise ServiceError(405, "method_not_allowed", f"POST to {path}")
            raise ServiceError(404, "not_found", f"unknown route {path!r}")
        if path not in _POST_ROUTES:
            if path in _GET_ROUTES:
                raise ServiceError(405, "method_not_allowed", f"GET {path} instead")
            raise ServiceError(404, "not_found", f"unknown route {path!r}")
        raw = self._read_body()
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(
                400, "bad_request", f"request body is not valid JSON: {error}"
            ) from error
        if path == VERIFY_ENDPOINT:
            return service.handle_verify(payload)
        return service.handle_issue(payload)

    # -- verbs -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("POST")


class ServiceServer(ThreadingHTTPServer):
    """Threaded HTTP server with a bounded worker pool.

    ``ThreadingHTTPServer`` spawns one thread per connection; the
    semaphore caps how many run concurrently at ``config.workers`` --
    excess connections queue in the listen backlog instead of fork-bombing
    the host with compute-heavy ``/verify`` bodies.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        handler: type,
        service: DetectionService,
    ) -> None:
        super().__init__(address, handler)
        self.service = service
        self._worker_slots = threading.BoundedSemaphore(
            max(1, service.config.workers)
        )

    def process_request_thread(self, request: Any, client_address: Any) -> None:
        with self._worker_slots:
            super().process_request_thread(request, client_address)

    @property
    def url(self) -> str:
        """The base URL this server is bound to (ephemeral port resolved)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def build_server(
    config: ServiceConfig, runner: Optional[ExperimentRunner] = None
) -> ServiceServer:
    """Construct the service core and bind its HTTP server (not serving yet).

    Callers run ``server.serve_forever()`` (the CLI does) or drive it from
    a thread (tests do); ``server.url`` reports the bound address, which
    matters when ``config.port == 0`` picked an ephemeral port.
    """
    service = DetectionService(config, runner)
    return ServiceServer((config.host, config.port), _RequestHandler, service)
