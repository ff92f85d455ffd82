"""Workload ``verify-mix``: store-warm ``/verify`` reads beside two write paths.

The detection service runs in its own process (this file run as a script
with ``serve``), started with the shipped ``ServiceConfig`` defaults -- PoW
difficulty 12, 4 workers, the per-client token bucket -- and only its data
directory moved into the run's scratch directory.  Set-up stores the
popular set (the four Fig. 5 panels and both Fig. 6 chips, quick).

The load is an open loop of independent users: :data:`OFFERED_RPS`
requests per second, one at a uniform random time in each 1/OFFERED_RPS
slot (not Poisson: Poisson bunching let a seed-dependent ~20 of a run's
240 hits meet a miss in flight, right at the p90 rank), spread over
:data:`USERS` client ids so the rate limit is respected, sent through the
shipped ``ServiceClient`` by at most one thread per schedulable CPU.  Each
request is timed from when it was due.  The mix:

* ``hit``   -- ``/verify`` of a popular cell, served from the store;
* ``miss``  -- ``/verify`` of a Fig. 5 panel at a fresh seed (computed,
  written to the store);
* ``issue`` -- ``/issue`` of a Fig. 5 panel (a ledger write, no compute).

``BENCHMARK.json`` does not register this workload: on a shared 2-CPU host
its hit latencies vary between runs by more than the benchmark's bounds
allow (figures in rationale.json).  Run it by hand for service-layer claims.
"""

import argparse
import itertools
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

OFFERED_RPS = 10.0
#: Client ids.  40 users x 6 popular cells = 240 (user, cell) pairs, the
#: number of hits in a 30-second run.
USERS = 40
#: Share of each request type in the mix.
MIX = (("hit", 0.8), ("miss", 0.1), ("issue", 0.1))
#: Consecutive requests that hold the mix's shares exactly.
BLOCK = 10
#: A correct answer counts towards goodput only within this latency: three
#: times the type's p99 over five measured runs, rounded up to 50 ms (the
#: runs are recorded in rationale.json under ``goodput_latency_limits``).
LATENCY_LIMIT_MS = {"hit": 250.0, "miss": 350.0, "issue": 300.0}
POPULAR = (
    "fig5/chip1-active", "fig5/chip1-inactive", "fig5/chip2-active",
    "fig5/chip2-inactive", "fig6/chip1", "fig6/chip2",
)
PANELS = POPULAR[:4]
QUICK = {"quick": True}


# -- server side -------------------------------------------------------------


def serve_main(argv: List[str]) -> None:
    """Run the service until SIGTERM; SIGUSR1 turns tracing on."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import_start = time.monotonic()
    from repro.service.server import ServiceConfig, build_server

    import_s = time.monotonic() - import_start
    server = build_server(ServiceConfig(data_dir=args.data_dir))
    service = server.service
    report: Dict[str, Any] = {"import_s": import_s}

    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)

        def start_tracing(signum: int, frame: Any) -> None:
            report["counters_before"] = layers.cache_counters(service.runner)
            tracer.enabled = True

        signal.signal(signal.SIGUSR1, start_tracing)

    def request_shutdown(signum: int, frame: Any) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, request_shutdown)
    print(json.dumps({"url": server.url}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    from common import max_rss_mb

    report["rss_mb"] = max_rss_mb()
    if tracer is not None:
        tracer.enabled = False
        import layers

        report["counters_after"] = layers.cache_counters(service.runner)
        report["spans"] = tracer.take()
    pathlib.Path(args.report).write_text(json.dumps(report))


# -- load generator ------------------------------------------------------------


class _Server:
    """A service process with its data directory; stopped on every exit path."""

    def __init__(self, workdir: pathlib.Path, trace: bool) -> None:
        from common import start_child

        self.data_dir = workdir / "service"
        self.report_path = workdir / "server-report.json"
        args = [__file__, "serve", "--data-dir", str(self.data_dir),
                "--report", str(self.report_path)]
        if trace:
            args.append("--trace")
        self.process = start_child(args, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("service process exited before listening")
        self.url = json.loads(line)["url"]

    def stop(self) -> Dict[str, Any]:
        """SIGTERM, wait, and return the server's own report (if written)."""
        from common import stop_child

        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                pass
        stop_child(self.process)
        self.process.stdout.close()
        if self.report_path.is_file():
            return json.loads(self.report_path.read_text())
        return {}


def _setup(workdir: pathlib.Path, trace: bool):
    """Start the service and store the popular set.

    Returns the server, the popular cells' replies, the PoW difficulty the
    server announces and the seconds from process start to stored set.
    """
    from repro.service.client import ServiceClient

    start = time.monotonic()
    server = _Server(workdir, trace)
    try:
        client = ServiceClient(server.url, client_id="setup")
        replies = {name: client.verify(name, overrides=QUICK) for name in POPULAR}
        elapsed = time.monotonic() - start
        difficulty = client.difficulty()
    except BaseException:
        server.stop()
        raise
    return server, replies, difficulty, elapsed


def _schedule(rng: random.Random, seconds: float) -> List[Dict[str, Any]]:
    count = max(BLOCK, round(OFFERED_RPS * seconds))
    # One arrival in each 1/OFFERED_RPS slot, at a uniform time within it,
    # and the mix's exact shares in every BLOCK consecutive requests: how
    # many hits meet a miss in flight then varies little between seeds.
    gap = seconds / count
    times = [(slot + rng.random()) * gap for slot in range(count)]
    kinds: List[str] = []
    while len(kinds) < count:
        block = [name for name, share in MIX for _ in range(round(share * BLOCK))]
        rng.shuffle(block)
        kinds.extend(block)
    fresh = rng.sample(range(1_000_000, 2_000_000), count)
    # Hits walk through every (user, popular cell) pair in a seeded order.  A
    # ticket's mining time depends only on the request body and is the
    # largest share of a hit's latency, so every full walk mines the same
    # set of tickets and the hit percentiles do not depend on which pairs a
    # seed happens to draw.
    pairs = [(f"user-{user:02d}", name) for user in range(USERS) for name in POPULAR]
    rng.shuffle(pairs)
    walk = itertools.cycle(pairs)
    schedule = []
    for index, (due, kind) in enumerate(zip(times, kinds)):
        request: Dict[str, Any] = {"due": due, "kind": kind}
        if kind == "hit":
            request["user"], request["scenario"] = next(walk)
            request["overrides"] = QUICK
        else:
            request["user"] = f"user-{rng.randrange(USERS):02d}"
            request["scenario"] = rng.choice(PANELS)
            request["overrides"] = dict(QUICK, seed=fresh[index])
        schedule.append(request)
    return schedule


class _Mining:
    """Times the client's ticket mining and remembers each nonce per thread."""

    def __init__(self) -> None:
        self.local = threading.local()

    def install(self) -> None:
        from repro.service import client

        original = client.mine_nonce

        def timed(client_id, endpoint, body, difficulty, *args, **kwargs):
            start = time.perf_counter()
            nonce = original(client_id, endpoint, body, difficulty, *args, **kwargs)
            self.local.last = (nonce, time.perf_counter() - start)
            return nonce

        client.mine_nonce = timed


def _drive(url: str, schedule: List[Dict[str, Any]], difficulty: int,
           threads: int, on_half: Optional[Any]) -> Dict[str, Any]:
    """Send the schedule open-loop; fills each request's timing and reply."""
    from repro.service.client import ServiceClient, ServiceHTTPError

    mining = _Mining()
    mining.install()
    clients = {
        user: ServiceClient(url, client_id=user, difficulty=difficulty)
        for user in sorted({request["user"] for request in schedule})
    }
    lock = threading.Lock()
    cursor = [0]
    active = [0, 0]  # in flight now, most in flight at once
    half = [on_half]
    midpoint = schedule[len(schedule) // 2]["due"] if schedule else 0.0
    origin = time.monotonic() + 0.05

    def worker() -> None:
        while True:
            with lock:
                if cursor[0] >= len(schedule):
                    return
                request = schedule[cursor[0]]
                cursor[0] += 1
            delay = origin + request["due"] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            with lock:
                if half[0] is not None and request["due"] >= midpoint:
                    half[0]()
                    half[0] = None
                active[0] += 1
                active[1] = max(active[1], active[0])
            client = clients[request["user"]]
            mining.local.last = (None, 0.0)
            request["sent"] = time.monotonic() - origin
            try:
                if request["kind"] == "issue":
                    reply = client.issue(request["scenario"], overrides=request["overrides"])
                else:
                    reply = client.verify(request["scenario"], overrides=request["overrides"])
                request["reply"] = reply
            except ServiceHTTPError as error:
                request["error"] = error.code
            except OSError as error:
                request["error"] = f"transport_{type(error).__name__}"
            request["done"] = time.monotonic() - origin
            request["nonce"], request["mine_s"] = mining.local.last
            with lock:
                active[0] -= 1

    pool = [threading.Thread(target=worker, daemon=True) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return {"connections": active[1], "threads": threads}


def _check(schedule: List[Dict[str, Any]], popular: Dict[str, Any],
           key: bytes) -> List[str]:
    """Decision checks on every reply; returns problems, marks ``ok`` per request."""
    from repro.service.client import ServiceClient

    problems = []
    expected = {name: json.dumps(reply["transcript"], sort_keys=True)
                for name, reply in popular.items()}
    popular_hashes = {reply["transcript"]["spec_hash"] for reply in popular.values()}
    for name, reply in popular.items():
        if not ServiceClient.verify_transcript(reply, key):
            problems.append(f"set-up {name}: signature does not verify")
    for request in schedule:
        label = f"{request['kind']} {request['scenario']} ({request['user']})"
        reply = request.get("reply")
        problem = None
        if reply is None:
            problem = f"error {request.get('error')}"
        elif not reply.get("ok"):
            problem = "reply not ok"
        elif not ServiceClient.verify_transcript(reply, key):
            problem = "signature does not verify"
        elif request["kind"] == "hit":
            if not reply.get("cache_hit"):
                problem = "popular cell not served from the store"
            elif json.dumps(reply["transcript"], sort_keys=True) != expected[request["scenario"]]:
                problem = "transcript differs from the stored cell's"
        elif request["kind"] == "miss":
            if reply.get("cache_hit"):
                problem = "fresh seed served from the store"
            elif reply["transcript"]["spec_hash"] in popular_hashes:
                problem = "fresh seed hashed like a popular cell"
        elif not reply.get("commitment"):
            problem = "issue reply without a commitment"
        request["ok"] = problem is None
        if problem:
            problems.append(f"{label}: {problem}")
    return problems


def _ledger_verify(data_dir: pathlib.Path) -> Dict[str, Any]:
    """``python -m repro serve ledger verify`` on the stopped server's ledger."""
    from common import run_child_text

    out = run_child_text(
        ["-m", "repro", "serve", "ledger", "verify", "--data-dir", str(data_dir)], 60.0
    )
    last = out.strip().splitlines()[-1] if out.strip() else ""
    # "ledger <path>: <n> record(s), <p> problem(s)"
    words = last.replace(",", "").split()
    try:
        records = int(words[words.index("record(s)") - 1])
        problems = int(words[words.index("problem(s)") - 1])
    except (ValueError, IndexError):
        return {"records": -1, "problems": -1, "line": last}
    return {"records": records, "problems": problems, "line": last}


def run(seed: int, seconds: float, trace: bool, workdir: pathlib.Path) -> Dict[str, Any]:
    """Set up, drive, stop, check."""
    from repro.service.transcripts import HMAC_KEY_FILE

    schedule = _schedule(random.Random(seed), seconds)
    server, popular, difficulty, setup_s = _setup(workdir, trace)
    try:
        on_half = (lambda: server.process.send_signal(signal.SIGUSR1)) if trace else None
        load = _drive(server.url, schedule, difficulty, len(os.sched_getaffinity(0)), on_half)
    finally:
        server_report = server.stop()
    key = (server.data_dir / HMAC_KEY_FILE).read_bytes()
    problems = _check(schedule, popular, key)
    ledger = _ledger_verify(server.data_dir)
    succeeded = len(POPULAR) + sum(1 for request in schedule if "reply" in request)
    if ledger["problems"] != 0 or ledger["records"] != succeeded:
        problems.append(f"ledger: {ledger['line']} (expected {succeeded} records, 0 problems)")
    return {
        "setup_s": setup_s,
        "schedule": schedule,
        "load": load,
        "server": server_report,
        "ledger": ledger,
        "problems": problems,
        "attempted": len(schedule),
        "failed": sum(1 for request in schedule if not request.get("ok")),
        "traced": trace,
    }


_ERROR_CODES = ("rate_limited", "bad_ticket", "bad_request", "scenario_failed",
                "internal_error")


def _latencies(requests: List[Dict[str, Any]], kind: str) -> List[float]:
    return [(request["done"] - request["due"]) * 1000.0 for request in requests
            if request["kind"] == kind and request.get("ok")]


def _layer_metrics(result: Dict[str, Any], traced: List[Dict[str, Any]],
                   plain: List[Dict[str, Any]], layer_names: List[str]) -> Dict[str, float]:
    import layers
    from common import median, percentile

    server = result["server"]
    spans = server.get("spans", [])
    units = len(traced)
    metrics = layers.span_metrics(spans, units, layer_names)
    deltas: Dict[str, Dict[str, int]] = {}
    if "counters_before" in server:
        layers.add_deltas(deltas, server["counters_before"], server["counters_after"])
    metrics.update(layers.counter_metrics(deltas, units))
    handlers: Dict[tuple, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["name"] in ("service.verify", "service.issue") and span["rid"]:
            handlers.setdefault(tuple(span["rid"]), []).append(span)
    for matches in handlers.values():
        matches.sort(key=lambda span: span["start"])
    http = []
    for request in sorted(traced, key=lambda request: request["sent"]):
        matches = handlers.get((request["user"], request.get("nonce")))
        if "reply" in request and matches:
            span = matches.pop(0)
            client_ms = (request["done"] - request["sent"]) * 1000.0
            server_ms = (span["end"] - span["start"]) * 1000.0
            http.append(client_ms - request["mine_s"] * 1000.0 - server_ms)
    metrics["service.http_ms"] = median(http)
    metrics["service.client_mine_ms"] = median([r["mine_s"] * 1000.0 for r in traced])
    schedule = result["schedule"]
    errors = [request["error"] for request in schedule if "error" in request]
    for code in _ERROR_CODES:
        metrics[f"service.errors.{code}"] = float(errors.count(code))
    transport = sum(1 for code in errors if code.startswith("transport_"))
    metrics["service.errors.transport"] = float(transport)
    metrics["service.errors.other"] = float(
        len(errors) - transport - sum(errors.count(code) for code in _ERROR_CODES)
    )
    metrics["loadgen.offered"] = OFFERED_RPS
    metrics["loadgen.sent"] = float(sum(1 for request in schedule if "sent" in request))
    metrics["loadgen.connections"] = float(result["load"]["connections"])
    metrics["loadgen.late_p99_ms"] = percentile(
        [(request["sent"] - request["due"]) * 1000.0 for request in schedule], 99
    )
    metrics["setup.import_s"] = server.get("import_s", 0.0)
    traced_hits, plain_hits = _latencies(traced, "hit"), _latencies(plain, "hit")
    if traced_hits and plain_hits:
        metrics["trace.overhead_share"] = median(traced_hits) / median(plain_hits) - 1.0
    return metrics


def summarize(result: Dict[str, Any], layer_names: List[str]) -> Dict[str, Any]:
    """Named metrics, end-to-end metrics and (traced runs) the per-layer
    metrics named in ``layer_names``."""
    from common import median, percentile

    schedule = result["schedule"]
    traced: List[Dict[str, Any]] = []
    plain = schedule
    if result["traced"]:
        midpoint = schedule[len(schedule) // 2]["due"]
        plain = [request for request in schedule if request["due"] < midpoint]
        traced = [request for request in schedule if request["due"] >= midpoint]
    latency = {kind: _latencies(plain, kind) for kind, _ in MIX}
    window_s = max((request.get("done", 0.0) for request in plain), default=0.0)
    good = sum(
        1 for request in plain if request.get("ok")
        and (request["done"] - request["due"]) * 1000.0 <= LATENCY_LIMIT_MS[request["kind"]]
    )
    goodput = good / window_s if window_s else 0.0
    setup = result["setup_s"]
    rss = result["server"].get("rss_mb", 0.0)
    named = [("setup_s", setup, "s", 1),
             ("peak_rss_mb", rss, "MB", 1)]
    for kind, label in (("hit", "verify_hit"), ("miss", "verify_miss"), ("issue", "issue")):
        named.append((f"{label}_p50_ms", median(latency[kind]), "ms", len(latency[kind])))
        named.append((f"{label}_p90_ms", percentile(latency[kind], 90), "ms",
                      len(latency[kind])))
    named.append(("verify_goodput_rps", goodput, "req/s", len(plain)))
    e2e = {
        "setup_s": setup,
        "peak_rss_mb": rss,
        "op_p50_ms": median(latency["hit"]),
        "op_p90_ms": percentile(latency["hit"], 90),
        "ops_per_s": goodput,
    }
    layers_out = _layer_metrics(result, traced, plain, layer_names) if traced else {}
    return {"named": named, "e2e": e2e, "layers": layers_out}


if __name__ == "__main__":
    if sys.argv[1:2] == ["serve"]:
        serve_main(sys.argv[2:])
    else:
        sys.exit("usage: verify_mix.py serve --data-dir DIR --report FILE [--trace]")
