"""Serving side: ``/encode`` round trips against a real ``repro serve`` subprocess.

A run trains the served artifacts through ``ExperimentRunner.run_suite``
with an artifact directory, after an untimed warm-up grid and as many
times as the workload asks (so ``grid_s``, their median, and ``accuracy``
exist here too), starts ``python -m repro serve`` several times to time
set-up, and drives the last server with a closed loop of keep-alive connections for
the measurement window.  A second server, started through
``perfbench.launcher`` with span wrappers installed, replays the start of
the same request sequence for the per-layer breakdown.

Every ``/encode`` body must be byte-identical between the two servers and
must match an in-process ``framework.transform`` of the same rows.
"""

from __future__ import annotations

import bisect
import http.client
import itertools
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.tracing import Patches, Tracer, clock, layer_self_by_op, spanned
from perfbench.training import (
    GridSpec,
    load_suite,
    make_runner,
    mean_accuracy,
    table_text,
    warm_up,
)

REQUEST_ID_HEADER = "X-Request-Id"

#: The served model is a fixed deployment, trained from this seed on every
#: run, so ``accuracy`` is a constant of the artifact.  The workload seed
#: drives the traffic: which rows each request carries and which bodies
#: repeat.
TRAINING_SEED = 0


@dataclass(frozen=True)
class ServeSpec:
    """One serving workload: what is served, how, and the traffic shape."""

    grid: GridSpec  # trains one artifact per dataset of the grid
    rows_per_request: int
    repeat_frac: float  # share of bodies that repeat a recent earlier body
    serve_flags: tuple[str, ...] = ()
    shard_workers: int | None = None
    setups: int = 3
    trainings: int = 1  # ``grid_s`` is the median of this many trainings
    connections: int = 2  # closed-loop keep-alive connections, one client thread each


# ------------------------------------------------------------------ requests
def model_names(spec: ServeSpec) -> list[str]:
    """One model name per dataset; sharded workloads pick names that the
    shard ring maps to different workers."""
    datasets = spec.grid.datasets
    if not spec.shard_workers:
        return [abbreviation.lower() for abbreviation in datasets]
    from repro.serving.shard import HashRing

    ring = HashRing(list(range(spec.shard_workers)))
    names = []
    for index, abbreviation in enumerate(datasets):
        worker = index % spec.shard_workers
        names.append(
            next(
                f"{abbreviation.lower()}-{k}"
                for k in itertools.count()
                if ring.assign(f"{abbreviation.lower()}-{k}") == worker
            )
        )
    return names


class RequestPlan:
    """Deterministic sequence of ``/encode`` bodies drawn from the seed.

    Body ``i`` is the same for every pass and thread interleaving: entries
    are drawn strictly in index order from one generator.  Row JSON is
    encoded once up front, so building a body costs the client a string
    join, not a ``json.dumps`` of the matrix.
    """

    recent = 32  # repeats are drawn from this many latest unique bodies

    def __init__(self, pools: dict[str, np.ndarray], rows: int, repeat_frac: float, seed: int):
        self.pools = pools
        self.names = list(pools)
        self.rows = rows
        self.repeat_frac = repeat_frac
        self._rng = np.random.default_rng(seed)
        self._encoded = {
            name: [json.dumps(row) for row in pool.tolist()] for name, pool in pools.items()
        }
        self._entries: list[tuple[str, tuple[int, ...]]] = []
        self._unique: list[tuple[str, tuple[int, ...]]] = []
        self._seen: set = set()
        self._lock = threading.Lock()

    def _draw(self) -> tuple[str, tuple[int, ...]]:
        if self._unique and self._rng.random() < self.repeat_frac:
            window = self._unique[-self.recent:]
            return window[int(self._rng.integers(len(window)))]
        name = self.names[len(self._unique) % len(self.names)]
        while True:
            rows = self._rng.choice(len(self.pools[name]), self.rows, replace=False)
            entry = (name, tuple(int(r) for r in rows))
            if entry not in self._seen:
                self._seen.add(entry)
                self._unique.append(entry)
                return entry

    def entry(self, index: int) -> tuple[str, tuple[int, ...]]:
        with self._lock:
            while len(self._entries) <= index:
                self._entries.append(self._draw())
            return self._entries[index]

    def body(self, index: int) -> bytes:
        name, rows = self.entry(index)
        encoded = self._encoded[name]
        data = ", ".join(encoded[r] for r in rows)
        return f'{{"model": {json.dumps(name)}, "data": [{data}]}}'.encode()

    def rows_of(self, index: int) -> tuple[str, np.ndarray]:
        name, rows = self.entry(index)
        return name, self.pools[name][list(rows)]


@dataclass
class Exchange:
    index: int
    start: float
    end: float
    status: int | None
    bytes_in: int
    body: bytes


def closed_loop(port: int, plan: RequestPlan, *, seconds: float, connections: int,
                limit: int | None = None, op_prefix: str = "r") -> tuple[list[Exchange], float]:
    """Closed loop: each connection sends its next request once the last
    one completed.  Stops issuing at ``seconds`` (or after ``limit``
    requests); returns the exchanges and the loop's wall time."""
    counter = itertools.count()
    counter_lock = threading.Lock()
    exchanges: list[Exchange] = []
    results_lock = threading.Lock()
    start = clock()
    deadline = start + seconds

    def connection_loop() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while clock() < deadline:
                with counter_lock:
                    index = next(counter)
                if limit is not None and index >= limit:
                    return
                body = plan.body(index)
                headers = {
                    "Content-Type": "application/json",
                    REQUEST_ID_HEADER: f"{op_prefix}{index}",
                }
                sent = clock()
                try:
                    conn.request("POST", "/encode", body=body, headers=headers)
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                    payload, status = b"", None
                done = clock()
                with results_lock:
                    exchanges.append(Exchange(index, sent, done, status, len(body), payload))
        finally:
            conn.close()

    helpers = [threading.Thread(target=connection_loop) for _ in range(connections - 1)]
    for helper in helpers:
        helper.start()
    connection_loop()
    for helper in helpers:
        helper.join()
    wall = clock() - start
    exchanges.sort(key=lambda exchange: exchange.index)
    return exchanges, wall


# ------------------------------------------------------------------- servers
class ServerProcess:
    """One ``repro serve`` subprocess on an ephemeral loopback port."""

    _announce = re.compile(r"on http://[^\s:]+:(\d+)")

    def __init__(self, argv: list[str], env: dict, log_path: Path) -> None:
        self.argv = argv
        self.env = env
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self, models: list[str], timeout: float = 120.0) -> float:
        """Spawn, wait until ``/healthz`` lists every model; returns seconds."""
        start = clock()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.argv, stdout=subprocess.PIPE, stderr=log, env=self.env
            )
        deadline = time.monotonic() + timeout
        output = b""
        while self.port is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(f"server did not announce a port; see {self.log_path}")
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if ready:
                output += os.read(self.process.stdout.fileno(), 4096)
                match = self._announce.search(output.decode("utf-8", "replace"))
                if match:
                    self.port = int(match.group(1))
        while True:
            try:
                status, payload = self.get_json("/healthz")
                if status == 200 and set(models) <= set(payload.get("models", [])):
                    return clock() - start
            except (OSError, http.client.HTTPException):
                pass
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError(f"server never became healthy; see {self.log_path}")
            time.sleep(0.005)

    def get_json(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def post(self, body: bytes) -> int:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("POST", "/encode", body=body, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            return response.status
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), SIGKILL if it hangs."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# ------------------------------------------------------ server-side wrappers
def install_server_wrappers(tracer: Tracer) -> Patches:
    """Span the request layers inside the server process.

    The operation of a request is its ``X-Request-Id`` header.  The
    threaded front end reads it when the handler reads the body; the
    asyncio front end parses headers on its loop and decodes in an
    executor thread, so the id is handed over through the request's
    arrival time, which that server passes from one to the other.
    """
    import json as json_module

    import repro.serving.async_http as async_http
    import repro.serving.wire as wire
    from repro.serving.async_http import AsyncEncodingServer
    from repro.serving.http import ServingGateway
    from repro.serving.shard import ShardPool
    from repro.serving.wire import JsonRequestHandler

    patches = Patches()

    def in_request() -> bool:
        return tracer.current_op() is not None and not tracer.inside("serving.http.gateway")

    class _JsonWithSpans:
        """The ``json`` module as a front end sees it, ``dumps`` spanned."""

        def __getattr__(self, name):
            return getattr(json_module, name)

        @staticmethod
        def dumps(obj, *args, **kwargs):
            if not in_request():
                return json_module.dumps(obj, *args, **kwargs)
            with tracer.span("serving.wire.serialize"):
                return json_module.dumps(obj, *args, **kwargs)

    def parse(original):
        def wrapper(raw):
            if not in_request():
                return original(raw)
            with tracer.span("serving.wire.parse"):
                return original(raw)

        return wrapper

    def read_body(original):
        def wrapper(self):
            tracer.set_op(self.headers.get(REQUEST_ID_HEADER))
            return original(self)

        return wrapper

    def send_json(original):
        def wrapper(self, *args, **kwargs):
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.set_op(None)

        return wrapper

    arrivals: list[float] = []
    arrival_ops: list[str | None] = []
    arrival_lock = threading.Lock()

    def handle_post(original):
        async def wrapper(self, reader, writer, path, headers, keep_alive):
            with arrival_lock:
                arrivals.append(time.monotonic())
                arrival_ops.append(headers.get(REQUEST_ID_HEADER.lower()))
            return await original(self, reader, writer, path, headers, keep_alive)

        return wrapper

    def encode_job(original):
        def wrapper(self, raw, arrival):
            # The latest registration at or before ``arrival`` is this
            # request's: the server reads the clock for ``arrival`` right
            # after the registration, with no await in between.
            with arrival_lock:
                position = bisect.bisect_right(arrivals, arrival) - 1
                op = arrival_ops[position] if position >= 0 else None
            tracer.set_op(op)
            try:
                return original(self, raw, arrival)
            finally:
                tracer.set_op(None)

        return wrapper

    patches.wrap(wire, "json", lambda original: _JsonWithSpans())
    patches.wrap(async_http, "json", lambda original: _JsonWithSpans())
    patches.wrap(wire, "decode_json_object", parse)
    patches.wrap(async_http, "decode_json_object", parse)
    patches.wrap(JsonRequestHandler, "read_json_body", read_body)
    patches.wrap(JsonRequestHandler, "send_json", send_json)
    patches.wrap(AsyncEncodingServer, "_handle_post", handle_post)
    patches.wrap(AsyncEncodingServer, "_encode_job", encode_job)
    patches.wrap(ServingGateway, "handle_encode", spanned(tracer, "serving.http.gateway"))
    patches.wrap(ShardPool, "encode_request", spanned(tracer, "serving.shard.encode"))
    return patches


# ---------------------------------------------------------------- analysis
def stats_delta(before: dict, after: dict) -> dict[str, float]:
    """Sum of per-model counter increments between two ``/stats`` reads."""
    keys = ("n_requests", "n_cache_hits", "n_flushes", "n_fused_requests",
            "total_seconds", "total_queue_seconds", "total_compute_seconds")
    delta = {key: 0.0 for key in keys}
    for name, now in after.get("models", {}).items():
        then = before.get("models", {}).get(name, {})
        for key in keys:
            delta[key] += float(now.get(key, 0)) - float(then.get(key, 0))
    return delta


def per_model_latency_s(before: dict, after: dict) -> dict[str, float]:
    """Mean in-service seconds per request, per model, as the workers report."""
    out = {}
    for name, now in after.get("models", {}).items():
        then = before.get("models", {}).get(name, {})
        n = float(now.get("n_requests", 0)) - float(then.get("n_requests", 0))
        seconds = float(now.get("total_seconds", 0)) - float(then.get("total_seconds", 0))
        out[name] = seconds / n if n else 0.0
    return out


def merge_trace(exchanges: list[Exchange], op_prefix: str, server: dict) -> list[dict]:
    """Client round-trip spans (one per exchange, the root of its op) plus
    the server spans of those ops, re-parented onto them."""
    spans = [
        {"id": exchange.index + 1, "name": "serving.roundtrip", "parent": None,
         "op": f"{op_prefix}{exchange.index}", "start": exchange.start, "end": exchange.end}
        for exchange in exchanges
    ]
    roots = {span["op"]: span["id"] for span in spans}
    offset = 1_000_000_000
    for span in server["spans"]:
        if span["op"] not in roots:
            continue
        span = dict(span, id=span["id"] + offset)
        span["parent"] = roots[span["op"]] if span["parent"] is None else span["parent"] + offset
        spans.append(span)
    return spans


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def serving_layers(spans: list[dict], plan: RequestPlan, op_prefix: str,
                   worker_latency_s: dict[str, float]) -> dict[str, float]:
    """Per-request layer medians (ms) from the merged traced spans."""
    per_op = layer_self_by_op(spans)
    rows = {name: [] for name in ("roundtrip", "parse", "gateway", "serialize", "hop", "worker")}
    for op, layers in per_op.items():
        rows["roundtrip"].append(layers.get("serving.roundtrip", 0.0))
        rows["parse"].append(layers.get("serving.wire.parse", 0.0))
        rows["gateway"].append(layers.get("serving.http.gateway", 0.0))
        rows["serialize"].append(layers.get("serving.wire.serialize", 0.0))
        if "serving.shard.encode" in layers:
            model, _ = plan.entry(int(op[len(op_prefix):]))
            worker = min(worker_latency_s.get(model, 0.0), layers["serving.shard.encode"])
            rows["worker"].append(worker)
            rows["hop"].append(layers["serving.shard.encode"] - worker)
    ms = {key: [v * 1000.0 for v in values] for key, values in rows.items()}
    return {
        "serving.frontend_self_ms": _median(ms["roundtrip"]),
        "serving.wire.parse_ms": _median(ms["parse"]),
        "serving.http.gateway_ms": _median(ms["gateway"]),
        "serving.wire.serialize_ms": _median(ms["serialize"]),
        "serving.shard.hop_ms": _median(ms["hop"]),
        "serving.shard.worker_ms": _median(ms["worker"]),
    }


def spans_within_round_trips(spans: list[dict]) -> bool:
    """Every server span lies inside its request's client round trip."""
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        root = span
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        if not (root["start"] <= span["start"] <= span["end"] <= root["end"]):
            return False
    return True


# ------------------------------------------------------------------- runner
def _check_bodies(plan: RequestPlan, exchanges: list[Exchange], frameworks: dict) -> bool:
    """Every 200 body's features equal ``framework.transform`` of its rows."""
    for exchange in exchanges:
        if exchange.status != 200:
            continue
        name, rows = plan.rows_of(exchange.index)
        served = np.asarray(json.loads(exchange.body)["features"], dtype=float)
        expected = frameworks[name].transform(rows)
        if served.shape != expected.shape or not np.array_equal(served, expected):
            return False
    return True


def run_serving(spec: ServeSpec, seed: int, seconds: float, *, root: Path, workdir: Path) -> dict:
    """Measure one serving workload; returns the raw measurement record."""
    from repro.persistence import load_framework

    names = model_names(spec)
    suite = load_suite(spec.grid)
    warm_up(suite)
    # Each training writes to a fresh directory: the runner would warm-start
    # from an existing artifact instead of training.
    grid_times, texts = [], []
    for index in range(spec.trainings):
        artifact_dir = workdir / f"artifacts-{index}"
        start = clock()
        table = make_runner(spec.grid, TRAINING_SEED, artifact_dir).run_suite(suite)
        grid_times.append(clock() - start)
        texts.append(table_text(table))
    bundles = {
        name: next(artifact_dir.glob(f"{dataset.abbreviation}__*__r0"))
        for name, dataset in zip(names, suite)
    }
    pools = {name: np.asarray(dataset.data, dtype=float) for name, dataset in zip(names, suite)}
    plan = RequestPlan(pools, spec.rows_per_request, spec.repeat_frac, seed)

    serve_args = ["serve", "--host", "127.0.0.1", "--port", "0", *spec.serve_flags]
    if spec.shard_workers:
        serve_args += ["--shard-workers", str(spec.shard_workers)]
    for name in names:
        serve_args += ["--artifact", f"{name}={bundles[name]}"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root), str(root / "src")])
    env["TMPDIR"] = str(workdir)
    log = workdir / "server.log"
    warm_body = {name: _warm_body(name, pools[name][: spec.rows_per_request]) for name in names}

    setup_times = []
    servers: list[ServerProcess] = []
    try:
        for _ in range(spec.setups):
            if servers:
                servers[-1].stop()
            servers.append(ServerProcess([sys.executable, "-m", "repro", *serve_args], env, log))
            setup_times.append(servers[-1].start(names))
        server = servers[-1]
        warm_ok = all(server.post(warm_body[name]) == 200 for name in names)
        _, stats_before = server.get_json("/stats")
        exchanges, wall = closed_loop(
            server.port, plan, seconds=seconds, connections=spec.connections, op_prefix="u"
        )
        _, stats_after = server.get_json("/stats")
        server.stop()

        trace_path = workdir / "server-trace.json"
        launcher = ServerProcess(
            [sys.executable, "-m", "perfbench.launcher", "--trace-out", str(trace_path),
             *serve_args],
            env, log,
        )
        servers.append(launcher)
        launcher.start(names)
        warm_ok = warm_ok and all(launcher.post(warm_body[name]) == 200 for name in names)
        _, traced_before = launcher.get_json("/stats")
        traced, traced_wall = closed_loop(
            launcher.port, plan, seconds=seconds / 2, connections=spec.connections,
            limit=len(exchanges), op_prefix="t",
        )
        _, traced_after = launcher.get_json("/stats")
        launcher.stop()
        server_trace = json.loads(trace_path.read_text(encoding="utf-8"))
    finally:
        for process in servers:
            process.stop()

    frameworks, load_times = {}, []
    for name in names:
        start = clock()
        frameworks[name] = load_framework(bundles[name])
        load_times.append(clock() - start)

    ok = [e for e in exchanges if e.status == 200]
    traced_ok = [e for e in traced if e.status == 200]
    spans = merge_trace(traced_ok, "t", server_trace)
    untraced_by_index = {e.index: e.body for e in ok}
    delta = stats_delta(stats_before, stats_after)
    n_requests = delta["n_requests"]

    latencies = [(e.end - e.start) * 1000.0 for e in ok]
    traced_latencies = [(e.end - e.start) * 1000.0 for e in traced_ok]
    layers = serving_layers(spans, plan, "t", per_model_latency_s(traced_before, traced_after))
    layers.update({
        "persistence.load_s": _median(load_times),
        "serving.bytes_in_per_req": _median(e.bytes_in for e in ok),
        "serving.bytes_out_per_req": _median(len(e.body) for e in ok),
        "serving.fusion.queue_ms": 1000.0 * delta["total_queue_seconds"] / n_requests if n_requests else 0.0,
        "serving.fusion.ratio": delta["n_fused_requests"] / delta["n_flushes"] if delta["n_flushes"] else 0.0,
        "serving.service.compute_ms": 1000.0 * delta["total_compute_seconds"] / n_requests if n_requests else 0.0,
        "serving.cache.hit_rate": delta["n_cache_hits"] / n_requests if n_requests else 0.0,
    })
    p50 = _median(latencies)
    attempted = len(exchanges) + len(traced)
    completed = len(ok) + len(traced_ok)
    return {
        "kind": "serving",
        "models": {name: str(bundles[name].name) for name in names},
        "setup_times_s": setup_times,
        "grid_times_s": grid_times,
        "grid_s": statistics.median(grid_times),
        "accuracy": mean_accuracy(table),
        "table": table.to_dict(),
        "attempted": attempted,
        "completed": completed,
        "n_latency_samples": len(latencies),
        "latencies_ms": latencies,
        "wall_s": wall,
        "traced_requests": len(traced),
        "traced_wall_s": traced_wall,
        "traced_latency_p50_ms": _median(traced_latencies),
        "gates": {
            "trainings_identical": len(set(texts)) == 1,
            "warm_up_ok": warm_ok,
            "bodies_match_transform": _check_bodies(plan, ok, frameworks),
            "traced_bodies_identical": all(
                untraced_by_index[e.index] == e.body
                for e in traced_ok
                if e.index in untraced_by_index
            ),
        },
        "spans_within_round_trips": spans_within_round_trips(spans),
        "throughput_rps": len(ok) / wall,
        "layers": layers,
        "trace_overhead_frac": (_median(traced_latencies) - p50) / p50 if p50 else 0.0,
        "trace": {"spans": spans},
    }


def _warm_body(name: str, rows: np.ndarray) -> bytes:
    """One request per model before timing, outside the planned sequence."""
    return json.dumps({"model": name, "data": rows.tolist()}).encode()
