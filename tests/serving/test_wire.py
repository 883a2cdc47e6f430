"""Tests for the shared JSON/HTTP plumbing (``repro.serving.wire``)."""

from __future__ import annotations

import http.client
import statistics
import threading
import time
from http.server import ThreadingHTTPServer

from repro.serving.wire import JsonRequestHandler, request_json


class _EchoHandler(JsonRequestHandler):
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self.send_json(200, {"echo": self.read_json_body()})


class TestJsonRequestHandlerLatency:
    def test_keep_alive_exchange_does_not_wait_for_delayed_ack(self):
        # ``send_json`` writes the head and the body in two sends.  With
        # Nagle's algorithm on, the body waits for the client's delayed
        # ACK of the head: ~40 ms per exchange on Linux loopback.  The
        # distributed coordinator and standby worker use this handler.
        server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoHandler)
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        latencies = []
        try:
            for index in range(24):
                start = time.perf_counter()
                status, body = request_json(
                    host, port, "POST", "/echo", {"index": index},
                    connection=connection,
                )
                latencies.append(time.perf_counter() - start)
                assert status == 200
                assert body == {"echo": {"index": index}}
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        median_ms = 1000.0 * statistics.median(latencies[4:])
        assert median_ms < 10.0, f"median keep-alive exchange {median_ms:.1f} ms"
