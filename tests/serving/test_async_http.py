"""Tests for the asyncio serving front end (``repro.serving.async_http``):
routes, ``/encode`` bodies, framing, keep-alive, auth, admission and
shutdown, all driven over real sockets against
:class:`~repro.serving.async_http.AsyncEncodingServer`.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import SelfLearningEncodingFramework
from repro.datasets.synthetic import make_overlapping_binary_clusters
from repro.serving import BatchFuser, EncodingService
from repro.serving.async_http import AsyncEncodingServer, build_async_server
from repro.serving.wire import SECRET_HEADER

SECRET = "async-secret"


@pytest.fixture(scope="module")
def fitted():
    data, _ = make_overlapping_binary_clusters(
        50, 6, 2, flip_probability=0.1, random_state=0
    )
    config = FrameworkConfig(
        model="sls_rbm",
        preprocessing="median_binarize",
        supervision_preprocessing="standardize",
        n_hidden=4,
        n_epochs=2,
        random_state=0,
    )
    framework = SelfLearningEncodingFramework(config, n_clusters=2)
    framework.fit(data)
    return framework, data


def make_service(framework) -> EncodingService:
    service = EncodingService()
    service.register("ir", framework)
    return service


@pytest.fixture()
def async_stack(fitted):
    framework, data = fitted
    service = make_service(framework)
    fuser = BatchFuser(service, max_batch_rows=64, max_wait_ms=5)
    server = build_async_server(service, fuser=fuser, port=0)
    server.start()
    yield server, framework, data, server.server_port
    server.shutdown()
    server.server_close()


def exchange(
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    *,
    headers: dict | None = None,
    connection: http.client.HTTPConnection | None = None,
) -> tuple[int, dict, bytes, http.client.HTTPMessage]:
    """One raw exchange; returns (status, decoded, raw body, headers)."""
    own = connection is None
    if own:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    body = json.dumps(payload).encode("utf-8") if payload is not None else None
    request_headers = {"Content-Type": "application/json", **(headers or {})}
    connection.request(method, path, body=body, headers=request_headers)
    response = connection.getresponse()
    raw = response.read()
    if own:
        connection.close()
    return response.status, json.loads(raw), raw, response.headers


class TestRoutes:
    def test_healthz(self, async_stack):
        server, framework, data, port = async_stack
        status, body, _, _ = exchange(port, "GET", "/healthz")
        assert status == 200
        assert body == {"status": "ok", "models": ["ir"]}

    def test_models(self, async_stack):
        server, framework, data, port = async_stack
        status, body, _, _ = exchange(port, "GET", "/models")
        assert status == 200
        assert "ir" in body["models"]
        assert body["models"]["ir"]["fast_path"] in (True, False)

    def test_stats(self, async_stack):
        server, framework, data, port = async_stack
        status, body, _, _ = exchange(port, "GET", "/stats")
        assert status == 200
        assert set(body) >= {"models", "cache", "fusion", "admission"}

    def test_unknown_route_404(self, async_stack):
        server, framework, data, port = async_stack
        status, body, _, _ = exchange(port, "GET", "/nope")
        assert status == 404
        status, body, _, _ = exchange(port, "POST", "/nope", {"x": 1})
        assert status == 404

    def test_unsupported_method_501(self, async_stack):
        server, framework, data, port = async_stack
        connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=15
        )
        connection.request("DELETE", "/encode")
        response = connection.getresponse()
        assert response.status == 501
        connection.close()


class TestEncode:
    def test_encode_matches_direct_service(self, async_stack):
        server, framework, data, port = async_stack
        status, body, _, _ = exchange(
            port, "POST", "/encode", {"model": "ir", "data": data[:5].tolist()}
        )
        assert status == 200
        assert body["fused"] is True
        assert np.array_equal(
            np.asarray(body["features"]), framework.transform(data[:5])
        )

    def test_unknown_model_404(self, async_stack):
        server, framework, data, port = async_stack
        status, body, _, _ = exchange(
            port, "POST", "/encode", {"model": "zz", "data": data[:2].tolist()}
        )
        assert status == 404
        assert "zz" in body["error"]

    def test_invalid_json_400(self, async_stack):
        server, framework, data, port = async_stack
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
        connection.request(
            "POST", "/encode", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert "not valid JSON" in body["error"]
        connection.close()

    def test_missing_body_400(self, async_stack):
        server, framework, data, port = async_stack
        status, body, _, _ = exchange(port, "POST", "/encode", {})
        assert status == 400

    def test_missing_content_length_400(self, async_stack):
        server, framework, data, port = async_stack
        with socket.create_connection(("127.0.0.1", port), timeout=15) as sock:
            sock.sendall(b"POST /encode HTTP/1.1\r\nHost: x\r\n\r\n")
            response = sock.recv(65536)
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"Content-Length header" in response

    def test_oversized_body_413_severs_connection(self, async_stack):
        server, framework, data, port = async_stack
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
        connection.request(
            "POST", "/encode", body=b"",
            headers={"Content-Length": str(10**12)},
        )
        response = connection.getresponse()
        assert response.status == 413
        assert response.headers.get("Connection") == "close"
        connection.close()

    def test_non_positive_deadline_is_a_validation_error(self, async_stack):
        server, framework, data, port = async_stack
        status, body, _, _ = exchange(
            port,
            "POST",
            "/encode",
            {"model": "ir", "data": data[:2].tolist(), "deadline_ms": -1},
        )
        assert status == 400
        assert "deadline_ms" in body["error"]

    def test_concurrent_clients_all_correct(self, async_stack):
        server, framework, data, port = async_stack
        n_clients = 8
        results: list = [None] * n_clients

        def client(index: int) -> None:
            rows = data[index * 5 : (index + 1) * 5]
            try:
                status, body, _, _ = exchange(
                    port, "POST", "/encode",
                    {"model": "ir", "data": rows.tolist()},
                )
                results[index] = (status, np.asarray(body["features"]))
            except Exception as exc:  # noqa: BLE001 - asserted below
                results[index] = exc

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        for index, result in enumerate(results):
            assert not isinstance(result, Exception), result
            status, features = result
            assert status == 200
            expected = framework.transform(data[index * 5 : (index + 1) * 5])
            np.testing.assert_array_equal(features, expected)


class TestKeepAlive:
    def test_many_requests_on_one_connection(self, async_stack):
        server, framework, data, port = async_stack
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
        try:
            for _ in range(5):
                status, body, _, _ = exchange(
                    port, "POST", "/encode",
                    {"model": "ir", "data": data[:3].tolist()},
                    connection=connection,
                )
                assert status == 200
            status, body, _, _ = exchange(
                port, "GET", "/healthz", connection=connection
            )
            assert status == 200
        finally:
            connection.close()

    def test_connection_close_honored(self, async_stack):
        server, framework, data, port = async_stack
        with socket.create_connection(("127.0.0.1", port), timeout=15) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        response = b"".join(chunks)
        assert b"200" in response.split(b"\r\n", 1)[0]
        assert b"Connection: close" in response


class TestAuth:
    @pytest.fixture()
    def secured(self, fitted):
        framework, data = fitted
        server = build_async_server(
            make_service(framework), port=0, secret=SECRET
        )
        server.start()
        yield server, data, server.server_port
        server.shutdown()
        server.server_close()

    def test_healthz_stays_open(self, secured):
        server, data, port = secured
        status, _, _, _ = exchange(port, "GET", "/healthz")
        assert status == 200

    def test_missing_secret_401(self, secured):
        server, data, port = secured
        status, body, _, _ = exchange(
            port, "POST", "/encode", {"model": "ir", "data": data[:2].tolist()}
        )
        assert status == 401
        status, _, _, _ = exchange(port, "GET", "/stats")
        assert status == 401

    def test_valid_secret_accepted(self, secured):
        server, data, port = secured
        status, body, _, _ = exchange(
            port, "POST", "/encode",
            {"model": "ir", "data": data[:2].tolist()},
            headers={SECRET_HEADER: SECRET},
        )
        assert status == 200


class TestAdmission:
    def test_full_server_sheds_503_with_retry_after(self, fitted):
        framework, data = fitted
        server = build_async_server(
            make_service(framework), port=0, max_in_flight=2, retry_after=2.5
        )
        server.start()
        try:
            assert server.gateway.try_admit()
            assert server.gateway.try_admit()
            status, body, _, headers = exchange(
                server.server_port, "POST", "/encode",
                {"model": "ir", "data": data[:2].tolist()},
            )
            assert status == 503
            assert headers["Retry-After"] == "3"
            assert "capacity" in body["error"]
            server.gateway.release_request()
            server.gateway.release_request()
            status, _, _, _ = exchange(
                server.server_port, "POST", "/encode",
                {"model": "ir", "data": data[:2].tolist()},
            )
            assert status == 200
            shed = server.gateway.admission.as_dict()
            assert shed["n_shed"] == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_slot_is_released_before_the_response_is_written(
        self, async_stack, monkeypatch
    ):
        # A client holding its response must see itself out of flight;
        # releasing after the write raced every client that read
        # ``in_flight`` right after its response.
        server, framework, data, port = async_stack
        in_flight_at_write = []
        original = AsyncEncodingServer._respond_raw

        async def recording(self, writer, status, body, **kwargs):
            in_flight_at_write.append(self.gateway.admission.as_dict()["in_flight"])
            await original(self, writer, status, body, **kwargs)

        monkeypatch.setattr(AsyncEncodingServer, "_respond_raw", recording)
        status, _, _, _ = exchange(
            port, "POST", "/encode", {"model": "ir", "data": data[:2].tolist()}
        )
        assert status == 200
        assert in_flight_at_write == [0]


class TestShutdown:
    def test_shutdown_drains_in_flight(self, fitted):
        framework, data = fitted
        import time

        service = make_service(framework)
        original_compute = service._compute

        def slow_compute(runtime, matrix):
            time.sleep(0.15)
            return original_compute(runtime, matrix)

        service._compute = slow_compute
        server = build_async_server(service, port=0)
        server.start()
        port = server.server_port
        results: list = [None] * 3

        def client(index: int) -> None:
            try:
                results[index] = exchange(
                    port, "POST", "/encode",
                    {"model": "ir", "data": data[:3].tolist()},
                )[0]
            except Exception as exc:  # noqa: BLE001 - asserted below
                results[index] = exc

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while server.gateway.admission.as_dict()["n_admitted"] < 3:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        server.shutdown()
        for thread in threads:
            thread.join(timeout=30)
        server.server_close()
        assert results == [200, 200, 200]
        assert server.gateway.admission.as_dict()["in_flight"] == 0

    def test_shutdown_is_idempotent(self, fitted):
        framework, _ = fitted
        server = build_async_server(make_service(framework), port=0)
        server.start()
        server.shutdown()
        server.shutdown()
        server.server_close()
        server.server_close()
