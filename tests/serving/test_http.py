"""Tests for the JSON/HTTP serving front end (``AsyncEncodingServer`` over
``repro.serving.http.ServingGateway``)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import SelfLearningEncodingFramework
from repro.datasets.synthetic import make_overlapping_binary_clusters
from repro.serving import BatchFuser, EncodingService
from repro.serving.async_http import build_async_server


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


@pytest.fixture()
def server_stack(fitted):
    framework, data = fitted
    service = EncodingService()
    service.register("ir", framework)
    fuser = BatchFuser(service, max_batch_rows=64, max_wait_ms=5)
    server = build_async_server(service, fuser=fuser, port=0)
    server.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield service, framework, data, base
    server.shutdown()
    server.server_close()


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.load(response)


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.load(response)


def post_error(url: str, body: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(url, data=body)
    try:
        urllib.request.urlopen(request, timeout=10)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)
    raise AssertionError("expected an HTTP error")


class TestRoutes:
    def test_healthz(self, server_stack):
        _, _, _, base = server_stack
        payload = get_json(base + "/healthz")
        assert payload == {"status": "ok", "models": ["ir"]}

    def test_models(self, server_stack):
        _, framework, _, base = server_stack
        payload = get_json(base + "/models")
        info = payload["models"]["ir"]
        assert info["estimator"] == "SelfLearningEncodingFramework"
        assert info["fast_path"] is True
        assert info["n_features"] == 6
        assert info["n_hidden"] == 4
        assert info["dtype"] == "float64"

    def test_stats_shape(self, server_stack):
        _, _, _, base = server_stack
        payload = get_json(base + "/stats")
        assert set(payload) == {"models", "cache", "fusion", "admission"}
        assert "ir" in payload["models"]
        assert payload["fusion"]["max_batch_rows"] == 64
        assert "entries" in payload["cache"]

    def test_unknown_route(self, server_stack):
        _, _, _, base = server_stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(base + "/nope")
        assert excinfo.value.code == 404


class TestEncodeRoute:
    def test_encode_matches_direct_service_call(self, server_stack):
        service, framework, data, base = server_stack
        matrix = data[:7].tolist()
        payload = post_json(base + "/encode", {"model": "ir", "data": matrix})
        direct = service.encode("ir", np.asarray(matrix), use_cache=False)
        assert payload["model"] == "ir"
        assert payload["shape"] == list(direct.shape)
        assert payload["dtype"] == str(direct.dtype)
        assert payload["fused"] is True
        np.testing.assert_array_equal(np.asarray(payload["features"]), direct)

    def test_concurrent_http_clients_fuse(self, server_stack):
        service, framework, data, base = server_stack
        n_clients = 4
        barrier = threading.Barrier(n_clients)
        outputs: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def client(index: int) -> None:
            barrier.wait()
            try:
                chunk = data[index * 5 : (index + 1) * 5].tolist()
                response = post_json(
                    base + "/encode",
                    {"model": "ir", "data": chunk, "use_cache": False},
                )
                outputs[index] = np.asarray(response["features"])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        for index in range(n_clients):
            expected = framework.transform(data[index * 5 : (index + 1) * 5])
            np.testing.assert_allclose(outputs[index], expected)

    def test_unknown_model_is_404(self, server_stack):
        _, _, data, base = server_stack
        code, payload = post_error(
            base + "/encode",
            json.dumps({"model": "missing", "data": data[:2].tolist()}).encode(),
        )
        assert code == 404
        assert "missing" in payload["error"]

    def test_missing_fields_are_400(self, server_stack):
        _, _, data, base = server_stack
        code, payload = post_error(
            base + "/encode", json.dumps({"data": data[:2].tolist()}).encode()
        )
        assert code == 400
        code, payload = post_error(
            base + "/encode", json.dumps({"model": "ir"}).encode()
        )
        assert code == 400
        assert "data" in payload["error"]

    def test_invalid_json_is_400(self, server_stack):
        _, _, _, base = server_stack
        code, payload = post_error(base + "/encode", b"this is not json")
        assert code == 400
        assert "JSON" in payload["error"]

    def test_wrong_width_is_400(self, server_stack):
        _, _, _, base = server_stack
        code, _ = post_error(
            base + "/encode",
            json.dumps({"model": "ir", "data": [[1.0, 2.0]]}).encode(),
        )
        assert code == 400

    def test_post_to_unknown_route_is_404(self, server_stack):
        _, _, _, base = server_stack
        code, _ = post_error(base + "/models", json.dumps({}).encode())
        assert code == 404

    def test_keep_alive_survives_unknown_route_post(self, server_stack):
        # The body of a rejected POST must be drained, or the next request
        # on the same persistent connection is parsed out of the leftover
        # body bytes.
        import http.client

        _, _, _, base = server_stack
        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.request(
                "POST", "/nope", body=json.dumps({"x": 1}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            connection.request("GET", "/healthz")
            followup = connection.getresponse()
            assert followup.status == 200
            assert json.loads(followup.read())["status"] == "ok"
        finally:
            connection.close()


class TestWithoutFusion:
    def test_server_without_fuser_encodes_directly(self, fitted):
        framework, data = fitted
        service = EncodingService()
        service.register("ir", framework)
        server = build_async_server(service, port=0)
        server.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            payload = post_json(
                base + "/encode", {"model": "ir", "data": data[:3].tolist()}
            )
            assert payload["fused"] is False
            stats = get_json(base + "/stats")
            assert stats["fusion"] is None
        finally:
            server.shutdown()
            server.server_close()


class TestRequestHardening:
    """Malformed framing must get an error response, never a hung thread."""

    @staticmethod
    def raw_request(base, headers, body=b""):
        """POST /encode with hand-rolled headers (http.client would insert
        a correct Content-Length, which is exactly what these tests must
        be able to omit or corrupt)."""
        import http.client

        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/encode", skip_accept_encoding=True)
            for name, value in headers.items():
                connection.putheader(name, value)
            connection.endheaders()
            if body:
                connection.send(body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_oversized_content_length_is_413(self, server_stack):
        from repro.serving.http import MAX_BODY_BYTES

        _, _, _, base = server_stack
        # The server must reject from the header alone — this request never
        # sends (nor could it) the advertised 64 MiB body.
        status, payload = self.raw_request(
            base, {"Content-Length": str(MAX_BODY_BYTES + 1)}
        )
        assert status == 413
        assert "exceeds" in payload["error"]

    def test_missing_content_length_is_400(self, server_stack):
        _, _, _, base = server_stack
        status, payload = self.raw_request(base, {})
        assert status == 400
        assert "Content-Length" in payload["error"]

    @pytest.mark.parametrize("value", ["not-a-number", "-5", "1e6"])
    def test_invalid_content_length_is_400(self, server_stack, value):
        _, _, _, base = server_stack
        status, payload = self.raw_request(base, {"Content-Length": value})
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_zero_content_length_is_400(self, server_stack):
        _, _, _, base = server_stack
        status, payload = self.raw_request(base, {"Content-Length": "0"})
        assert status == 400
        assert "body" in payload["error"]

    def test_oversized_post_to_unknown_route_is_404_not_hang(self, server_stack):
        from repro.serving.http import MAX_BODY_BYTES

        _, _, _, base = server_stack
        import http.client

        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/nope", skip_accept_encoding=True)
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            # A body past the cap cannot be consumed; the route error wins
            # and the connection is severed instead of read dry.
            assert response.status == 404
        finally:
            connection.close()

    def test_server_stays_responsive_after_rejections(self, server_stack):
        _, _, data, base = server_stack
        self.raw_request(base, {"Content-Length": "garbage"})
        payload = post_json(
            base + "/encode", {"model": "ir", "data": data[:2].tolist()}
        )
        assert payload["model"] == "ir"
