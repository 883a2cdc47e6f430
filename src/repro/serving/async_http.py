"""The HTTP front end of the serving stack: ``python -m repro serve``.

:class:`AsyncEncodingServer` is the one server behind ``/encode``, both in
``repro serve`` and inside every shard worker
(:mod:`repro.serving.shard`).  It accepts JSON/HTTP on a single selector
event loop: hundreds of concurrent keep-alive connections cost one loop
thread plus a bounded :class:`~concurrent.futures.ThreadPoolExecutor` that
runs the CPU-bound encode work (numpy releases the GIL inside BLAS, so
executor threads overlap; the fixed pool also concentrates concurrent
requests into the :class:`~repro.serving.fusion.BatchFuser`'s coalescing
window).  Each response goes out in one write, so Nagle's algorithm never
holds back half a response waiting for a delayed ACK.

The route semantics — admission control, deadline budgets, dispatch,
``/models``/``/stats`` and the error table — live in
:class:`~repro.serving.http.ServingGateway` and
:func:`~repro.serving.http.map_encode_exception`; bodies are framed and
decoded with :func:`~repro.serving.wire.validate_content_length` and
:func:`~repro.serving.wire.decode_json_object`.

Lifecycle: :meth:`~AsyncEncodingServer.start` binds and begins accepting
(port 0 → ephemeral, ``server_address``/``server_port`` hold the bound
one), ``serve_forever`` blocks the calling thread,
:meth:`~AsyncEncodingServer.shutdown` performs the graceful sequence *stop
accepting → drain in-flight encodes → sever idle connections → close the
backend*, and :meth:`~AsyncEncodingServer.server_close` releases the loop
and executor.

The event loop runs on a dedicated background thread; every public method
is called from ordinary (non-loop) threads and marshals work in with
``run_coroutine_threadsafe``.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus

from repro.exceptions import ValidationError
from repro.serving.fusion import BatchFuser
from repro.serving.http import LocalEncodeBackend, ServingGateway, map_encode_exception
from repro.serving.service import EncodingService
from repro.serving.wire import (
    MAX_BODY_BYTES,
    SECRET_HEADER,
    PayloadTooLargeError,
    decode_json_object,
    validate_content_length,
)
from repro.utils.validation import check_positive_int

__all__ = ["AsyncEncodingServer", "build_async_server"]

#: Cap on one request head line / header line (stdlib servers use 64 KiB).
_HEAD_LIMIT = 64 * 1024


class AsyncEncodingServer:
    """Selector-loop HTTP server in front of a :class:`ServingGateway`.

    Parameters
    ----------
    address : (host, port)
        Bind address; port 0 picks an ephemeral port.
    service : EncodingService, optional
        Registry answering the requests (``None`` only with ``gateway``).
    fuser : BatchFuser, optional
        When given, ``/encode`` requests go through the fusion queue so
        concurrent requests for the same model share one matmul; without
        it each request is encoded directly.
    gateway : ServingGateway, optional
        Pre-built gateway (e.g. over a shard pool); mutually exclusive
        with ``service``/``fuser``/``max_in_flight``/``retry_after``.
    max_in_flight : int, optional
        Admission-control bound: at most this many ``/encode`` requests are
        processed concurrently; excess requests are answered ``503`` with a
        ``Retry-After`` header instead of queueing unboundedly.  ``None``
        (the default) disables the gate.
    retry_after : float, default 1.0
        Seconds advertised in the ``Retry-After`` header of shed requests.
    secret : str, optional
        Shared secret required (``X-Repro-Secret``) on every route except
        ``/healthz``.
    verbose : bool, default False
        Log one line per request to stderr.
    executor_threads : int, default 32
        Worker threads running the encode dispatch.  More threads let more
        concurrent requests reach the fuser's coalescing window at once;
        the loop thread itself never computes.
    """

    def __init__(
        self,
        address: tuple[str, int],
        service: EncodingService | None = None,
        *,
        fuser: BatchFuser | None = None,
        gateway: ServingGateway | None = None,
        max_in_flight: int | None = None,
        retry_after: float = 1.0,
        secret: str | None = None,
        verbose: bool = False,
        executor_threads: int = 32,
    ) -> None:
        if gateway is None:
            if service is None:
                raise ValidationError("either service or gateway is required")
            gateway = ServingGateway(
                LocalEncodeBackend(service, fuser),
                max_in_flight=max_in_flight,
                retry_after=retry_after,
            )
        elif service is not None or fuser is not None:
            raise ValidationError("pass either a gateway or a service, not both")
        self.gateway = gateway
        self.verbose = verbose
        self.auth_secret = str(secret) if secret else None
        self.executor_threads = check_positive_int(
            executor_threads, name="executor_threads"
        )
        self._bind_address = address
        self.server_address: tuple[str, int] = address
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._lifecycle_lock = threading.Lock()
        self._started = False
        self._shut_down = False
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    @property
    def server_port(self) -> int:
        return self.server_address[1]

    def start(self) -> None:
        """Bind the listener and start accepting (returns once listening)."""
        with self._lifecycle_lock:
            if self._started:
                raise RuntimeError("server is already started")
            self._started = True
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_threads, thread_name_prefix="repro-encode"
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-async", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._bind(), self._loop)
        try:
            self.server_address = future.result(timeout=30.0)
        except BaseException:
            self.shutdown()
            self.server_close()
            raise

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            # Cancelled tasks need one last spin to run their cleanup.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )

    async def _bind(self) -> tuple[str, int]:
        host, port = self._bind_address
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=_HEAD_LIMIT
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`shutdown` (Ctrl-C safe)."""
        if self._thread is None:
            raise RuntimeError("start() the server before serve_forever()")
        # Bounded joins so KeyboardInterrupt/SIGTERM reach the caller
        # promptly on every platform.
        while self._thread.is_alive():
            self._thread.join(timeout=0.2)

    def shutdown(self, *, drain_timeout: float = 10.0) -> None:
        """Graceful stop: stop accepting, drain in-flight, close the backend.

        The order is the point: closing the backend first would answer the
        in-flight requests with spurious errors from a dead fusion queue.
        The drain is bounded by ``drain_timeout``.  Idempotent; must not be
        called from the loop thread.
        """
        with self._lifecycle_lock:
            if self._shut_down or not self._started:
                self._shut_down = True
                return
            self._shut_down = True
        loop = self._loop
        if loop is not None and loop.is_running():
            # 1. Stop accepting new connections.
            asyncio.run_coroutine_threadsafe(self._stop_accepting(), loop).result(
                timeout=30.0
            )
        # 2. Wait for admitted /encode requests to write their responses
        #    and release their slots (the loop is still running for them).
        self.gateway.drain(timeout=drain_timeout)
        if loop is not None and loop.is_running():
            # 3. Sever whatever connections remain (idle keep-alives, and
            #    any request that outlived the drain timeout).
            asyncio.run_coroutine_threadsafe(self._close_connections(), loop).result(
                timeout=30.0
            )
        # 4. Only now is the backend torn down — nothing is using it.
        self.gateway.close()
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    async def _stop_accepting(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _close_connections(self) -> None:
        tasks = list(self._conn_tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def server_close(self) -> None:
        """Release the loop and executor (call after :meth:`shutdown`)."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._loop is not None and not self._loop.is_running():
            self._loop.close()

    def __enter__(self) -> "AsyncEncodingServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
        self.server_close()

    # ---------------------------------------------------------- connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    keep_alive = await self._handle_one_request(reader, writer)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    asyncio.LimitOverrunError,
                    ValueError,  # readline past the head limit
                ):
                    break
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass  # server shutdown severing the connection
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _handle_one_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return False
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            await self._respond(
                writer, 400, {"error": "malformed request line"}, close=True
            )
            return False
        method, path, version = parts
        headers = await self._read_headers(reader)
        if headers is None:
            await self._respond(
                writer, 400, {"error": "malformed request headers"}, close=True
            )
            return False
        keep_alive = self._keep_alive(version, headers)
        self._log(method, path)

        if method == "GET":
            handled_keep_alive = await self._handle_get(
                writer, path, headers, keep_alive
            )
        elif method == "POST":
            handled_keep_alive = await self._handle_post(
                reader, writer, path, headers, keep_alive
            )
        else:
            await self._respond(
                writer,
                501,
                {"error": f"unsupported method {method!r}"},
                close=True,
            )
            handled_keep_alive = False
        return handled_keep_alive

    async def _read_headers(self, reader: asyncio.StreamReader) -> dict | None:
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                return headers
            if not line.endswith(b"\n"):
                return None  # EOF mid-headers
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                return None
            headers[name.strip().lower()] = value.strip()

    @staticmethod
    def _keep_alive(version: str, headers: dict) -> bool:
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    # --------------------------------------------------------------- routes
    async def _handle_get(
        self, writer, path: str, headers: dict, keep_alive: bool
    ) -> bool:
        if path == "/healthz":
            # Liveness stays open: probes should not need the secret.
            await self._respond(
                writer,
                200,
                {"status": "ok", "models": self.gateway.model_names},
                close=not keep_alive,
            )
            return keep_alive
        if not self._authorized(headers):
            await self._send_unauthorized(writer)
            return False
        if path == "/models":
            payload = {"models": self.gateway.describe_models()}
            status = 200
        elif path == "/stats":
            payload = self.gateway.describe_stats()
            status = 200
        else:
            payload = {"error": f"unknown route {path!r}"}
            status = 404
        await self._respond(writer, status, payload, close=not keep_alive)
        return keep_alive

    async def _handle_post(
        self, reader, writer, path: str, headers: dict, keep_alive: bool
    ) -> bool:
        arrival = time.monotonic()
        if not self._authorized(headers):
            await self._send_unauthorized(writer)
            return False
        unknown_route = {"error": f"unknown route {path!r}"}
        try:
            length = validate_content_length(
                headers.get("content-length"), MAX_BODY_BYTES
            )
        except ValidationError as exc:
            # The unread body would desync the connection; sever it.  On a
            # route that does not exist the route error wins over framing.
            if path != "/encode":
                status, payload = 404, unknown_route
            elif isinstance(exc, PayloadTooLargeError):
                status, payload = 413, {"error": str(exc)}
            else:
                status, payload = 400, {"error": str(exc)}
            await self._respond(writer, status, payload, close=True)
            return False
        if path != "/encode":
            await self._discard(reader, length)
            await self._respond(writer, 404, unknown_route, close=not keep_alive)
            return keep_alive
        if not self.gateway.try_admit():
            # Shed before reading the body: an overloaded server should do
            # the least possible work per rejected request.
            await self._discard(reader, length)
            await self._respond(
                writer,
                503,
                {"error": "server is at capacity (max_in_flight reached)"},
                headers={"Retry-After": self.gateway.retry_after_header},
                close=not keep_alive,
            )
            return keep_alive
        try:
            raw = await reader.readexactly(length) if length else b""
            status, body, extra = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._encode_job, raw, arrival
            )
        finally:
            # Free the slot before the response goes out, so a client that
            # holds its response is never still counted in flight.  No
            # await separates this from the write below: a shutdown that
            # drained on this release cannot sever the connection first.
            self.gateway.release_request()
        await self._respond_raw(
            writer, status, body, headers=extra, close=not keep_alive
        )
        return keep_alive

    def _encode_job(self, raw: bytes, arrival: float) -> tuple[int, bytes, dict]:
        """Decode + dispatch + encode the response, all off the loop thread.

        JSON work for ``/encode`` is bulk (feature matrices), so it must
        not run on the selector loop — one big ``json.dumps`` there would
        stall every other connection.
        """
        try:
            request = decode_json_object(raw)
            payload = self.gateway.handle_encode(request, arrival=arrival)
            status, extra = 200, {}
        except Exception as exc:  # noqa: BLE001 - mapped to a status
            status, payload, extra = map_encode_exception(exc, self.gateway)
        return status, json.dumps(payload).encode("utf-8"), extra

    # -------------------------------------------------------------- helpers
    def _authorized(self, headers: dict) -> bool:
        if not self.auth_secret:
            return True
        provided = headers.get(SECRET_HEADER.lower()) or ""
        return hmac.compare_digest(
            provided.encode("utf-8"), self.auth_secret.encode("utf-8")
        )

    async def _send_unauthorized(self, writer) -> None:
        await self._respond(
            writer,
            401,
            {"error": f"missing or invalid {SECRET_HEADER} shared secret"},
            close=True,
        )

    @staticmethod
    async def _discard(reader: asyncio.StreamReader, length: int) -> None:
        """Consume an unread body so the keep-alive stream stays in sync."""
        if length > 0:
            await reader.readexactly(length)

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        headers: dict | None = None,
        close: bool = False,
    ) -> None:
        await self._respond_raw(
            writer,
            status,
            json.dumps(payload).encode("utf-8"),
            headers=headers,
            close=close,
        )

    async def _respond_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        *,
        headers: dict | None = None,
        close: bool = False,
    ) -> None:
        reason = HTTPStatus(status).phrase
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        if close:
            head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    def _log(self, method: str, path: str) -> None:
        if self.verbose:
            print(f"repro-serve-async: {method} {path}", file=sys.stderr)


def build_async_server(
    service: EncodingService | None = None,
    *,
    fuser: BatchFuser | None = None,
    gateway: ServingGateway | None = None,
    host: str = "127.0.0.1",
    port: int = 8000,
    max_in_flight: int | None = None,
    retry_after: float = 1.0,
    secret: str | None = None,
    verbose: bool = False,
    executor_threads: int = 32,
) -> AsyncEncodingServer:
    """Construct (without starting) an :class:`AsyncEncodingServer`."""
    return AsyncEncodingServer(
        (host, port),
        service,
        fuser=fuser,
        gateway=gateway,
        max_in_flight=max_in_flight,
        retry_after=retry_after,
        secret=secret,
        verbose=verbose,
        executor_threads=executor_threads,
    )
