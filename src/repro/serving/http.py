"""Serving semantics behind ``python -m repro serve``: gateway, backends, errors.

Everything an ``/encode`` request passes through that is not connection
I/O lives here: :class:`ServingGateway` (admission control, deadline
budgets, dispatch and the ``/models``/``/stats`` snapshots), the in-process
:class:`LocalEncodeBackend` (an :class:`EncodingService`, optionally behind
a :class:`~repro.serving.fusion.BatchFuser`) and :func:`map_encode_exception`,
the one table mapping failures to HTTP statuses.  The gateway can also
dispatch to the multi-process :class:`~repro.serving.shard.ShardPool`.
Connections are served by the asyncio front end,
:class:`~repro.serving.async_http.AsyncEncodingServer`, both for
``repro serve`` and inside every shard worker.

Routes
------
``GET /healthz``
    Liveness probe: ``{"status": "ok", "models": [...]}``.
``GET /models``
    Registered model names and per-model serving configuration.
``GET /stats``
    Per-model counters (including the queue/compute split and fusion
    ratio), cache counters and the fuser configuration.
``POST /encode``
    Body ``{"model": name, "data": [[...], ...], "use_cache": true,
    "deadline_ms": 50}`` (the last two optional); responds
    ``{"features": [[...], ...], "shape": [n, k], "dtype": ...}``.

Overload protection: a gateway built with ``max_in_flight`` answers
``503`` with a ``Retry-After`` header once that many ``/encode`` requests
are in flight, instead of queueing unboundedly until every client times
out.  A request carrying ``deadline_ms`` is shed the same way when its
budget is spent before compute can start — on the fused path the budget
caps the coalescing wait, on the unfused path it is enforced at compute
start (covering the wait for the model's compute lock).  Shed/admitted
counters appear under ``"admission"`` in ``/stats``.

Error mapping: unknown model name or route → 404, invalid input or body →
400, missing/bad secret → 401, oversized body → 413, overload, spent
deadline or a closing server → 503 (+ ``Retry-After``), anything else →
500; every error body is ``{"error": message}``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.exceptions import (
    DeadlineExceededError,
    ServingError,
    ValidationError,
)
from repro.serving.fusion import BatchFuser, FuserClosedError
from repro.serving.service import EncodingService
from repro.serving.stats import AdmissionStats
from repro.serving.wire import MAX_BODY_BYTES, PayloadTooLargeError
from repro.utils.validation import check_positive_int

__all__ = [
    "DeadlineExceededError",
    "LocalEncodeBackend",
    "ServingGateway",
    "map_encode_exception",
    "MAX_BODY_BYTES",
]


def map_encode_exception(exc: BaseException, gateway: "ServingGateway"):
    """``(status, payload, headers)`` for an exception out of ``handle_encode``.

    The single source of the error mapping: the front end answers every
    failure of an ``/encode`` request through this table.
    """
    if isinstance(exc, (DeadlineExceededError, FuserClosedError)):
        return (
            503,
            {"error": str(exc)},
            {"Retry-After": gateway.retry_after_header},
        )
    if isinstance(exc, ServingError):
        return 404, {"error": str(exc)}, {}
    if isinstance(exc, PayloadTooLargeError):
        return 413, {"error": str(exc)}, {}
    if isinstance(exc, (ValidationError, ValueError, TypeError)):
        return 400, {"error": str(exc)}, {}
    return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}


class LocalEncodeBackend:
    """In-process encode backend: an :class:`EncodingService` + optional fuser.

    The default backend behind ``repro serve``.  ``/encode`` requests
    whose ``use_cache`` matches the fuser's configuration go through the
    fusion queue (concurrent requests share one stacked matmul, the
    deadline budget caps the coalescing wait); mismatching requests fall
    back to a direct ``service.encode`` with the budget enforced at
    compute start.
    """

    def __init__(
        self, service: EncodingService, fuser: BatchFuser | None = None
    ) -> None:
        if fuser is not None and fuser.service is not service:
            raise ValidationError("fuser must wrap the same EncodingService")
        self.service = service
        self.fuser = fuser

    @property
    def model_names(self) -> list[str]:
        return self.service.model_names

    def encode_request(
        self, name: str, request: dict, budget_ms: float | None
    ) -> dict:
        if "data" not in request:
            raise ValidationError("request must carry a 'data' matrix")
        data = np.asarray(request["data"], dtype=float)
        use_cache = bool(request.get("use_cache", True))
        used_fuser = self.fuser is not None and use_cache == self.fuser.use_cache
        if used_fuser:
            features = self.fuser.encode(name, data, max_wait_ms=budget_ms)
        else:
            features = self.service.encode(
                name, data, use_cache=use_cache, budget_ms=budget_ms
            )
        return {
            "model": name,
            "features": features.tolist(),
            "shape": list(features.shape),
            "dtype": str(features.dtype),
            "fused": used_fuser,
        }

    def describe_models(self) -> dict:
        return self.service.describe_models()

    def describe_stats(self) -> dict:
        payload = {
            "models": self.service.stats(),
            "cache": self.service.cache_info,
            "fusion": None,
        }
        if self.fuser is not None:
            payload["fusion"] = {
                "max_batch_rows": self.fuser.max_batch_rows,
                "max_wait_ms": self.fuser.max_wait_ms,
                "use_cache": self.fuser.use_cache,
            }
        return payload

    def close(self) -> None:
        if self.fuser is not None:
            self.fuser.close()


class ServingGateway:
    """Serving logic apart from connection I/O: admission, deadlines, dispatch.

    Owned by exactly one :class:`~repro.serving.async_http.AsyncEncodingServer`
    and dispatching to exactly one backend (local service or shard pool).
    """

    def __init__(
        self,
        backend,
        *,
        max_in_flight: int | None = None,
        retry_after: float = 1.0,
    ) -> None:
        self.backend = backend
        self.max_in_flight = (
            check_positive_int(max_in_flight, name="max_in_flight")
            if max_in_flight is not None
            else None
        )
        if retry_after <= 0:
            raise ValidationError(f"retry_after must be > 0, got {retry_after}")
        self.retry_after = float(retry_after)
        self.admission = AdmissionStats()
        self._slots = (
            threading.BoundedSemaphore(self.max_in_flight)
            if self.max_in_flight is not None
            else None
        )

    # ------------------------------------------------------------ admission
    @property
    def retry_after_header(self) -> int:
        """``Retry-After`` is specified in whole seconds; round up."""
        return max(1, int(-(-self.retry_after // 1)))

    def try_admit(self) -> bool:
        """Claim an in-flight slot (non-blocking); False sheds the request."""
        if self._slots is not None and not self._slots.acquire(blocking=False):
            self.admission.shed()
            return False
        self.admission.admitted()
        return True

    def release_request(self) -> None:
        self.admission.released()
        if self._slots is not None:
            self._slots.release()

    # ------------------------------------------------------------- dispatch
    @property
    def model_names(self) -> list[str]:
        return self.backend.model_names

    def handle_encode(self, request: dict, *, arrival: float | None = None) -> dict:
        name = request.get("model")
        if not isinstance(name, str) or not name:
            raise ValidationError("request must name a 'model' (non-empty string)")
        budget_ms = self._remaining_budget_ms(request, arrival)
        try:
            return self.backend.encode_request(name, request, budget_ms)
        except DeadlineExceededError:
            # The budget died inside the backend (waiting on the compute
            # lock, or reported back by a shard worker); count it here so
            # every deadline shed lands in one counter regardless of where
            # it was detected.
            self.admission.deadline_shed()
            raise

    def _remaining_budget_ms(
        self, request: dict, arrival: float | None
    ) -> float | None:
        """What is left of the request's ``deadline_ms`` budget (None: no
        deadline).  A spent budget raises :class:`DeadlineExceededError`
        (counted as a deadline shed) instead of computing a result the
        client has already given up on."""
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            return None
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError):
            raise ValidationError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            ) from None
        if deadline_ms <= 0:
            raise ValidationError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        elapsed_ms = (
            (time.monotonic() - arrival) * 1000.0 if arrival is not None else 0.0
        )
        remaining = deadline_ms - elapsed_ms
        if remaining <= 0:
            self.admission.deadline_shed()
            raise DeadlineExceededError(
                f"deadline budget of {deadline_ms:g}ms was spent before "
                f"compute started ({elapsed_ms:.1f}ms elapsed)"
            )
        return remaining

    # -------------------------------------------------------- introspection
    def describe_models(self) -> dict:
        return self.backend.describe_models()

    def describe_stats(self) -> dict:
        payload = self.backend.describe_stats()
        payload["admission"] = {
            "max_in_flight": self.max_in_flight,
            "retry_after": self.retry_after,
            **self.admission.as_dict(),
        }
        return payload

    # ------------------------------------------------------------ lifecycle
    def drain(self, timeout: float | None = 10.0) -> bool:
        """Wait for every in-flight ``/encode`` request to release its slot."""
        return self.admission.wait_idle(timeout)

    def close(self) -> None:
        """Tear down the backend (flush/close the fuser, stop shard workers).

        Call only after the front end has stopped accepting and
        :meth:`drain` returned — in-flight requests still own the backend.
        """
        self.backend.close()
