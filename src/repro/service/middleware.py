"""Request vocabulary and the protection pipeline.

The HTTP layer (``service/server.py``) parses bytes into a
:class:`Request`; handlers return :class:`Response` objects; this
module owns what happens **between** them — the ordered gate every
request passes before any handler runs:

1. **Client identity** — ``X-Client-Id`` header when present, else the
   peer address.  Rate limits are per-client; an unidentified client is
   one bucket per source address.
2. **Rate limiting** — the per-client token bucket.  Over budget →
   ``429`` with ``Retry-After``; the request never reaches admission.
   A ``request-flood`` chaos directive from the fault injector makes a
   flagged request cost the client's whole bucket, driving the limiter
   into shedding deterministically in tests without needing thousands
   of real sockets.
3. **Error guard** — a handler exception becomes a ``503`` (journaled
   and counted), never a ``500``: the service's contract under chaos is
   that every response is one of 200/400/404/408/429/503, and an
   unexpected bug sheds load instead of leaking a traceback.

``/healthz`` and ``/stats`` bypass the rate limiter — operators must be
able to observe an overloaded service precisely when it is shedding.

Responses are rendered as canonical JSON (sorted keys, fixed
separators): byte-identical payloads for identical cached results are a
service guarantee, not an accident of dict ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: HTTP reason phrases for the status codes the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    429: "Too Many Requests",
    503: "Service Unavailable",
}

#: Paths exempt from rate limiting (observability must survive overload).
UNMETERED_PATHS = ("/healthz", "/stats")


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    peer: str = ""

    @property
    def client_id(self) -> str:
        """Rate-limit key: explicit client header, else peer address."""
        return self.headers.get("x-client-id", "") or self.peer or "?"

    def json(self) -> Any:
        """Parsed body, or raise ``ValueError`` on malformed JSON."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc


@dataclass
class Response:
    """One HTTP response; payload is rendered as canonical JSON."""

    status: int
    payload: Dict[str, Any] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)

    def body_bytes(self) -> bytes:
        """Canonical encoding: sorted keys, no whitespace jitter."""
        return json.dumps(
            self.payload, sort_keys=True, separators=(",", ":"),
            default=str,
        ).encode("utf-8")

    def serialize(self) -> bytes:
        body = self.body_bytes()
        reason = REASONS.get(self.status, "OK")
        head = [f"HTTP/1.1 {self.status} {reason}"]
        headers = {
            "content-type": "application/json",
            "content-length": str(len(body)),
            "connection": "close",
        }
        headers.update({k.lower(): v for k, v in self.headers.items()})
        head.extend(f"{name}: {value}" for name, value in headers.items())
        return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


def shed(status: int, why: str, retry_after_s: float = 0.0) -> Response:
    """A load-shedding response: 429/503 with ``Retry-After``."""
    headers = {}
    if retry_after_s > 0:
        # Ceil to a whole second: Retry-After is integer seconds, and
        # rounding down would invite an immediate, futile retry.
        headers["retry-after"] = str(max(1, int(retry_after_s + 0.999)))
    return Response(status, {"error": why, "status": "shed"}, headers)


class ProtectionPipeline:
    """The pre-handler gate: identity → flood chaos → rate limit."""

    def __init__(
        self, limiter: Any, stats: Dict[str, int], injector: Any = None
    ) -> None:
        self.limiter = limiter
        self.stats = stats
        self.injector = injector

    def before(self, request: Request, now: float) -> Optional[Response]:
        """A shedding response, or None to let the request through."""
        if request.path in UNMETERED_PATHS:
            return None
        cost = 1.0
        if self.injector is not None and self.injector.service_fault(
            "request-flood", request.client_id
        ):
            # A flooded request drains the client's whole bucket.
            cost = self.limiter.burst
            self.stats["flood_injected"] = (
                self.stats.get("flood_injected", 0) + 1
            )
        allowed, retry_after_s = self.limiter.check(
            request.client_id, now, cost=cost
        )
        if allowed:
            return None
        self.stats["rate_limited"] = self.stats.get("rate_limited", 0) + 1
        return shed(429, "rate limit exceeded for this client", retry_after_s)

    def guard(self, exc: Exception) -> Response:
        """Map an unexpected handler exception to a shed, never a 500."""
        self.stats["errors_guarded"] = self.stats.get("errors_guarded", 0) + 1
        return shed(
            503,
            f"internal error shed ({type(exc).__name__}); "
            f"the request was not processed",
            retry_after_s=1.0,
        )
