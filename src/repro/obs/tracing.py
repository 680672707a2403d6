"""Distributed tracing: span contexts, propagation, and the ring buffer.

A *trace* is one user-visible request followed across tiers; a *span* is
one timed unit of work inside it (a client call, a server dispatch, a
storage fetch).  Context rides the existing wire protocol as an optional
``trace`` header key — ``[trace_id, span_id]`` — which non-negotiating
servers ignore by construction (``_decode_message`` tolerates unknown
header keys), so tracing needs no protocol bump.

Within a process, context propagates through a thread-local: the server
sets the current span around handler execution on its worker thread, and
any downstream client called from that thread (the engine's
``RemoteKeyValueStore``, the router's shard clients) picks it up as the
parent of its outbound span.  One request handled across client → router
→ engine shard → storage node therefore yields one connected span tree.

Spans are plain JSON-safe dicts recording only leakage-aware fields:
operation names, byte sizes, timings, scheduler class, node names.  Never
keys, plaintext, or query parameters.  They land in a bounded ring buffer
(:data:`SPANS` — per process, like the wire-memory counters) served
remotely by the ``trace_dump`` wire op; the collector drops the oldest
spans on overflow and can emit a threshold-driven slow-request log.
"""

from __future__ import annotations

import logging
import os
import threading
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

logger = logging.getLogger(__name__)

#: A trace context: ``(trace_id, span_id)`` of the currently active span.
Context = Tuple[str, str]

_STATE = threading.local()


def new_trace_id() -> str:
    """A fresh 64-bit trace id (hex). Random, not derived from request data."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (hex)."""
    return os.urandom(8).hex()


def current_context() -> Optional[Context]:
    """The thread's active span context, or ``None`` outside any span."""
    return getattr(_STATE, "context", None)


def set_context(context: Optional[Context]) -> Optional[Context]:
    """Install ``context`` as the thread's active span; returns the previous.

    Callers must restore the returned value when the span ends (the server
    does this in a ``finally``), so worker-pool threads never leak a stale
    context into the next request they pick up.
    """
    previous = getattr(_STATE, "context", None)
    _STATE.context = context
    return previous


class SpanCollector:
    """A bounded ring buffer of finished spans.

    Oldest spans are dropped on overflow (``capacity``), so a long-running
    server holds a sliding window rather than growing without bound.  With
    ``slow_ms`` set, any recorded span whose ``total_ms`` meets the
    threshold is logged at WARNING — the slow-request log an operator
    greps before reaching for ``trace_dump``.
    """

    def __init__(self, capacity: int = 4096, slow_ms: Optional[float] = None) -> None:
        if capacity <= 0:
            raise ValueError("span collector capacity must be positive")
        self._lock = threading.Lock()
        self._spans: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._recorded = 0
        self.slow_ms = slow_ms

    @property
    def recorded(self) -> int:
        """Spans recorded since creation (including any since dropped)."""
        return self._recorded

    def record(self, span: Dict[str, Any]) -> None:
        with self._lock:
            self._spans.append(span)
            self._recorded += 1
        slow_ms = self.slow_ms
        if slow_ms is not None and span.get("total_ms", 0.0) >= slow_ms:
            logger.warning(
                "slow request: op=%s node=%s trace=%s total_ms=%.1f",
                span.get("op"),
                span.get("node"),
                span.get("trace_id"),
                span.get("total_ms", 0.0),
            )

    def spans(
        self, trace_id: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Collected spans, oldest first, optionally filtered by trace id."""
        with self._lock:
            out = [
                dict(span)
                for span in self._spans
                if trace_id is None or span.get("trace_id") == trace_id
            ]
        if limit is not None:
            out = out[-limit:]
        return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Counter form for the metrics registry (not the spans themselves)."""
        with self._lock:
            return {"recorded": self._recorded, "buffered": len(self._spans)}


#: The process-global collector.  One per process — a multi-process
#: deployment dumps each node's buffer with its own ``trace_dump`` round
#: trip; the in-process topologies used by tests and examples share it, and
#: the ``node`` field on each span keeps the tiers apart.
SPANS = SpanCollector()

# The collector's counters are metrics like any other.
from repro.obs.metrics import REGISTRY as _REGISTRY  # noqa: E402  (import cycle-free: metrics is stdlib-only)

_REGISTRY.register("tracing.spans", SPANS)
