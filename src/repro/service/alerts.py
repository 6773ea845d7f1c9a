"""Anomaly-alert egress: the PR 1 lifecycle hooks wired to the outside world.

The daemon subscribes these :class:`~repro.engine.hooks.EngineObserver`
implementations to every tenant session (fresh or resumed), turning the
in-process ``on_anomaly`` hook into operational outputs:

* :class:`JsonlAlertSink` appends one JSON line per anomaly to a file —
  the durable, replayable alert log;
* :class:`WebhookAlertSink` POSTs each anomaly to an HTTP endpoint.  The
  first attempt runs inline (one short-timeout request); failed deliveries
  move to a *bounded* retry queue drained by a background thread under
  capped exponential backoff with deterministic jitter, so an unreachable
  receiver never stalls multi-tenant detection and never grows memory
  without bound (the oldest queued alert is dropped — and counted — when
  the queue is full).

Both run on the ingest worker thread, inside the detection close.  The JSONL
sink is cheap (one buffered write).  Webhook delivery failures surface in
``/metrics`` (``failed_total`` / ``retried_total`` / ``dropped_total`` /
``last_error``) rather than as exceptions: hooks propagate exceptions by
design, and alerting must not take down detection.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from pathlib import Path
from random import Random
from typing import TYPE_CHECKING, Any, Callable

from repro.engine.hooks import EngineObserver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detector import Anomaly
    from repro.engine.session import DetectionSession

#: Seconds one delivery attempt may take.
TIMEOUT = 2.0
#: Retries after a failed first attempt before an alert is given up.
MAX_RETRIES = 4
#: Retry *k* waits ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(k-1))`` seconds plus
#: up to 10% jitter.
BACKOFF_BASE = 0.25
BACKOFF_CAP = 30.0
#: Alerts the retry queue holds; when it is full the oldest is dropped.
RETRY_QUEUE_MAX = 256


def _alert_document(session: "DetectionSession", anomaly: "Anomaly") -> dict[str, Any]:
    return {
        "tenant": session.name,
        "anomaly": anomaly.to_dict(),
        "emitted_unix": time.time(),
    }


class JsonlAlertSink(EngineObserver):
    """Append one JSON line per reported anomaly to a file."""

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        self._lock = threading.Lock()
        self.delivered_total = 0

    def on_anomaly(self, session: "DetectionSession", anomaly: "Anomaly") -> None:
        line = json.dumps(_alert_document(session, anomaly), sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            self.delivered_total += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def counters(self) -> dict[str, Any]:
        return {"path": str(self.path), "delivered_total": self.delivered_total}


class WebhookAlertSink(EngineObserver):
    """POST each reported anomaly to an HTTP endpoint, with bounded retries.

    Delivery policy:

    * the **first attempt** runs inline on the ingest thread (one request,
      :data:`TIMEOUT` seconds) — fast receivers see alerts with no added
      latency; a failure never raises;
    * a failed first attempt **enqueues** the payload on a bounded retry
      queue (:data:`RETRY_QUEUE_MAX` entries; when full, the *oldest* queued
      alert is dropped and ``dropped_total`` incremented — detection never
      blocks on alerting);
    * a lazily started daemon thread drains the queue under **capped
      exponential backoff** — attempt *k* waits
      ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(k-1))`` plus up to 10%
      jitter (0.25 s, 0.5 s, 1 s, ... capped at 30 s) — giving up after
      :data:`MAX_RETRIES` retries (``retries_exhausted_total``).

    ``sleep`` and ``rng`` are injectable so tests drive the backoff schedule
    deterministically (the default rng is seeded, making jitter reproducible
    within a process).
    """

    def __init__(
        self,
        url: str,
        sleep: "Callable[[float], None] | None" = None,
        rng: "Random | None" = None,
    ):
        self.url = url
        self._sleep = time.sleep if sleep is None else sleep
        self._rng = Random(1729) if rng is None else rng
        self.delivered_total = 0
        self.failed_total = 0
        self.retried_total = 0
        self.retries_exhausted_total = 0
        self.dropped_total = 0
        self.last_error: str | None = None
        self._queue: "deque[tuple[bytes, int]]" = deque()
        self._cond = threading.Condition()
        self._thread: "threading.Thread | None" = None
        self._inflight = 0
        self._stopped = False

    # ------------------------------------------------------------------
    def _post(self, payload: bytes) -> None:
        """One delivery attempt; raises on failure (overridable in tests)."""
        request = urllib.request.Request(
            self.url,
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=TIMEOUT):
            pass

    def _backoff_delay(self, attempt: int) -> float:
        delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (attempt - 1)))
        return delay + self._rng.uniform(0.0, 0.1 * delay)

    def on_anomaly(self, session: "DetectionSession", anomaly: "Anomaly") -> None:
        payload = json.dumps(_alert_document(session, anomaly)).encode("utf-8")
        try:
            self._post(payload)
            self.delivered_total += 1
        except (urllib.error.URLError, OSError, ValueError) as exc:
            self.failed_total += 1
            self.last_error = repr(exc)
            self._enqueue(payload, attempt=1)

    # ------------------------------------------------------------------
    # Retry queue
    # ------------------------------------------------------------------
    def _enqueue(self, payload: bytes, attempt: int) -> None:
        with self._cond:
            if self._stopped:
                return
            while len(self._queue) >= RETRY_QUEUE_MAX:
                self._queue.popleft()
                self.dropped_total += 1
            self._queue.append((payload, attempt))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._retry_loop,
                    name="repro-webhook-retry",
                    daemon=True,
                )
                self._thread.start()
            self._cond.notify()

    def _retry_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if self._stopped and not self._queue:
                    return
                payload, attempt = self._queue.popleft()
                self._inflight += 1
            try:
                self._sleep(self._backoff_delay(attempt))
                try:
                    self._post(payload)
                except (urllib.error.URLError, OSError, ValueError) as exc:
                    self.failed_total += 1
                    self.last_error = repr(exc)
                    if attempt >= MAX_RETRIES:
                        self.retries_exhausted_total += 1
                    else:
                        self._enqueue(payload, attempt + 1)
                else:
                    self.delivered_total += 1
                    self.retried_total += 1
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Block until the retry queue is drained (tests/shutdown); True if idle."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._queue or self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def close(self) -> None:
        """Stop the retry thread; queued-but-undelivered alerts are dropped."""
        with self._cond:
            self._stopped = True
            dropped = len(self._queue)
            self._queue.clear()
            self.dropped_total += dropped
            thread = self._thread
            self._cond.notify_all()
        if thread is not None:
            thread.join(timeout=5.0)

    def counters(self) -> dict[str, Any]:
        with self._cond:
            queue_depth = len(self._queue) + self._inflight
        return {
            "url": self.url,
            "delivered_total": self.delivered_total,
            "failed_total": self.failed_total,
            "retried_total": self.retried_total,
            "retries_exhausted_total": self.retries_exhausted_total,
            "dropped_total": self.dropped_total,
            "retry_queue_depth": queue_depth,
            "last_error": self.last_error,
        }
