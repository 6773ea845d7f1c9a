"""Lifecycle hooks for detection sessions.

The seed exposed anomalies only by polling ``detector.anomalies`` after the
stream ended — unusable for an always-on monitoring process.  Sessions now
dispatch events to subscribed observers as they happen:

* ``on_timeunit_closed(session, result)`` — a timeunit finished processing
  (fired for every timeunit, warm-up included);
* ``on_anomaly(session, anomaly)`` — an anomaly was reported (never fired for
  anomalies suppressed during warm-up);
* ``on_warmup_complete(session, timeunit)`` — the warm-up period ended; fired
  once, after the last suppressed timeunit closes (immediately after the
  first timeunit when ``warmup_units`` is 0);
* ``on_shadow_divergence(primary, shadow, timeunit, only_in_primary,
  only_in_shadow)`` — a running shadow experiment
  (:meth:`~repro.engine.session.DetectionSession.start_shadow`) closed a
  timeunit whose anomaly set differs from the primary's; the two tuples hold
  the anomalies reported by only one side.

Observers subclass :class:`EngineObserver` and override what they need, or
wrap plain callables with :class:`CallbackObserver`.  Subscribing at the
engine level (:meth:`~repro.engine.engine.DetectionEngine.subscribe`) attaches
the observer to every current and future session; the ``session`` argument
identifies the source (``session.name``).

Observer exceptions propagate to the caller: an alerting backend that cannot
deliver should fail loudly rather than silently lose detections.

Every closed timeunit reaches observers through :func:`notify_close`, in
the serial session and in the sharded engine alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro._types import TimeunitIndex
    from repro.core.detector import Anomaly
    from repro.core.results import TimeunitResult
    from repro.engine.session import DetectionSession


class EngineObserver:
    """Base class for lifecycle observers; every hook is a no-op by default."""

    def on_timeunit_closed(
        self, session: "DetectionSession", result: "TimeunitResult"
    ) -> None:
        """A timeunit was processed by ``session``."""

    def on_anomaly(self, session: "DetectionSession", anomaly: "Anomaly") -> None:
        """``session`` reported ``anomaly`` (post warm-up only)."""

    def on_warmup_complete(
        self, session: "DetectionSession", timeunit: "TimeunitIndex"
    ) -> None:
        """``session`` finished its warm-up period at ``timeunit``."""

    def on_shadow_divergence(
        self,
        primary: "DetectionSession",
        shadow: "DetectionSession",
        timeunit: "TimeunitIndex",
        only_in_primary: "tuple[Anomaly, ...]",
        only_in_shadow: "tuple[Anomaly, ...]",
    ) -> None:
        """``primary`` and its ``shadow`` disagree on ``timeunit``'s anomalies."""


def notify_close(
    observers: "Sequence[EngineObserver]", session, result: "TimeunitResult"
) -> None:
    """Fire one closed timeunit's hooks in protocol order.

    ``on_timeunit_closed``, then ``on_anomaly`` for each of ``result``'s
    anomalies, then — the first time ``session.units_processed`` (already
    counting this unit) reaches ``session.warmup_units`` —
    ``on_warmup_complete``.  ``session`` is what observers receive: a
    :class:`~repro.engine.session.DetectionSession` or the sharded engine's
    handle; its ``warmup_announced`` flag is set before the announcement
    fires, so it is made once even if an observer raises.
    """
    for observer in observers:
        observer.on_timeunit_closed(session, result)
    for anomaly in result.anomalies:
        for observer in observers:
            observer.on_anomaly(session, anomaly)
    if not session.warmup_announced and session.units_processed >= session.warmup_units:
        session.warmup_announced = True
        for observer in observers:
            observer.on_warmup_complete(session, result.timeunit)


class CallbackObserver(EngineObserver):
    """Adapter wrapping plain callables into the observer protocol.

    >>> session.subscribe(CallbackObserver(
    ...     on_anomaly=lambda session, anomaly: alerts.append(anomaly)))
    """

    def __init__(
        self,
        on_anomaly: Optional[Callable[["DetectionSession", "Anomaly"], None]] = None,
        on_timeunit_closed: Optional[
            Callable[["DetectionSession", "TimeunitResult"], None]
        ] = None,
        on_warmup_complete: Optional[
            Callable[["DetectionSession", "TimeunitIndex"], None]
        ] = None,
        on_shadow_divergence: Optional[Callable[..., None]] = None,
    ):
        self._on_anomaly = on_anomaly
        self._on_timeunit_closed = on_timeunit_closed
        self._on_warmup_complete = on_warmup_complete
        self._on_shadow_divergence = on_shadow_divergence

    def on_timeunit_closed(
        self, session: "DetectionSession", result: "TimeunitResult"
    ) -> None:
        if self._on_timeunit_closed is not None:
            self._on_timeunit_closed(session, result)

    def on_anomaly(self, session: "DetectionSession", anomaly: "Anomaly") -> None:
        if self._on_anomaly is not None:
            self._on_anomaly(session, anomaly)

    def on_warmup_complete(
        self, session: "DetectionSession", timeunit: "TimeunitIndex"
    ) -> None:
        if self._on_warmup_complete is not None:
            self._on_warmup_complete(session, timeunit)

    def on_shadow_divergence(
        self,
        primary: "DetectionSession",
        shadow: "DetectionSession",
        timeunit: "TimeunitIndex",
        only_in_primary: "tuple[Anomaly, ...]",
        only_in_shadow: "tuple[Anomaly, ...]",
    ) -> None:
        if self._on_shadow_divergence is not None:
            self._on_shadow_divergence(
                primary, shadow, timeunit, only_in_primary, only_in_shadow
            )
