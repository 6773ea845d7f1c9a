"""Result objects shared by the STA and ADA algorithms."""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from repro._types import CategoryPath, TimeunitIndex, Weight
from repro.core.detector import Anomaly


class TimeunitResult:
    """Outcome of processing one detection timeunit.

    A result is held as columns: a path table, the lex-ordered row ids of
    the heavy hitters in it (``rows``; None when the table *is* the
    lex-ordered heavy hitter list), and one float64 actual and forecast per
    heavy hitter in that order.  ADA's close hands over the arrays it
    computed with the tree's path table (``HierarchyTree.paths``), so closing a
    timeunit shapes no per-path structure; :attr:`heavy_hitters`,
    :attr:`actuals` and :attr:`forecasts` are read-only views built on first
    read and cached.  A pickled result carries only its heavy hitters'
    paths and the two columns, never the table they index.

    Attributes
    ----------
    timeunit:
        Index of the detection timeunit.
    heavy_hitters:
        The succinct hierarchical heavy hitter set for this timeunit.
    actuals:
        Modified weight ``T[n, 1]`` for every tracked heavy hitter, in lex
        order.
    forecasts:
        Forecast ``F[n, 1]`` for every tracked heavy hitter, in lex order.
    anomalies:
        Anomalies detected in this timeunit (Definition 4).
    """

    __slots__ = (
        "_timeunit",
        "_paths",
        "_rows",
        "_actual",
        "_forecast",
        "_anomalies",
        "_heavy",
        "_actuals",
        "_forecasts",
    )

    def __init__(
        self,
        timeunit: TimeunitIndex,
        paths: Sequence[CategoryPath],
        actual: np.ndarray,
        forecast: np.ndarray,
        anomalies: tuple[Anomaly, ...] = (),
        rows: "np.ndarray | None" = None,
    ):
        self._timeunit = timeunit
        self._paths = paths
        self._rows = rows
        self._actual = actual
        self._forecast = forecast
        self._anomalies = anomalies
        self._heavy: "frozenset[CategoryPath] | None" = None
        self._actuals: "Mapping[CategoryPath, Weight] | None" = None
        self._forecasts: "Mapping[CategoryPath, Weight] | None" = None

    @property
    def timeunit(self) -> TimeunitIndex:
        return self._timeunit

    @property
    def anomalies(self) -> tuple[Anomaly, ...]:
        return self._anomalies

    def _heavy_paths(self) -> list[CategoryPath]:
        """The heavy hitters' paths in lex order — the columns' order."""
        paths = self._paths
        if self._rows is None:
            return list(paths)
        return [paths[row] for row in self._rows.tolist()]

    def columns(self) -> tuple[list[CategoryPath], np.ndarray, np.ndarray]:
        """``(heavy paths, actual, forecast)`` in lex order, building no
        view.  The arrays are the result's own: read them, do not write
        them."""
        return self._heavy_paths(), self._actual, self._forecast

    @property
    def heavy_hitters(self) -> frozenset[CategoryPath]:
        if self._heavy is None:
            self._heavy = frozenset(self._heavy_paths())
        return self._heavy

    @property
    def actuals(self) -> Mapping[CategoryPath, Weight]:
        if self._actuals is None:
            self._actuals = MappingProxyType(
                dict(zip(self._heavy_paths(), self._actual.tolist()))
            )
        return self._actuals

    @property
    def forecasts(self) -> Mapping[CategoryPath, Weight]:
        if self._forecasts is None:
            self._forecasts = MappingProxyType(
                dict(zip(self._heavy_paths(), self._forecast.tolist()))
            )
        return self._forecasts

    @property
    def num_heavy_hitters(self) -> int:
        return len(self._actual)

    @property
    def num_anomalies(self) -> int:
        return len(self._anomalies)

    def without_anomalies(self) -> "TimeunitResult":
        """The same result with its anomalies suppressed (warm-up)."""
        return TimeunitResult(
            self._timeunit, self._paths, self._actual, self._forecast, (), self._rows
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._timeunit == other._timeunit
            and np.array_equal(self._actual, other._actual)
            and np.array_equal(self._forecast, other._forecast)
            and self._heavy_paths() == other._heavy_paths()
            and self._anomalies == other._anomalies
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"TimeunitResult(timeunit={self._timeunit!r}, "
            f"heavy_hitters={self.heavy_hitters!r}, "
            f"actuals={dict(self.actuals)!r}, forecasts={dict(self.forecasts)!r}, "
            f"anomalies={self._anomalies!r})"
        )

    def __reduce__(self):
        columns = np.concatenate((self._actual, self._forecast)).tobytes()
        return (
            _unpickle,
            (self._timeunit, self._heavy_paths(), columns, self._anomalies),
        )


def _unpickle(
    timeunit: TimeunitIndex,
    paths: list[CategoryPath],
    columns: bytes,
    anomalies: tuple[Anomaly, ...],
) -> TimeunitResult:
    actual, forecast = np.frombuffer(columns, dtype=np.float64).reshape(2, -1)
    return TimeunitResult(timeunit, paths, actual, forecast, anomalies)
