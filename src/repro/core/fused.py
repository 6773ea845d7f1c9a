"""Close-latency histogram of ADA's per-timeunit close.

:class:`CloseHistogram` tracks per-timeunit close wall times for the
service's ``/metrics`` endpoint and the perf ledger: one bisect per close.
"""

from __future__ import annotations

from bisect import bisect_left

#: Log-spaced bucket upper bounds in seconds; the last bucket is open-ended.
CLOSE_BUCKET_UPPERS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
)


class CloseHistogram:
    """Histogram of per-timeunit close wall times (cheap: one bisect each)."""

    __slots__ = ("counts", "count", "total_seconds", "max_seconds")

    def __init__(self) -> None:
        self.counts = [0] * (len(CLOSE_BUCKET_UPPERS) + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(CLOSE_BUCKET_UPPERS, seconds)] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def to_dict(self) -> dict:
        return {
            "bucket_upper_seconds": list(CLOSE_BUCKET_UPPERS),
            "counts": list(self.counts),
            "count": self.count,
            "total_seconds": self.total_seconds,
            "max_seconds": self.max_seconds,
        }

    @staticmethod
    def merge_dicts(histograms: "list[dict]") -> dict:
        """One histogram for several :meth:`to_dict` outputs (the shards of
        one session): buckets and totals add, the maximum is the largest."""
        return {
            "bucket_upper_seconds": list(histograms[0]["bucket_upper_seconds"]),
            "counts": [sum(col) for col in zip(*(h["counts"] for h in histograms))],
            "count": sum(h["count"] for h in histograms),
            "total_seconds": sum(h["total_seconds"] for h in histograms),
            "max_seconds": max(h["max_seconds"] for h in histograms),
        }


__all__ = ["CLOSE_BUCKET_UPPERS", "CloseHistogram"]
