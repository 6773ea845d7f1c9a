"""Operational data records (the paper's ``s_i = (k_i, t_i)``).

Each record carries the category path ``k_i`` (a leaf of the hierarchical
domain) and the timestamp ``t_i``.  Real CCD/SCD records also carry free-text
annotations and customer identifiers; those never reach the detection
algorithms, so the record keeps them in an opaque ``attributes`` mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Mapping

from repro._types import CategoryLike, CategoryPath, Timestamp
from repro.exceptions import StreamError


@dataclass(frozen=True, order=True)
class OperationalRecord:
    """One operational data item ``(category, timestamp)``.

    Records order by timestamp first so that lists of records can be sorted
    into stream order directly.  A non-finite timestamp or an empty category
    path raises :class:`~repro.exceptions.StreamError`.
    """

    timestamp: Timestamp
    category: CategoryPath = field(compare=False)
    attributes: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.category, tuple):
            object.__setattr__(self, "category", tuple(self.category))
        if not self.category:
            raise StreamError("a record must have a non-empty category path")
        if not isfinite(self.timestamp):
            raise StreamError(f"record timestamp {self.timestamp!r} is not finite")

    @classmethod
    def create(
        cls,
        timestamp: Timestamp,
        category: CategoryLike,
        **attributes: Any,
    ) -> "OperationalRecord":
        """Convenience constructor accepting any sequence of labels."""
        return cls(timestamp=float(timestamp), category=tuple(category), attributes=attributes)

    def with_category(self, category: CategoryLike) -> "OperationalRecord":
        """Return a copy of this record reclassified under ``category``."""
        return OperationalRecord(self.timestamp, tuple(category), self.attributes)

    def to_dict(self) -> dict[str, Any]:
        """Serializable representation used by the trace writers."""
        return {
            "timestamp": self.timestamp,
            "category": list(self.category),
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OperationalRecord":
        return cls(
            timestamp=float(data["timestamp"]),
            category=tuple(data["category"]),
            attributes=dict(data.get("attributes", {})),
        )
