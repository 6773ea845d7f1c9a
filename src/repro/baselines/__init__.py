"""The baseline detector the paper compares Tiresias against.

* :class:`ControlChartDetector` -- the ISP operations team's current practice:
  control charts on the first-level (VHO) aggregates only (§VII-B).
"""

from repro.baselines.control_chart import ControlChartDetector

__all__ = ["ControlChartDetector"]
