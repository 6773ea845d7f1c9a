#!/usr/bin/env python3
"""Compare two ledger entries: ``compare.py PARENT.json CHANGE.json``.

One row per workload × end-to-end metric with both medians, both quartile
ranges, the metric's bound and a verdict:

``regressed``   the change's median is worse than the parent's by more than
                the bound;
``improved``    it is better by more than the distance between the parent's
                own quartiles;
``unchanged``   neither;
``unresolved``  the run-to-run spread of either side is wider than the bound,
                so the runs cannot tell — never reported as "unchanged".

The per-layer numbers that moved are listed under each workload.  Exit status
1 on any regression or a higher ``failed_share``; 2 when the entries are not
comparable (different seed, scale, run length, workload parameters or trace
bytes — or a smoke entry, which is never comparable).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Per-layer changes smaller than this are not listed.
LAYER_NOISE = 0.1


class NotComparable(Exception):
    pass


def check_comparable(parent: dict, change: dict) -> None:
    for entry in (parent, change):
        if entry.get("scale") != "full":
            raise NotComparable(f"a {entry.get('scale')!r} entry is never comparable")
    for key in ("schema", "seed", "seconds", "runs"):
        if parent.get(key) != change.get(key):
            raise NotComparable(f"{key} differs: {parent.get(key)!r} vs {change.get(key)!r}")
    for name, block in parent["workloads"].items():
        other = change["workloads"].get(name)
        if other is None:
            raise NotComparable(f"workload {name} is missing from the change entry")
        if "skipped" in block or "skipped" in other:
            continue
        for key in ("parameters", "trace_sha256"):
            if block[key] != other[key]:
                raise NotComparable(f"{name}: {key} differs")


def spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["median"]


def verdict(parent: dict, change: dict) -> "tuple[str, float]":
    """``(verdict, worsening)``; worsening is a share of the parent's median,
    positive when the change is worse."""
    worse = (change["median"] - parent["median"]) / parent["median"]
    if parent["better"] == "higher":
        worse = -worse
    if max(spread(parent), spread(change)) > parent["bound"]:
        return "unresolved", worse
    if worse > parent["bound"]:
        return "regressed", worse
    if -worse > spread(parent) and worse < 0:
        return "improved", worse
    return "unchanged", worse


def compare(parent: dict, change: dict) -> "tuple[list[str], bool]":
    """Report lines and whether the change may land (no regression)."""
    check_comparable(parent, change)
    lines, ok = [], True
    header = (
        f"{'workload':15s} {'metric':22s} {'parent':>12s} {'[q1, q3]':>24s} "
        f"{'change':>12s} {'[q1, q3]':>24s} {'bound':>6s} {'worse by':>9s}  verdict"
    )
    lines.append(header)
    for name, before in parent["workloads"].items():
        after = change["workloads"][name]
        if "skipped" in before or "skipped" in after:
            lines.append(f"{name:15s} skipped: {before.get('skipped') or after.get('skipped')}")
            continue
        for metric, a in before["end_to_end"].items():
            b = after["end_to_end"][metric]
            word, worse = verdict(a, b)
            ok = ok and word != "regressed"
            lines.append(
                f"{name:15s} {metric:22s} {a['median']:12.5g} "
                f"{'[%.5g, %.5g]' % (a['q1'], a['q3']):>24s} {b['median']:12.5g} "
                f"{'[%.5g, %.5g]' % (b['q1'], b['q3']):>24s} {a['bound']:6.2f} "
                f"{worse:+9.1%}  {word}"
            )
        if after["failed_share"] > before["failed_share"]:
            ok = False
            lines.append(
                f"{name:15s} failed_share rose: {before['failed_share']:.6f} -> "
                f"{after['failed_share']:.6f}  regressed"
            )
        if before["counts"] != after["counts"]:
            moved = {
                key: (before["counts"].get(key), after["counts"].get(key))
                for key in sorted({*before["counts"], *after["counts"]})
                if before["counts"].get(key) != after["counts"].get(key)
            }
            lines.append(f"{'':15s} exact counts differ: {moved}")
        layers_a, layers_b = before["per_layer"], after["per_layer"]
        if "skipped" in layers_a or "skipped" in layers_b:
            lines.append(f"{'':15s} per-layer: skipped")
            continue
        for metric, a in layers_a.items():
            b = layers_b.get(metric)
            if b is None or a["value"] == b["value"]:
                continue
            base = abs(a["value"]) or abs(b["value"])
            delta = (b["value"] - a["value"]) / base
            if abs(delta) >= LAYER_NOISE:
                lines.append(
                    f"{'':15s}   {metric:40s} {a['value']:12.5g} -> {b['value']:12.5g} "
                    f"{a['unit']:6s} {delta:+8.1%}"
                )
    return lines, ok


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    try:
        lines, ok = compare(parent, change)
    except NotComparable as exc:
        print(f"compare: not comparable: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
