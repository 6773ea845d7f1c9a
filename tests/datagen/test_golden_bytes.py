"""The generators' output, byte for byte.

Every golden dataset is regenerated from its spec and written with
:func:`~repro.io.jsonl_io.write_records_jsonl`; the bytes must equal the
committed ``tests/golden/*.jsonl``.  The golden detections are pinned against
those files (``tests/integration/test_golden_traces.py``); this pins the
generators that wrote them, so a change to how a trace is drawn — the vector
draws, the merge order of injected records, record construction — shows as a
byte difference here.
"""

from __future__ import annotations

from repro.io.jsonl_io import write_records_jsonl


def test_generator_reproduces_the_committed_trace(golden_spec, tmp_path):
    path = tmp_path / golden_spec.trace_path.name
    write_records_jsonl(golden_spec.dataset().records(), path)
    assert path.read_bytes() == golden_spec.trace_path.read_bytes()
