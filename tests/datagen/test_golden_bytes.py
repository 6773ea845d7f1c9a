"""The generators' output, byte for byte.

Every golden dataset is regenerated from its spec and written with
:func:`~repro.io.jsonl_io.write_records_jsonl`; the bytes must equal the
committed ``tests/golden/*.jsonl``.  The golden detections are pinned against
those files (``tests/integration/test_golden_traces.py``); this pins the
generators that wrote them, so a change to how a trace is drawn — the vector
draws, the merge order of injected records, record construction — shows as a
byte difference here.

The same traces drawn as one batch (``record_list``) and written with
:func:`~repro.io.columnar.write_trace_columnar` must hash to the digests the
record lists wrote before traces were drawn as columns.
"""

from __future__ import annotations

import hashlib

from repro.io.columnar import write_trace_columnar
from repro.io.jsonl_io import write_records_jsonl

#: sha256 of each golden trace's ``.rcol`` file, written from its record list.
GOLDEN_RCOL_SHA256 = {
    "ccd_trouble": "a70530fe5f714237dcf10ea484be9db44bbd923f999212be86068c2d8a5ddf62",
    "ccd_network": "be25c810c0c89bf76232f87e3a8b3dca74936fa4306547cd8fab41af9e6c8bfb",
    "scd": "6f0212d83863cefbf3c9dc5e536603bbebe79b463e7a3bb8326f59cdcead2b0a",
}


def test_generator_reproduces_the_committed_trace(golden_spec, tmp_path):
    path = tmp_path / golden_spec.trace_path.name
    write_records_jsonl(golden_spec.dataset().records(), path)
    assert path.read_bytes() == golden_spec.trace_path.read_bytes()


def test_the_drawn_batch_writes_the_pinned_rcol_bytes(golden_spec, tmp_path):
    path = tmp_path / f"{golden_spec.name}.rcol"
    write_trace_columnar(golden_spec.dataset().record_list(), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_RCOL_SHA256[golden_spec.name]


def test_streamed_records_equal_the_batch_rows(golden_spec):
    dataset = golden_spec.dataset()
    assert dataset.anomalies, "the spec must inject anomalies"

    def rows(records):
        return [(r.timestamp, r.category, dict(r.attributes)) for r in records]

    streamed = rows(dataset.records())
    assert any(attributes for _, _, attributes in streamed)
    assert streamed == rows(dataset.record_list())
