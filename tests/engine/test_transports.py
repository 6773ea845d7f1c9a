"""Transport-layer coverage: wire codec, delta dictionaries, factory, parity.

The end-to-end guarantee — identical detections and checkpoint bytes over
every transport — is asserted here on a small deterministic workload (and
again, per transport, by the CI ``sharded-transports`` job over the full
equivalence suite).  The rest of the module exercises the wire format and
the per-channel delta-dictionary protocol in isolation.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.engine import DetectionEngine
from repro.engine.sharded import ShardedDetectionEngine
from repro.engine.transport import (
    TRANSPORTS,
    PipeTransport,
    make_transport,
)
from repro.engine.transport.wire import (
    DictDecoder,
    DictEncoder,
    decode_frame,
    encode_frame,
)
from repro.exceptions import ConfigurationError, ShardingError
from repro.streaming.attributes import EncodedAttributes
from repro.streaming.batch import RecordBatch
from repro.streaming.record import OperationalRecord


def make_batch(paths, start=0.0, attributes=None) -> RecordBatch:
    records = [
        OperationalRecord(start + 90.0 * i, path, (attributes or [{}] * len(paths))[i])
        for i, path in enumerate(paths)
    ]
    return RecordBatch.from_records(records)


def single_batch_of(decoded):
    """The one RecordBatch embedded in a decoded command structure."""
    found = []

    def walk(obj):
        if isinstance(obj, RecordBatch):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                walk(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                walk(item)

    walk(decoded)
    assert len(found) == 1, decoded
    return found[0]


# ----------------------------------------------------------------------
# Wire codec (stateless mode)
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_round_trips_uncoded_batch(self):
        batch = make_batch([("a", "x"), ("b", "y"), ("a", "x")])
        command = ("ingest", [(("s", "p", 0), "sub", [(0, batch), (2, None)])])
        frame, serialized = encode_frame(command)
        decoded = decode_frame(frame)
        out = single_batch_of(decoded)
        assert list(out) == list(batch)
        assert decoded[0] == "ingest"
        assert decoded[1][0][0] == ("s", "p", 0)
        assert decoded[1][0][2][1] == (2, None)
        assert 0 < serialized < len(frame)

    def test_round_trips_coded_batch(self):
        dictionary = [("a", "x"), ("b", "y")]
        batch = RecordBatch.from_dictionary_codes(
            [0.0, 90.0, 180.0], [1, 0, 1], dictionary
        )
        frame, _ = encode_frame(("ingest", batch))
        out = single_batch_of(decode_frame(frame))
        assert out.categories == batch.categories
        assert list(out.timestamps) == list(batch.timestamps)

    def test_round_trips_structures_without_batches(self):
        command = ("query", {"keys": [("w", "a"), ("s", "b", 1)], "n": 3})
        frame, serialized = encode_frame(command)
        assert decode_frame(frame) == command
        # No columns: everything went through pickle.
        assert serialized == len(
            pickle.dumps(command, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def test_empty_batch_round_trips(self):
        frame, _ = encode_frame(("ingest", RecordBatch.empty()))
        out = single_batch_of(decode_frame(frame))
        assert len(out) == 0

    @pytest.mark.parametrize(
        "attributes",
        [
            [{"stream": "s1"}, {}],
            [{}, {}],  # all-empty still names a column
            EncodedAttributes.from_window(
                b"{}", np.array([2, 0], dtype="<i4").tobytes()
            ),
        ],
        ids=["dicts", "all-empty", "encoded"],
    )
    def test_a_batch_with_an_attribute_column_is_refused(self, attributes):
        # Frames carry timestamps and codes only: the dispatcher strips the
        # attribute column first, so one reaching the codec is a bug to
        # surface, not a column to drop silently.
        batch = RecordBatch.from_dictionary_codes(
            [0.0, 90.0], [0, 1], [("a", "x"), ("b", "y")], attributes
        )
        for encoder in (None, DictEncoder()):
            with pytest.raises(ShardingError, match="attribute column"):
                encode_frame(("ingest", [(("s", "p", 0), batch, [])]), encoder)

    def test_columns_bypass_pickle(self):
        batch = make_batch([("a", "x")] * 2048)
        command = ("ingest", batch)
        _, serialized = encode_frame(command)
        pickled_whole = len(pickle.dumps(list(batch)))
        assert serialized < pickled_whole / 4

    def test_bad_magic_rejected(self):
        with pytest.raises(ShardingError, match="magic"):
            decode_frame(b"NOPE" + b"\x00" * 64)


# ----------------------------------------------------------------------
# Delta dictionaries (per-channel stateful mode)
# ----------------------------------------------------------------------
class TestDeltaDictionaries:
    def test_dictionary_saturates_to_shared_object(self):
        encoder, decoder = DictEncoder(), DictDecoder()
        paths = [("a", "x"), ("b", "y")]
        first = single_batch_of(
            decode_frame(encode_frame(("i", make_batch(paths)), encoder)[0], decoder)
        )
        second = single_batch_of(
            decode_frame(encode_frame(("i", make_batch(paths)), encoder)[0], decoder)
        )
        assert first.categories == second.categories == paths
        # Steady state: both batches share one saturated dictionary object,
        # so identity-keyed caches downstream hit on every frame.
        assert second.code_dictionary is first.code_dictionary

    def test_growth_is_copy_on_write(self):
        encoder, decoder = DictEncoder(), DictDecoder()
        first = single_batch_of(
            decode_frame(
                encode_frame(("i", make_batch([("a", "x")])), encoder)[0], decoder
            )
        )
        old_dictionary = first.code_dictionary
        old_len = len(old_dictionary)
        second = single_batch_of(
            decode_frame(
                encode_frame(
                    ("i", make_batch([("a", "x"), ("b", "y")])), encoder
                )[0],
                decoder,
            )
        )
        # A non-empty delta swaps in a NEW list; the first batch's
        # dictionary object must never change size under it.
        assert second.code_dictionary is not old_dictionary
        assert len(old_dictionary) == old_len
        assert second.categories == [("a", "x"), ("b", "y")]

    def test_desync_rejected(self):
        encoder = DictEncoder()
        encode_frame(("i", make_batch([("a", "x")])), encoder)  # advances encoder
        frame, _ = encode_frame(("i", make_batch([("b", "y")])), encoder)
        # A decoder that missed the first frame holds 0 entries, not 1.
        with pytest.raises(ShardingError, match="desync"):
            decode_frame(frame, DictDecoder())

    def test_delta_frame_requires_decoder(self):
        frame, _ = encode_frame(("i", make_batch([("a", "x")])), DictEncoder())
        with pytest.raises(ShardingError, match="DictDecoder"):
            decode_frame(frame)

    def test_coded_batches_translate_to_channel_codes(self):
        encoder, decoder = DictEncoder(), DictDecoder()
        # Two coded batches over *different* per-file dictionaries, like two
        # columnar trace files read back to back.
        first = RecordBatch.from_dictionary_codes(
            [0.0, 90.0], [0, 1], [("a", "x"), ("b", "y")]
        )
        second = RecordBatch.from_dictionary_codes(
            [180.0, 270.0], [1, 0], [("c", "z"), ("a", "x")]
        )
        out1 = single_batch_of(
            decode_frame(encode_frame(("i", first), encoder)[0], decoder)
        )
        out2 = single_batch_of(
            decode_frame(encode_frame(("i", second), encoder)[0], decoder)
        )
        assert out1.categories == first.categories
        assert out2.categories == second.categories
        assert len(encoder) == 3  # ("a","x") coded once across both files

    def test_saturated_frames_ship_no_dictionary_bytes(self):
        encoder = DictEncoder()
        batch = make_batch([("very", "long", "category", "path", str(i)) for i in range(64)])
        _, first_serialized = encode_frame(("i", batch), encoder)
        _, second_serialized = encode_frame(("i", batch), encoder)
        assert second_serialized < first_serialized / 2


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
class TestMakeTransport:
    def test_registry_names(self):
        assert sorted(TRANSPORTS) == ["pipe", "shm", "tcp"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown shard transport"):
            make_transport("carrier-pigeon")

    def test_instance_passes_through(self):
        transport = PipeTransport()
        assert make_transport(transport) is transport

    def test_instance_with_options_rejected(self):
        with pytest.raises(ConfigurationError, match="transport name"):
            make_transport(PipeTransport(), {"segment_bytes": 1})

    def test_bad_options_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid options"):
            make_transport("shm", {"bogus_option": 1})


# ----------------------------------------------------------------------
# End-to-end parity across transports
# ----------------------------------------------------------------------
@pytest.fixture
def parity_config() -> TiresiasConfig:
    return TiresiasConfig(
        theta=3.0,
        ratio_threshold=2.0,
        difference_threshold=3.0,
        delta_seconds=900.0,
        window_units=16,
        reference_levels=1,
        track_root=False,
        allow_root_heavy=False,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.3),
    )


def parity_records(tree, units=10, per_unit=6):
    leaves = tree.leaf_paths()
    return [
        OperationalRecord(unit * 900.0 + i * 90.0, leaves[(unit + i) % len(leaves)])
        for unit in range(units)
        for i in range(per_unit)
    ]


def canonical_state(state: dict) -> str:
    """Timing-free canonical JSON of a session state (order-insensitive
    where the checkpoint format documents order as insignificant)."""
    state = json.loads(json.dumps(state))
    state["reading_seconds"] = 0.0
    algo = state["algorithm_state"]
    algo["stage_seconds"] = {}
    for field, rows in list(algo.items()):
        if isinstance(rows, list):
            algo[field] = sorted(json.dumps(row, sort_keys=True) for row in rows)
    state["pending"] = sorted(state["pending"], key=lambda kv: kv[0])
    return json.dumps(state, sort_keys=True)


@pytest.mark.parametrize("transport", ["pipe", "shm", "tcp"])
def test_transport_parity_with_serial(transport, small_tree, parity_config, clock):
    records = parity_records(small_tree)
    serial = DetectionEngine()
    serial.add_session("p", small_tree, parity_config, clock=clock)
    serial_results = serial.process_stream(records)["p"]
    serial_anomalies = [a.to_dict() for a in serial.anomalies()["p"]]
    serial_state = serial.state_dict()["sessions"][0]

    with ShardedDetectionEngine(num_workers=2, transport=transport) as engine:
        engine.add_session(
            "p", small_tree, parity_config, clock=clock, subtree_shards=2
        )
        results = engine.process_stream(records)["p"]
        anomalies = [a.to_dict() for a in engine.anomalies()["p"]]
        state = engine.merged_session_state("p")
        stats = engine.transport_stats()

    assert results == serial_results
    assert anomalies == serial_anomalies
    assert canonical_state(state) == canonical_state(serial_state)
    assert stats["transport"] == transport
    assert stats["ships"] > 0 and stats["collects"] > 0
    # The raw-columns claim, as a hard bound on every transport: the ingest
    # columns are part of the shipped bytes and none of them may pass
    # through pickle.
    assert stats["ship_serialized_bytes"] < stats["ship_bytes"]
