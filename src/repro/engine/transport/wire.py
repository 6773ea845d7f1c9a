"""Zero-copy wire format for shard commands carrying record batches.

A shard command is an arbitrary picklable structure (tuples, lists, dicts,
scalars) with :class:`~repro.streaming.batch.RecordBatch` objects embedded
wherever the engine routed record columns.  Pickling batches is wasteful —
pickle walks every float — so :func:`encode_frame` separates the two:

* the **skeleton**: the command structure with every batch replaced by a
  picklable :class:`_BatchRef` placeholder (carrying the category
  dictionary and the index of the batch's first column), serialized with
  pickle;
* the **columns**: each batch's timestamps (``<f8``) and dictionary codes
  (``<i4``) as raw little-endian buffers, 8-byte aligned so the receiver
  can wrap them with ``numpy.frombuffer`` without copying.

A frame carries timestamps and codes only.  No worker verb reads a batch's
attribute column — routing by stream key happens coordinator-side — so the
sharded engine's dispatcher leaves it behind before anything is shipped
(``repro.engine.sharded._worker_columns``), and :func:`encode_frame`
refuses a batch that still carries one with
:class:`~repro.exceptions.ShardingError` instead of dropping it silently.

A batch always holds dictionary codes (one assembled from tuples by hand
numbered them at construction), so the code column is shipped as it is and
the decoded batch is a batch over the same records.

Delta dictionaries
------------------
Category paths repeat from ship to ship, so per-frame dictionaries would
dominate the skeleton once columns stop being pickled.  A transport that
holds one :class:`DictEncoder` per worker channel (all three do) ships
*cumulative* dictionaries instead: the encoder assigns every path a stable
code for the lifetime of the channel, each frame carries only the paths
the worker has not seen yet (``("delta", base, new_paths)``), and the
worker extends its :class:`DictDecoder` mirror on decode.  After the
category set saturates — a few frames into any steady workload —
dictionaries cost zero serialized bytes.  ``base`` is a desync guard: it
must equal the worker's current dictionary length or the frame is
rejected.

The decoder grows *copy-on-write*: applying a non-empty delta builds a new
list object rather than extending in place, because decoded batches hand
their dictionary to identity-keyed caches downstream (e.g. the session's
dense code→node map) — a dictionary object must never change size after a
batch has seen it.  In the steady state every batch shares one saturated
list, so those caches hit every time.

Frame layout (all integers little-endian)::

    b"RSF2" | <I crc32> | <I skeleton_len> | <I ncols> | ncols * <Q col_len>
    | skeleton | [pad to 8] col_0 | [pad to 8] col_1 | ...

A batch occupies two consecutive columns from its ``_BatchRef.index``:
``timestamps`` and ``codes``.

``crc32`` (:func:`zlib.crc32`) covers every byte after the checksum field.
Frames are coordinator<->worker internal — shared memory mappings and
sockets — so the check exists to *fail loudly*: a corrupted frame (bit
rot, a torn segment, an injected ``corrupt_frame`` fault) raises
:class:`~repro.exceptions.ShardingError` at decode instead of feeding
garbage records into detection, and the supervised engine treats the
resulting worker death as a recoverable fault.

The pipe transport sends a frame as one pipe message; the shared-memory
transport writes it into a ``multiprocessing.shared_memory`` segment (the
worker decodes straight out of the mapping); the TCP transport
length-prefixes it onto the socket.  :func:`encode_frame` also reports how
many bytes actually passed through pickle (``ship_serialized_bytes`` in the
transport stats).
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any

import numpy as np

from repro.exceptions import ShardingError
from repro.streaming.batch import Codebook, RecordBatch

_MAGIC = b"RSF2"
_CRC = struct.Struct("<I")
_HEADER = struct.Struct("<II")
_COL_LEN = struct.Struct("<Q")


class _BatchRef:
    """Picklable stand-in for a :class:`RecordBatch` inside a skeleton.

    ``index`` is the batch's first column in the frame.  ``dictionary`` is
    either a plain list of category paths (stateless encode) or a
    ``("delta", base, new_paths)`` triple referencing the receiving
    channel's cumulative dictionary (see module docstring).
    """

    __slots__ = ("index", "dictionary")

    def __init__(self, index, dictionary):
        self.index = index
        self.dictionary = dictionary


class DictEncoder:
    """Coordinator-side cumulative category dictionary for one channel.

    A :class:`~repro.streaming.batch.Codebook` that mirrors, path for path,
    the list the worker builds from the deltas it receives — both sides
    walk frames in the same order, so the code assignments agree by
    construction.  One encoder per worker channel; never share an encoder
    across channels.
    """

    __slots__ = ("book", "_translation")

    def __init__(self) -> None:
        self.book = Codebook()
        # (dictionary, translation) of the last batch dictionary seen.  A
        # trace reader shares one dictionary object between consecutive
        # batches (per file for ``.rcol``, while no new category appears for
        # the accumulator-built ones), so this hits on most frames of a
        # replay; an unbounded map would pin every dictionary ever seen.
        self._translation: "tuple | None" = None

    def __len__(self) -> int:
        return len(self.book)

    def translation_for(self, dictionary, delta: list):
        """Per-batch-dictionary table from batch codes to cumulative codes,
        reused while consecutive batches share one dictionary object; paths
        the channel has not seen are appended to ``delta`` (and to the
        cumulative dictionary) in first-appearance order."""
        cached = self._translation
        if cached is not None and cached[0] is dictionary:
            return cached[1]
        book = self.book
        base = len(book)
        translation = np.asarray(
            book.codes([tuple(path) for path in dictionary]), dtype="<i4"
        )
        delta.extend(book.entries[base:])
        self._translation = (dictionary, translation)
        return translation


class DictDecoder:
    """Receiver-side cumulative dictionary mirror for one channel.

    ``entries`` is the current dictionary list.  :meth:`apply` swaps in a
    *new* list object whenever a delta is non-empty (copy-on-write — see
    module docstring); previously decoded batches keep the object they were
    given, whose codes are all within its length by construction.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list = []

    def apply(self, base: int, delta) -> list:
        if len(self.entries) != base:
            raise ShardingError(
                f"shard dictionary desync: channel holds {len(self.entries)} "
                f"entries but the frame expects {base}"
            )
        if delta:
            self.entries = self.entries + [tuple(path) for path in delta]
        return self.entries


def _encode_batch(
    batch: RecordBatch, columns: list, encoder: "DictEncoder | None"
) -> _BatchRef:
    if batch.attributes is not None:
        raise ShardingError(
            "internal: a shard frame carries timestamps and codes only, but "
            "a batch with an attribute column was given to encode"
        )
    codes = batch.category_codes
    if encoder is None:
        dictionary: Any = list(batch.code_dictionary)
    else:
        delta: list = []
        base = len(encoder)
        codes = encoder.translation_for(batch.code_dictionary, delta)[codes]
        dictionary = ("delta", base, delta)
    ref = _BatchRef(len(columns), dictionary)
    columns.append(np.ascontiguousarray(batch.timestamps, dtype="<f8").tobytes())
    columns.append(np.ascontiguousarray(codes, dtype="<i4").tobytes())
    return ref


def _strip(obj: Any, columns: list, encoder: "DictEncoder | None") -> Any:
    if isinstance(obj, RecordBatch):
        return _encode_batch(obj, columns, encoder)
    if isinstance(obj, tuple):
        return tuple(_strip(item, columns, encoder) for item in obj)
    if isinstance(obj, list):
        return [_strip(item, columns, encoder) for item in obj]
    if isinstance(obj, dict):
        return {key: _strip(value, columns, encoder) for key, value in obj.items()}
    return obj


def _restore(obj: Any, columns: list, decoder: "DictDecoder | None") -> Any:
    if isinstance(obj, _BatchRef):
        timestamps = np.frombuffer(columns[obj.index], dtype="<f8")
        codes = np.frombuffer(columns[obj.index + 1], dtype="<i4")
        dictionary = obj.dictionary
        if isinstance(dictionary, tuple):
            _, base, delta = dictionary
            if decoder is None:
                raise ShardingError(
                    "delta-coded shard frame decoded without a channel "
                    "dictionary — pass decode_frame a per-connection "
                    "DictDecoder"
                )
            dictionary = decoder.apply(base, delta)
        else:
            dictionary = [tuple(path) for path in dictionary]
        return RecordBatch.from_dictionary_codes(timestamps, codes, dictionary)
    if isinstance(obj, tuple):
        return tuple(_restore(item, columns, decoder) for item in obj)
    if isinstance(obj, list):
        return [_restore(item, columns, decoder) for item in obj]
    if isinstance(obj, dict):
        return {
            key: _restore(value, columns, decoder) for key, value in obj.items()
        }
    return obj


def encode_frame(
    obj: Any, encoder: "DictEncoder | None" = None
) -> tuple[bytes, int]:
    """Encode ``obj`` into one frame.

    Returns ``(frame_bytes, serialized_bytes)`` where ``serialized_bytes``
    counts only what went through pickle (the skeleton); batch columns ride
    along as raw buffers.  With an ``encoder`` (one per worker channel),
    batch dictionaries are shipped as cumulative deltas — the receiver must
    then decode with the matching per-connection dictionary list.
    """
    columns: list[bytes] = []
    skeleton = pickle.dumps(
        _strip(obj, columns, encoder), protocol=pickle.HIGHEST_PROTOCOL
    )
    # Everything after the checksum field; the crc is computed over these
    # parts incrementally, so the frame is still joined exactly once.
    parts = [
        _HEADER.pack(len(skeleton), len(columns)),
        b"".join(_COL_LEN.pack(len(col)) for col in columns),
        skeleton,
    ]
    offset = len(_MAGIC) + _CRC.size + sum(len(part) for part in parts)
    for col in columns:
        pad = (-offset) % 8
        if pad:
            parts.append(b"\x00" * pad)
            offset += pad
        parts.append(col)
        offset += len(col)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([_MAGIC, _CRC.pack(crc)] + parts), len(skeleton)


def decode_frame(buf: Any, decoder: "DictDecoder | None" = None) -> Any:
    """Decode a frame produced by :func:`encode_frame`.

    ``buf`` may be ``bytes`` or a ``memoryview`` (e.g. a slice of a
    shared-memory mapping); the decoded batch columns are views into
    ``buf`` — the caller must keep the backing buffer alive until the
    decoded command has been fully consumed.

    ``decoder`` is the connection's cumulative :class:`DictDecoder` for
    delta-coded frames; it must be the same object for every frame of the
    connection.
    """
    view = memoryview(buf)
    if bytes(view[: len(_MAGIC)]) != _MAGIC:
        raise ShardingError("corrupt shard frame: bad magic")
    (expected_crc,) = _CRC.unpack_from(view, len(_MAGIC))
    body = view[len(_MAGIC) + _CRC.size :]
    actual_crc = zlib.crc32(body)
    if actual_crc != expected_crc:
        raise ShardingError(
            f"corrupt shard frame: checksum mismatch (expected "
            f"{expected_crc:#010x}, got {actual_crc:#010x})"
        )
    skeleton_len, ncols = _HEADER.unpack_from(view, len(_MAGIC) + _CRC.size)
    offset = len(_MAGIC) + _CRC.size + _HEADER.size
    col_lens = [
        _COL_LEN.unpack_from(view, offset + i * _COL_LEN.size)[0]
        for i in range(ncols)
    ]
    offset += ncols * _COL_LEN.size
    skeleton = pickle.loads(view[offset : offset + skeleton_len])
    offset += skeleton_len
    columns: list = []
    for length in col_lens:
        offset += (-offset) % 8
        columns.append(view[offset : offset + length])
        offset += length
    return _restore(skeleton, columns, decoder)
