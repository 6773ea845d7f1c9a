"""Unit tests for the retained-checkpoint chain of :mod:`repro.io.checkpoint`
(``path``, ``path.1``, ``path.2``, ...) and the single-session loader."""

from __future__ import annotations

import json

import pytest

from repro.engine.session import DetectionSession
from repro.exceptions import CheckpointError
from repro.io.checkpoint import (
    load_session_checkpoint_state,
    retained_checkpoint_path,
    rotate_retained_checkpoints,
)

from tests.io.test_checkpoint_atomic import small_session


def chain(path, depth=5):
    """The bytes at ages ``0 .. depth`` (``None`` where no file exists)."""
    out = []
    for age in range(depth + 1):
        target = retained_checkpoint_path(path, age)
        out.append(target.read_bytes() if target.exists() else None)
    return out


class TestRetainedPath:
    def test_age_zero_is_the_primary(self, tmp_path):
        path = tmp_path / "tenant.ckpt.json"
        assert retained_checkpoint_path(path, 0) == path

    def test_older_ages_append_a_suffix(self, tmp_path):
        path = tmp_path / "tenant.ckpt.json"
        assert retained_checkpoint_path(str(path), 2) == tmp_path / "tenant.ckpt.json.2"

    def test_negative_age_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="retention age"):
            retained_checkpoint_path(tmp_path / "x.json", -1)


class TestRotation:
    def test_keep_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="retention keep"):
            rotate_retained_checkpoints(tmp_path / "x.json", 0)

    def test_missing_primary_is_a_noop(self, tmp_path):
        path = tmp_path / "x.json"
        rotate_retained_checkpoints(path, 3)
        assert list(tmp_path.iterdir()) == []

    def test_chain_shifts_down_and_drops_the_oldest(self, tmp_path):
        path = tmp_path / "x.json"
        for age, body in enumerate([b"v3", b"v2", b"v1"]):
            retained_checkpoint_path(path, age).write_bytes(body)
        rotate_retained_checkpoints(path, 3)
        # The primary stays in place (the next write replaces it); .1 holds
        # its bytes, v2 moved to .2 and v1 fell off the three-deep window.
        assert chain(path) == [b"v3", b"v3", b"v2", None, None, None]

    def test_keep_one_retains_no_predecessor(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b"new")
        retained_checkpoint_path(path, 1).write_bytes(b"old")
        rotate_retained_checkpoints(path, 1)
        assert chain(path) == [b"new", None, None, None, None, None]

    def test_stale_entries_of_a_larger_retention_are_dropped(self, tmp_path):
        path = tmp_path / "x.json"
        for age, body in enumerate([b"v4", b"v3", b"v2", b"v1"]):
            retained_checkpoint_path(path, age).write_bytes(body)
        rotate_retained_checkpoints(path, 2)
        assert chain(path) == [b"v4", b"v4", None, None, None, None]


class TestSingleSessionLoader:
    def test_round_trip(self, tmp_path):
        session = small_session()
        path = tmp_path / "one.json"
        session.save_checkpoint(path)
        restored = DetectionSession.load_checkpoint(path)
        assert restored.state_dict() == session.state_dict()

    @pytest.mark.parametrize("count", [0, 2])
    def test_exactly_one_session_required(self, tmp_path, count):
        path = tmp_path / "one.json"
        small_session().save_checkpoint(path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["sessions"] = document["sessions"][:1] * count
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(CheckpointError, match=f"found {count}"):
            load_session_checkpoint_state(path)
