"""Atomic checkpoint writes: durability ordering and typed disk-full errors."""

from __future__ import annotations

import errno
import json
import os
import pickle

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.session import DetectionSession
from repro.exceptions import CheckpointError, CheckpointWriteError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord


def small_session() -> DetectionSession:
    tree = HierarchyTree(
        [("a", "a1"), ("a", "a2"), ("b", "b1")], root_label="All"
    )
    config = TiresiasConfig(
        theta=5.0,
        ratio_threshold=2.0,
        difference_threshold=4.0,
        delta_seconds=900.0,
        window_units=8,
        reference_levels=1,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.3),
    )
    clock = SimulationClock(delta=900.0, epoch=0.0, epoch_weekday=0, epoch_hour=0.0)
    session = DetectionSession(tree, config, clock=clock, name="atomic")
    for i in range(40):
        session.ingest_record(
            OperationalRecord(timestamp=float(i * 450), category=("a", "a1"))
        )
    return session


class TestFsyncOrdering:
    def test_temp_file_fsynced_before_rename(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda src, dst: (events.append("replace"), real_replace(src, dst))[1],
        )
        path = tmp_path / "state.ckpt.json"
        small_session().save_checkpoint(path)
        assert events[0] == "fsync"
        assert "replace" in events
        assert events.index("fsync") < events.index("replace")

    def test_no_stray_temp_files_after_success(self, tmp_path):
        path = tmp_path / "state.ckpt.json"
        small_session().save_checkpoint(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt.json"]


class TestDiskFull:
    @pytest.fixture
    def enospc_fsync(self, monkeypatch):
        def failing_fsync(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", failing_fsync)

    def test_typed_error_with_disk_full_flag(self, tmp_path, enospc_fsync):
        path = tmp_path / "state.ckpt.json"
        with pytest.raises(CheckpointWriteError) as excinfo:
            small_session().save_checkpoint(path)
        error = excinfo.value
        assert error.errno == errno.ENOSPC
        assert "disk full" in str(error)
        assert str(path) in str(error)
        # The typed error is still a CheckpointError, so existing callers
        # that catch the family keep working.
        assert isinstance(error, CheckpointError)

    def test_failed_write_leaves_no_temp_and_no_target(self, tmp_path, enospc_fsync):
        path = tmp_path / "state.ckpt.json"
        with pytest.raises(CheckpointWriteError):
            small_session().save_checkpoint(path)
        assert list(tmp_path.iterdir()) == []

    def test_previous_checkpoint_survives_failed_overwrite(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "state.ckpt.json"
        session = small_session()
        session.save_checkpoint(path)
        before = path.read_bytes()

        def failing_fsync(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        for i in range(40, 80):
            session.ingest_record(
                OperationalRecord(timestamp=float(i * 450), category=("a", "a2"))
            )
        with pytest.raises(CheckpointWriteError):
            session.save_checkpoint(path)
        # The old checkpoint is byte-identical and still loadable.
        assert path.read_bytes() == before
        restored = DetectionSession.load_checkpoint(path)
        assert restored.name == "atomic"
        json.loads(path.read_text(encoding="utf-8"))

    def test_non_enospc_oserror_is_not_disk_full(self, tmp_path, monkeypatch):
        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(CheckpointWriteError) as excinfo:
            small_session().save_checkpoint(tmp_path / "x.json")
        assert excinfo.value.errno == errno.EIO
        assert "disk full" not in str(excinfo.value)

    def test_error_pickles_round_trip(self):
        error = CheckpointWriteError(
            "/tmp/x.json", errno=errno.ENOSPC, detail="No space left on device"
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.path == error.path
        assert clone.errno == errno.ENOSPC
        assert str(clone) == str(error)
