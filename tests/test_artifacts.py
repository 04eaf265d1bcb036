import os
import stat

import numpy as np
import pytest

from conftest import small_net
from sparsenet.artifacts import csv_text, write_atomic
from sparsenet.checkpoint import save_checkpoint


def test_csv_cell_rule():
    rows = [(1 / 3, 3, True, "x"), (float("nan"), np.int64(7), False, "-")]
    assert csv_text(["a", "b", "c", "d"], rows) == (
        "a,b,c,d\n0.3333333333333333,3,1,x\nnan,7,0,-\n"
    )


def test_write_atomic_replaces_target(tmp_path):
    target = tmp_path / "a.csv"
    write_atomic(target, "x,y\n")
    assert target.read_text() == "x,y\n"
    write_atomic(target, b"\x00\x01")
    assert target.read_bytes() == b"\x00\x01"
    assert os.listdir(tmp_path) == ["a.csv"]


def _crash_before_rename(src, dst):
    raise OSError("simulated crash before rename")


@pytest.mark.parametrize("write", [
    lambda path: write_atomic(path, "new contents\n"),
    lambda path: save_checkpoint(small_net(), path, "dense"),
], ids=["write_atomic", "save_checkpoint"])
def test_failed_write_keeps_old_bytes_and_no_temp_file(tmp_path, monkeypatch, write):
    target = tmp_path / "artifact"
    target.write_bytes(b"old bytes")
    monkeypatch.setattr(os, "replace", _crash_before_rename)
    with pytest.raises(OSError, match="simulated"):
        write(target)
    assert target.read_bytes() == b"old bytes"
    assert os.listdir(tmp_path) == ["artifact"]


def test_write_atomic_syncs_directory_after_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write_atomic(tmp_path / "a.csv", "x\n")
    assert events == ["fsync file", "replace", "fsync dir"]
