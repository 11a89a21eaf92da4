"""Tests for atomic artefact writes."""

import os

import pytest

from repro.persistence import atomic_write_text


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "payload")
        assert path.read_text() == "payload"

    def test_overwrites_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_leaves_no_temp_files_behind(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "x")
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_write_preserves_old_content_and_cleans_up(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "out.json"
        path.write_text("old")

        def exploding_replace(_src, _dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk detached"):
            atomic_write_text(path, "new")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_accepts_str_paths(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_text(path, "y")
        with open(path) as handle:
            assert handle.read() == "y"
