"""Atomic write discipline: commit on success, vanish on failure."""

import pytest

from repro.core.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    atomic_writer,
    file_sha256,
)


class TestAtomicWriter:
    def test_commits_on_clean_exit(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_writer(target) as fh:
            fh.write("hello")
        assert target.read_text() == "hello"

    def test_no_temp_file_survives_commit(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_writer(target) as fh:
            fh.write("hello")
        assert list(tmp_path.iterdir()) == [target]

    def test_crash_leaves_old_content_intact(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as fh:
                fh.write("half-writ")
                raise RuntimeError("simulated crash mid-write")
        assert target.read_text() == "original"
        assert list(tmp_path.iterdir()) == [target]  # temp file cleaned up

    def test_crash_with_no_prior_file_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as fh:
                fh.write("x")
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        with atomic_writer(target) as fh:
            fh.write("x")
        assert target.read_text() == "x"

    def test_binary_mode(self, tmp_path):
        target = tmp_path / "out.bin"
        with atomic_writer(target, "wb") as fh:
            fh.write(b"\x00\xff")
        assert target.read_bytes() == b"\x00\xff"


class TestHelpers:
    def test_write_text_replaces(self, tmp_path):
        target = tmp_path / "t.txt"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"

    def test_write_bytes_returns_path(self, tmp_path):
        target = tmp_path / "t.bin"
        assert atomic_write_bytes(target, b"abc") == target
        assert target.read_bytes() == b"abc"

    def test_file_sha256_matches_hashlib(self, tmp_path):
        import hashlib

        target = tmp_path / "t.bin"
        payload = bytes(range(256)) * 100
        target.write_bytes(payload)
        assert file_sha256(target) == hashlib.sha256(payload).hexdigest()

    def test_file_sha256_streams_in_chunks(self, tmp_path):
        target = tmp_path / "t.bin"
        target.write_bytes(b"abcdef")
        assert file_sha256(target, chunk_size=2) == file_sha256(target)
