"""Tests for sendfile-aware warming: the OP_WARM helper operation and the
fd-backed residency queries that decide when it is dispatched.

The mincore transient-map probe's *answer* depends on the host's page
cache, so tests assert its contract (True/False/None, no side effects on
the descriptor) rather than a particular verdict; the clock predictor and
the scripted oracle are deterministic and are asserted exactly.
"""

import os

import pytest

from repro.cache.residency import (
    FD_TRACKING_CHUNK,
    ClockResidencyPredictor,
    MincoreResidencyTester,
    SimulatedResidencyOracle,
)
from repro.core.config import ServerConfig
from repro.core.helpers import (
    OP_WARM,
    HelperPool,
    HelperRequest,
    advise_willneed,
    perform_helper_operation,
)
from repro.core.pipeline import ContentStore


@pytest.fixture
def datafile(tmp_path):
    path = tmp_path / "warm.bin"
    path.write_bytes(os.urandom(300 * 1024))
    return str(path)


@pytest.fixture
def datafd(datafile):
    fd = os.open(datafile, os.O_RDONLY)
    yield fd
    os.close(fd)


class TestWarmOperation:
    def test_warm_on_open_descriptor(self, datafile, datafd):
        reply = perform_helper_operation(
            HelperRequest(seq=1, op=OP_WARM, path=datafile, fd=datafd)
        )
        assert reply.ok
        assert reply.bytes_touched == os.path.getsize(datafile)
        # The helper used positional reads: the shared descriptor's
        # file offset is untouched (a concurrent sendfile relies on
        # nothing moving it).
        assert os.lseek(datafd, 0, os.SEEK_CUR) == 0
        # And the descriptor was not closed (it is cache-owned).
        os.fstat(datafd)

    def test_warm_byte_range(self, datafile, datafd):
        reply = perform_helper_operation(
            HelperRequest(seq=1, op=OP_WARM, path=datafile, fd=datafd, offset=4096, length=8192)
        )
        assert reply.ok
        assert reply.bytes_touched == 8192

    def test_warm_range_clamped_to_file_size(self, datafile, datafd):
        size = os.path.getsize(datafile)
        reply = perform_helper_operation(
            HelperRequest(
                seq=1, op=OP_WARM, path=datafile, fd=datafd, offset=size - 100, length=10_000
            )
        )
        assert reply.ok
        assert reply.bytes_touched == 100

    def test_warm_reads_the_descriptor_not_the_path(self, tmp_path, datafile, datafd):
        """The helper warms the open descriptor and never re-opens the
        path, so a path that no longer names the file does not matter."""
        reply = perform_helper_operation(
            HelperRequest(seq=1, op=OP_WARM, path=str(tmp_path / "renamed-away"), fd=datafd)
        )
        assert reply.ok
        assert reply.bytes_touched == os.path.getsize(datafile)

    def test_warm_bad_descriptor_fails_cleanly(self, tmp_path):
        reply = perform_helper_operation(
            HelperRequest(seq=1, op=OP_WARM, path=str(tmp_path / "gone"))
        )
        assert not reply.ok
        assert reply.error_type == "OSError"

    def test_warm_through_helper_pool(self, datafile, datafd):
        pool = HelperPool(num_helpers=2)
        replies = []
        try:
            pool.submit(
                HelperRequest(seq=0, op=OP_WARM, path=datafile, fd=datafd), replies.append
            )
            pool.wait_all()
        finally:
            pool.shutdown()
        assert len(replies) == 1 and replies[0].ok
        assert replies[0].bytes_touched == os.path.getsize(datafile)

    def test_advise_willneed_is_safe(self, datafile):
        fd = os.open(datafile, os.O_RDONLY)
        try:
            # Returns a bool on every platform; never raises.
            assert advise_willneed(fd, 0, 1024) in (True, False)
        finally:
            os.close(fd)
        assert advise_willneed(-1, 0, 1024) is False


class TestFdResidencyProbes:
    def test_mincore_probe_contract(self, datafile):
        tester = MincoreResidencyTester()
        fd = os.open(datafile, os.O_RDONLY)
        try:
            verdict = tester.file_resident(fd, os.path.getsize(datafile), path=datafile)
            assert verdict in (True, False, None)
            if not tester.available:
                assert verdict is None
            # The probe's transient mapping was released and the fd usable.
            os.fstat(fd)
        finally:
            os.close(fd)

    def test_mincore_probe_empty_range(self, datafile):
        tester = MincoreResidencyTester()
        assert tester.file_resident(-1, 0, path=datafile) is True

    def test_mincore_probe_bad_fd_answers_none(self):
        # A bad descriptor cannot be mapped, so the probe must answer
        # "cannot tell" (None) — never a confident True.
        tester = MincoreResidencyTester()
        assert tester.file_resident(-1, 4096, path="x") is None

    def test_clock_predictor_learns_fd_files(self):
        clock = ClockResidencyPredictor(estimated_cache_bytes=10 * FD_TRACKING_CHUNK)
        length = 3 * FD_TRACKING_CHUNK
        # Never seen: predicted cold, and the query itself records the file.
        assert clock.file_resident(-1, length, path="/a") is False
        # Seen recently: predicted resident.
        assert clock.file_resident(-1, length, path="/a") is True
        # Push it out of the estimated cache with other files.
        for index in range(8):
            clock.file_resident(-1, length, path=f"/other{index}")
        assert clock.file_resident(-1, length, path="/a") is False

    def test_clock_predictor_tracks_mapped_and_fd_uniformly(self, datafile):
        """A file served via mmap then via sendfile shares clock entries."""
        from repro.cache.mapped_file import MappedFileCache

        clock = ClockResidencyPredictor(estimated_cache_bytes=64 * FD_TRACKING_CHUNK)
        cache = MappedFileCache(
            chunk_size=FD_TRACKING_CHUNK, residency_tester=clock
        )
        chunks = cache.acquire_file(datafile)
        for chunk in chunks:
            clock.is_resident(chunk)          # record via the mapped route
        for chunk in chunks:
            cache.release(chunk)
        size = os.path.getsize(datafile)
        assert clock.file_resident(-1, size, path=datafile) is True
        cache.clear()

    def test_oracle_answers_fd_queries(self, datafile):
        oracle = SimulatedResidencyOracle(default_resident=False)
        assert oracle.file_resident(-1, 100, path=datafile) is False
        oracle.mark_resident(datafile)
        assert oracle.file_resident(-1, 100, path=datafile) is True


class TestContentStoreFdResidency:
    class _UndecidedTester:
        """A tester whose fd probe always answers ``None`` (cannot tell)."""

        def is_resident(self, chunk):
            return True

        def file_resident(self, fd, length, path="", offset=0):
            return None

    def _store(self, docroot, tester):
        config = ServerConfig(document_root=docroot, port=0)
        return ContentStore(config, residency_tester=tester)

    def test_probe_answer_is_used(self, tmp_path, datafile):
        store = self._store(str(tmp_path), SimulatedResidencyOracle(default_resident=False))
        handle = store.fd_cache.acquire(datafile)
        try:
            assert store.fd_resident(handle, 100) is False
            store.residency_tester.mark_resident(datafile)
            assert store.fd_resident(handle, 100) is True
        finally:
            store.release_fd(handle)
            store.close()

    def test_undecided_probe_falls_back_to_clock(self, tmp_path, datafile):
        store = self._store(str(tmp_path), self._UndecidedTester())
        handle = store.fd_cache.acquire(datafile)
        try:
            # First query: the fallback clock has never seen the file.
            assert store.fd_resident(handle, 4096) is False
            assert store._fd_clock is not None
            # The clock recorded it; an immediate repeat predicts resident.
            assert store.fd_resident(handle, 4096) is True
        finally:
            store.release_fd(handle)
            store.close()
