"""Architecture-specific behaviour of the functional servers."""

import os

import pytest

from repro.cache.residency import SimulatedResidencyOracle
from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.server import FlashServer
from repro.servers import MPServer, MTServer, SPEDServer


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "index.html").write_bytes(b"<html>x</html>")
    (tmp_path / "cold.bin").write_bytes(b"c" * 150_000)
    return str(tmp_path)


class TestFlashServerAMPED:
    def test_helper_dispatch_on_pathname_miss(self, docroot):
        """The first request for a URI misses the pathname cache and must go
        through a translation helper; repeats hit the cache and do not."""
        server = FlashServer(ServerConfig(document_root=docroot, port=0, num_helpers=2))
        server.start()
        try:
            fetch(*server.address, "/index.html")
            after_first = server.stats.helper_dispatches
            fetch(*server.address, "/index.html")
            after_second = server.stats.helper_dispatches
        finally:
            server.stop()
        assert after_first >= 1
        assert after_second == after_first

    def test_read_helper_used_when_content_not_resident(self, docroot):
        """A pessimistic residency oracle forces the AMPED read-helper path."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = FlashServer(
            ServerConfig(document_root=docroot, port=0, num_helpers=2),
            residency_tester=oracle,
        )
        server.start()
        try:
            response = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert response.status == 200
        assert len(response.body) == 150_000
        assert server.stats.blocking_reads >= 1
        assert oracle.queries >= 1

    def test_context_manager(self, docroot):
        with FlashServer(ServerConfig(document_root=docroot, port=0)) as server:
            assert fetch(*server.address, "/index.html").status == 200


class TestSPEDServer:
    def test_never_dispatches_helpers(self, docroot):
        server = SPEDServer(ServerConfig(document_root=docroot, port=0))
        server.start()
        try:
            fetch(*server.address, "/cold.bin")
            fetch(*server.address, "/index.html")
        finally:
            server.stop()
        assert server.stats.helper_dispatches == 0
        assert server.stats.blocking_translations >= 1

    def test_architecture_label(self, docroot):
        server = SPEDServer(ServerConfig(document_root=docroot))
        try:
            assert server.architecture == "sped"
        finally:
            server.stop()


class TestMTServer:
    def test_shared_cache_across_worker_threads(self, docroot):
        server = MTServer(ServerConfig(document_root=docroot, port=0, num_workers=4))
        server.start()
        try:
            for _ in range(6):
                assert fetch(*server.address, "/index.html").status == 200
        finally:
            server.stop()
        # All requests were counted in the single shared stats object, and
        # after the first the shared hot-response cache served the rest
        # from one probe (the blocking-handler side of the single-lookup
        # hot path).
        assert server.stats.requests >= 6
        assert server.stats.hot_hits >= 5

    def test_shared_pathname_cache_without_hot_path(self, docroot):
        server = MTServer(
            ServerConfig(document_root=docroot, port=0, num_workers=4, hot_cache=False)
        )
        server.start()
        try:
            for _ in range(6):
                assert fetch(*server.address, "/index.html").status == 200
        finally:
            server.stop()
        # With the hot path off, repeats exercise the shared pathname cache.
        assert server.store.pathname_cache.hits >= 5

    def test_stop_is_clean(self, docroot):
        server = MTServer(ServerConfig(document_root=docroot, port=0, num_workers=2))
        server.start()
        server.stop()
        server.stop()        # idempotent


class TestMPServer:
    def test_worker_config_scaled_down(self, docroot):
        server = MPServer(ServerConfig(document_root=docroot, port=0, num_workers=32))
        assert server.worker_config.mmap_cache_bytes < server.config.mmap_cache_bytes
        assert server.worker_config.pathname_cache_entries < server.config.pathname_cache_entries

    def test_serves_and_consolidates_stats(self, docroot):
        if not hasattr(os, "fork"):
            pytest.skip("MP server requires fork")
        server = MPServer(ServerConfig(document_root=docroot, port=0, num_workers=2))
        server.start()
        try:
            for _ in range(4):
                assert fetch(*server.address, "/index.html").status == 200
        finally:
            server.stop()
        # Stats are consolidated from worker processes at shutdown via IPC.
        assert server.stats.requests >= 4
