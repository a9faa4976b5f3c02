"""Direct unit tests for the blocking per-connection handler (MP/MT workers)."""

import errno
import os
import socket
import threading
from types import SimpleNamespace

import pytest

from repro.cgi.runner import CGIRunner
from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore
from repro.core.send_path import sendfile_available
from repro.servers.blocking import _sendfile_blocking, handle_client

requires_sendfile = pytest.mark.skipif(
    not sendfile_available(), reason="os.sendfile not available"
)


@pytest.fixture
def site(tmp_path):
    (tmp_path / "index.html").write_bytes(b"<html>blocking</html>")
    (tmp_path / "data.bin").write_bytes(b"d" * 50_000)
    config = ServerConfig(document_root=str(tmp_path), port=0, idle_timeout=2.0)
    store = ContentStore(config)
    yield config, store
    store.close()


def run_handler(config, store, client_actions, cgi_runner=None, max_requests=None):
    """Run handle_client on one end of a socketpair, the test script on the other."""
    server_side, client_side = socket.socketpair()
    served = {}

    def server():
        served["count"] = handle_client(
            server_side, store, config, cgi_runner, max_requests=max_requests
        )

    thread = threading.Thread(target=server)
    thread.start()
    try:
        result = client_actions(client_side)
    finally:
        try:
            client_side.close()
        except OSError:
            pass
        thread.join(timeout=10)
    return served.get("count"), result


def recv_until_closed(sock):
    sock.settimeout(5.0)
    data = bytearray()
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data.extend(chunk)
    except socket.timeout:
        pass
    return bytes(data)


class TestHandleClient:
    def test_single_request_connection_close(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"GET /index.html HTTP/1.0\r\n\r\n")
            return recv_until_closed(sock)

        served, response = run_handler(config, store, actions)
        assert served == 1
        assert response.startswith(b"HTTP/1.1 200 OK")
        assert b"<html>blocking</html>" in response

    def test_keep_alive_until_client_closes(self, site):
        config, store = site

        def actions(sock):
            sock.settimeout(5.0)
            collected = b""
            for _ in range(3):
                sock.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n")
                while collected.count(b"</html>") < 1:
                    collected += sock.recv(65536)
                collected = b""
            sock.close()
            return True

        served, _ = run_handler(config, store, actions)
        assert served == 3

    def test_max_requests_cap(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(
                b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n"
                b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n"
                b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n"
            )
            return recv_until_closed(sock)

        served, response = run_handler(config, store, actions, max_requests=2)
        assert served == 2
        assert response.count(b"200 OK") == 2

    def test_not_found_on_keep_alive_connection(self, site):
        config, store = site

        def actions(sock):
            sock.settimeout(5.0)
            sock.sendall(b"GET /ghost.html HTTP/1.1\r\nHost: h\r\n\r\n")
            first = sock.recv(65536)
            sock.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
            rest = recv_until_closed(sock)
            return first, rest

        served, (first, rest) = run_handler(config, store, actions)
        assert b"404" in first.split(b"\r\n", 1)[0]
        assert b"200 OK" in rest
        # Both exchanges (the 404 and the 200) were handled on the connection.
        assert served == 2
        assert store.stats.responses_error >= 1

    def test_malformed_request_gets_error_and_close(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"THIS IS NOT HTTP\r\n\r\n")
            return recv_until_closed(sock)

        served, response = run_handler(config, store, actions)
        assert served == 0
        assert response[:12] in (b"HTTP/1.1 400", b"HTTP/1.1 501")

    def test_client_disconnect_mid_request(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"GET /index.ht")       # incomplete
            sock.close()
            return True

        served, _ = run_handler(config, store, actions)
        assert served == 0

    def test_cgi_request_served(self, site):
        config, store = site
        runner = CGIRunner({"app": lambda data: b"<html>cgi-" + data.query.encode() + b"</html>"})

        def actions(sock):
            sock.sendall(b"GET /cgi-bin/app?k=v HTTP/1.0\r\n\r\n")
            return recv_until_closed(sock)

        served, response = run_handler(config, store, actions, cgi_runner=runner)
        runner.shutdown()
        assert served == 1
        assert b"<html>cgi-k=v</html>" in response

    def test_cgi_without_runner_returns_503(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"GET /cgi-bin/app HTTP/1.0\r\n\r\n")
            return recv_until_closed(sock)

        _, response = run_handler(config, store, actions, cgi_runner=None)
        assert b"503" in response.split(b"\r\n", 1)[0]

    def test_large_file_round_trip(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"GET /data.bin HTTP/1.0\r\n\r\n")
            return recv_until_closed(sock)

        served, response = run_handler(config, store, actions)
        header, _, body = response.partition(b"\r\n\r\n")
        assert len(body) == 50_000
        assert served == 1

    def test_stats_counted(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"GET /index.html HTTP/1.0\r\n\r\n")
            return recv_until_closed(sock)

        before = store.stats.requests
        run_handler(config, store, actions)
        assert store.stats.requests == before + 1
        assert store.stats.connections_closed >= 1


class TestSendfileFallback:
    """The buffered fallback taken when ``os.sendfile`` rejects the fd pair."""

    PIECE = 16 * 1024
    SIZE = 300_000

    @pytest.fixture
    def sendfile_site(self, tmp_path, monkeypatch):
        """A file, its store and content; every positional read's request
        size is recorded."""
        path = tmp_path / "big.bin"
        path.write_bytes(os.urandom(self.SIZE))
        config = ServerConfig(document_root=str(tmp_path), port=0, socket_io_size=self.PIECE)
        store = ContentStore(config)
        fd = os.open(path, os.O_RDONLY)
        asked = []
        real_pread = os.pread

        def recording_pread(fd_, count, offset):
            asked.append(count)
            return real_pread(fd_, count, offset)

        monkeypatch.setattr(os, "pread", recording_pread)
        yield path, store, SimpleNamespace(file_handle=SimpleNamespace(fd=fd)), asked
        os.close(fd)
        store.close()

    @pytest.fixture
    def fallback(self, sendfile_site, monkeypatch):
        """Force the fallback: ``os.sendfile`` refuses the fd pair."""

        def refuse(*_args):
            raise OSError(errno.EINVAL, "sendfile unsupported")

        monkeypatch.setattr(os, "sendfile", refuse)
        return sendfile_site

    def send(self, store, content, offset, length):
        """Run the sender into a socketpair; return (bytes received, error)."""
        server_side, client_side = socket.socketpair()
        received = bytearray()

        def reader():
            while True:
                chunk = client_side.recv(65536)
                if not chunk:
                    return
                received.extend(chunk)

        thread = threading.Thread(target=reader)
        thread.start()
        error = None
        try:
            _sendfile_blocking(server_side, store, content, offset, length)
        except ConnectionError as exc:
            error = exc
        finally:
            server_side.close()
            thread.join(timeout=10)
            client_side.close()
        return bytes(received), error

    def test_multi_piece_body_is_byte_identical(self, fallback):
        path, store, content, asked = fallback
        offset, length = 1234, self.SIZE - 2000
        received, error = self.send(store, content, offset, length)
        assert error is None
        assert received == path.read_bytes()[offset:offset + length]
        assert store.stats.sendfile_fallbacks == 1
        assert len(asked) > 1
        assert max(asked) <= self.PIECE

    def test_truncated_file_raises_instead_of_returning(self, fallback):
        path, store, content, asked = fallback
        original = path.read_bytes()
        os.truncate(path, 100_000)
        received, error = self.send(store, content, 0, self.SIZE)
        assert isinstance(error, ConnectionError)
        assert received == original[:100_000]
        assert max(asked) <= self.PIECE

    def test_body_exact_multiple_of_the_bound(self, fallback):
        path, store, content, asked = fallback
        received, error = self.send(store, content, 0, 4 * self.PIECE)
        assert error is None
        assert received == path.read_bytes()[:4 * self.PIECE]
        assert asked == [self.PIECE] * 4

    def test_empty_window_sends_nothing(self, fallback):
        path, store, content, asked = fallback
        received, error = self.send(store, content, 5000, 0)
        assert error is None
        assert received == b""
        assert asked == []
        assert store.stats.sendfile_fallbacks == 0

    @requires_sendfile
    def test_fallback_resumes_where_sendfile_stopped(self, sendfile_site, monkeypatch):
        """sendfile moves part of the window, then refuses: the buffered
        pieces continue at the exact offset reached."""
        path, store, content, asked = sendfile_site
        real_sendfile = os.sendfile
        calls = []

        def partial_then_refuse(out_fd, in_fd, offset, count):
            calls.append(offset)
            if len(calls) == 1:
                return real_sendfile(out_fd, in_fd, offset, min(count, 10_000))
            raise OSError(errno.EINVAL, "sendfile unsupported")

        monkeypatch.setattr(os, "sendfile", partial_then_refuse)
        offset, length = 777, 100_000
        received, error = self.send(store, content, offset, length)
        assert error is None
        assert received == path.read_bytes()[offset:offset + length]
        assert calls[0] == offset
        assert store.stats.sendfile_fallbacks == 1
        assert sum(asked) < length  # sendfile's share was not re-read

    @requires_sendfile
    def test_truncated_file_raises_on_the_sendfile_path(self, sendfile_site):
        """Without the fallback, a file that shrank also ends in an error,
        never in a short response that returns normally."""
        path, store, content, asked = sendfile_site
        original = path.read_bytes()
        os.truncate(path, 100_000)
        received, error = self.send(store, content, 0, self.SIZE)
        assert isinstance(error, ConnectionError)
        assert received == original[:100_000]
        assert store.stats.sendfile_fallbacks == 0
        assert asked == []
