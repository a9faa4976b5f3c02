"""Streaming CGI tests: bounded-queue backpressure in both worker modes.

A CGI application that returns a generator streams its chunks through a
bounded per-request queue.  The synchronous drive (MP/MT builds) gets a
plain generator back from :meth:`CGIRunner.run`; the asynchronous drive
(SPED/AMPED builds) gets a :class:`CGIStreamSource` via ``submit``.  In
both, a consumer that stops draining makes the producer block on the
full queue — that blocking IS the backpressure — and a cancelled stream
unblocks the producer so its ``finally`` blocks run.
"""

import threading
import time

import pytest

from repro.cgi.runner import CGIRequestData, CGIRunner, CGIStreamSource
from repro.core.event_loop import EventLoop
from repro.core.streaming import END_OF_STREAM, WOULD_BLOCK
from repro.http.request import RequestParser


def parse(raw: bytes):
    parser = RequestParser()
    parser.feed(raw)
    return parser.request


def counting_stream(data: CGIRequestData):
    total = int(data.query.split("=", 1)[1]) if data.query else 4
    for i in range(total):
        yield f"chunk-{i};".encode()


def failing_stream(data: CGIRequestData):
    yield b"good"
    raise RuntimeError("producer exploded")


def empty_chunk_stream(data: CGIRequestData):
    yield b""
    yield b"real"
    yield ""


def wait_for(predicate, deadline=5.0):
    end = time.monotonic() + deadline
    while not predicate() and time.monotonic() < end:
        time.sleep(0.01)
    return predicate()


class TestSynchronousStreaming:
    def test_run_returns_generator_of_chunks(self):
        runner = CGIRunner({"stream": counting_stream})
        request = parse(b"GET /cgi-bin/stream?n=3 HTTP/1.0\r\n\r\n")
        body = runner.run(request)
        assert not isinstance(body, (bytes, bytearray))
        assert b"".join(body) == b"chunk-0;chunk-1;chunk-2;"
        assert runner.requests_run == 1
        runner.shutdown()

    def test_empty_chunks_are_dropped(self):
        runner = CGIRunner({"stream": empty_chunk_stream})
        request = parse(b"GET /cgi-bin/stream HTTP/1.0\r\n\r\n")
        assert list(runner.run(request)) == [b"real"]
        runner.shutdown()

    def test_mid_stream_error_raises_at_iteration(self):
        runner = CGIRunner({"bad": failing_stream})
        request = parse(b"GET /cgi-bin/bad HTTP/1.0\r\n\r\n")
        body = runner.run(request)
        chunks = []
        with pytest.raises(RuntimeError, match="CGI stream failed"):
            for chunk in body:
                chunks.append(chunk)
        assert chunks == [b"good"]
        runner.shutdown()

    def test_bounded_queue_blocks_the_producer(self):
        """A consumer that stops pulling stalls the application at roughly
        the queue depth — the worker must not run ahead unboundedly."""
        produced = []

        def eager(data: CGIRequestData):
            for i in range(1000):
                produced.append(i)
                yield b"x" * 64

        runner = CGIRunner({"eager": eager}, stream_depth=4)
        request = parse(b"GET /cgi-bin/eager HTTP/1.0\r\n\r\n")
        body = runner.run(request)
        first = next(body)
        assert first == b"x" * 64
        # Stop consuming; give the worker time to run as far as it can.
        time.sleep(0.3)
        # depth(4) + one in flight + the one we pulled, small slack for races
        assert len(produced) <= 8
        body.close()                                 # cancels the stream
        assert wait_for(lambda: len(produced) < 1000, deadline=2.0)
        runner.shutdown()

    def test_closing_generator_cancels_and_runs_finally(self):
        cleaned = threading.Event()

        def guarded(data: CGIRequestData):
            try:
                for _ in range(1000):
                    yield b"y" * 32
            finally:
                cleaned.set()

        runner = CGIRunner({"guarded": guarded}, stream_depth=2)
        request = parse(b"GET /cgi-bin/guarded HTTP/1.0\r\n\r\n")
        body = runner.run(request)
        next(body)
        body.close()
        assert cleaned.wait(timeout=5.0)
        runner.shutdown()


class TestAsynchronousStreaming:
    def pump(self, loop, predicate, deadline=5.0):
        end = time.monotonic() + deadline
        while not predicate() and time.monotonic() < end:
            loop.run_once(timeout=0.05)
        assert predicate()

    def test_submit_delivers_stream_source(self):
        loop = EventLoop()
        runner = CGIRunner({"stream": counting_stream})
        runner.register(loop)
        results = []
        request = parse(b"GET /cgi-bin/stream?n=3 HTTP/1.0\r\n\r\n")
        runner.submit(request, lambda body, error: results.append((body, error)))
        self.pump(loop, lambda: results)
        source, error = results[0]
        assert error is None
        assert isinstance(source, CGIStreamSource)
        collected = bytearray()
        end = time.monotonic() + 5.0
        while time.monotonic() < end:
            segment = source.next_segment()
            if segment is END_OF_STREAM:
                break
            if segment is WOULD_BLOCK:
                loop.run_once(timeout=0.05)
                continue
            collected.extend(segment)
        assert bytes(collected) == b"chunk-0;chunk-1;chunk-2;"
        assert not source.failed
        runner.unregister(loop)
        runner.shutdown()
        loop.close()

    def test_stream_source_ready_notifications_reach_the_loop(self):
        # Gate the producer so no chunk can land before the consumer has
        # bound its ready-callback — otherwise the notification races the
        # bind and the test would only pass by timing luck.
        gate = threading.Event()

        def gated_stream(data: CGIRequestData):
            gate.wait(timeout=5.0)
            yield b"released"

        loop = EventLoop()
        runner = CGIRunner({"gated": gated_stream})
        runner.register(loop)
        results = []
        request = parse(b"GET /cgi-bin/gated HTTP/1.0\r\n\r\n")
        runner.submit(request, lambda body, error: results.append(body))
        self.pump(loop, lambda: results)
        source = results[0]
        wakeups = []
        source.bind(lambda: wakeups.append(1))
        assert source.next_segment() is WOULD_BLOCK
        gate.set()
        self.pump(loop, lambda: wakeups)
        assert source.next_segment() == b"released"
        runner.unregister(loop)
        runner.shutdown()
        loop.close()

    def test_failed_stream_marks_source_failed(self):
        loop = EventLoop()
        runner = CGIRunner({"bad": failing_stream})
        runner.register(loop)
        results = []
        request = parse(b"GET /cgi-bin/bad HTTP/1.0\r\n\r\n")
        runner.submit(request, lambda body, error: results.append(body))
        self.pump(loop, lambda: results)
        source = results[0]
        collected = bytearray()
        end = time.monotonic() + 5.0
        while time.monotonic() < end:
            segment = source.next_segment()
            if segment is END_OF_STREAM:
                break
            if segment is WOULD_BLOCK:
                loop.run_once(timeout=0.05)
                continue
            collected.extend(segment)
        assert bytes(collected) == b"good"
        assert source.failed
        runner.unregister(loop)
        runner.shutdown()
        loop.close()

    def test_close_unblocks_a_wedged_producer(self):
        blocked_at = []

        def eager(data: CGIRequestData):
            for i in range(1000):
                blocked_at.append(i)
                yield b"z" * 16

        loop = EventLoop()
        runner = CGIRunner({"eager": eager}, stream_depth=2)
        runner.register(loop)
        results = []
        request = parse(b"GET /cgi-bin/eager HTTP/1.0\r\n\r\n")
        runner.submit(request, lambda body, error: results.append(body))
        self.pump(loop, lambda: results)
        source = results[0]
        time.sleep(0.2)                              # producer fills the queue
        high_water = len(blocked_at)
        assert high_water <= 6                       # depth(2) + slack
        source.close()
        # Cancel drains: the producer exits its put loop instead of finishing.
        time.sleep(0.2)
        assert len(blocked_at) < 1000
        runner.unregister(loop)
        runner.shutdown()
        loop.close()
