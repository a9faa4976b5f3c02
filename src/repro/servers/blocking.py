"""Blocking per-connection handler shared by the MP and MT builds.

In the MP and MT architectures a worker (process or thread) executes the
basic request-processing steps *sequentially* for one connection at a time:
read the request, find the file, send the response header, then the data,
possibly looping for keep-alive.  Overlap between connections comes from the
operating system scheduling other workers whenever this one blocks.

The handler reuses the exact same pipeline (:class:`ContentStore`) as the
event-driven builds so that the only difference between architectures is the
concurrency strategy, per the paper's methodology.

The slow-client deadlines the event-driven builds arm on their timer wheel
are honoured here with phase-based socket timeouts driven by the same
configuration knobs:

* waiting for a keep-alive follow-up request uses ``idle_timeout`` (expiry
  closes silently);
* once the first byte of a request head has arrived, an *absolute*
  ``header_timeout`` budget applies — each ``recv`` gets the remaining
  budget, so a slowloris client dribbling single bytes cannot extend it —
  and expiry answers ``408 Request Timeout``;
* transmission runs under ``write_stall_timeout``: ``sendall`` treats its
  timeout as a bound on the whole call (Python ≥ 3.5 semantics), and the
  ``sendfile`` loop waits for buffer space at most that long per window —
  both close the connection on expiry.

``<= 0`` disables the corresponding deadline, exactly as in the
event-driven builds.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import time
from typing import Callable, Optional

from repro.cgi.runner import CGIRunner
from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore, StaticContent
from repro.core.send_path import SENDFILE_FALLBACK_ERRNOS, sendfile_available
from repro.core.sse import SSEHub
from repro.core.streaming import (
    CHUNKED_TERMINATOR,
    END_OF_STREAM,
    WOULD_BLOCK,
    chunk_frame,
)
from repro.http.errors import HTTPError
from repro.http.request import RequestParser
from repro.http.response import build_error_response

#: While a ``drain_check`` is supplied, idle keep-alive waits poll in
#: quanta of this many seconds so a blocking worker notices a drain
#: promptly instead of after a full ``idle_timeout``.
DRAIN_POLL_INTERVAL = 0.2


def handle_client(
    sock: socket.socket,
    store: ContentStore,
    config: ServerConfig,
    cgi_runner: Optional[CGIRunner] = None,
    max_requests: Optional[int] = None,
    drain_check: Optional[Callable[[], bool]] = None,
    sse_hub: Optional[SSEHub] = None,
) -> int:
    """Serve one client connection to completion with blocking I/O.

    Returns the number of requests served on the connection.  The socket is
    always closed before returning.  Exceptions from client misbehaviour are
    converted into HTTP error responses; unexpected internal errors close
    the connection after a 500.

    ``drain_check`` is the MT/MP drain hook: while it returns True the
    connection winds down gracefully — the response to the last buffered
    request carries ``Connection: close`` (buffered pipelined requests
    still complete first), and an idle keep-alive wait returns immediately
    instead of sitting out its idle budget.
    """
    served = 0
    with store.stats_lock():
        store.stats.connections_accepted += 1
    header_timeout = config.header_timeout
    # ``None`` puts the socket in plain blocking mode: deadline disabled.
    idle_timeout = config.idle_timeout if config.idle_timeout > 0 else None
    write_timeout = config.write_stall_timeout if config.write_stall_timeout > 0 else None
    try:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        leftover = b""
        while True:
            parser = RequestParser(max_header_bytes=config.max_header_bytes)
            try:
                complete = parser.feed(leftover) if leftover else False
                # The header budget is absolute — from the start of header
                # reading (accept, buffered pipelined bytes, or the first
                # byte after a keep-alive idle wait) to a complete head.
                # Each recv gets the *remaining* budget, so a client
                # dribbling one byte per interval cannot extend it.
                reading_head = bool(leftover) or served == 0
                header_deadline = (
                    time.monotonic() + header_timeout
                    if reading_head and header_timeout > 0
                    else None
                )
                idle_deadline = (
                    time.monotonic() + idle_timeout
                    if not reading_head and idle_timeout is not None
                    else None
                )
                while not complete:
                    if not reading_head:
                        # Between keep-alive exchanges: the idle budget
                        # applies until the next request's first byte.
                        # With a drain hook the wait polls in short quanta
                        # so a draining worker closes its idle connections
                        # promptly — an idle peer is owed nothing.
                        if drain_check is not None and drain_check():
                            return served
                        wait = (
                            None
                            if idle_deadline is None
                            else idle_deadline - time.monotonic()
                        )
                        if wait is not None and wait <= 0:
                            with store.stats_lock():
                                store.stats.timeouts_idle += 1
                            return served
                        if drain_check is not None:
                            wait = (
                                DRAIN_POLL_INTERVAL
                                if wait is None
                                else min(wait, DRAIN_POLL_INTERVAL)
                            )
                        sock.settimeout(wait)
                        try:
                            data = sock.recv(config.socket_io_size)
                        except socket.timeout:
                            if drain_check is not None and (
                                idle_deadline is None
                                or time.monotonic() < idle_deadline
                            ):
                                # A poll quantum expired, not the idle
                                # budget: re-check drain and keep waiting.
                                continue
                            with store.stats_lock():
                                store.stats.timeouts_idle += 1
                            return served
                        if not data:
                            return served
                        reading_head = True
                        if header_timeout > 0:
                            header_deadline = time.monotonic() + header_timeout
                        complete = parser.feed(data)
                        continue
                    remaining = None
                    if header_deadline is not None:
                        remaining = header_deadline - time.monotonic()
                        if remaining <= 0:
                            raise socket.timeout("request header timeout")
                    sock.settimeout(remaining)
                    data = sock.recv(config.socket_io_size)
                    if not data:
                        return served
                    complete = parser.feed(data)
            except HTTPError as exc:
                sock.settimeout(write_timeout)
                _send_error(sock, store, exc.status, exc.message)
                return served
            except socket.timeout:
                # Mid-parse expiry: the partial head is answered 408, like
                # the event-driven builds' header-deadline expiry.
                with store.stats_lock():
                    store.stats.timeouts_header += 1
                sock.settimeout(write_timeout)
                _send_error(sock, store, 408, "request header timeout")
                return served

            request = parser.request
            leftover = parser.remainder
            with store.stats_lock():
                store.stats.requests += 1
            keep_alive = bool(request.keep_alive and config.keep_alive)
            if keep_alive and drain_check is not None and drain_check() and not leftover:
                # Draining and nothing further is buffered: this response is
                # the connection's last, and it says so.  (Buffered
                # pipelined requests keep the connection alive until the
                # last of them — in-flight work completes.)
                keep_alive = False

            sock.settimeout(write_timeout)
            try:
                if config.sse_path and request.path == config.sse_path:
                    if sse_hub is None or request.method not in ("GET", "HEAD"):
                        raise HTTPError("no event stream here", status=404)
                    _serve_sse(sock, store, sse_hub, request, drain_check)
                    # An event stream has no natural end: the connection is
                    # spent once the subscription finishes.
                    return served + 1
                if request.is_cgi:
                    with store.stats_lock():
                        store.stats.cgi_requests += 1
                    if cgi_runner is None:
                        raise HTTPError("dynamic content disabled", status=503)
                    body = cgi_runner.run(request)
                    if isinstance(body, (bytes, bytearray, memoryview)):
                        header = store.header_builder.build(
                            200,
                            content_length=len(body),
                            content_type="text/html",
                            keep_alive=keep_alive,
                        ).raw
                        _send_all(sock, store, [header, body])
                    else:
                        # Streaming application: chunks flow out as the
                        # worker produces them, through the bounded queue
                        # that paces the application (see repro.cgi.runner).
                        keep_alive = _serve_stream(
                            sock, store, request, body, keep_alive
                        )
                else:
                    content = _lookup_hot(store, config, request, keep_alive)
                    if content is None:
                        with store.stats_lock():
                            store.stats.blocking_translations += 1
                        entry = store.translate(request.path)
                        # Like SPED, the blocking workers run no residency
                        # test, so when the response will go out via
                        # sendfile there is no reason to pin mapped chunks
                        # for it.
                        map_body = not (config.zero_copy and sendfile_available())
                        content = store.build_response(
                            request, entry, keep_alive=keep_alive, map_body=map_body
                        )
                        # Populate the single-lookup hot path: the next
                        # repeat GET (in this worker/process) skips
                        # translation, header build and the descriptor
                        # probe, exactly like the event-driven builds.
                        store.hot_insert(request, entry, content)
                    try:
                        _send_content(sock, store, content)
                    finally:
                        content.release(store)
                with store.stats_lock():
                    store.stats.responses_ok += 1
            except HTTPError as exc:
                _send_error(sock, store, exc.status, exc.message, keep_alive=keep_alive)
                if not keep_alive:
                    return served
            except socket.timeout:
                # No byte moved within the write-stall budget (sendall
                # bounds the whole transfer; the sendfile loop bounds each
                # wait for buffer space): reap the stalled reader.
                # Abortively — an orderly close would leave the kernel
                # background-flushing the send buffer to a peer that is
                # not reading.
                with store.stats_lock():
                    store.stats.timeouts_write_stall += 1
                try:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                except OSError:
                    pass
                return served
            except OSError:
                return served

            served += 1
            if not keep_alive:
                return served
            if max_requests is not None and served >= max_requests:
                return served
    finally:
        with store.stats_lock():
            store.stats.connections_closed += 1
        try:
            sock.close()
        except OSError:
            pass


def _lookup_hot(
    store: ContentStore,
    config: ServerConfig,
    request,
    keep_alive: bool,
) -> Optional[StaticContent]:
    """The blocking-handler side of the single-lookup hot path.

    MP and MT workers used to pay the three-probe slow path for every
    repeat GET (so the fig11 ablation said nothing about them); this gives
    them the same one-probe fast path as the event-driven builds, gated on
    the same ``hot_cache`` toggle and byte-identical by construction (the
    entries precompose their headers with the shared builder).  Workers
    transmit hot hits unconditionally, like SPED: the blocking
    architectures run no residency test — a cold page simply blocks this
    worker, which is exactly their concurrency model.
    """
    if not config.hot_cache or request.method not in ("GET", "HEAD"):
        return None
    return store.hot_lookup(request.uri.encode("latin-1"), keep_alive, request)


def _send_content(sock: socket.socket, store: ContentStore, content: StaticContent) -> None:
    """Transmit one static response, zero-copy when a descriptor is pinned.

    ``os.sendfile`` is driven directly with explicit offsets: unlike
    ``socket.sendfile`` it never seeks the descriptor, so MT workers can
    serve the same cached descriptor concurrently (the fd's file position
    is shared state).  ``sock.settimeout`` puts the fd in non-blocking
    mode, so a full send buffer surfaces as ``BlockingIOError`` and is
    waited out with ``select`` bounded by the socket timeout.

    A ``multipart/byteranges`` response alternates buffered part framing
    with one positional ``sendfile`` window per part — the blocking-worker
    mirror of the event-driven builds' iterated-window send path.
    """
    if content.file_handle is not None and sendfile_available():
        with store.stats_lock():
            store.stats.sendfile_responses += 1
        if content.is_multipart:
            _send_all(sock, store, [content.header])
            for part in content.parts:
                _send_all(sock, store, [part.head])
                _sendfile_blocking(sock, store, content, part.offset, part.length)
            _send_all(sock, store, [content.trailer])
            return
        _send_all(sock, store, [content.header])
        _sendfile_blocking(
            sock, store, content, content.body_offset, content.content_length
        )
        return
    _send_all(sock, store, [content.header, *content.segments])


def _sendfile_blocking(
    sock: socket.socket,
    store: ContentStore,
    content: StaticContent,
    offset: int,
    remaining: int,
) -> None:
    fd = content.file_handle.fd
    timeout = sock.gettimeout()
    while remaining > 0:
        try:
            sent = os.sendfile(sock.fileno(), fd, offset, remaining)
        except (BlockingIOError, InterruptedError):
            _, writable, _ = select.select([], [sock], [], timeout)
            if not writable:
                raise socket.timeout("timed out waiting for send-buffer space")
            continue
        except OSError as exc:
            if exc.errno not in SENDFILE_FALLBACK_ERRNOS:
                raise
            # sendfile unsupported for this fd/socket pair: finish the
            # response buffered, resuming at the exact offset reached, in
            # pieces of at most socket_io_size bytes.
            with store.stats_lock():
                store.stats.sendfile_fallbacks += 1
            piece = store.config.socket_io_size
            while remaining > 0:
                data = os.pread(fd, min(piece, remaining), offset)
                if not data:
                    raise ConnectionError(
                        f"file shrank during buffered fallback: {remaining} bytes undelivered"
                    )
                _send_all(sock, store, [data])
                offset += len(data)
                remaining -= len(data)
            return
        if sent == 0:
            # EOF before the expected count: the file shrank underneath us.
            # The declared Content-Length can no longer be honoured, so the
            # connection must die — continuing would desynchronize the
            # client's HTTP framing on a keep-alive socket.
            raise ConnectionError(
                f"file shrank during sendfile: {remaining} bytes undelivered"
            )
        offset += sent
        remaining -= sent
        with store.stats_lock():
            store.stats.bytes_sent += sent


def _send_all(sock: socket.socket, store: ContentStore, buffers) -> None:
    for buffer in buffers:
        if not len(buffer):
            continue
        sock.sendall(buffer)
        with store.stats_lock():
            store.stats.bytes_sent += len(buffer)


def _serve_stream(
    sock: socket.socket,
    store: ContentStore,
    request,
    chunks,
    keep_alive: bool,
    content_type: str = "text/html",
) -> bool:
    """Transmit a streamed (unknown-length) response with blocking writes.

    HTTP/1.1 gets chunked framing (keep-alive preserved); HTTP/1.0 gets
    the close-delimited fallback.  Returns the connection's keep-alive
    disposition afterwards: False when close-delimited framing or a
    mid-stream producer failure (the truncation is the error signal —
    the header already left, so no error response is possible) spent it.
    Write-stall expiry (``socket.timeout``) propagates to the caller's
    reaping handler like any other response.
    """
    chunked = request.version == "HTTP/1.1"
    if not chunked:
        keep_alive = False
    with store.stats_lock():
        store.stats.streamed_responses += 1
        if chunked:
            store.stats.chunked_responses += 1
    header = store.header_builder.build_stream(
        200, content_type=content_type, chunked=chunked, keep_alive=keep_alive
    ).raw
    _send_all(sock, store, [header])
    try:
        for chunk in chunks:
            if not len(chunk):
                continue
            _send_all(sock, store, chunk_frame(chunk) if chunked else [chunk])
        if chunked:
            _send_all(sock, store, [CHUNKED_TERMINATOR])
        return keep_alive
    except RuntimeError:
        # Producer failed mid-stream: suppress the terminator so the
        # client sees unambiguous truncation, and spend the connection.
        return False
    finally:
        closer = getattr(chunks, "close", None)
        if closer is not None:
            closer()


def _serve_sse(
    sock: socket.socket,
    store: ContentStore,
    hub: SSEHub,
    request,
    drain_check: Optional[Callable[[], bool]],
) -> None:
    """Drive one SSE subscription to its end with blocking writes.

    The worker thread blocks in :meth:`SSESubscriber.wait` between
    events, in quanta of ``DRAIN_POLL_INTERVAL`` so it notices a drain
    (ends the stream gracefully) and a departed peer (EOF on a peek)
    promptly.  The subscriber queue stays bounded by the hub's overflow
    policy the whole time — a slow consumer here blocks only its own
    worker, which is exactly the MT/MP concurrency model.
    """
    subscriber = hub.subscribe()
    chunked = request.version == "HTTP/1.1"
    with store.stats_lock():
        store.stats.sse_connections += 1
        store.stats.streamed_responses += 1
        if chunked:
            store.stats.chunked_responses += 1
        store.stats.responses_ok += 1
    try:
        header = store.header_builder.build_stream(
            200,
            content_type="text/event-stream",
            chunked=chunked,
            keep_alive=False,
            cache_control="no-store",
        ).raw
        _send_all(sock, store, [header])
        while True:
            segment = subscriber.next_segment()
            if segment is END_OF_STREAM:
                if chunked:
                    _send_all(sock, store, [CHUNKED_TERMINATOR])
                return
            if segment is WOULD_BLOCK:
                if drain_check is not None and drain_check():
                    # Graceful drain: queued backlog still delivers, then
                    # the loop sees END_OF_STREAM and sends the terminator.
                    subscriber.end_stream()
                    continue
                if not subscriber.wait(DRAIN_POLL_INTERVAL):
                    readable, _, _ = select.select([sock], [], [], 0)
                    if readable:
                        probe = sock.recv(1, socket.MSG_PEEK)
                        if not probe:
                            return
                continue
            _send_all(sock, store, chunk_frame(segment) if chunked else [segment])
    finally:
        subscriber.close()


def _send_error(
    sock: socket.socket,
    store: ContentStore,
    status: int,
    message: str,
    keep_alive: bool = False,
) -> None:
    with store.stats_lock():
        store.stats.responses_error += 1
    payload = build_error_response(
        status, message, builder=store.header_builder, keep_alive=keep_alive
    )
    try:
        sock.sendall(payload)
        with store.stats_lock():
            store.stats.bytes_sent += len(payload)
    except OSError:
        pass
