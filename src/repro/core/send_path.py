"""Response transmission strategies: buffered/vectored writes and sendfile.

The Flash paper attributes a large share of SPED/AMPED throughput to
eliminating data copies on the response path.  This module implements that
layer as two interchangeable *send paths* the connection state machine
drives one non-blocking step at a time:

:class:`BufferedSendPath`
    The portable path: a list of byte buffers (response header, body
    segments) written with ``socket.sendmsg`` — a writev-style vectored
    write that coalesces header and body into one system call — falling
    back to plain ``send`` where ``sendmsg`` does not exist.

:class:`SendfileSendPath`
    The zero-copy path: headers go out via the buffered machinery, then the
    body is transmitted with ``os.sendfile`` directly from the cached open
    file descriptor, so file data never crosses into user space at all.
    ``sendfile`` failures that mean "not supported here" degrade gracefully
    to the buffered path mid-transfer, resuming at the exact byte offset
    already reached.

Send-state contract
-------------------

Both paths share the same tiny send-state contract, which is what the
connection state machine programs against:

``send(sock) -> int``
    Transmit as much as the socket accepts *right now* and return the byte
    count.  Never blocks: a full socket buffer (``EAGAIN``) simply ends the
    attempt with progress remembered, and the caller retries when the
    socket selects writable.
``done -> bool``
    True once every byte of the response (header and body, via whichever
    mechanism) has been handed to the kernel.
``under_delivered -> bool``
    True when fewer body bytes than the header promised were delivered
    (only possible on the sendfile path, when the file shrank mid-transfer
    and the fallback could not cover the rest).  The owner must then close
    the connection instead of reusing it — another response on the same
    connection would desynchronize keep-alive framing.
``release()``
    Drop all buffer views so pinned mapped chunks can be unmapped; the
    descriptor behind a sendfile response is *not* closed here (its
    refcount is owned by the FileDescriptorCache).

Short writes, ``EAGAIN`` and client disconnects are the callers' three
interesting cases; the first two are absorbed here (progress is
remembered), the third surfaces as the usual
``ConnectionError``/``OSError`` for the connection to handle.

Fallback-offset semantics
-------------------------

When ``sendfile`` degrades mid-transfer (unsupported fd/socket pair, or
EOF before the promised count), the buffered fallback must resume at the
*exact body byte* already on the wire: :class:`SendfileSendPath` tracks
``body_bytes_sent = offset - start`` and slices that many bytes off the
front of the fallback buffers before constructing the replacement
:class:`BufferedSendPath`.  Bytes are therefore never duplicated or
skipped across the degradation, and a response is byte-identical whichever
mechanism (or mixture) delivered it.

Pipelined-response batching
---------------------------

:class:`ResponseCork` batches back-to-back keep-alive responses with
``TCP_CORK``: while the connection still has pipelined requests buffered,
the cork holds partial segments in the kernel so consecutive small
responses leave the NIC as full TCP segments; when the pipeline drains the
cork is popped and everything flushes.  Corking changes segmentation only
— the byte stream is identical with it on or off.
"""

from __future__ import annotations

import errno
import os
import socket
from typing import Callable, Optional, Sequence

#: Cap on buffers per vectored write; IOV_MAX is at least 16 everywhere and
#: 1024 on Linux — 64 covers a header plus every chunk of the largest files.
_MAX_IOV = 64

#: Cap on bytes per sendfile call (the largest count Linux accepts).
_MAX_SENDFILE = 0x7FFF_F000

#: ``sendfile`` errors that mean "this fd/socket combination cannot do
#: zero-copy here" rather than "the connection died": fall back to buffered.
SENDFILE_FALLBACK_ERRNOS = frozenset(
    code
    for code in (
        getattr(errno, "EINVAL", None),
        getattr(errno, "ENOSYS", None),
        getattr(errno, "EOPNOTSUPP", None),
        getattr(errno, "ENOTSOCK", None),
        getattr(errno, "EOVERFLOW", None),
        getattr(errno, "ESPIPE", None),
    )
    if code is not None
)

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")

#: Hint that more data follows immediately (Linux): lets the kernel merge
#: the response header with the first sendfile payload instead of flushing
#: a tiny header-only segment (TCP_NODELAY is set on every connection).
_MSG_MORE = getattr(socket, "MSG_MORE", 0)


def sendfile_available() -> bool:
    """Whether this platform offers ``os.sendfile`` at all."""
    return hasattr(os, "sendfile")


def window_views(buffers: Sequence, offset: int, length: int) -> list:
    """Slice a ``(offset, length)`` window out of a buffer sequence.

    The buffers are treated as one contiguous byte stream (the way the
    mapped-chunk views of a file body are); the result is a list of
    zero-copy ``memoryview`` slices covering exactly the window.  Used by
    the Range send paths: a 206 body is an arbitrary window over the same
    pinned chunks a 200 transmits in full.
    """
    views: list[memoryview] = []
    skip = offset
    remaining = length
    for buf in buffers:
        if remaining <= 0:
            break
        view = memoryview(buf)
        if skip >= len(view):
            skip -= len(view)
            continue
        if skip:
            view = view[skip:]
            skip = 0
        if len(view) > remaining:
            view = view[:remaining]
        if len(view):
            views.append(view)
        remaining -= len(view)
    return views


#: ``TCP_CORK`` constant (Linux).  0 means the platform has no cork and
#: :class:`ResponseCork` degrades to a no-op.
_TCP_CORK = getattr(socket, "TCP_CORK", 0)


def cork_available() -> bool:
    """Whether this platform offers ``TCP_CORK`` batching."""
    return bool(_TCP_CORK)


class ResponseCork:
    """Batches back-to-back pipelined responses with ``TCP_CORK``.

    With ``TCP_NODELAY`` set (every connection sets it), each response's
    final short segment goes out immediately; for a pipelined burst of
    small responses that means one undersized TCP segment per response.
    Holding the cork across the burst lets the kernel pack consecutive
    responses into full segments, and popping it on queue drain flushes
    whatever remains — the kernel's 200 ms cork timer bounds the damage if
    the owner ever forgets.

    The class is idempotent and failure-silent: ``hold``/``flush`` track
    state so redundant ``setsockopt`` calls are skipped, any ``OSError``
    (e.g. the peer already disconnected) is swallowed, and on platforms
    without ``TCP_CORK`` every method is a no-op.  Corking never changes
    the bytes of a response, only how they are segmented on the wire.
    """

    __slots__ = ("_sock", "_held", "_enabled")

    def __init__(self, sock: socket.socket, enabled: bool = True) -> None:
        self._sock = sock
        self._held = False
        self._enabled = enabled and cork_available()

    @property
    def held(self) -> bool:
        """True while the cork is in (responses are being batched)."""
        return self._held

    def hold(self) -> bool:
        """Cork the socket; returns True if the cork is (now) in."""
        if not self._enabled:
            return False
        if not self._held:
            try:
                self._sock.setsockopt(socket.IPPROTO_TCP, _TCP_CORK, 1)
            except OSError:
                return False
            self._held = True
        return True

    def flush(self) -> None:
        """Pop the cork, flushing any batched partial segment.  Idempotent."""
        if not self._held:
            return
        self._held = False
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, _TCP_CORK, 0)
        except OSError:
            pass


class BufferedSendPath:
    """Transmit a sequence of byte buffers with vectored non-blocking writes."""

    #: Label used in logs/stats to identify the strategy.
    kind = "buffered"

    #: Whether fewer body bytes than promised were delivered (see
    #: :attr:`SendfileSendPath.under_delivered`; never happens here, the
    #: buffers *are* the promise).
    under_delivered = False

    def __init__(self, buffers: Sequence, flags: int = 0) -> None:
        self._buffers = [memoryview(buf) for buf in buffers if len(buf)]
        self._index = 0
        self._offset = 0
        self._flags = flags

    @property
    def done(self) -> bool:
        """True once every buffer is fully transmitted."""
        return self._index >= len(self._buffers)

    @property
    def remaining(self) -> int:
        """Bytes not yet handed to the kernel."""
        total = 0
        for position in range(self._index, len(self._buffers)):
            total += len(self._buffers[position])
            if position == self._index:
                total -= self._offset
        return total

    def send(self, sock: socket.socket) -> int:
        """Write as much as the socket accepts now; returns bytes written.

        A full socket buffer (``EAGAIN``) simply stops the attempt — call
        again when the socket selects writable.  Connection failures
        propagate to the caller.
        """
        total = 0
        while self._index < len(self._buffers):
            try:
                sent = self._send_step(sock)
            except (BlockingIOError, InterruptedError):
                break
            if sent == 0:
                break
            total += sent
            self._advance(sent)
        return total

    # repro-lint: allow[RL001] -- sock is the connection's socket, already O_NONBLOCK (accept path): send returns EAGAIN instead of blocking
    def _send_step(self, sock: socket.socket) -> int:
        head = self._buffers[self._index][self._offset:]
        if _HAS_SENDMSG and self._index + 1 < len(self._buffers):
            # Coalesce header and body segments into one writev-style call.
            iov = [head, *self._buffers[self._index + 1 : self._index + _MAX_IOV]]
            return sock.sendmsg(iov, (), self._flags)
        return sock.send(head, self._flags)

    def _advance(self, sent: int) -> None:
        while sent > 0:
            current = self._buffers[self._index]
            left_in_buffer = len(current) - self._offset
            if sent >= left_in_buffer:
                sent -= left_in_buffer
                self._index += 1
                self._offset = 0
            else:
                self._offset += sent
                sent = 0

    def extend(self, buffers: Sequence) -> None:
        """Append another response's buffers to this in-flight write.

        The substrate of pipelined-hot-hit batching: when several cached
        responses are ready in the same event-loop tick, their header and
        body buffers are merged into one vector so the whole burst leaves
        through a single ``sendmsg`` instead of one syscall per tiny
        response.  Appending never disturbs transmission progress — the
        cursor (`_index`/`_offset`) only ever points at bytes not yet
        handed to the kernel.
        """
        self._buffers.extend(memoryview(buf) for buf in buffers if len(buf))

    def release(self) -> None:
        """Drop all buffer views (lets mapped chunks be unmapped)."""
        self._buffers = []
        self._index = 0
        self._offset = 0


def choose_send_path(content, *, store, config, stats):
    """Pick the send path for a static response: zero-copy when possible.

    The single decision point shared by the slow pipeline and the
    hot-response fast path (both hand it a
    :class:`~repro.core.pipeline.StaticContent`): responses with a pinned
    open descriptor go out via ``os.sendfile``; everything else (CGI, HEAD,
    304, errors, platforms without ``sendfile``, descriptor-cache misses)
    takes the buffered vectored-write path.  Range (206) responses carry a
    non-zero ``body_offset``; both mechanisms transmit exactly the
    ``(body_offset, content_length)`` window.  ``multipart/byteranges``
    responses become a :class:`MultipartSendfileSendPath` — one iterated
    ``sendfile`` window per part, framing bytes buffered between them.
    """
    if (
        content.file_handle is not None
        and config.zero_copy
        and sendfile_available()
    ):
        stats.sendfile_responses += 1
        path = content.file_handle.path

        def on_fallback():
            stats.sendfile_fallbacks += 1

        if content.is_multipart:
            return MultipartSendfileSendPath(
                content.header,
                content.parts,
                content.trailer,
                content.file_handle.fd,
                read_range=lambda offset, count: store.read_file_range(
                    path, offset, count
                ),
                on_fallback=on_fallback,
            )
        segments = list(content.segments)
        offset = content.body_offset
        count = content.content_length

        def fallback_body():
            # The mapped-chunk views double as the fallback buffers (they
            # are already sliced to the response window); with the mmap
            # cache disabled the body was never read, so read the window
            # now (degradation is the rare path).
            return segments if segments else [store.read_file_range(path, offset, count)]

        return SendfileSendPath(
            [content.header],
            content.file_handle.fd,
            count,
            offset=offset,
            fallback_factory=fallback_body,
            on_fallback=on_fallback,
        )
    return BufferedSendPath([content.header, *content.segments])


class SendfileSendPath:
    """Transmit headers buffered, then the body zero-copy via ``os.sendfile``.

    Parameters
    ----------
    header_buffers:
        Buffers to send before the file body (the response header).
    fd:
        Open file descriptor to transmit from; owned by the caller (the
        content store's descriptor cache) and must stay open until ``done``.
    count:
        Number of body bytes to send, starting at ``offset``.
    offset:
        Starting byte offset within the file.
    fallback_factory:
        Zero-argument callable returning the full body as a list of byte
        buffers, used if ``sendfile`` turns out to be unsupported for this
        fd/socket pair.  Only invoked on degradation, so the buffered copy
        is never materialized on the happy path.
    on_fallback:
        Optional callable invoked once if the path degrades (stats hook).
    """

    kind = "sendfile"

    def __init__(
        self,
        header_buffers: Sequence,
        fd: int,
        count: int,
        offset: int = 0,
        fallback_factory: Optional[Callable[[], Sequence]] = None,
        on_fallback: Optional[Callable[[], None]] = None,
    ) -> None:
        # MSG_MORE keeps the header in the kernel until the first sendfile
        # payload follows, so header and body still leave as one segment
        # stream even though they travel through two system calls.
        self._headers = BufferedSendPath(header_buffers, flags=_MSG_MORE)
        self._fd = fd
        self._start = offset
        self._offset = offset
        self._remaining = count
        self._fallback_factory = fallback_factory
        self._on_fallback = on_fallback
        self._fallback: Optional[BufferedSendPath] = None
        self.fell_back = False
        #: True when the transfer ended short of ``count`` body bytes (the
        #: file shrank mid-transfer and the fallback could not cover the
        #: rest).  The response header already promised ``count`` bytes, so
        #: the owner must close the connection rather than reuse it —
        #: keep-alive framing would otherwise desynchronize.
        self.under_delivered = False

    @property
    def done(self) -> bool:
        """True once header and body (via either mechanism) are fully out."""
        if self._fallback is not None:
            return self._headers.done and self._fallback.done
        return self._headers.done and self._remaining <= 0

    @property
    def body_bytes_sent(self) -> int:
        """Body bytes transmitted so far via ``sendfile`` (pre-fallback)."""
        return self._offset - self._start

    def send(self, sock: socket.socket) -> int:
        """Advance the response; returns bytes written this call."""
        total = self._headers.send(sock)
        if not self._headers.done:
            return total
        if self._fallback is not None:
            return total + self._fallback.send(sock)
        while self._remaining > 0:
            try:
                sent = os.sendfile(
                    sock.fileno(), self._fd, self._offset,
                    min(self._remaining, _MAX_SENDFILE),
                )
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                if exc.errno in SENDFILE_FALLBACK_ERRNOS:
                    self._degrade()
                    return total + self._fallback.send(sock)
                raise
            if sent == 0:
                # EOF before the expected count (file truncated underneath
                # us): degrade so the buffered path can finish — or fail —
                # deterministically instead of spinning on sendfile.
                self._degrade()
                return total + self._fallback.send(sock)
            self._offset += sent
            self._remaining -= sent
            total += sent
        return total

    def _degrade(self) -> None:
        self.fell_back = True
        if self._on_fallback is not None:
            self._on_fallback()
        buffers = list(self._fallback_factory()) if self._fallback_factory else []
        # Resume exactly where sendfile stopped: skip the body bytes that
        # already reached the socket.
        skip = self.body_bytes_sent
        resumed: list[memoryview] = []
        for buf in buffers:
            view = memoryview(buf)
            if skip >= len(view):
                skip -= len(view)
                continue
            resumed.append(view[skip:] if skip else view)
            skip = 0
        if sum(len(view) for view in resumed) < self._remaining:
            self.under_delivered = True
        self._fallback = BufferedSendPath(resumed)
        self._remaining = 0

    def release(self) -> None:
        """Drop buffered views; the fd itself is released by the owner."""
        self._headers.release()
        if self._fallback is not None:
            self._fallback.release()
            self._fallback = None


class MultipartSendfileSendPath:
    """Transmit a ``multipart/byteranges`` 206 zero-copy, window by window.

    The response interleaves small framing buffers (the HTTP header, each
    part's delimiter + ``Content-Range`` block, the closing delimiter) with
    arbitrary file windows.  Each part becomes one :class:`SendfileSendPath`
    stage — its framing rides as the stage's header buffers (the first
    stage also carries the HTTP response header), its window is an iterated
    ``os.sendfile`` at the part's offset, and its degradation fallback is a
    positional read of exactly that window — followed by one buffered stage
    for the trailer.  Stages run strictly in sequence, so the byte stream
    is identical to the buffered path's interleaved segment vector.

    Parameters
    ----------
    header:
        The encoded HTTP response header.
    parts:
        The ordered part sequence (``head``/``offset``/``length`` each).
    trailer:
        The closing multipart delimiter.
    fd:
        Open descriptor to transmit windows from; owned by the caller.
    read_range:
        ``(offset, length) -> bytes`` positional reader used when a window
        must degrade to the buffered path.
    on_fallback:
        Optional stats hook, invoked at most once per response no matter
        how many windows degrade.
    """

    kind = "sendfile"

    def __init__(
        self,
        header: bytes,
        parts: Sequence,
        trailer: bytes,
        fd: int,
        read_range: Callable[[int, int], Sequence],
        on_fallback: Optional[Callable[[], None]] = None,
    ) -> None:
        self._fell_back = False

        def stage_fallback() -> None:
            # Latch: a response that degrades several windows is still one
            # degraded response in the stats.
            if not self._fell_back:
                self._fell_back = True
                if on_fallback is not None:
                    on_fallback()

        self._stages: list = []
        for index, part in enumerate(parts):
            headers = [header, part.head] if index == 0 else [part.head]
            self._stages.append(
                SendfileSendPath(
                    headers,
                    fd,
                    part.length,
                    offset=part.offset,
                    fallback_factory=(
                        lambda offset=part.offset, length=part.length: [
                            read_range(offset, length)
                        ]
                    ),
                    on_fallback=stage_fallback,
                )
            )
        self._stages.append(BufferedSendPath([trailer] if parts else [header, trailer]))
        self._current = 0

    @property
    def fell_back(self) -> bool:
        """True once any window degraded to the buffered path."""
        return self._fell_back

    @property
    def done(self) -> bool:
        """True once every stage (framing and windows) is fully out."""
        return self._current >= len(self._stages)

    @property
    def under_delivered(self) -> bool:
        """True when any window came up short of its promised length."""
        return any(getattr(stage, "under_delivered", False) for stage in self._stages)

    def send(self, sock: socket.socket) -> int:
        """Advance the response; returns bytes written this call."""
        total = 0
        while self._current < len(self._stages):
            stage = self._stages[self._current]
            sent = stage.send(sock)
            total += sent
            if not stage.done:
                break
            self._current += 1
            if stage.under_delivered:
                # The promised framing is already broken; transmitting the
                # remaining parts would only desynchronize further.
                self._current = len(self._stages)
                break
        return total

    def release(self) -> None:
        """Drop every stage's buffered views; the fd is owner-released."""
        for stage in self._stages:
            stage.release()
        self._stages = []
        self._current = 0
