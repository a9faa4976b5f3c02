"""Helper pool and IPC protocol for the AMPED architecture (Sections 3.4, 5.1).

In AMPED, the main event-driven process handles all processing steps of an
HTTP request by default.  When a step may block on disk — a pathname
translation that misses the cache, or transmitting a file whose pages are
not memory resident — the main process instructs a *helper* over an IPC
channel to perform the potentially blocking operation.  The helper performs
the operation (touching all pages of its mapping of the file so the data
lands in the OS buffer cache), then returns a completion notification over
the IPC channel; the main process learns of this like any other I/O
completion event through ``select``.

Helpers handle one request at a time and are kept in reserve when idle.  To
minimize IPC, helpers return only a completion notification, never file
content (the main process transmits from its own mapping of the same file).

Three operations are supported: pathname translation (``OP_TRANSLATE``),
page-warming through a file mapping (``OP_READ``, the paper's read helper),
and ``OP_WARM`` — the zero-copy variant of the read helper, which makes an
fd-backed (``sendfile``) response memory resident via
``posix_fadvise(WILLNEED)`` plus a bounded positional read-touch, so the
main process can transmit straight from the descriptor without mapping the
file at all.

Helpers are threads inside the server process.  The paper notes helpers
"can be implemented either as kernel threads within the main server process
or as separate processes"; threads are the only realization here because
CPython releases the GIL during disk reads, so a helper thread gives the
same does-not-block-the-main-loop property as a helper process without the
IPC cost.  Completions are signalled to the event loop through a self-pipe
(socketpair), so the main loop still learns of them via ``select``.
"""

from __future__ import annotations

import logging
import os
import queue
import socket
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cache.pathname import PathnameEntry
from repro.core.event_loop import EVENT_READ
from repro.http.uri import translate_path

logger = logging.getLogger(__name__)

#: Helper operation codes.
OP_TRANSLATE = "translate"
OP_READ = "read"
OP_WARM = "warm"
OP_SHUTDOWN = "shutdown"

#: Buffer size for the warm operation's read-touch passes.  One reusable
#: buffer of this size bounds the helper's memory no matter how large the
#: file being warmed is.
WARM_READ_BUFFER = 256 * 1024

_HAS_FADVISE = hasattr(os, "posix_fadvise") and hasattr(os, "POSIX_FADV_WILLNEED")


def advise_willneed(fd: int, offset: int = 0, length: int = 0) -> bool:
    """Hint the kernel to start reading ``fd``'s byte range into the cache.

    Issues ``posix_fadvise(POSIX_FADV_WILLNEED)``, which kicks off readahead
    asynchronously and returns immediately — cheap enough for SPED to call
    inline on the main loop.  Returns False (and does nothing) on platforms
    without ``posix_fadvise`` or when the advice is rejected.
    """
    if not _HAS_FADVISE:
        return False
    try:
        os.posix_fadvise(fd, offset, length, os.POSIX_FADV_WILLNEED)
        return True
    except OSError:
        return False


@dataclass
class HelperRequest:
    """A unit of work shipped to a helper.

    Attributes
    ----------
    seq:
        Sequence number used to match the completion to its callback.
    op:
        ``OP_TRANSLATE`` (pathname translation + stat), ``OP_READ`` (touch
        all pages of a file range so it becomes memory resident) or
        ``OP_WARM`` (``posix_fadvise(WILLNEED)`` + bounded read-touch on an
        already open descriptor, for fd-backed ``sendfile`` responses).
    uri:
        Request path, for translations.
    path:
        Filesystem path, for reads and warms.
    fd:
        Open file descriptor to warm (``OP_WARM`` only); helper threads
        share the server's descriptor table.  The caller must keep the
        descriptor pinned until the reply arrives.
    offset, length:
        Byte range to touch for reads/warms (0, 0 means the whole file).
    document_root, user_dirs:
        Translation parameters, carried by the request so that
        :func:`perform_helper_operation` needs no server config object.
    """

    seq: int
    op: str
    uri: str = ""
    path: str = ""
    fd: int = -1
    offset: int = 0
    length: int = 0
    document_root: str = ""
    user_dirs: Optional[dict] = None


@dataclass
class HelperReply:
    """Completion notification returned by a helper.

    Only metadata crosses the IPC channel — never file contents — matching
    the paper's design for minimizing inter-process communication.
    """

    seq: int
    op: str
    ok: bool
    path: str = ""
    size: int = 0
    mtime: float = 0.0
    mtime_ns: int = 0
    bytes_touched: int = 0
    error_type: str = ""
    error_message: str = ""


def perform_helper_operation(request: HelperRequest) -> HelperReply:
    """Execute one helper request synchronously.

    This is the function helpers run; it is also called directly by the
    SPED build (inline, where it may block the whole server) and by tests.
    """
    try:
        if request.op == OP_TRANSLATE:
            path = translate_path(
                request.uri,
                document_root=request.document_root,
                user_dirs=request.user_dirs,
            )
            stat = os.stat(path)
            return HelperReply(
                seq=request.seq,
                op=request.op,
                ok=True,
                path=path,
                size=stat.st_size,
                mtime=stat.st_mtime,
                mtime_ns=stat.st_mtime_ns,
            )
        if request.op == OP_READ:
            touched = _touch_file_range(request.path, request.offset, request.length)
            return HelperReply(
                seq=request.seq,
                op=request.op,
                ok=True,
                path=request.path,
                bytes_touched=touched,
            )
        if request.op == OP_WARM:
            touched = _warm_file_range(request.fd, request.offset, request.length)
            return HelperReply(
                seq=request.seq,
                op=request.op,
                ok=True,
                path=request.path,
                bytes_touched=touched,
            )
        raise ValueError(f"unknown helper operation: {request.op!r}")
    except Exception as exc:  # noqa: BLE001 - helpers must never die on a bad request
        return HelperReply(
            seq=request.seq,
            op=request.op,
            ok=False,
            error_type=type(exc).__name__,
            error_message=str(exc),
        )


def _touch_file_range(path: str, offset: int, length: int) -> int:
    """Read ``length`` bytes of ``path`` starting at ``offset`` to warm the cache.

    The helper in the paper mmaps the file and touches all pages of its
    mapping; reading the range through the buffer cache has the same effect
    (the pages end up resident) without requiring the helper and the server
    to coordinate mapping addresses.
    """
    size = os.path.getsize(path)
    if length <= 0:
        length = size - offset
    length = max(0, min(length, size - offset))
    touched = 0
    with open(path, "rb") as handle:
        handle.seek(offset)
        remaining = length
        while remaining > 0:
            data = handle.read(min(1 << 20, remaining))
            if not data:
                break
            touched += len(data)
            remaining -= len(data)
    return touched


def _warm_file_range(fd: int, offset: int, length: int) -> int:
    """Make a byte range of an fd-backed response memory resident.

    This is the zero-copy analogue of :func:`_touch_file_range`: the main
    process will transmit with ``os.sendfile`` straight from the descriptor,
    so the helper's only job is to get the pages into the OS buffer cache —
    no mapping coordination, no data crosses the IPC channel.

    Two steps:

    1. ``posix_fadvise(WILLNEED)`` tells the kernel to start readahead over
       the whole range at once, so the disk sees one large sequential
       request instead of the buffer-sized reads below.
    2. A positional read-touch (``os.preadv`` into one reusable bounded
       buffer) walks the range to guarantee the pages are actually resident
       by completion time — ``WILLNEED`` alone is only a hint, and the main
       process transmits assuming the helper's reply means "will not block".

    ``os.preadv``/``os.pread`` never move the descriptor's file offset, so
    warming is safe to run concurrently with a ``sendfile`` transfer from
    the same (shared) descriptor.
    """
    size = os.fstat(fd).st_size
    if length <= 0:
        length = size - offset
    length = max(0, min(length, size - offset))
    advise_willneed(fd, offset, length)
    buffer = bytearray(min(WARM_READ_BUFFER, max(1, length)))
    view = memoryview(buffer)
    read_at = getattr(os, "preadv", None)
    touched = 0
    position = offset
    remaining = length
    while remaining > 0:
        want = min(len(buffer), remaining)
        if read_at is not None:
            got = read_at(fd, [view[:want]], position)
        else:  # pragma: no cover - platforms without preadv
            got = len(os.pread(fd, want, position))
        if got <= 0:
            break
        touched += got
        position += got
        remaining -= got
    return touched


def translation_entry_from_reply(uri: str, reply: HelperReply) -> PathnameEntry:
    """Convert a successful translation reply into a pathname-cache entry."""
    if not reply.ok:
        raise ValueError("cannot build a PathnameEntry from a failed reply")
    return PathnameEntry(
        uri=uri,
        filesystem_path=reply.path,
        size=reply.size,
        mtime=reply.mtime,
        mtime_ns=reply.mtime_ns,
    )


class HelperPool:
    """Dispatches potentially blocking operations to helpers and collects completions.

    The pool owns ``num_helpers`` helper threads.  :meth:`submit` queues a
    request with its completion callback; idle helpers pick work up
    immediately and excess requests wait (the paper sizes the pool to
    "enough helpers to keep the disk busy", not one per connection).  The
    event loop must call :meth:`register` once; afterwards completions are
    delivered by the loop's normal readiness dispatch and each callback runs
    in the main thread — never concurrently with the event loop.

    Parameters
    ----------
    num_helpers:
        Number of helper threads.
    """

    def __init__(self, num_helpers: int = 4):
        if num_helpers < 1:
            raise ValueError("num_helpers must be at least 1")
        self.num_helpers = num_helpers
        self._seq = 0
        self._callbacks: dict[int, Callable[[HelperReply], None]] = {}
        self._closed = False
        self.dispatched = 0
        self.completed = 0
        self._work_queue: queue.Queue = queue.Queue()
        self._done_queue: queue.Queue = queue.Queue()
        self._wakeup_recv, self._wakeup_send = socket.socketpair()
        self._wakeup_recv.setblocking(False)
        self._threads = [
            threading.Thread(target=self._thread_main, name=f"flash-helper-{i}", daemon=True)
            for i in range(num_helpers)
        ]
        for thread in self._threads:
            thread.start()

    # -- public API -----------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Number of submitted operations whose completion has not yet run."""
        return len(self._callbacks)

    def submit(self, request: HelperRequest, callback: Callable[[HelperReply], None]) -> int:
        """Queue ``request``; ``callback(reply)`` runs when the helper finishes."""
        if self._closed:
            raise RuntimeError("helper pool is shut down")
        self._seq += 1
        request.seq = self._seq
        self._callbacks[request.seq] = callback
        self.dispatched += 1
        self._work_queue.put(request)
        return request.seq

    def register(self, loop) -> None:
        """Register the pool's completion channel with an event loop."""
        loop.register(
            self._wakeup_recv,
            EVENT_READ,
            lambda _fileobj, _mask: self.process_completions(),
        )

    def unregister(self, loop) -> None:
        """Remove the pool's completion channel from an event loop."""
        loop.unregister(self._wakeup_recv)

    def process_completions(self) -> int:
        """Run callbacks for every completion available right now.

        Returns the number of completions processed.
        """
        try:
            # Drain the wakeup bytes first so the loop does not spin.
            try:
                while self._wakeup_recv.recv(4096):
                    pass
            except (BlockingIOError, InterruptedError):
                pass
            processed = 0
            while True:
                try:
                    reply = self._done_queue.get_nowait()
                except queue.Empty:
                    break
                self._complete(reply)
                processed += 1
            return processed
        except Exception:
            # Crash barrier (lint rule RL005): this runs as a loop readiness
            # callback, and an escaped exception would kill every connection.
            logger.exception("unhandled error draining helper completions (absorbed)")
            return 0

    def wait_all(self, timeout: float = 10.0) -> None:
        """Block until every outstanding operation has completed (tests only)."""
        import time

        deadline = time.monotonic() + timeout
        while self.outstanding and time.monotonic() < deadline:
            self.process_completions()
            time.sleep(0.001)
        if self.outstanding:
            raise TimeoutError(f"{self.outstanding} helper operations still outstanding")

    def shutdown(self) -> None:
        """Stop all helpers and release the completion channel.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._work_queue.put(HelperRequest(seq=0, op=OP_SHUTDOWN))
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._wakeup_recv.close()
        self._wakeup_send.close()

    # -- completion plumbing ----------------------------------------------------

    def _complete(self, reply: HelperReply) -> None:
        callback = self._callbacks.pop(reply.seq, None)
        self.completed += 1
        if callback is not None:
            callback(reply)

    def _thread_main(self) -> None:
        while True:
            request = self._work_queue.get()
            if request.op == OP_SHUTDOWN:
                return
            reply = perform_helper_operation(request)
            self._done_queue.put(reply)
            try:
                self._wakeup_send.send(b"\0")
            except OSError:
                return
