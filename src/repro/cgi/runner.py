"""Persistent CGI-style application runner (paper Section 5.6).

The original Flash forwards dynamic requests to CGI-bin application
*processes* via pipes and keeps those processes alive across requests
(FastCGI-style).  Here a CGI application is a Python callable registered
under a name; requests to ``/cgi-bin/<name>`` are forwarded to a persistent
worker dedicated to that application.  Workers are created lazily on first
use ("if a process does not currently exist, the server creates it"),
process one request at a time, and return the generated document.

Workers are persistent threads, one per application.  The paper notes that
AMPED's helpers "can be implemented either as kernel threads within the main
server process or as separate processes", and the same holds for these
workers; threads are the only realization here because CPython releases the
GIL in blocking I/O, so an application running in its own thread can block
or compute for a long time without stalling the event loop, which is the
property Section 5.6 cares about.

Streaming applications
----------------------

An application that returns *bytes* (or ``str``) is buffered exactly as
before.  An application that returns an **iterator/generator** streams:
its chunks flow through a *bounded* per-request queue
(``stream_depth`` entries) to the consumer, and the worker blocks on
``put`` when the queue is full — which is the CGI half of the streaming
backpressure design.  When the consuming connection pauses its source
(socket stopped draining), chunk notifications stop, the queue fills,
and the worker blocks in its queue write instead of the server
buffering unboundedly.  ``cancel`` (set when the consumer is reaped)
unblocks the worker and lets it run the generator's ``finally`` blocks.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

from repro.core.event_loop import EVENT_READ
from repro.core.streaming import END_OF_STREAM, ResponseSource, WOULD_BLOCK
from repro.http.errors import NotFoundError
from repro.http.request import HTTPRequest

logger = logging.getLogger(__name__)

#: Signature of a CGI application: it receives the request data and returns
#: the response body as bytes (buffered) or an iterator of chunks (streamed).
CGIProgram = Callable[["CGIRequestData"], Union[bytes, Iterator[bytes]]]


@dataclass
class CGIRequestData:
    """The subset of a request forwarded to a CGI application."""

    program: str
    path: str
    query: str = ""
    method: str = "GET"
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def from_request(cls, program: str, request: HTTPRequest) -> "CGIRequestData":
        """Extract the CGI-visible fields from a parsed HTTP request."""
        return cls(
            program=program,
            path=request.path,
            query=request.query,
            method=request.method,
            headers=dict(request.headers),
            body=request.body,
        )


@dataclass
class _CGIJob:
    seq: int
    data: CGIRequestData


@dataclass
class _CGIDone:
    seq: int
    ok: bool
    body: bytes = b""
    error_message: str = ""


@dataclass
class _CGIStreamStart:
    """First delivery of a streaming request: the bounded chunk queue."""

    seq: int
    chunks: queue.Queue
    cancel: threading.Event


@dataclass
class _CGIStreamData:
    """A chunk landed in the stream's queue (wakeup marker, carries no data)."""

    seq: int


@dataclass
class _CGIStreamEnd:
    """The stream's producer finished (the in-queue ``_StreamEnd`` is final)."""

    seq: int
    error_message: str = ""


class _StreamEnd:
    """In-queue terminator: follows the last chunk through the chunk queue."""

    __slots__ = ("error_message",)

    def __init__(self, error_message: str = "") -> None:
        self.error_message = error_message


def _put_with_cancel(chunks: queue.Queue, item, cancel: threading.Event) -> bool:
    """Bounded put that aborts when the consumer cancelled the stream.

    The blocking ``put`` on a full queue IS the backpressure: the worker
    stalls until the consumer drains or gives up.  Polls the cancel flag so
    a reaped consumer cannot wedge the worker forever.
    """
    while not cancel.is_set():
        try:
            chunks.put(item, timeout=0.1)
            return True
        except queue.Full:
            continue
    return False


class CGIStreamSource(ResponseSource):
    """Streaming CGI output as a :class:`ResponseSource`.

    Wraps the bounded chunk queue a worker fills.  ``pause`` suppresses
    ready-notifications (the event-driven analog of unregistering the
    child pipe): chunks keep landing until the queue is full, at which
    point the producer blocks.  ``close`` sets the cancel flag and drains
    the queue so a blocked producer wakes up and can tear down.
    """

    def __init__(self, chunks: queue.Queue, cancel: threading.Event) -> None:
        super().__init__()
        self._chunks = chunks
        self._cancel = cancel
        self._paused = False
        self._ended = False
        self._closed = False

    def next_segment(self):
        if self._ended or self._closed:
            return END_OF_STREAM
        try:
            item = self._chunks.get_nowait()
        except queue.Empty:
            return WOULD_BLOCK
        if isinstance(item, _StreamEnd):
            self._ended = True
            if item.error_message:
                self.failed = True
            return END_OF_STREAM
        return item

    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    def notify_data(self) -> None:
        """Chunk arrived: wake the parked consumer unless it paused us."""
        if not self._paused and not self._closed:
            self.notify_ready()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._cancel.set()
        try:
            while True:
                self._chunks.get_nowait()
        except queue.Empty:
            pass


class CGIRunner:
    """Dispatches dynamic requests to persistent per-application workers.

    Parameters
    ----------
    programs:
        Mapping of application name (the path component after
        ``/cgi-bin/``) to the application callable.
    prefix:
        URI prefix that identifies dynamic requests.
    stream_depth:
        Bound on the per-request chunk queue of a streaming application;
        the producer blocks once this many chunks are unconsumed.
    """

    def __init__(
        self,
        programs: Optional[dict] = None,
        prefix: str = "/cgi-bin/",
        stream_depth: int = 8,
    ):
        self.programs: dict[str, CGIProgram] = dict(programs or {})
        self.prefix = prefix
        self.stream_depth = max(1, stream_depth)
        self._seq = 0
        self._callbacks: dict[int, Callable] = {}
        self._streams: dict[int, CGIStreamSource] = {}
        self._workers: dict[str, _ThreadWorker] = {}
        self._done_queue: queue.Queue = queue.Queue()
        self._wakeup_recv, self._wakeup_send = socket.socketpair()
        self._wakeup_recv.setblocking(False)
        self._closed = False
        self.requests_run = 0

    # -- registration ---------------------------------------------------------

    def register_program(self, name: str, program: CGIProgram) -> None:
        """Add (or replace) an application.  Its worker starts on first use."""
        self.programs[name] = program

    def program_name(self, request: HTTPRequest) -> str:
        """Extract the application name from a dynamic request path."""
        if not request.path.startswith(self.prefix):
            raise NotFoundError(f"not a CGI path: {request.path}")
        name = request.path[len(self.prefix):].split("/", 1)[0]
        if not name or name not in self.programs:
            raise NotFoundError(f"no such CGI program: {name!r}")
        return name

    # -- synchronous execution (MP/MT builds) -----------------------------------

    def run(self, request: HTTPRequest):
        """Run the application for ``request``; body bytes or chunk iterator.

        This blocks the caller until the application finishes (buffered
        programs) or produces its first delivery (streaming programs),
        which is the natural mode for the MP and MT builds where each
        worker handles one request at a time anyway.  A streaming program
        yields a generator of chunks; iterating it paces the application
        through the bounded queue, and closing it cancels the stream.
        """
        name = self.program_name(request)
        worker = self._worker_for(name)
        data = CGIRequestData.from_request(name, request)
        first = worker.run_sync(data)
        self.requests_run += 1
        if isinstance(first, _CGIDone):
            if not first.ok:
                raise RuntimeError(
                    f"CGI program {name!r} failed: {first.error_message}"
                )
            return first.body
        return _drain_stream(first)

    # -- asynchronous execution (SPED/AMPED builds) -------------------------------

    def submit(self, request: HTTPRequest, callback: Callable) -> None:
        """Run the application without blocking; ``callback(result, error)``.

        ``result`` is the body bytes for buffered programs or a
        :class:`CGIStreamSource` for streaming ones.  Completions are
        delivered through :meth:`process_completions`, which the event
        loop invokes when the runner's wakeup channel becomes readable
        (see :meth:`register`).
        """
        try:
            name = self.program_name(request)
        except NotFoundError as exc:
            callback(None, exc)
            return
        worker = self._worker_for(name)
        self._seq += 1
        self._callbacks[self._seq] = callback
        data = CGIRequestData.from_request(name, request)
        worker.run_async(_CGIJob(seq=self._seq, data=data), self._deliver)

    def register(self, loop) -> None:
        """Register the completion channel with an event loop."""
        loop.register(
            self._wakeup_recv,
            EVENT_READ,
            lambda _fileobj, _mask: self.process_completions(),
        )

    def unregister(self, loop) -> None:
        """Remove the completion channel from an event loop."""
        loop.unregister(self._wakeup_recv)

    def process_completions(self) -> int:
        """Invoke callbacks for every finished or progressed request."""
        try:
            try:
                while self._wakeup_recv.recv(4096):
                    pass
            except (BlockingIOError, InterruptedError):
                pass
            processed = 0
            while True:
                try:
                    done = self._done_queue.get_nowait()
                except queue.Empty:
                    break
                processed += 1
                if isinstance(done, _CGIStreamStart):
                    callback = self._callbacks.pop(done.seq, None)
                    self.requests_run += 1
                    source = CGIStreamSource(done.chunks, done.cancel)
                    if callback is None:
                        source.close()
                        continue
                    self._streams[done.seq] = source
                    callback(source, None)
                    continue
                if isinstance(done, _CGIStreamData):
                    source = self._streams.get(done.seq)
                    if source is not None:
                        source.notify_data()
                    continue
                if isinstance(done, _CGIStreamEnd):
                    source = self._streams.pop(done.seq, None)
                    if source is not None:
                        source.notify_data()
                    continue
                callback = self._callbacks.pop(done.seq, None)
                self.requests_run += 1
                if callback is not None:
                    if done.ok:
                        callback(done.body, None)
                    else:
                        callback(None, RuntimeError(done.error_message))
            return processed
        except Exception:
            # Crash barrier (lint rule RL005): runs as a loop readiness
            # callback; a response-callback bug must not kill the loop.
            logger.exception("unhandled error draining CGI completions (absorbed)")
            return 0

    def _deliver(self, done) -> None:
        self._done_queue.put(done)
        try:
            self._wakeup_send.send(b"\0")
        except OSError:
            pass

    # -- lifecycle ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for source in list(self._streams.values()):
            source.close()
        self._streams.clear()
        for worker in self._workers.values():
            worker.stop()
        self._workers.clear()
        self._wakeup_recv.close()
        self._wakeup_send.close()

    @property
    def active_workers(self) -> int:
        """Number of application workers currently alive."""
        return len(self._workers)

    def _worker_for(self, name: str) -> "_ThreadWorker":
        worker = self._workers.get(name)
        if worker is None:
            worker = _ThreadWorker(name, self.programs[name], self.stream_depth)
            self._workers[name] = worker
        return worker


def _drain_stream(start: _CGIStreamStart):
    """Generator over a stream's bounded queue (blocking-architecture drive)."""
    try:
        while True:
            item = start.chunks.get()
            if isinstance(item, _StreamEnd):
                if item.error_message:
                    raise RuntimeError(f"CGI stream failed: {item.error_message}")
                return
            yield item
    finally:
        start.cancel.set()


def _run_program(
    program: CGIProgram,
    data: CGIRequestData,
    seq: int,
    deliver: Callable,
    stream_depth: int,
    notify_chunks: bool,
) -> None:
    """Execute one application request, buffered or streamed.

    ``notify_chunks`` controls whether per-chunk ``_CGIStreamData`` (and
    final ``_CGIStreamEnd``) markers are delivered: the async path needs
    them to wake the event loop; the sync path reads the chunk queue
    directly and only wants the first delivery.
    """
    try:
        body = program(data)
        if isinstance(body, str):
            body = body.encode("utf-8")
        if isinstance(body, (bytes, bytearray, memoryview)):
            deliver(_CGIDone(seq=seq, ok=True, body=bytes(body)))
            return
    except Exception as exc:  # noqa: BLE001 - worker must survive app errors
        deliver(_CGIDone(seq=seq, ok=False,
                         error_message=f"{type(exc).__name__}: {exc}"))
        return
    chunks: queue.Queue = queue.Queue(maxsize=max(1, stream_depth))
    cancel = threading.Event()
    deliver(_CGIStreamStart(seq=seq, chunks=chunks, cancel=cancel))
    error = ""
    try:
        for chunk in body:
            if isinstance(chunk, str):
                chunk = chunk.encode("utf-8")
            if not len(chunk):
                continue
            if not _put_with_cancel(chunks, bytes(chunk), cancel):
                break
            if notify_chunks:
                deliver(_CGIStreamData(seq=seq))
    except Exception as exc:  # noqa: BLE001 - worker must survive app errors
        error = f"{type(exc).__name__}: {exc}"
    finally:
        closer = getattr(body, "close", None)
        if closer is not None:
            try:
                closer()
            except Exception:  # noqa: BLE001 - generator cleanup is best-effort
                logger.exception("CGI stream generator close failed (absorbed)")
    _put_with_cancel(chunks, _StreamEnd(error), cancel)
    if notify_chunks:
        deliver(_CGIStreamEnd(seq=seq, error_message=error))


class _ThreadWorker:
    """Persistent worker thread dedicated to one application."""

    def __init__(self, name: str, program: CGIProgram, stream_depth: int = 8):
        self.name = name
        self.program = program
        self.stream_depth = stream_depth
        self._jobs: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._main, name=f"cgi-{name}", daemon=True
        )
        self._thread.start()

    def _main(self) -> None:
        while True:
            item = self._jobs.get()
            if item is None:
                return
            job, deliver, notify_chunks = item
            _run_program(self.program, job.data, job.seq, deliver,
                         self.stream_depth, notify_chunks)

    def run_sync(self, data: CGIRequestData):
        result_box: queue.Queue = queue.Queue()
        self._jobs.put((_CGIJob(seq=0, data=data), result_box.put, False))
        return result_box.get()

    def run_async(self, job: _CGIJob, deliver: Callable) -> None:
        self._jobs.put((job, deliver, True))

    def stop(self) -> None:
        self._jobs.put(None)
        self._thread.join(timeout=5.0)
