"""The Flash web server: the AMPED architecture on a real event loop.

:class:`BaseEventDrivenServer` contains everything the SPED and AMPED builds
share: the listening socket, the ``selectors`` event loop, connection
management and dynamic-content dispatch.  (Slow-client reaping is not a
server-level sweep: each connection arms its own header/idle/write-stall
deadline on the event loop's timer wheel — see :mod:`repro.core.connection`.)
The two builds differ only in the driver hooks that decide where potentially
blocking work runs:

* :class:`FlashServer` (AMPED) consults the pathname cache and, on a miss,
  ships the translation to a helper; before transmitting mapped file data it
  tests memory residency and, when pages are missing, ships a read
  (page-warming) operation to a helper.  The main loop never performs
  blocking disk work itself.
* :class:`repro.servers.sped.SPEDServer` overrides the same hooks to run the
  operations inline — faithful to SPED, including its weakness: a disk miss
  stalls every connection.
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import Optional

from repro.cache.residency import ResidencyTester
from repro.cgi.runner import CGIRunner
from repro.core.admission import (
    ACCEPT_RESOURCE,
    ACCEPT_TRANSIENT,
    AdmissionController,
    classify_accept_error,
)
from repro.core.config import ServerConfig
from repro.core.connection import Connection
from repro.core.event_loop import EVENT_READ, EventLoop
from repro.core.helpers import (
    OP_READ,
    OP_TRANSLATE,
    OP_WARM,
    HelperPool,
    HelperRequest,
    translation_entry_from_reply,
)
from repro.core.pipeline import ContentStore, ServerStats, StaticContent
from repro.core.send_path import sendfile_available
from repro.core.sse import SSEHub
from repro.http.errors import HTTPError, NotFoundError
from repro.http.request import HTTPRequest
from repro.testing.faults import faults

#: Fallback resume delay for an accept pause that nothing will unblock: a
#: pause taken with zero open connections (descriptor pressure from outside
#: the connection table) has no close event to ride, so a timer retries.
logger = logging.getLogger(__name__)

ACCEPT_RETRY_INTERVAL = 1.0


class BaseEventDrivenServer:
    """Shared machinery of the event-driven (SPED and AMPED) builds."""

    #: Architecture label used in logs, experiments and ``create_server``.
    architecture = "event-driven"

    def __init__(
        self,
        config: ServerConfig,
        residency_tester: Optional[ResidencyTester] = None,
    ):
        self.config = config
        self.loop = EventLoop(backend=config.io_backend)
        self.store = ContentStore(config, residency_tester=residency_tester)
        self.cgi_runner = CGIRunner(
            config.cgi_programs,
            prefix=config.cgi_prefix,
            stream_depth=config.cgi_stream_depth,
        )
        self.cgi_runner.register(self.loop)
        #: Pub/sub hub behind the built-in SSE endpoint.  Its notify channel
        #: rides the event loop (subscriber ready-callbacks run on the loop
        #: thread); its heartbeat ticker, when enabled, is a plain daemon
        #: thread publishing through the thread-safe ``publish``.
        self.sse_hub: Optional[SSEHub] = None
        if config.sse_path:
            self.sse_hub = SSEHub(
                queue_limit=config.sse_queue_limit,
                policy=config.sse_policy,
                on_drop=self._on_sse_drop,
            )
            self.sse_hub.register(self.loop)
            self.sse_hub.start_ticker(config.sse_heartbeat)
        self._listen_sock: Optional[socket.socket] = None
        self._connections: set[Connection] = set()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._bound = threading.Event()
        self._closed = False
        self.admission = AdmissionController(
            max_connections=config.max_connections,
            resume_fraction=config.admission_resume,
            retry_after=config.retry_after,
        )
        #: Accept-pause state for the fd-exhaustion guard: while paused the
        #: listener is unregistered from the loop (a level-triggered backend
        #: would otherwise spin on the forever-readable listener) and it is
        #: re-registered once connections drain below the pause-time count.
        self._accept_paused = False
        self._paused_at_count = 0
        self._pause_generation = 0
        #: Drain state (SIGTERM/SIGINT graceful shutdown).
        self._draining = False
        self._drain_generation = 0

    # -- binding and addresses ---------------------------------------------------

    def bind(self) -> None:
        """Create and register the listening socket.  Idempotent."""
        if self._listen_sock is not None:
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.config.reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise RuntimeError("SO_REUSEPORT is not available on this platform")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.config.host, self.config.port))
        sock.listen(self.config.listen_backlog)
        sock.setblocking(False)
        self._listen_sock = sock
        self.loop.register(sock, EVENT_READ, self._on_accept_ready)
        self._bound.set()

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the server is bound to."""
        if self._listen_sock is None:
            raise RuntimeError("server is not bound yet")
        return self._listen_sock.getsockname()[:2]

    @property
    def port(self) -> int:
        """Bound TCP port (useful when the config asked for an ephemeral port)."""
        return self.address[1]

    @property
    def stats(self) -> ServerStats:
        """Centralized request statistics (shared-state accounting, §4.2)."""
        return self.store.stats

    @property
    def open_connections(self) -> int:
        """Number of currently open client connections."""
        return len(self._connections)

    # -- accepting connections -----------------------------------------------------

    def _on_accept_ready(self, _fileobj, _mask) -> None:
        # Accept every pending connection: under load, several arrivals can
        # be reported by a single select wakeup.
        try:
            assert self._listen_sock is not None
            while True:
                if faults.take("accept_emfile"):
                    # Injected fd exhaustion: behave exactly as if accept(2)
                    # itself had failed with EMFILE.
                    self._on_fd_exhaustion()
                    return
                try:
                    client_sock, address = self._listen_sock.accept()
                except (BlockingIOError, InterruptedError):
                    return
                except OSError as exc:
                    kind = classify_accept_error(exc)
                    if kind == ACCEPT_TRANSIENT:
                        # The arrival aborted between SYN and accept (or a
                        # signal landed): the next pending connection may be
                        # fine, keep draining the backlog.
                        continue
                    if kind == ACCEPT_RESOURCE:
                        self._on_fd_exhaustion()
                    # Fatal (EBADF and friends): the listener is gone, which
                    # is the normal shutdown race — stop the accept sweep.
                    return
                self.store.stats.connections_accepted += 1
                if not self.admission.admit(len(self._connections)):
                    # Over the connection bound: answer the precomposed 503
                    # and close, so the client learns immediately instead of
                    # timing out in the backlog.
                    self.store.stats.connections_shed += 1
                    self.admission.shed(client_sock)
                    continue
                connection = Connection(client_sock, address, self)
                self._connections.add(connection)
        except Exception:
            self._absorb_callback_crash("_on_accept_ready")

    def _absorb_callback_crash(self, where: str) -> None:
        """Crash barrier for server-scoped loop callbacks (lint rule RL005).

        Accept sweeps, pause/resume timers and drain steps run directly on
        the event loop: an exception escaping any of them would unwind
        ``run_once`` and take every established connection down with it.
        The failing step is skipped instead — counted and logged with
        traceback — and the loop lives on.
        """
        try:
            self.store.stats.loop_callback_errors += 1
        except Exception:  # stats are best-effort inside the barrier
            pass
        logger.exception("unhandled error in %s (absorbed; loop continues)", where)

    def _on_sse_drop(self) -> None:
        """Hub overflow hook: a stalled subscriber's bounded queue shed one.

        Runs on whichever thread published the event (the heartbeat ticker,
        usually).  The event-driven builds keep all other stats on the loop
        thread; this one counter trades exactness for not dragging a lock
        onto every publish, same as the MT build's documented stats slop.
        """
        self.store.stats.sse_dropped_events += 1

    def _on_fd_exhaustion(self) -> None:
        """Survive accept-time EMFILE/ENFILE: pause accepts, shed one arrival.

        The pause (and its counter) comes first so that the shed client,
        once it has its 503, observes the guard's bookkeeping complete.
        """
        self.store.stats.fd_exhaustion_events += 1
        self._pause_accepting()
        self.admission.shed_one_pending(self._listen_sock)

    def _pause_accepting(self) -> None:
        """Drop accept interest until established connections drain.

        Level-triggered backends re-report a readable listener every poll;
        without the pause an EMFILE storm becomes a 100% CPU spin of
        failing accepts.
        """
        if self._accept_paused or self._draining or self._listen_sock is None:
            return
        self._accept_paused = True
        self._paused_at_count = len(self._connections)
        self._pause_generation += 1
        self.store.stats.accept_pauses += 1
        self.loop.unregister(self._listen_sock)
        # Timed fallback: descriptor pressure from outside the connection
        # table (helpers, caches, other subsystems) produces no
        # connection-closed event to ride, so retry on a timer as well.
        generation = self._pause_generation
        self.loop.call_later(
            ACCEPT_RETRY_INTERVAL, lambda: self._timed_resume(generation)
        )

    def _timed_resume(self, generation: int) -> None:
        try:
            if generation == self._pause_generation and self._accept_paused:
                self._resume_accepting()
        except Exception:
            self._absorb_callback_crash("_timed_resume")

    def _resume_accepting(self) -> None:
        if not self._accept_paused:
            return
        self._accept_paused = False
        self._pause_generation += 1
        if self._listen_sock is not None and not self._draining:
            self.loop.register(self._listen_sock, EVENT_READ, self._on_accept_ready)

    # -- driver hooks (overridden per architecture) -----------------------------------

    def translate_async(self, uri: str, callback) -> None:
        """Resolve a pathname inline (SPED behaviour: may block the loop)."""
        self.store.stats.blocking_translations += 1
        try:
            entry = self.store.translate(uri)
        except HTTPError as exc:
            callback(None, exc)
            return
        except OSError as exc:
            callback(None, NotFoundError(str(exc)))
            return
        callback(entry, None)

    def handle_cgi_async(self, request: HTTPRequest, callback) -> None:
        """Forward a dynamic request to its persistent CGI application."""
        self.cgi_runner.submit(request, callback)

    def hot_content_ready(self, content) -> bool:
        """Transmit hot-cache hits unconditionally (SPED behaviour).

        SPED never tests residency — a cold page simply blocks the whole
        process during transmission, which is its defining cost — so a hot
        hit goes straight to the send path.  AMPED overrides this to keep
        its non-blocking invariant.
        """
        return True

    def on_connection_closed(self, connection: Connection) -> None:
        """Forget a finished connection; unblock paused accepts and drains."""
        self._connections.discard(connection)
        if self._accept_paused:
            open_count = len(self._connections)
            if open_count < self._paused_at_count and self.admission.may_resume(
                open_count
            ):
                self._resume_accepting()
        if self._draining and not self._connections:
            self._finish_drain()

    # -- graceful drain ---------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether the server is in drain mode (stopping gracefully)."""
        return self._draining

    def request_drain(self) -> None:
        """Enter drain mode: stop accepting, finish in-flight responses.

        Safe to call from a signal handler or another thread: it only
        appends to the loop's deferred-call list (a plain list append,
        atomic under the GIL); all drain work runs on the loop thread.
        The event loop exits — and :meth:`run_forever` returns — once
        every in-flight response completes or ``drain_timeout`` expires,
        whichever comes first.
        """
        self.loop.call_soon(self._begin_drain)

    def _begin_drain(self) -> None:
        try:
            if self._draining or self._closed:
                return
            self._draining = True
            # Closing the listener (not merely unregistering it) removes
            # this process from the kernel's SO_REUSEPORT hash, so in a
            # shard fleet new arrivals immediately redistribute to the
            # surviving shards.
            if self._listen_sock is not None:
                self.loop.unregister(self._listen_sock)
                try:
                    self._listen_sock.close()
                except OSError:
                    pass
                self._listen_sock = None
            # End every SSE subscription: subscribers flush their queued
            # backlog (plus the chunked terminator) and close gracefully,
            # ahead of the force-close backstop below.
            if self.sse_hub is not None:
                self.sse_hub.close()
            # Idle keep-alive connections are owed nothing: close them now.
            # Connections mid-request or mid-response run to completion
            # below (their responses carry ``Connection: close`` — see
            # repro.core.connection's drain awareness).
            for connection in list(self._connections):
                if connection.drain_idle():
                    connection.close()
            if not self._connections:
                self._finish_drain()
                return
            timeout = self.config.drain_timeout
            generation = self._drain_generation
            if timeout <= 0:
                self._drain_expired(generation)
            else:
                self.loop.call_later(timeout, lambda: self._drain_expired(generation))
        except Exception:
            self._absorb_callback_crash("_begin_drain")

    def _drain_expired(self, generation: int) -> None:
        """Drain deadline: force-close the stragglers still in flight."""
        try:
            if generation != self._drain_generation or not self._draining:
                return
            for connection in list(self._connections):
                self.store.stats.drain_forced_closes += 1
                connection.close()
        except Exception:
            self._absorb_callback_crash("_drain_expired")

    def _finish_drain(self) -> None:
        """All connections drained: stop the loop so run_forever returns."""
        if not self._draining:
            return
        self._drain_generation += 1
        self._stop_event.set()
        self.loop.stop()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Request a drain and wait for the event loop to wind down.

        For servers running on a background thread (:meth:`start`): returns
        True when the drain completed (all connections finished or were
        force-closed at the deadline) within ``drain_timeout`` plus a small
        grace.  The caller still owns :meth:`stop`/:meth:`close` for
        resource release, exactly as after a normal run.
        """
        self.request_drain()
        budget = self.config.drain_timeout if timeout is None else timeout
        finished = self._stop_event.wait(budget + 2.0)
        if self._thread is not None:
            self._thread.join(timeout=budget + 2.0)
            if not self._thread.is_alive():
                self._thread = None
        return finished

    # -- running --------------------------------------------------------------------

    def run_forever(self) -> None:
        """Bind (if needed) and run the event loop until :meth:`stop`."""
        self.bind()
        self.loop.run_forever(should_stop=self._stop_event.is_set, poll_interval=0.1)

    def start(self) -> "BaseEventDrivenServer":
        """Run the server in a background thread; returns once it is bound.

        This is the entry point tests and the load-generator examples use:
        the caller's thread stays free to generate client load against
        :attr:`address`.
        """
        if self._thread is not None:
            return self
        self.bind()
        self._thread = threading.Thread(
            target=self.run_forever, name=f"{self.architecture}-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the event loop and release all resources."""
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self.close()

    def close(self) -> None:
        """Close sockets, connections, caches and auxiliary workers."""
        if self._closed:
            return
        self._closed = True
        for connection in list(self._connections):
            connection.close()
        if self._listen_sock is not None:
            self.loop.unregister(self._listen_sock)
            self._listen_sock.close()
            self._listen_sock = None
        self.admission.close()
        if self.sse_hub is not None:
            self.sse_hub.unregister(self.loop)
            self.sse_hub.shutdown()
            self.sse_hub = None
        self.cgi_runner.shutdown()
        self.store.close()
        self.loop.close()

    def __enter__(self) -> "BaseEventDrivenServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # Idle-connection reaping lives in the per-connection deadline system
    # now: every Connection arms header/idle/write-stall deadlines on the
    # event loop's hashed timer wheel (see repro.core.connection), which
    # replaced the periodic full-sweep reaper this class used to run — the
    # sweep cost O(connections) per pass, reset its clock on readiness
    # rather than progress (so slow clients dodged it), and busy-looped
    # when the timeout was configured to 0.


class FlashServer(BaseEventDrivenServer):
    """The Flash web server: AMPED with aggressive caching (paper Section 5).

    The main event-driven process handles every processing step of an HTTP
    request; when a step could block on disk it is shipped to a helper and
    its completion is observed through the same ``select`` loop as network
    events.  Helpers are only needed per *concurrent disk operation*, not
    per connection, so a handful suffice.

    Parameters
    ----------
    config:
        Server configuration; cache switches and helper count live here.
    residency_tester:
        Override for the ``mincore`` memory-residency test (used by tests to
        script which files count as cached in memory).
    """

    architecture = "amped"

    def __init__(
        self,
        config: ServerConfig,
        residency_tester: Optional[ResidencyTester] = None,
    ):
        super().__init__(config, residency_tester=residency_tester)
        self.helpers = HelperPool(num_helpers=config.num_helpers)
        self.helpers.register(self.loop)

    # -- AMPED driver hooks ----------------------------------------------------------

    def translate_async(self, uri: str, callback) -> None:
        """Use the pathname cache; ship misses to a translation helper."""
        entry = self.store.translate_cached_only(uri)
        if entry is not None:
            callback(entry, None)
            return
        self.store.stats.helper_dispatches += 1
        request = HelperRequest(
            seq=0,
            op=OP_TRANSLATE,
            uri=uri,
            document_root=self.config.document_root,
            user_dirs=self.config.user_dirs,
        )

        def on_reply(reply) -> None:
            if not reply.ok:
                callback(None, _reply_to_error(reply))
                return
            entry = translation_entry_from_reply(uri, reply)
            self.store.store_translation(entry)
            callback(entry, None)

        self.helpers.submit(request, on_reply)

    def prepare_content_async(self, request: HTTPRequest, entry, callback) -> None:
        """Build the response; warm non-resident content through a helper.

        Two warming routes, chosen by how the body will be transmitted:

        * mapped bodies keep the paper's original path — chunk-level
          ``mincore`` then an ``OP_READ`` helper that touches the pages;
        * fd-backed (``sendfile``) bodies skip mapping entirely when
          ``helper_warming`` is enabled: residency is probed on the bare
          descriptor and cold files go to an ``OP_WARM`` helper
          (``posix_fadvise(WILLNEED)`` + bounded read-touch), so the
          zero-copy fast path never pays map/touch/unmap work at all.
        """
        # With warming enabled the zero-copy response needs no mapped
        # chunks: the fd residency probe replaces the chunk mincore test
        # and the warm helper replaces the page-touch helper.
        fd_route = (
            self.config.zero_copy
            and self.config.helper_warming
            and sendfile_available()
            and not request.is_head
        )
        try:
            content = self.store.build_response(request, entry, map_body=not fd_route)
        except (HTTPError, OSError) as exc:
            callback(None, exc)
            return
        if content.file_handle is not None and not content.chunks:
            # Fd-backed (chunkless) response — also reachable with warming
            # disabled when the mmap cache is off.  Residency can only be
            # probed on the bare descriptor and warmed via OP_WARM, so with
            # ``helper_warming`` off we keep the pre-warming behaviour:
            # transmit optimistically, exactly like the no-chunk case
            # always did (sendfile pages the file in, blocking this
            # process — the configuration asked for it).
            if self.config.helper_warming and not self.store.content_resident(content):
                self.store.stats.helper_dispatches += 1
                self.store.stats.blocking_reads += 1
                self._warm_fd_async(entry, content, callback)
                return
            callback(content, None)
            return
        if self.store.content_resident(content):
            callback(content, None)
            return
        # The requested file is (partly) not in memory: instruct a helper to
        # bring it in, then transmit without risk of blocking (paper §3.4).
        # Only the transmitted window is touched — a Range response must
        # not pay (or wait for) a whole-file read.
        self.store.stats.helper_dispatches += 1
        self.store.stats.blocking_reads += 1
        warm_offset, warm_length = content.warm_window()
        helper_request = HelperRequest(
            seq=0,
            op=OP_READ,
            path=entry.filesystem_path,
            offset=warm_offset,
            length=warm_length,
        )

        def on_reply(reply) -> None:
            if not reply.ok:
                content.release(self.store)
                callback(None, _reply_to_error(reply))
                return
            callback(content, None)

        self.helpers.submit(helper_request, on_reply)

    def _warm_fd_async(self, entry, content: StaticContent, callback) -> None:
        """Ship a cold fd-backed response to an ``OP_WARM`` helper.

        Helper threads share the server's descriptor table, so they warm
        the pinned cached descriptor in place.  The descriptor stays pinned
        by ``content`` until the completion callback runs, so it cannot be
        evicted or closed while the helper reads from it.
        """
        self.store.stats.sendfile_warms += 1
        warm_offset, warm_length = content.warm_window()
        helper_request = HelperRequest(
            seq=0,
            op=OP_WARM,
            path=entry.filesystem_path,
            fd=content.file_handle.fd,
            offset=warm_offset,
            length=warm_length,
        )

        def on_reply(reply) -> None:
            if not reply.ok:
                # The helper failed (or died) mid-warm.  Degrade to the
                # buffered path rather than fail a servable request: read
                # the body into user space and serve that.  The read is a
                # deliberate last resort — it blocks the main loop on a
                # known-cold file, trading the non-blocking invariant for
                # availability on the (helper-failure) rare path.
                self.store.stats.sendfile_warm_degradations += 1
                # Released first: the degraded response is the same header,
                # windows and framing with a buffered body and no pins.
                content.release(self.store)
                try:
                    segments = self.store.read_body(content, entry)
                except OSError as exc:
                    callback(None, exc)
                    return
                if sum(len(segment) for segment in segments) != content.content_length:
                    # The file changed size since the header promised
                    # ``content_length`` bytes; serving the mismatched body would
                    # desynchronize keep-alive framing (the buffered path
                    # has no under_delivered escape hatch).  Fail this
                    # request; pathname revalidation repairs the next one.
                    callback(None, HTTPError("file changed during warming", status=500))
                    return
                content.segments = segments
                callback(content, None)
                return
            callback(content, None)

        self.helpers.submit(helper_request, on_reply)

    def hot_content_ready(self, content: StaticContent) -> bool:
        """Gate hot-cache hits on memory residency (AMPED invariant).

        The single-lookup fast path must not let the main loop block on a
        page fault: a hit whose body went cold since it was cached is
        rejected, the connection releases the pinned response and retakes
        the full pipeline — which dispatches the usual ``OP_WARM``/
        ``OP_READ`` helper before transmitting.  ``content_resident``
        answers from the chunk ``mincore`` test or the fd-probe TTL cache,
        so the fully-resident hot path pays at most one probe per TTL
        window, not one per request.
        """
        if not self.config.enable_residency_test:
            return True
        return self.store.content_resident(content)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self.helpers.unregister(self.loop)
            self.helpers.shutdown()
        super().close()


def _reply_to_error(reply) -> Exception:
    """Convert a failed helper reply back into the exception it represents."""
    from repro.http import errors as http_errors

    cls = getattr(http_errors, reply.error_type, None)
    if isinstance(cls, type) and issubclass(cls, HTTPError):
        return cls(reply.error_message)
    if reply.error_type in ("FileNotFoundError", "IsADirectoryError"):
        return NotFoundError(reply.error_message)
    return HTTPError(reply.error_message or "helper operation failed", status=500)
