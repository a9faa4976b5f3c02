"""Architecture-independent request-processing pipeline.

The paper's methodology (Section 6) builds four servers — AMPED, SPED, MP
and MT — from the *same code base*, differing only in how they achieve
concurrency.  This module is that shared code base: the caches, pathname
translation, response-header construction and file access used identically
by every architecture.  The architectures differ only in *who* executes the
potentially blocking steps (the main event loop, a helper, a worker process,
or a worker thread), which is decided by the server front ends in
:mod:`repro.core.server` and :mod:`repro.servers`.
"""

from __future__ import annotations

import errno
import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.cache.hot_response import HotEntry, HotResponseCache
from repro.cache.mapped_file import (
    CachedFD,
    FileDescriptorCache,
    MappedChunk,
    MappedFileCache,
)
from repro.cache.pathname import PathnameCache, PathnameEntry
from repro.cache.residency import (
    ClockResidencyPredictor,
    MincoreResidencyTester,
    ResidencyTester,
    SimulatedResidencyOracle,
)
from repro.cache.response_header import ResponseHeaderCache
from repro.core.config import ServerConfig
from repro.core.send_path import sendfile_available, window_views
from repro.http.mime import guess_mime_type
from repro.http.request import HTTPRequest
from repro.http.response import (
    PLAN_FULL,
    ResponseHeaderBuilder,
    ResponsePlan,
    content_range,
    content_range_unsatisfied,
    multipart_boundary,
    multipart_part_head,
    multipart_trailer,
    plan_response,
)
from repro.http.uri import translate_path

#: How long (seconds) a *resident* fd-probe verdict may be reused for the
#: same cached descriptor before re-probing.  The mincore probe was always
#: advisory — pages can be evicted between probe and sendfile regardless —
#: so a short reuse window widens that pre-existing race only marginally
#: while removing an mmap+mincore+munmap syscall triple per request from
#: the hot fully-cached path.  Cold verdicts are never cached: every cold
#: request must trigger warming.
FD_RESIDENT_PROBE_TTL = 0.1


@dataclass
class ServerStats:
    """Centralized request statistics ("information gathering", Section 4.2).

    In the SPED and AMPED architectures all requests are processed in one
    process, so these counters need no synchronization; the MT build wraps
    updates in a lock and the MP build keeps one instance per process and
    consolidates on demand.
    """

    requests: int = 0
    responses_ok: int = 0
    responses_error: int = 0
    bytes_sent: int = 0
    connections_accepted: int = 0
    connections_closed: int = 0
    helper_dispatches: int = 0
    blocking_translations: int = 0
    blocking_reads: int = 0
    cgi_requests: int = 0
    sendfile_responses: int = 0
    sendfile_fallbacks: int = 0
    sendfile_warms: int = 0
    sendfile_warm_degradations: int = 0
    corked_responses: int = 0
    hot_hits: int = 0
    hot_misses: int = 0
    hot_insertions: int = 0
    hot_cold_fallbacks: int = 0
    fast_parses: int = 0
    not_modified_responses: int = 0
    range_responses: int = 0
    range_unsatisfiable: int = 0
    range_multipart_responses: int = 0
    precondition_failed: int = 0
    hot_batched: int = 0
    #: Connections reaped by the per-connection deadline system, by which
    #: budget expired: the absolute request-head budget (answered 408), the
    #: keep-alive idle budget, and the progress-based write-stall budget.
    timeouts_header: int = 0
    timeouts_idle: int = 0
    timeouts_write_stall: int = 0
    #: Overload and lifecycle accounting: arrivals answered 503 by admission
    #: control, accept-time fd-exhaustion events survived via the sentinel
    #: guard, accept-interest pauses entered because of exhaustion, and
    #: in-flight connections force-closed when the drain deadline expired.
    connections_shed: int = 0
    fd_exhaustion_events: int = 0
    accept_pauses: int = 0
    drain_forced_closes: int = 0
    #: Exceptions caught by the crash barriers around event-loop callbacks
    #: (readiness handlers, timers, drain steps).  Anything non-zero means
    #: a bug was absorbed instead of killing every connection on the loop.
    loop_callback_errors: int = 0
    #: Responses produced through the streaming ResponseSource path
    #: (chunked generators, streaming CGI, SSE) rather than a fixed-length
    #: body known up front.
    streamed_responses: int = 0
    #: Streamed responses framed with ``Transfer-Encoding: chunked`` (the
    #: remainder used the HTTP/1.0 close-delimited fallback).
    chunked_responses: int = 0
    #: SSE subscriptions accepted on the built-in event-stream endpoint.
    sse_connections: int = 0
    #: Pause edges on streaming responses: the consumer's socket stopped
    #: draining and the producing source was paused (flow control engaged).
    backpressure_pauses: int = 0
    #: Events discarded from stalled SSE subscribers' bounded queues under
    #: the ``drop`` overflow policy.
    sse_dropped_events: int = 0

    def merge(self, other: "ServerStats") -> "ServerStats":
        """Return a new instance combining this one with ``other``.

        Used by the MP build to consolidate per-process statistics, the
        extra step the paper notes MP servers must pay for global accounting.
        """
        merged = ServerStats()
        for name in vars(merged):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    def snapshot(self) -> dict:
        """A plain-dict copy, convenient for logging and tests."""
        return dict(vars(self))


@dataclass(frozen=True)
class RangePart:
    """One body part of a ``multipart/byteranges`` 206 response.

    Attributes
    ----------
    head:
        The part's framing bytes — delimiter, per-part ``Content-Type``
        and ``Content-Range`` headers, blank line — transmitted verbatim
        before the file window.
    offset, length:
        The file-byte window this part carries.
    """

    head: bytes
    offset: int
    length: int


@dataclass
class StaticContent:
    """Everything needed to transmit one static response.

    Attributes
    ----------
    header:
        The encoded response header (already aligned per Section 5.5).
    segments:
        Body segments in transmission order; each is ``bytes`` or a
        ``memoryview`` over a mapped chunk (zero copy).
    chunks:
        Mapped chunks pinned for this response; the connection releases them
        when transmission finishes or the connection dies.
    content_length:
        Total body length in bytes.
    status:
        HTTP status code of the response.
    file_handle:
        A pinned open descriptor for the served file, present when the
        zero-copy (``sendfile``) send path may be used.  ``segments`` stays
        populated as the buffered fallback (and, in AMPED, as the substrate
        for the memory-residency test); a connection picks exactly one of
        the two mechanisms per response.
    body_offset:
        First file byte of the transmitted body window.  0 for full
        responses; a satisfied single-range (206) response sets it to the
        range's first-byte position, and every send mechanism (``sendfile``
        offsets, sliced chunk views, the buffered fallback) transmits
        exactly ``(body_offset, content_length)``.
    parts:
        For a ``multipart/byteranges`` 206: the ordered
        :class:`RangePart` sequence.  ``content_length`` then counts the
        whole framed body (part heads + file windows + trailer), and the
        zero-copy path iterates one ``sendfile`` window per part instead
        of reading ``body_offset``.
    trailer:
        The closing multipart delimiter, transmitted after the final part.
    """

    header: bytes
    segments: Sequence
    chunks: Sequence[MappedChunk] = field(default_factory=tuple)
    content_length: int = 0
    status: int = 200
    file_handle: Optional[CachedFD] = None
    body_offset: int = 0
    parts: Sequence[RangePart] = ()
    trailer: bytes = b""

    @property
    def total_length(self) -> int:
        """Header plus body length."""
        return len(self.header) + self.content_length

    @property
    def is_multipart(self) -> bool:
        """True for a ``multipart/byteranges`` response."""
        return bool(self.parts)

    def body_windows(self) -> list[tuple[int, int]]:
        """The file-byte windows this response transmits, in order."""
        if self.parts:
            return [(part.offset, part.length) for part in self.parts]
        return [(self.body_offset, self.content_length)]

    def warm_window(self) -> tuple[int, int]:
        """The single file-byte span covering every transmitted window.

        Warming helpers take one ``(offset, length)`` request; a multipart
        response warms the covering span — it may touch bytes between
        scattered windows, but a single helper round trip (and one
        completion callback) is the right trade for the rare multi-range
        cold case.
        """
        windows = self.body_windows()
        start = min(offset for offset, _ in windows)
        end = max(offset + length for offset, length in windows)
        return start, end - start

    def release(self, store: "ContentStore") -> None:
        """Return pinned chunks to the mapped-file cache.  Idempotent.

        The body segments are dropped first: they are memoryviews over the
        mappings, and holding them would prevent the cache from ever
        unmapping the chunks.
        """
        self.segments = ()
        chunks, self.chunks = self.chunks, ()
        for chunk in chunks:
            store.release_chunk(chunk)
        handle, self.file_handle = self.file_handle, None
        if handle is not None:
            store.release_fd(handle)


class ContentStore:
    """Caches plus file access: the heart of the shared code base.

    A single instance is shared by all connections of a SPED/AMPED/MT server
    (the MT build serializes updates with ``lock``); the MP build creates one
    instance per worker process with the scaled-down configuration from
    :meth:`repro.core.config.ServerConfig.per_process_scaled`.

    The three caches can be individually disabled through the configuration,
    which is how the Figure 11 optimization-breakdown experiment constructs
    its eight Flash variants.
    """

    def __init__(
        self,
        config: ServerConfig,
        residency_tester: Optional[ResidencyTester] = None,
        thread_safe: bool = False,
    ):
        self.config = config
        self.header_builder = ResponseHeaderBuilder(align=config.header_alignment)
        #: Freshness lifetime stamped on static 200/206 headers
        #: (``Cache-Control: max-age=N`` + ``Expires``); ``None`` when the
        #: knob is 0/disabled so the emission sites stay byte-identical to
        #: a server without the feature.  Validator-only responses
        #: (304/412/416) and CGI/error output never carry it.
        self._cache_max_age: Optional[int] = (
            config.cache_max_age if config.cache_max_age > 0 else None
        )
        self.residency_tester = residency_tester or self._default_residency_tester(config)
        # Reentrant: cache-invalidation hooks (pathname revalidation ->
        # fd/mmap invalidate -> hot-cache release) run inside locked
        # sections and re-enter through the public release methods.
        self._lock = threading.RLock() if thread_safe else None

        translate = functools.partial(
            translate_path,
            document_root=config.document_root,
            user_dirs=config.user_dirs,
        )
        self._translate_uncached = translate

        self.pathname_cache: Optional[PathnameCache] = None
        if config.enable_pathname_cache:
            self.pathname_cache = PathnameCache(
                lambda uri: translate(uri),
                max_entries=config.pathname_cache_entries,
                on_invalidate=self._on_pathname_invalidated,
            )

        self.header_cache: Optional[ResponseHeaderCache] = None
        if config.enable_header_cache:
            self.header_cache = ResponseHeaderCache(
                builder=self.header_builder,
                max_entries=config.header_cache_entries,
            )

        self.mmap_cache: Optional[MappedFileCache] = None
        if config.enable_mmap_cache:
            self.mmap_cache = MappedFileCache(
                chunk_size=config.mmap_chunk_size,
                max_mapped_bytes=config.mmap_cache_bytes,
                residency_tester=self.residency_tester,
            )

        #: Open-descriptor cache for the zero-copy send path.  Always built
        #: (it is a dict and an LRU list) but only populated when the
        #: configuration enables ``zero_copy``, so the Figure 11-style
        #: breakdowns can toggle it like any other optimization.
        self.fd_cache = FileDescriptorCache(max_entries=config.fd_cache_entries)

        #: Unified hot-response cache: one probe on the raw request-target
        #: bytes returns a fully precomposed response (validated path,
        #: header variants, pinned descriptor/chunks), retiring the
        #: pathname/header/fd triple-lookup chain from the hot path.
        self.hot_cache: Optional[HotResponseCache] = None
        if config.hot_cache:
            # Hot entries pin the resources they precompose, and pinned
            # resources are exempt from their owning caches' eviction — so
            # the hot cache must respect those caches' budgets itself:
            # entry count clamps to the descriptor budget when zero-copy
            # will pin an fd per entry, and chunk-pinning entries share the
            # mapped-file byte budget.
            max_entries = config.hot_cache_entries
            if config.zero_copy and sendfile_available():
                max_entries = min(max_entries, max(1, config.fd_cache_entries))
            self.hot_cache = HotResponseCache(
                max_entries=max_entries,
                max_pinned_bytes=(
                    config.mmap_cache_bytes if self.mmap_cache is not None else 0
                ),
                revalidate_interval=config.hot_cache_revalidate,
                release_fd=self.release_fd,
                release_chunk=self.release_chunk,
            )
            # Entries must never outlive their pinned resources: when the
            # descriptor or chunk caches invalidate a file, the hot entry
            # is dropped in the same call.
            self.fd_cache.on_invalidate = self.hot_cache.invalidate_path
            if self.mmap_cache is not None:
                self.mmap_cache.on_invalidate = self.hot_cache.invalidate_path

        #: Lazily built clock predictor used as the fallback when the
        #: configured tester cannot answer fd-backed residency queries
        #: (e.g. ``mincore`` unreachable): Section 5.7's "predict instead
        #: of ask" strategy applied to the zero-copy path.
        self._fd_clock: Optional[ClockResidencyPredictor] = None

        self.stats = ServerStats()

    @staticmethod
    def _default_residency_tester(config: ServerConfig) -> ResidencyTester:
        """Build the residency tester named by ``config.residency_mode``.

        Section 5.7 of the paper: ``mincore`` where available, a
        feedback-based clock predictor where it is not, and (for SPED-style
        configurations) no test at all — everything is assumed resident.
        """
        if config.residency_mode == "clock":
            return ClockResidencyPredictor(
                estimated_cache_bytes=config.clock_cache_estimate,
                fd_chunk_bytes=config.mmap_chunk_size,
            )
        if config.residency_mode == "optimistic":
            return SimulatedResidencyOracle(default_resident=True)
        return MincoreResidencyTester()

    # -- pathname translation (the "Find file" step) --------------------------

    def translate(self, uri: str) -> PathnameEntry:
        """Translate a request path to a filesystem path, via the cache.

        This call may block on disk when the translation misses the cache;
        the AMPED server ships misses to a helper instead of calling this
        directly (see :meth:`translate_cached_only`).
        """
        if self.pathname_cache is not None:
            with self._maybe_lock():
                return self.pathname_cache.lookup(uri)
        return self._translate_direct(uri)

    def translate_cached_only(self, uri: str) -> Optional[PathnameEntry]:
        """Return the cached translation for ``uri`` without touching disk.

        Returns ``None`` on a cache miss (or when the pathname cache is
        disabled); the AMPED server then dispatches the translation to a
        helper so the main event loop never blocks.
        """
        if self.pathname_cache is None:
            return None
        with self._maybe_lock():
            entry = self.pathname_cache.lookup(uri, revalidate=False) if uri in self.pathname_cache else None
        return entry

    def store_translation(self, entry: PathnameEntry) -> None:
        """Insert a translation produced by a helper into the cache."""
        if self.pathname_cache is None:
            return
        with self._maybe_lock():
            self.pathname_cache.insert(entry)

    # The paper's documented metadata-blocking step: AMPED routes pathname
    # translation through helpers (OP_TRANSLATE); only SPED, or an AMPED
    # miss-path fallback, runs the stat inline on the loop.
    # repro-lint: allow[RL001] -- intentional SPED blocking point (paper §3.1): helpers own this in AMPED
    def _translate_direct(self, uri: str) -> PathnameEntry:
        path = self._translate_uncached(uri)
        stat = os.stat(path)
        return PathnameEntry(
            uri=uri,
            filesystem_path=path,
            size=stat.st_size,
            mtime=stat.st_mtime,
            mtime_ns=stat.st_mtime_ns,
        )

    # -- response construction -------------------------------------------------

    def build_response(
        self,
        request: HTTPRequest,
        entry: PathnameEntry,
        *,
        keep_alive: Optional[bool] = None,
        map_body: bool = True,
    ) -> StaticContent:
        """Build the full static response for ``entry``.

        The request is planned by :func:`~repro.http.response.plan_response`
        (RFC 7232 preconditions in §6 order, then RFC 7233 ranges) and the
        plan is composed by :meth:`_compose`: a 304, 412 or 416 is bodyless;
        a 200 or 206 carries the body window(s).  The 200 header comes from
        the header cache when enabled; the body comes from the mapped-file
        cache (zero-copy memoryviews over the mappings) or, with the mmap
        cache disabled, from a plain read.  HEAD requests get the header
        only.

        When zero-copy is enabled a pinned open descriptor rides along for
        the ``sendfile`` send path.  ``map_body=False`` lets a caller that
        will definitely transmit via ``sendfile`` — and does not test memory
        residency, i.e. SPED — skip pinning mapped chunks entirely, so the
        request performs no map, no touch and no user-space body work at
        all; AMPED keeps the chunks because they are the substrate of its
        ``mincore`` residency test and helper page-warming.
        """
        if keep_alive is None:
            keep_alive = request.keep_alive and self.config.keep_alive
        plan = self._plan(request, entry)
        return self._compose(plan, entry, keep_alive, request.is_head, map_body)

    @staticmethod
    def _plan(request: HTTPRequest, source) -> ResponsePlan:
        """Plan ``request`` against the validators of ``source`` (a
        :class:`PathnameEntry` or a :class:`HotEntry`)."""
        return plan_response(
            source.size,
            source.mtime,
            source.etag,
            request.method,
            if_match=request.if_match,
            if_unmodified_since=request.if_unmodified_since,
            if_none_match=request.if_none_match,
            if_modified_since=request.if_modified_since,
            range_header=request.range_header,
            if_range=request.if_range,
        )

    def _compose(
        self,
        plan: ResponsePlan,
        source,
        keep_alive: bool,
        head: bool,
        map_body: bool = True,
    ) -> StaticContent:
        """Turn ``plan`` into a transmittable :class:`StaticContent`.

        ``source`` is a :class:`PathnameEntry` (the slow path) or a
        :class:`HotEntry` (a hot-cache hit).  The two differ only in where
        the 200/304 headers and the body pins come from: the header cache
        and fresh descriptor/chunk acquisitions, or the entry's
        precomposed variants and refcount bumps on the resources it
        already pins.  206 (plain or multipart), 412 and 416 headers are
        built fresh either way — range shapes are client-chosen and
        unbounded, so caching them would let a client balloon the caches.
        """
        hot = source if isinstance(source, HotEntry) else None
        path = source.path if hot is not None else source.filesystem_path
        size, mtime = source.size, source.mtime
        status = plan.status
        stats = self.stats
        offset, length, parts, trailer = 0, size, (), b""
        if status == 200:
            header = (
                hot.header(keep_alive)
                if hot is not None
                else self._response_header(source, keep_alive)
            )
        elif status == 206:
            stats.range_responses += 1
            if len(plan.windows) > 1:
                stats.range_multipart_responses += 1
                header, parts, trailer, length = self._plan_multipart(
                    path, size, mtime, source.etag, plan.windows, keep_alive
                )
            else:
                ((offset, length),) = plan.windows
                header = self._range_header(
                    path, size, mtime, source.etag, offset, length, keep_alive
                )
        else:
            if status == 304:
                stats.not_modified_responses += 1
                header = (
                    hot.header_not_modified(keep_alive)
                    if hot is not None
                    else self._not_modified_header(source, keep_alive)
                )
            elif status == 412:
                stats.precondition_failed += 1
                header = self._precondition_failed_header(path, mtime, source.etag, keep_alive)
            else:
                stats.range_unsatisfiable += 1
                header = self._range_unsatisfiable_header(path, size, mtime, keep_alive)
            head = True  # 304, 412 and 416 are bodyless

        if head:
            return StaticContent(header=header, segments=(), content_length=0, status=status)

        if hot is not None:
            handle = hot.file_handle
            if handle is not None:
                handle.refcount += 1
            pin = self._pin_entry_window if hot.chunks else None
        else:
            handle = self._acquire_fd(source)
            if self.mmap_cache is not None and (map_body or handle is None):
                pin = self._pin_chunk_window
            elif handle is None:
                pin = self._read_window
            else:
                # Pure zero-copy: no user-space body buffering at all.  The
                # buffered fallback (sendfile unsupported for this socket)
                # reads the window(s) lazily at degradation time.
                pin = None
        content = StaticContent(
            header=header,
            segments=(),
            content_length=length,
            status=status,
            file_handle=handle,
            body_offset=offset,
            parts=parts,
            trailer=trailer,
        )
        if pin is not None:
            try:
                content.chunks, content.segments = self._body(content, pin, source)
            except BaseException:
                content.release(self)
                raise
        return content

    def _body(self, content: StaticContent, pin, source) -> tuple[Sequence, Sequence]:
        """``(chunks, segments)`` of ``content``'s body, window by window.

        ``pin(source, offset, length)`` returns the pinned chunks and the body
        segments of one file window — mapped-chunk views (slow path), views
        over a hot entry's pinned chunks, or a positional read.  A
        multipart body interleaves each part's framing head and ends with
        the trailer; chunks pinned before a failing window are released.
        """
        if not content.parts:
            return pin(source, content.body_offset, content.content_length)
        chunks: list[MappedChunk] = []
        segments: list = []
        try:
            for part in content.parts:
                part_chunks, part_segments = pin(source, part.offset, part.length)
                chunks.extend(part_chunks)
                segments.append(part.head)
                segments.extend(part_segments)
        except BaseException:
            for chunk in chunks:
                self.release_chunk(chunk)
            raise
        segments.append(content.trailer)
        return chunks, segments

    def read_body(self, content: StaticContent, entry: PathnameEntry) -> list:
        """The body segments of ``content``, read positionally from ``entry``'s file.

        The degraded route for a response whose zero-copy warming failed:
        same windows and multipart framing, buffered in user space.
        """
        return self._body(content, self._read_window, entry)[1]

    def _pin_chunk_window(
        self, entry: PathnameEntry, offset: int, length: int
    ) -> tuple[list[MappedChunk], list]:
        chunks = self._acquire_chunks(entry, offset, length)
        return chunks, self._chunk_window_segments(chunks, offset, length)

    def _read_window(self, entry: PathnameEntry, offset: int, length: int) -> tuple[tuple, list]:
        return (), [self.read_file_range(entry.filesystem_path, offset, length)]

    def _plan_multipart(
        self,
        path: str,
        size: int,
        mtime: float,
        etag: str,
        windows: Sequence[tuple[int, int]],
        keep_alive: bool,
    ) -> tuple[bytes, list[RangePart], bytes, int]:
        """Frame a ``multipart/byteranges`` response for ``windows``.

        Returns ``(header, parts, trailer, total_body_length)``.  The
        boundary is deterministic in the file's validator and the window
        list, and the header/part bytes are built with the shared builder —
        so the slow path and the hot-cache read-side hit produce
        byte-identical multipart responses, the same parity contract every
        other response shape already honours.  Built fresh per response
        (never cached): window sets are client-chosen and unbounded.
        """
        content_type = guess_mime_type(path)
        boundary = multipart_boundary(etag, windows)
        parts: list[RangePart] = []
        total = 0
        for index, (offset, length) in enumerate(windows):
            head = multipart_part_head(
                boundary, content_type, offset, length, size, first=index == 0
            )
            parts.append(RangePart(head=head, offset=offset, length=length))
            total += len(head) + length
        trailer = multipart_trailer(boundary)
        total += len(trailer)
        header = self.header_builder.build(
            206,
            content_length=total,
            content_type=f"multipart/byteranges; boundary={boundary}",
            last_modified=mtime,
            etag=etag,
            keep_alive=keep_alive,
            cache_max_age=self._cache_max_age,
        ).raw
        return header, parts, trailer, total

    def _acquire_fd(self, entry: PathnameEntry) -> Optional[CachedFD]:
        """Pin a cached open descriptor for ``entry`` when zero-copy is on.

        Open failures are swallowed: the response simply proceeds on the
        buffered path (the translation step already established the file
        exists, so failures here are transient descriptor pressure).
        Platforms without ``sendfile`` never acquire descriptors — an fd
        nobody can transmit from would only cost open/close per request.
        """
        if not self.config.zero_copy or entry.size <= 0 or not sendfile_available():
            return None
        try:
            with self._maybe_lock():
                return self.fd_cache.acquire(entry.filesystem_path)
        except OSError:
            return None

    def release_fd(self, handle: CachedFD) -> None:
        """Return a pinned descriptor to the descriptor cache."""
        with self._maybe_lock():
            self.fd_cache.release(handle)

    def _response_header(self, entry: PathnameEntry, keep_alive: bool) -> bytes:
        if self.header_cache is not None:
            with self._maybe_lock():
                return self.header_cache.get(
                    entry.filesystem_path,
                    entry.size,
                    entry.mtime,
                    keep_alive=keep_alive,
                    etag=entry.etag,
                    cache_max_age=self._cache_max_age,
                ).raw
        return self.header_builder.build(
            200,
            content_length=entry.size,
            content_type=guess_mime_type(entry.filesystem_path),
            last_modified=entry.mtime,
            keep_alive=keep_alive,
            etag=entry.etag,
            accept_ranges=True,
            cache_max_age=self._cache_max_age,
        ).raw

    def _not_modified_header(self, entry: PathnameEntry, keep_alive: bool) -> bytes:
        """Build the 304 header for ``entry``.

        Built fresh (not cached per request): conditional requests take
        the full path only on a hot miss, and the hot-response cache
        precomposes its own 304 variants with this same method, so the
        bytes agree everywhere.  RFC 7232 §4.1: the 304 carries the same
        validators the 200 would have — ``Last-Modified`` and ``ETag``.
        """
        return self.header_builder.build(
            304,
            content_length=0,
            content_type=guess_mime_type(entry.filesystem_path),
            last_modified=entry.mtime,
            keep_alive=keep_alive,
            etag=entry.etag,
        ).raw

    def _range_header(
        self,
        path: str,
        size: int,
        mtime: float,
        etag: str,
        offset: int,
        length: int,
        keep_alive: bool,
    ) -> bytes:
        """Build the 206 header for a satisfied ``(offset, length)`` window.

        Built fresh per response: range shapes are client-chosen and
        unbounded, so precomposing them would let a client balloon the
        header cache.  The slow path and the hot-cache read-side hit both
        use this method, so the bytes agree everywhere.
        """
        return self.header_builder.build(
            206,
            content_length=length,
            content_type=guess_mime_type(path),
            last_modified=mtime,
            keep_alive=keep_alive,
            etag=etag,
            cache_max_age=self._cache_max_age,
            extra_headers={"Content-Range": content_range(offset, length, size)},
        ).raw

    def _precondition_failed_header(
        self, path: str, mtime: float, etag: str, keep_alive: bool
    ) -> bytes:
        """Build the 412 header (RFC 7232 §4.2): bodyless, current validators.

        The validators ride along so a client whose stored tag failed the
        precondition can resynchronize without an extra GET.
        """
        return self.header_builder.build(
            412,
            content_length=0,
            content_type=guess_mime_type(path),
            last_modified=mtime,
            keep_alive=keep_alive,
            etag=etag,
        ).raw

    def _range_unsatisfiable_header(
        self, path: str, size: int, mtime: float, keep_alive: bool
    ) -> bytes:
        """Build the 416 header (RFC 7233 §4.4: ``Content-Range: bytes */N``)."""
        return self.header_builder.build(
            416,
            content_length=0,
            content_type=guess_mime_type(path),
            last_modified=mtime,
            keep_alive=keep_alive,
            extra_headers={"Content-Range": content_range_unsatisfied(size)},
        ).raw

    # -- the single-lookup hot path --------------------------------------------

    def hot_lookup(
        self,
        target: bytes,
        keep_alive: bool,
        request: Optional[HTTPRequest] = None,
    ) -> Optional[StaticContent]:
        """Serve ``target`` from the hot-response cache, if it can be.

        One dict probe.  On a hit the returned :class:`StaticContent`
        carries freshly pinned references to the entry's descriptor and
        chunks, so the caller releases it exactly like a slow-path
        response.  Returns ``None`` on a miss (or stale entry) — the caller
        then runs the full pipeline, whose successful result re-populates
        the cache via :meth:`hot_insert`.

        ``request`` (GET or HEAD) is planned against the entry's cached
        validators exactly as :meth:`build_response` plans it, so a
        matching revalidation is answered by the precomposed bodyless 304
        and a ``Range`` header by the *range-aware read-side hit*: a 206
        (plain or ``multipart/byteranges``) whose body is sliced over the
        entry's already-pinned descriptor/chunks — no translation, no
        descriptor-cache probe, no re-``stat``.  ``None`` means a plain GET
        (the fast probe and the pipelined batch), which skips the planner.
        """
        if self.hot_cache is None:
            return None
        with self._maybe_lock():
            entry = self.hot_cache.lookup(target)
            if entry is None:
                self.stats.hot_misses += 1
                return None
            self.stats.hot_hits += 1
            if request is None:
                return self._compose(PLAN_FULL, entry, keep_alive, False)
            return self._compose(self._plan(request, entry), entry, keep_alive, request.is_head)

    def _pin_entry_window(
        self, entry: HotEntry, offset: int, length: int
    ) -> tuple[Sequence[MappedChunk], Sequence]:
        """Pin the hot entry's chunks intersecting ``(offset, length)``.

        The entry's own pins guarantee the chunks are alive and off their
        cache's free list, so the per-request pin is a bare refcount
        increment.  The full window reuses the entry's precomputed views;
        a range window pins (and residency-tests, and releases) only the
        chunks it intersects — exactly like the slow path's windowed
        acquisition.
        """
        if offset == 0 and length == entry.size:
            chunks, segments = entry.chunks, entry.segments
        else:
            end = offset + length
            chunks = tuple(
                chunk
                for chunk in entry.chunks
                if chunk.offset < end and chunk.offset + chunk.length > offset
            )
            segments = self._chunk_window_segments(chunks, offset, length)
        for chunk in chunks:
            chunk.refcount += 1
        return chunks, segments

    def hot_insert(
        self, request: HTTPRequest, entry: PathnameEntry, content: StaticContent
    ) -> bool:
        """Precompose and cache the hot response for ``request``'s raw target.

        Called after a successful slow-path build.  Only the common
        cacheable shape is admitted: a plain static ``GET`` whose response
        has pinned transmission resources (a descriptor and/or mapped
        chunks) to reuse.  Everything else simply keeps taking the full
        pipeline.  Returns True when an entry was (re)inserted.
        """
        if self.hot_cache is None or content.status != 200:
            return False
        if (
            request.method != "GET"
            or request.is_head
            or request.is_cgi
            or request.query
            or request.version not in ("HTTP/1.0", "HTTP/1.1")
        ):
            return False
        if content.file_handle is None and not content.chunks:
            return False
        target = request.uri.encode("latin-1")
        with self._maybe_lock():
            # Pin on the cache's behalf: these references are what ties the
            # entry's lifetime to its resources (insert takes ownership).
            handle = content.file_handle
            if handle is not None:
                handle.refcount += 1
            for chunk in content.chunks:
                chunk.refcount += 1
            hot_entry = HotEntry(
                target=target,
                path=entry.filesystem_path,
                size=entry.size,
                mtime=entry.mtime,
                etag=entry.etag,
                content_length=content.content_length,
                header_keep=self._response_header(entry, True),
                header_close=self._response_header(entry, False),
                header_304_keep=self._not_modified_header(entry, True),
                header_304_close=self._not_modified_header(entry, False),
                file_handle=handle,
                chunks=tuple(content.chunks),
                segments=tuple(content.segments),
            )
            admitted = self.hot_cache.insert(hot_entry)
        if admitted:
            self.stats.hot_insertions += 1
        return admitted

    def _acquire_chunks(
        self,
        entry: PathnameEntry,
        offset: int = 0,
        length: Optional[int] = None,
    ) -> list[MappedChunk]:
        """Pin the mapped chunks covering ``(offset, length)`` of ``entry``.

        A full response pins every chunk; a Range window pins only the
        chunks it intersects, so a small range over a large file maps (and
        warms, and residency-tests) just that slice of it.
        """
        assert self.mmap_cache is not None
        with self._maybe_lock():
            if length is None:
                length = entry.size
            if length <= 0:
                return []
            chunk_size = self.mmap_cache.chunk_size
            first = offset // chunk_size
            last = (offset + length - 1) // chunk_size
            return [
                self.mmap_cache.acquire(entry.filesystem_path, i)
                for i in range(first, last + 1)
            ]

    @staticmethod
    def _chunk_window_segments(
        chunks: Sequence[MappedChunk], offset: int, length: int
    ) -> list:
        """Body segments for the ``(offset, length)`` window over ``chunks``.

        ``chunks`` are the (contiguous) chunks intersecting the window; the
        first and last views are trimmed to the window's edges.
        """
        if not chunks:
            return []
        views = [chunk.view() for chunk in chunks]
        return window_views(views, offset - chunks[0].offset, length)

    def release_chunk(self, chunk: MappedChunk) -> None:
        """Return a pinned chunk to the mapped-file cache (or unmap it)."""
        if self.mmap_cache is None or chunk.key not in self.mmap_cache._chunks:
            chunk.refcount = max(0, chunk.refcount - 1)
            if chunk.refcount == 0:
                chunk.close()
            return
        with self._maybe_lock():
            self.mmap_cache.release(chunk)

    # -- residency and blocking I/O ------------------------------------------

    def content_resident(self, content: StaticContent) -> bool:
        """Test (via ``mincore``) whether ``content``'s body is memory resident.

        Mapped bodies are tested chunk by chunk as before.  Fd-backed
        (pure zero-copy) bodies have no mapping to test, so the query goes
        through :meth:`fd_resident` — a transient-map ``mincore`` probe
        with a clock-predictor fallback.  When the residency test is
        disabled the content is treated as resident, which is exactly the
        behaviour of the Flash-SPED build.
        """
        if not self.config.enable_residency_test:
            return True
        if content.chunks:
            # Every chunk is tested (no short-circuit): mincore inspects the
            # whole mapping, and the clock predictor must record every chunk
            # it was asked about so its later predictions cover the whole file.
            results = [self.mmap_cache.is_resident(chunk) for chunk in content.chunks]
            return all(results)
        if content.file_handle is not None and content.content_length > 0:
            # Probe exactly the transmitted windows: a range far into the
            # file must not pass because the head is warm, and a tail
            # range must not fail (and re-warm forever) because of a cold
            # head it will never transmit.  A multipart response probes
            # one window per part (no short-circuit, so the clock
            # predictor records every window it was asked about).
            results = [
                self.fd_resident(content.file_handle, length, offset=offset)
                for offset, length in content.body_windows()
                if length > 0
            ]
            return all(results)
        return True

    def fd_resident(self, handle: CachedFD, length: int, offset: int = 0) -> bool:
        """Residency of an fd-backed response-body window (no mapping).

        Asks the configured tester's ``file_resident`` first; a ``None``
        answer ("cannot tell" — typically no reachable ``mincore``) falls
        back to a dedicated clock predictor so the AMPED build still avoids
        blocking ``sendfile`` transmissions on platforms without the call.

        Resident verdicts are remembered on the descriptor for
        ``FD_RESIDENT_PROBE_TTL`` seconds, so a hot file served in a burst
        pays one probe per window instead of one per request.  The cached
        verdict records the byte interval it covered: probes are
        window-scoped, and a warm range must not vouch for bytes it never
        inspected (nor the other way around).
        """
        now = time.monotonic()
        end = offset + length
        if (
            handle.resident_probe_expiry > now
            and offset >= handle.resident_probe_start
            and end <= handle.resident_probe_end
        ):
            return True
        resident = self._fd_resident_probe(handle, length, offset)
        if resident:
            start = offset
            if (
                handle.resident_probe_expiry > now
                and handle.resident_probe_start <= end
                and offset <= handle.resident_probe_end
            ):
                # The fresh verdict overlaps (or abuts) a still-valid one:
                # the union is covered by probes within the TTL window.
                start = min(start, handle.resident_probe_start)
                end = max(end, handle.resident_probe_end)
            handle.resident_probe_start = start
            handle.resident_probe_end = end
            handle.resident_probe_expiry = now + FD_RESIDENT_PROBE_TTL
        return resident

    def _fd_resident_probe(self, handle: CachedFD, length: int, offset: int = 0) -> bool:
        probe = getattr(self.residency_tester, "file_resident", None)
        if probe is not None:
            verdict = probe(handle.fd, length, path=handle.path, offset=offset)
            if verdict is not None:
                return bool(verdict)
        if self._fd_clock is None:
            self._fd_clock = ClockResidencyPredictor(
                estimated_cache_bytes=self.config.clock_cache_estimate,
                fd_chunk_bytes=self.config.mmap_chunk_size,
            )
        return bool(
            self._fd_clock.file_resident(
                handle.fd, length, path=handle.path, offset=offset
            )
        )

    # The buffered routes' disk-blocking read: inline by design, which is
    # exactly the architectural cost under measurement.
    # repro-lint: allow[RL001] -- intentional blocking read: inline by design in SPED/fallbacks
    @staticmethod
    def read_file_range(path: str, offset: int, length: int) -> bytes:
        """Blocking read of a ``(offset, length)`` window of ``path``.

        The buffered body source for Range responses (and the sendfile
        fallback's window read); ``(0, size)`` degenerates to a full read.
        """
        from repro.testing.faults import faults

        if faults.take("disk_read"):
            # Injected media failure: the read errors like a dying disk
            # would, exercising the 404/500 conversion on every
            # architecture's buffered read route.
            raise OSError(errno.EIO, f"injected disk read failure: {path}")
        with open(path, "rb") as handle:
            if offset:
                handle.seek(offset)
            return handle.read(length)

    @staticmethod
    def touch_chunks(chunks: Iterable[MappedChunk]) -> int:
        """Touch every page of ``chunks``, forcing them into memory.

        This is the read helper's job in the AMPED architecture: the helper
        touches all pages of its mapping so that the main process can later
        transmit the file without risk of blocking.  Returns the number of
        bytes touched.
        """
        page = 4096
        touched = 0
        for chunk in chunks:
            view = chunk.view()
            for offset in range(0, chunk.length, page):
                # Reading one byte per page faults the page in.
                _ = view[offset]
            touched += chunk.length
        return touched

    # -- invalidation ----------------------------------------------------------

    def _on_pathname_invalidated(self, uri: str, entry: PathnameEntry) -> None:
        # The hot cache goes first so its pins are released before the
        # descriptor/chunk caches decide what they can close.  (The fd and
        # mmap hooks below would drop it too; this direct call also covers
        # configurations where those caches are disabled.)
        if self.hot_cache is not None:
            self.hot_cache.invalidate_path(entry.filesystem_path)
        if self.header_cache is not None:
            self.header_cache.invalidate(entry.filesystem_path)
        if self.mmap_cache is not None:
            self.mmap_cache.invalidate(entry.filesystem_path)
        self.fd_cache.invalidate(entry.filesystem_path)

    # -- misc -------------------------------------------------------------------

    def _maybe_lock(self):
        if self._lock is not None:
            return self._lock
        return _NullContext()

    def stats_lock(self):
        """Context manager guarding :attr:`stats` updates from worker threads.

        ``x += 1`` is a read-modify-write even under the GIL, so the MT
        build's blocking workers wrap their counter updates in the store
        lock (as the :class:`ServerStats` docstring promises).  On the
        single-threaded and per-process builds this is the null context —
        zero overhead where no sharing exists.
        """
        return self._maybe_lock()

    def cache_stats(self) -> dict:
        """Hit-rate statistics for all three caches (for tests and reporting)."""
        stats = {}
        if self.pathname_cache is not None:
            stats["pathname"] = {
                "hits": self.pathname_cache.hits,
                "misses": self.pathname_cache.misses,
                "hit_rate": self.pathname_cache.hit_rate,
            }
        if self.header_cache is not None:
            stats["header"] = {
                "hits": self.header_cache.hits,
                "misses": self.header_cache.misses,
                "hit_rate": self.header_cache.hit_rate,
            }
        if self.mmap_cache is not None:
            stats["mmap"] = {
                "hits": self.mmap_cache.hits,
                "misses": self.mmap_cache.misses,
                "hit_rate": self.mmap_cache.hit_rate,
                "mapped_bytes": self.mmap_cache.mapped_bytes,
            }
        if self.fd_cache.hits or self.fd_cache.misses:
            stats["fd"] = {
                "hits": self.fd_cache.hits,
                "misses": self.fd_cache.misses,
                "hit_rate": self.fd_cache.hit_rate,
                "open": len(self.fd_cache),
            }
        if self.hot_cache is not None:
            stats["hot"] = self.hot_cache.stats()
        return stats

    def close(self) -> None:
        """Release every mapping and descriptor held by the caches.

        The hot cache unpins first — its entries hold references into the
        descriptor and chunk caches, which could otherwise not release
        everything.
        """
        if self.hot_cache is not None:
            self.hot_cache.clear()
        if self.mmap_cache is not None:
            self.mmap_cache.clear()
        self.fd_cache.clear()

    def __del__(self):  # pragma: no cover - depends on GC timing
        # Backstop releaser: the fd cache holds raw integer descriptors,
        # which the GC cannot release on its own.  Long-lived servers call
        # :meth:`close` explicitly; this covers stores dropped without it
        # (short-lived tools, tests) so descriptors never outlive the store.
        try:
            self.close()
        except Exception:
            pass


class _NullContext:
    """Context manager that does nothing (single-threaded builds)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
