"""Span tracing for the server under test, installed from outside ``src/``.

:meth:`Tracer.install` wraps the public entry point of each server layer
*at the name its caller resolves*: class attributes for methods (so every
instance, including ones built later, is covered) and module globals for
functions a caller imported by name (``repro.core.connection`` resolves
``probe_fast_request`` and ``choose_send_path`` in its own namespace, the
MT build resolves ``handle_client`` in ``repro.servers.mt``).  Loop
dispatches are timed through the public
:func:`repro.core.event_loop.add_dispatch_observer`.  It must run before
the server is built.

Every wrapped call made while the tracer is enabled becomes one span
``(id, parent, trace, name, start_ns, end_ns)``.  Spans nest per thread:
the parent is the innermost enclosing wrapped call.  A span with no
enclosing wrapped call is attached to the current *group*: on the event
loop thread that is the loop dispatch it runs under (the dispatch span is
recorded when the observer reports the dispatch, so it becomes the parent);
on a blocking worker thread it is the request being served (a new group
starts each time the worker builds a ``RequestParser``).  Every span of one
group carries the group's id as its ``trace``.

Asynchronous steps (a helper round trip, an AMPED translation that may wait
for a helper) are recorded as *intervals*: from the call to the moment the
completion callback is invoked.  They are spans too, but they are never
anyone's parent, because other work runs while they are outstanding.

Spans are kept in memory, per thread, in flat ``array('q')`` buffers and
written out by :meth:`Tracer.dump`; :mod:`perfbench.layers` turns them into
per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array

#: Fields per span record in the flat buffers.
SPAN_FIELDS = 6
#: Spans kept before recording stops (about 48 MB of buffers).
DEFAULT_MAX_SPANS = 1_000_000

_now_ns = time.perf_counter_ns


class _ThreadState:
    """One thread's span buffer and stack of open spans."""

    __slots__ = ("spans", "stack", "group", "grouped_by_dispatch")

    def __init__(self) -> None:
        self.spans = array("q")
        self.stack: list[int] = []
        #: Id of the current group (0: none yet; allocated lazily).
        self.group = 0
        #: Event-loop thread: groups are loop dispatches, so the group id is
        #: also the id of the (later recorded) dispatch span.
        self.grouped_by_dispatch = False


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._recorded = 0
        #: Values taken at the wrappers besides spans: the deepest helper
        #: queue seen, and the AMPED pathname-cache misses (a cached-only
        #: probe that finds nothing is not counted by the cache itself).
        self.gauges = {
            "core.helpers.outstanding_max": 0,
            "cache.pathname.cached_only_misses": 0,
        }
        #: Called when recording stops; returns the counters to keep.
        self.snapshot_fn = None
        self.window: dict = {}

    # -- recording window -----------------------------------------------------

    def start(self) -> dict:
        """Begin recording; returns the counters at the start of the window."""
        self.window = {"start_ns": _now_ns(), "start": self._snapshot()}
        self.enabled = True
        return self.window["start"]

    def stop(self) -> dict:
        """End recording (idempotent); returns the counters at the end."""
        if self.enabled:
            self.enabled = False
            self.window["end_ns"] = _now_ns()
            self.window["end"] = self._snapshot()
        return self.window.get("end", {})

    def _snapshot(self) -> dict:
        return self.snapshot_fn() if self.snapshot_fn is not None else {}

    # -- span buffers ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def name_id(self, name: str) -> int:
        """The index of ``name`` in :attr:`names` (registered on first use)."""
        index = self._name_ids.get(name)
        if index is None:
            index = len(self.names)
            self.names.append(name)
            self._name_ids[name] = index
        return index

    def _record(self, state, span_id, parent, group, name_id, start, end) -> None:
        state.spans.extend((span_id, parent, group, name_id, start, end))
        self._recorded += 1
        if self._recorded >= self.max_spans:
            # Buffer budget reached: close the window here so the counters
            # that normalize the spans cover exactly the recorded interval.
            self.stop()

    def _open_parent(self, state: _ThreadState) -> tuple[int, int]:
        """(parent, group) for a span starting now on ``state``'s thread."""
        if state.group == 0:
            state.group = next(self._ids)
        if state.stack:
            return state.stack[-1], state.group
        return (state.group if state.grouped_by_dispatch else 0), state.group

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, name: str, func, *, on_result=None):
        """A span-recording wrapper around ``func``."""
        tracer = self
        name_id = self.name_id(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            state = tracer._state()
            parent, group = tracer._open_parent(state)
            span_id = next(tracer._ids)
            state.stack.append(span_id)
            start = _now_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = _now_ns()
                state.stack.pop()
                tracer._record(state, span_id, parent, group, name_id, start, end)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_poll(self, name: str, func):
        """Wrapper for a backend ``poll``: marks the loop thread, ends a group.

        The poll separates loop dispatches, so it belongs to none of them:
        it is recorded as a root span and the next span starts a new group.
        """
        tracer = self
        name_id = self.name_id(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            state = tracer._state()
            state.grouped_by_dispatch = True
            state.group = 0
            span_id = next(tracer._ids)
            start = _now_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = _now_ns()
                state.group = 0
                tracer._record(state, span_id, 0, span_id, name_id, start, end)

        return traced

    def wrap_async(self, name: str, func, callback_index: int):
        """Interval wrapper: from the call until its callback is invoked.

        ``callback_index`` is the position of the completion callback in
        ``func``'s positional arguments (``self`` included).
        """
        tracer = self
        name_id = self.name_id(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            state = tracer._state()
            parent, group = tracer._open_parent(state)
            span_id = next(tracer._ids)
            start = _now_ns()
            callback = args[callback_index]

            def completed(*cb_args, **cb_kwargs):
                if tracer.enabled:
                    tracer._record(
                        tracer._state(), span_id, parent, group, name_id, start, _now_ns()
                    )
                return callback(*cb_args, **cb_kwargs)

            args = args[:callback_index] + (completed,) + args[callback_index + 1:]
            return func(*args, **kwargs)

        return traced

    def wrap_group_start(self, factory):
        """Wrapper that starts a new span group, then calls ``factory``."""
        tracer = self

        def grouped(*args, **kwargs):
            if tracer.enabled:
                tracer._state().group = next(tracer._ids)
            return factory(*args, **kwargs)

        return grouped

    def on_dispatch(self, _callback, elapsed: float) -> None:
        """Dispatch observer: record the dispatch that just ran as a span."""
        if not self.enabled:
            return
        state = self._state()
        end = _now_ns()
        span_id = state.group or next(self._ids)
        state.group = 0
        self._record(
            state, span_id, 0, span_id, self.name_id("core.event_loop.dispatch"),
            end - int(elapsed * 1e9), end,
        )

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer entry point and observe loop dispatches."""
        from repro.cache.response_header import ResponseHeaderCache
        from repro.core import connection as connection_mod
        from repro.core import event_loop
        from repro.core.backends.base import IOBackend
        from repro.core.backends.epoll_backend import EpollBackend
        from repro.core.backends.poll_backend import PollBackend
        from repro.core.backends.select_backend import SelectBackend
        from repro.core.helpers import HelperPool
        from repro.core.pipeline import ContentStore
        from repro.core.send_path import (
            BufferedSendPath,
            MultipartSendfileSendPath,
            SendfileSendPath,
        )
        from repro.core.server import FlashServer
        from repro.core.timer_wheel import TimerWheel
        from repro.http import request as request_mod
        from repro.http.response import ResponseHeaderBuilder
        from repro.servers import blocking, mt

        def method(owner, attribute, name, **kwargs):
            setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), **kwargs))

        # http.request: the parser and the fast probe, at both names the
        # probe is resolved under (the parser's module and the connection's).
        method(request_mod.RequestParser, "feed", "http.request.feed")
        method(request_mod, "probe_fast_request", "http.request.probe_fast_request")
        method(connection_mod, "probe_fast_request", "http.request.probe_fast_request")

        # core.pipeline: hot path, slow path and translation.
        method(ContentStore, "hot_lookup", "core.pipeline.hot_lookup")
        method(ContentStore, "hot_insert", "core.pipeline.hot_insert")
        method(ContentStore, "build_response", "core.pipeline.build_response")
        method(ContentStore, "translate", "core.pipeline.translate")
        gauges = self.gauges

        def note_pathname_miss(_args, entry):
            if entry is None:
                gauges["cache.pathname.cached_only_misses"] += 1

        method(
            ContentStore, "translate_cached_only", "core.pipeline.translate_cached_only",
            on_result=note_pathname_miss,
        )
        method(ContentStore, "store_translation", "core.pipeline.store_translation")
        setattr(
            FlashServer, "translate_async",
            self.wrap_async("core.pipeline.translate_async", FlashServer.translate_async, 2),
        )

        # cache.residency: the AMPED residency gate.
        method(ContentStore, "content_resident", "cache.residency.content_resident")

        # http.response: header composition (cache probe and builder).
        method(ResponseHeaderCache, "get", "http.response.header_cache_get")
        method(ResponseHeaderBuilder, "build", "http.response.header_build")

        # core.send_path: the choice and every sender's send step.
        method(connection_mod, "choose_send_path", "core.send_path.choose")
        for sender in (BufferedSendPath, SendfileSendPath, MultipartSendfileSendPath):
            method(sender, "send", "core.send_path.send")

        # core.timer_wheel: deadline bookkeeping.
        method(TimerWheel, "schedule", "core.timer_wheel.schedule")
        method(TimerWheel, "cancel", "core.timer_wheel.cancel")
        method(TimerWheel, "advance", "core.timer_wheel.advance")

        # core.backends: interest changes and the poll itself.
        method(IOBackend, "register", "core.backends.register")
        method(IOBackend, "modify", "core.backends.modify")
        method(IOBackend, "unregister", "core.backends.unregister")
        for backend in (EpollBackend, PollBackend, SelectBackend):
            setattr(backend, "poll", self.wrap_poll("core.backends.poll", backend.poll))

        # core.connection: readiness callbacks (bound at registration, so
        # the class attribute must be wrapped before connections exist).
        method(connection_mod.Connection, "on_ready", "core.connection.on_ready")

        # core.helpers: submissions, round trips and queue depth.
        def note_outstanding(args, _result):
            depth = args[0].outstanding
            if depth > gauges["core.helpers.outstanding_max"]:
                gauges["core.helpers.outstanding_max"] = depth

        round_trip = self.wrap_async("core.helpers.round_trip", HelperPool.submit, 2)
        setattr(
            HelperPool, "submit",
            self.wrap("core.helpers.submit", round_trip, on_result=note_outstanding),
        )

        # servers.blocking: the MT build's own request loop and senders.
        method(mt, "handle_client", "servers.blocking.handle_client")
        method(blocking, "_lookup_hot", "servers.blocking.lookup_hot")
        method(blocking, "_send_content", "servers.blocking.send_content")
        method(blocking, "_send_all", "servers.blocking.send_all")
        method(blocking, "_sendfile_blocking", "servers.blocking.sendfile")
        setattr(blocking, "RequestParser", self.wrap_group_start(blocking.RequestParser))

        event_loop.add_dispatch_observer(self.on_dispatch)

    # -- output ---------------------------------------------------------------------

    def dump(self, prefix: str) -> None:
        """Write ``<prefix>.spans`` (raw records) and ``<prefix>.json``."""
        self.stop()
        with self._states_lock:
            states = list(self._states)
        count = 0
        with open(prefix + ".spans", "wb") as handle:
            for state in states:
                state.spans.tofile(handle)
                count += len(state.spans) // SPAN_FIELDS
        meta = {
            "names": self.names,
            "fields": ["id", "parent", "trace", "name", "start_ns", "end_ns"],
            "spans": count,
            "max_spans": self.max_spans,
            "gauges": self.gauges,
            "window": self.window,
        }
        with open(prefix + ".json", "w") as handle:
            json.dump(meta, handle)


def read_spans(prefix: str) -> tuple[dict, array]:
    """Load what :meth:`Tracer.dump` wrote: (metadata, flat span records)."""
    with open(prefix + ".json") as handle:
        meta = json.load(handle)
    spans = array("q")
    with open(prefix + ".spans", "rb") as handle:
        spans.frombytes(handle.read())
    return meta, spans
