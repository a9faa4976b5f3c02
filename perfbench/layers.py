"""Per-layer metrics from a traced run's spans and counters.

Conventions (see ``perfbench/README.md`` for each metric):

* ``*_per_req`` / ``*_per_resp``: calls counted at the wrapper, divided by
  the requests (responses) the server counted in the tracing window;
* ``*_us``: mean microseconds per call of the layer's entry point,
  inclusive of the layers it calls, except ``http.request.parse_us`` (self
  time per request) and ``*.us_per_req`` (total per request);
* ``*_ratio``, ``*_share``, ``*_frac``: shares of counts (or of the
  window's wall time), each with its own base named in the README.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import SPAN_FIELDS

#: name -> (unit, better): every metric :func:`layer_metrics` returns.
PER_LAYER = {
    "http.request.parse_us": ("us", "lower"),
    "http.request.fast_share": ("ratio", "higher"),
    "core.pipeline.hot_lookup_us": ("us", "lower"),
    "core.pipeline.hot_hit_ratio": ("ratio", "higher"),
    "core.pipeline.hot_insert_per_req": ("1/req", "lower"),
    "core.pipeline.build_response_per_req": ("1/req", "lower"),
    "core.pipeline.build_response_us": ("us", "lower"),
    "core.pipeline.translate_us": ("us", "lower"),
    "http.response.header_build_us": ("us", "lower"),
    "cache.response_header.hit_ratio": ("ratio", "higher"),
    "core.send_path.send_calls_per_resp": ("1/resp", "lower"),
    "core.send_path.send_us": ("us", "lower"),
    "core.send_path.bytes_per_call": ("B/call", "higher"),
    "core.send_path.sendfile_share": ("ratio", "higher"),
    "core.timer_wheel.ops_per_req": ("1/req", "lower"),
    "core.timer_wheel.us_per_req": ("us/req", "lower"),
    "core.backends.modify_per_req": ("1/req", "lower"),
    "core.backends.poll_per_req": ("1/req", "lower"),
    "core.backends.poll_wait_frac": ("ratio", "higher"),
    "core.event_loop.busy_frac": ("ratio", "lower"),
    "core.event_loop.dispatch_per_poll": ("1/poll", "higher"),
    "core.connection.on_ready_per_req": ("1/req", "lower"),
    "core.helpers.submits_per_req": ("1/req", "lower"),
    "core.helpers.round_trip_us": ("us", "lower"),
    "core.helpers.outstanding_max": ("count", "lower"),
    "cache.pathname.hit_ratio": ("ratio", "higher"),
    "cache.mapped_file.fd_hit_ratio": ("ratio", "higher"),
    "cache.mapped_file.mmap_hit_ratio": ("ratio", "higher"),
    "cache.residency.checks_per_req": ("1/req", "lower"),
    "cache.residency.us_per_req": ("us/req", "lower"),
    "servers.blocking.requests_per_conn": ("1/conn", "higher"),
    "trace.overhead_rps": ("ratio", "higher"),
    "trace.overhead_cpu": ("ratio", "lower"),
}

_HEADER_SPANS = ("http.response.header_cache_get", "http.response.header_build")
_SEND_SPANS = (
    "core.send_path.send",
    "servers.blocking.send_all",
    "servers.blocking.sendfile",
)


def aggregate_spans(meta: dict, spans) -> dict:
    """name -> {"count", "total_ns", "self_ns"} over spans started in the window.

    Self time is a span's duration minus the durations of its child spans
    (children nest within their parent on one thread, so they never
    overlap).  Each thread's spans were recorded as they ended, so a span's
    children always precede it: one pass suffices, holding only the child
    time of spans still to come.  A span whose parent was not recorded
    counts as a root.  A header build made inside a header-cache probe is
    part of that probe, so it is counted as
    ``http.response.nested_header_build`` instead.
    """
    names = meta["names"]
    window = meta["window"]
    lo, hi = window["start_ns"], window["end_ns"]
    header_ids = {names.index(n) for n in _HEADER_SPANS if n in names}
    child_ns: dict = defaultdict(int)
    header_children: dict = defaultdict(list)
    totals: dict = defaultdict(lambda: {"count": 0, "total_ns": 0, "self_ns": 0})

    def add(label, count, duration, own):
        entry = totals[label]
        entry["count"] += count
        entry["total_ns"] += duration
        entry["self_ns"] += own

    fields = iter(spans)
    for span_id, parent, _trace, name, start, end in zip(*[fields] * SPAN_FIELDS):
        duration = end - start
        own = duration - child_ns.pop(span_id, 0)
        if parent:
            child_ns[parent] += duration
        children = header_children.pop(span_id, ())
        if name in header_ids:
            for label, d, o in children:
                add(label, -1, -d, -o)
                add("http.response.nested_header_build", 1, d, o)
        if lo <= start <= hi:
            add(names[name], 1, duration, own)
            if name in header_ids:
                header_children[parent].append((names[name], duration, own))
    return dict(totals)


def _delta(end: dict, start: dict, key: str) -> int:
    return end.get(key, 0) - start.get(key, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _cache_ratio(window: dict, cache: str, extra_misses: int = 0) -> float:
    start = window["start"]["cache"].get(cache, {})
    end = window["end"]["cache"].get(cache, {})
    hits = _delta(end, start, "hits")
    return _ratio(hits, hits + _delta(end, start, "misses") + extra_misses)


def layer_metrics(meta: dict, spans, untraced: dict, traced: dict) -> dict:
    """Every :data:`PER_LAYER` metric for one traced run.

    ``untraced`` and ``traced`` hold the closed-loop ``rps`` and
    ``closed_cpu_us_per_req`` of the two runs, for the tracing-overhead
    ratios: the per-layer numbers come from the traced closed loop.
    """
    window = meta["window"]
    stats0, stats1 = window["start"]["stats"], window["end"]["stats"]
    requests = _delta(stats1, stats0, "requests")
    responses = _delta(stats1, stats0, "responses_ok") + _delta(stats1, stats0, "responses_error")
    wall_ns = window["end_ns"] - window["start_ns"]
    agg = aggregate_spans(meta, spans)

    def count(*names):
        return sum(agg.get(n, {}).get("count", 0) for n in names)

    def total_ns(*names):
        return sum(agg.get(n, {}).get("total_ns", 0) for n in names)

    def self_ns(*names):
        return sum(agg.get(n, {}).get("self_ns", 0) for n in names)

    def mean_us(*names):
        return _ratio(total_ns(*names), count(*names)) / 1e3

    def per_req(value):
        return _ratio(value, requests)

    hot_hits = _delta(stats1, stats0, "hot_hits")
    sends = count(*_SEND_SPANS)
    metrics = {
        "http.request.parse_us": per_req(
            self_ns("http.request.feed", "http.request.probe_fast_request")
        ) / 1e3,
        "http.request.fast_share": per_req(_delta(stats1, stats0, "fast_parses")),
        "core.pipeline.hot_lookup_us": mean_us("core.pipeline.hot_lookup"),
        "core.pipeline.hot_hit_ratio": _ratio(
            hot_hits, hot_hits + _delta(stats1, stats0, "hot_misses")
        ),
        "core.pipeline.hot_insert_per_req": per_req(count("core.pipeline.hot_insert")),
        "core.pipeline.build_response_per_req": per_req(count("core.pipeline.build_response")),
        "core.pipeline.build_response_us": mean_us("core.pipeline.build_response"),
        "core.pipeline.translate_us": mean_us(
            "core.pipeline.translate_async", "core.pipeline.translate"
        ),
        "http.response.header_build_us": mean_us(*_HEADER_SPANS),
        "cache.response_header.hit_ratio": _cache_ratio(window, "header"),
        "core.send_path.send_calls_per_resp": _ratio(sends, responses),
        "core.send_path.send_us": mean_us(*_SEND_SPANS),
        "core.send_path.bytes_per_call": _ratio(_delta(stats1, stats0, "bytes_sent"), sends),
        "core.send_path.sendfile_share": _ratio(
            _delta(stats1, stats0, "sendfile_responses"), responses
        ),
        "core.timer_wheel.ops_per_req": per_req(
            count("core.timer_wheel.schedule", "core.timer_wheel.cancel")
        ),
        "core.timer_wheel.us_per_req": per_req(
            total_ns(
                "core.timer_wheel.schedule",
                "core.timer_wheel.cancel",
                "core.timer_wheel.advance",
            )
        ) / 1e3,
        "core.backends.modify_per_req": per_req(count("core.backends.modify")),
        "core.backends.poll_per_req": per_req(count("core.backends.poll")),
        "core.backends.poll_wait_frac": _ratio(total_ns("core.backends.poll"), wall_ns),
        "core.event_loop.busy_frac": _ratio(total_ns("core.event_loop.dispatch"), wall_ns),
        "core.event_loop.dispatch_per_poll": _ratio(
            count("core.event_loop.dispatch"), count("core.backends.poll")
        ),
        "core.connection.on_ready_per_req": per_req(count("core.connection.on_ready")),
        "core.helpers.submits_per_req": per_req(count("core.helpers.submit")),
        "core.helpers.round_trip_us": mean_us("core.helpers.round_trip"),
        "core.helpers.outstanding_max": meta["gauges"]["core.helpers.outstanding_max"],
        "cache.pathname.hit_ratio": _cache_ratio(
            window, "pathname", meta["gauges"]["cache.pathname.cached_only_misses"]
        ),
        "cache.mapped_file.fd_hit_ratio": _cache_ratio(window, "fd"),
        "cache.mapped_file.mmap_hit_ratio": _cache_ratio(window, "mmap"),
        "cache.residency.checks_per_req": per_req(count("cache.residency.content_resident")),
        "cache.residency.us_per_req": per_req(total_ns("cache.residency.content_resident"))
        / 1e3,
        "servers.blocking.requests_per_conn": _ratio(
            requests, count("servers.blocking.handle_client")
        ),
        "trace.overhead_rps": _ratio(traced["rps"], untraced["rps"]),
        "trace.overhead_cpu": _ratio(
            traced["closed_cpu_us_per_req"], untraced["closed_cpu_us_per_req"]
        ),
    }
    assert set(metrics) == set(PER_LAYER)
    return metrics
