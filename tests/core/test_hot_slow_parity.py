"""Generated parity between the hot-cache hit and the slow path.

A hot hit must answer every GET/HEAD exactly as :meth:`ContentStore.build_response`
answers it for the same file: the same status, the same header bytes (up to
the ``Date`` line), the same body bytes and the same counter movements.
Hand-picked cases cover the obvious shapes; this suite draws each of the six
conditional/range headers from {absent, matching, non-matching, malformed}
— weak and ``*`` entity-tags, ``If-Range`` in both date and entity-tag form,
overlapping, unsatisfiable and over-long range sets — and runs them over
the mapped-file cache on/off and zero-copy on/off.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore
from repro.http.request import MAX_RANGE_PARTS, HTTPRequest
from repro.http.response import http_date

CHUNK = 4096
DATA = bytes((index * 7) % 251 for index in range(5 * CHUNK + 123))
TARGET = "/file.bin"

#: Counters a hot hit moves and the slow path never does.
HOT_ONLY = {"hot_hits", "hot_misses"}

_DATE_LINE = re.compile(rb"\r\nDate: [^\r]*")

CONFIGS = {
    "mmap+zero-copy": {},
    "mmap-only": {"zero_copy": False},
    "zero-copy-only": {"enable_mmap_cache": False},
    "neither": {"enable_mmap_cache": False, "zero_copy": False},
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def store(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    (root / TARGET.lstrip("/")).write_bytes(DATA)
    config = ServerConfig(
        document_root=str(root),
        port=0,
        mmap_chunk_size=CHUNK,
        hot_cache_revalidate=1e9,
        **CONFIGS[request.param],
    )
    content_store = ContentStore(config)
    entry = content_store.translate(TARGET)
    plain = HTTPRequest(method="GET", uri=TARGET, path=TARGET, version="HTTP/1.1")
    content = content_store.build_response(plain, entry)
    content_store.hot_insert(plain, entry, content)
    content.release(content_store)
    yield content_store
    content_store.close()


def _header_values(entry):
    etag = entry.etag
    weak = "W/" + etag
    stamp = http_date(entry.mtime)
    earlier = http_date(entry.mtime - 86400)
    later = http_date(entry.mtime + 86400)
    size = entry.size
    overlong = ",".join(f"{2 * i}-{2 * i}" for i in range(MAX_RANGE_PARTS + 1))
    return {
        "if-match": {
            "matching": [etag, "*", f'"zzz", {etag}'],
            "non-matching": ['"zzz"', weak],
            "malformed": ["unquoted", '"open'],
        },
        "if-none-match": {
            "matching": [etag, weak, "*", f'"zzz", {weak}'],
            "non-matching": ['"zzz"', 'W/"zzz"'],
            "malformed": ["unquoted", "W/"],
        },
        "if-modified-since": {
            "matching": [stamp, later],
            "non-matching": [earlier],
            "malformed": ["yesterday", ""],
        },
        "if-unmodified-since": {
            "matching": [stamp, later],
            "non-matching": [earlier],
            "malformed": ["tomorrow"],
        },
        "range": {
            "matching": [
                "bytes=0-99",
                f"bytes={CHUNK - 10}-{CHUNK + 10}",
                "bytes=-500",
                f"bytes={size - 1}-",
                "bytes=0-",
                f"bytes=0-{size - 1}",
                "bytes=0-9,100-199",
                f"bytes=10-20,{3 * CHUNK}-{3 * CHUNK + 50},-30",
                "bytes=0-99,50-149",
                "bytes=0-4,5-9",
                f"bytes=0-9,{size + 10}-{size + 20}",
            ],
            "non-matching": [f"bytes={size}-", f"bytes={size + 5}-{size + 9}", "bytes=-0"],
            "malformed": ["lines=0-9", "bytes=9-0", "bytes=abc", f"bytes={overlong}"],
        },
        "if-range": {
            "matching": [stamp, etag],
            "non-matching": [earlier, '"zzz"', weak],
            "malformed": ["soon"],
        },
    }


_STATES = st.sampled_from(["absent", "matching", "non-matching", "malformed"])
_HEADERS = (
    "if-match",
    "if-unmodified-since",
    "if-none-match",
    "if-modified-since",
    "range",
    "if-range",
)


@st.composite
def requests(draw, entry):
    values = _header_values(entry)
    headers = {}
    for name in _HEADERS:
        state = draw(_STATES)
        if state != "absent":
            headers[name] = draw(st.sampled_from(values[name][state]))
    method = draw(st.sampled_from(["GET", "HEAD"]))
    request = HTTPRequest(
        method=method, uri=TARGET, path=TARGET, version="HTTP/1.1", headers=headers
    )
    return request, draw(st.booleans())


def wire_body(content, data):
    """The body bytes ``content`` transmits, from segments or file windows."""
    if content.segments:
        return b"".join(bytes(segment) for segment in content.segments)
    if content.content_length == 0:
        return b""
    assert content.file_handle is not None
    if content.parts:
        body = b"".join(
            part.head + data[part.offset : part.offset + part.length] for part in content.parts
        )
        return body + content.trailer
    return data[content.body_offset : content.body_offset + content.content_length]


def counted(store, produce):
    before = store.stats.snapshot()
    content = produce()
    after = store.stats.snapshot()
    delta = {
        name: after[name] - before[name]
        for name in after
        if after[name] != before[name] and name not in HOT_ONLY
    }
    return content, delta


def hot_lookup(store, request, keep_alive):
    return store.hot_lookup(TARGET.encode("latin-1"), keep_alive, request)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_hot_hit_matches_slow_path(store, data):
    entry = store.translate(TARGET)
    request, keep_alive = data.draw(requests(entry))
    slow, slow_delta = counted(
        store, lambda: store.build_response(request, entry, keep_alive=keep_alive)
    )
    hot, hot_delta = counted(store, lambda: hot_lookup(store, request, keep_alive))
    try:
        if store.hot_cache is None or len(store.hot_cache) == 0:
            # Nothing to pin (no descriptor, no chunks): never a hot entry.
            assert hot is None
            return
        assert hot is not None
        assert hot.status == slow.status
        assert _DATE_LINE.sub(b"", hot.header) == _DATE_LINE.sub(b"", slow.header)
        assert hot.content_length == slow.content_length
        assert hot.body_windows() == slow.body_windows()
        assert wire_body(hot, DATA) == wire_body(slow, DATA)
        assert len(wire_body(slow, DATA)) == slow.content_length
        assert hot_delta == slow_delta
    finally:
        slow.release(store)
        if hot is not None:
            hot.release(store)
