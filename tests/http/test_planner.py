"""Table test of the response planner against the documented precedence.

:func:`plan_response` is the one place the RFC 7232 §6 precedence and the
RFC 7233 range resolution are decided.  Each row of ``PRECEDENCE`` below is
one line of the precedence table in ``docs/ARCHITECTURE.md`` ("Conditional
requests"), exercised on both sides of its comparison and against the
rows it outranks.
"""

import os
import re

import pytest

from repro.http.request import MAX_RANGE_PARTS
from repro.http.response import (
    PLAN_FULL,
    PLAN_NOT_MODIFIED,
    PLAN_PRECONDITION_FAILED,
    PLAN_RANGE_UNSATISFIABLE,
    ResponsePlan,
    http_date,
    plan_response,
)

SIZE = 1000
MTIME = 1_700_000_000.0
ETAG = '"3e8-abc"'
WEAK = 'W/"3e8-abc"'
STAMP = http_date(MTIME)
EARLIER = http_date(MTIME - 3600)
LATER = http_date(MTIME + 3600)

FULL, NOT_MODIFIED, FAILED = PLAN_FULL, PLAN_NOT_MODIFIED, PLAN_PRECONDITION_FAILED
RANGE = ResponsePlan(206, ((0, 10),))

#: (documented row, headers, expected plan).
PRECEDENCE = [
    # 1. If-Match: strong comparison; failure is 412.
    ("if-match", {"if_match": ETAG}, FULL),
    ("if-match", {"if_match": "*"}, FULL),
    ("if-match", {"if_match": f'"x", {ETAG}'}, FULL),
    ("if-match", {"if_match": '"x"'}, FAILED),
    ("if-match", {"if_match": WEAK}, FAILED),
    ("if-match", {"if_match": "unquoted"}, FAILED),
    ("if-match", {"if_match": '"x"', "if_none_match": ETAG}, FAILED),
    ("if-match", {"if_match": '"x"', "range_header": "bytes=0-9"}, FAILED),
    # 2. If-Unmodified-Since: only when If-Match is absent; failure is 412.
    ("if-unmodified-since", {"if_unmodified_since": STAMP}, FULL),
    ("if-unmodified-since", {"if_unmodified_since": LATER}, FULL),
    ("if-unmodified-since", {"if_unmodified_since": EARLIER}, FAILED),
    ("if-unmodified-since", {"if_unmodified_since": "garbage"}, FULL),
    ("if-unmodified-since", {"if_match": ETAG, "if_unmodified_since": EARLIER}, FULL),
    # 3. If-None-Match: weak comparison; a match is 304, a mismatch
    #    suppresses If-Modified-Since.
    ("if-none-match", {"if_none_match": ETAG}, NOT_MODIFIED),
    ("if-none-match", {"if_none_match": WEAK}, NOT_MODIFIED),
    ("if-none-match", {"if_none_match": "*"}, NOT_MODIFIED),
    ("if-none-match", {"if_none_match": '"x"'}, FULL),
    ("if-none-match", {"if_none_match": "unquoted"}, FULL),
    ("if-none-match", {"if_none_match": '"x"', "if_modified_since": STAMP}, FULL),
    ("if-none-match", {"if_none_match": ETAG, "range_header": "bytes=0-9"}, NOT_MODIFIED),
    # 4. If-Modified-Since: only when If-None-Match is absent; a match is 304.
    ("if-modified-since", {"if_modified_since": STAMP}, NOT_MODIFIED),
    ("if-modified-since", {"if_modified_since": LATER}, NOT_MODIFIED),
    ("if-modified-since", {"if_modified_since": EARLIER}, FULL),
    ("if-modified-since", {"if_modified_since": "yesterday"}, FULL),
    # 5. If-Range (with Range): strong; a mismatch ignores Range.
    ("if-range", {"range_header": "bytes=0-9", "if_range": STAMP}, RANGE),
    ("if-range", {"range_header": "bytes=0-9", "if_range": ETAG}, RANGE),
    ("if-range", {"range_header": "bytes=0-9", "if_range": LATER}, FULL),
    ("if-range", {"range_header": "bytes=0-9", "if_range": WEAK}, FULL),
    ("if-range", {"range_header": "bytes=0-9", "if_range": '"x"'}, FULL),
    ("if-range", {"range_header": "bytes=0-9", "if_range": "soon"}, FULL),
    ("if-range", {"if_range": ETAG}, FULL),
]


@pytest.mark.parametrize(
    "row, headers, expected",
    PRECEDENCE,
    ids=[f"{row}-{index}" for index, (row, _, _) in enumerate(PRECEDENCE)],
)
@pytest.mark.parametrize("method", ["GET", "HEAD"])
def test_precedence_table(row, headers, expected, method):
    assert plan_response(SIZE, MTIME, ETAG, method, **headers) == expected


@pytest.mark.parametrize(
    "value, expected",
    [
        ("bytes=0-9", RANGE),
        ("bytes=-10", ResponsePlan(206, ((990, 10),))),
        ("bytes=990-", ResponsePlan(206, ((990, 10),))),
        ("bytes=0-9,100-109", ResponsePlan(206, ((0, 10), (100, 10)))),
        ("bytes=0-9,5-19", ResponsePlan(206, ((0, 20),))),
        ("bytes=0-9,2000-2009", RANGE),
        ("bytes=1000-", PLAN_RANGE_UNSATISFIABLE),
        ("bytes=-0", PLAN_RANGE_UNSATISFIABLE),
        ("bytes=9-0", FULL),
        ("lines=0-9", FULL),
        ("bytes=" + ",".join(f"{2 * i}-{2 * i}" for i in range(MAX_RANGE_PARTS + 1)), FULL),
    ],
)
def test_range_resolution(value, expected):
    assert plan_response(SIZE, MTIME, ETAG, range_header=value) == expected


@pytest.mark.parametrize("method", ["POST", "PUT", "OPTIONS"])
def test_other_methods_ignore_every_header(method):
    headers = {
        "if_match": '"x"',
        "if_none_match": ETAG,
        "if_modified_since": STAMP,
        "range_header": "bytes=0-9",
    }
    assert plan_response(SIZE, MTIME, ETAG, method, **headers) == FULL


def test_rows_follow_the_documented_table():
    """The rows above are the documented table's, in its order."""
    docs = os.path.join(os.path.dirname(__file__), "..", "..", "docs", "ARCHITECTURE.md")
    with open(docs, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Conditional requests", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| \d[^|]*\| `([A-Za-z-]+)` \|", section, re.MULTILINE)
    rows = list(dict.fromkeys(row for row, _, _ in PRECEDENCE))
    assert [name.lower() for name in documented] == rows
