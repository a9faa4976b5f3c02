"""Independent correctness check: stdlib ``http.client`` against the files.

The loadgen only counts status classes; this module checks the bytes.  For
every path it is given, it fetches each request shape the workload uses and
compares the answer with the file on disk:

``plain``        200, ``Content-Length`` = file size, body = file, an ``ETag``
``conditional``  ``If-None-Match`` with the plain answer's ``ETag``: a bodyless
                 304 carrying the same ``ETag``
``ranged``       ``Range: bytes=0-1023``: 206, ``Content-Range`` and
                 ``Content-Length`` for the window, body = the file's window

A second pass over the same paths must also see the same ``ETag`` as the
first, so a validator that changes between the cold and the warm cache is
caught too.
"""

from __future__ import annotations

import http.client
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

RANGE_LAST = 1023


@dataclass
class Verification:
    """Outcome of one verification pass."""

    checked: int = 0
    mismatches: list = field(default_factory=list)
    #: ETag per path seen on the plain fetch (reused by the next pass and
    #: handed to the loadgen so its conditional requests replay it).
    etags: dict = field(default_factory=dict)


def expected_answer(shape: str, body: bytes, etag: Optional[str]) -> dict:
    """What a correct server answers for ``shape`` on a file holding ``body``."""
    size = len(body)
    if shape == "plain":
        return {"status": 200, "length": size, "body": body}
    if shape == "conditional":
        return {"status": 304, "length": None, "body": b"", "etag": etag}
    last = min(RANGE_LAST, size - 1)
    return {
        "status": 206,
        "length": last + 1,
        "body": body[: last + 1],
        "content_range": f"bytes 0-{last}/{size}",
    }


def compare(path: str, shape: str, expected: dict, status: int, headers, body: bytes) -> list:
    """Every difference between an answer and ``expected`` (empty: correct)."""
    problems = []

    def problem(what: str) -> None:
        problems.append(f"{shape} {path}: {what}")

    if status != expected["status"]:
        problem(f"status {status}, expected {expected['status']}")
        return problems
    length = headers.get("Content-Length")
    if expected["length"] is not None and length != str(expected["length"]):
        problem(f"Content-Length {length}, expected {expected['length']}")
    if "content_range" in expected and headers.get("Content-Range") != expected["content_range"]:
        problem(
            f"Content-Range {headers.get('Content-Range')}, expected {expected['content_range']}"
        )
    etag = headers.get("ETag")
    if not etag:
        problem("no ETag")
    elif expected.get("etag") and etag != expected["etag"]:
        problem(f"ETag {etag}, expected {expected['etag']}")
    if body != expected["body"]:
        problem(f"body of {len(body)} bytes differs from the expected {len(expected['body'])}")
    return problems


def read_file(root: str) -> Callable[[str], bytes]:
    """The default source of expected bytes: the file under ``root``."""

    def read(path: str) -> bytes:
        with open(os.path.join(root, path.lstrip("/")), "rb") as handle:
            return handle.read()

    return read


def verify(
    port: int,
    paths: list,
    shapes: tuple,
    expected_bytes: Callable[[str], bytes],
    previous: Optional[Verification] = None,
    host: str = "127.0.0.1",
    timeout: float = 10.0,
) -> Verification:
    """Fetch every ``(path, shape)`` over one keep-alive connection and check it.

    ``previous`` is an earlier pass: its ETags must be seen again.  A
    transport failure (reset, timeout, malformed answer) ends the pass: that
    fetch and every one not yet made count as mismatches, so an unresponsive
    server costs one timeout, not one per fetch.
    """
    order = ("plain",) + tuple(s for s in shapes if s != "plain")
    jobs = [(path, shape) for path in paths for shape in order]
    result = Verification()
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        for index, (path, shape) in enumerate(jobs):
            headers = {}
            if shape == "conditional":
                headers["If-None-Match"] = result.etags.get(path, '"none"')
            elif shape == "ranged":
                headers["Range"] = f"bytes=0-{RANGE_LAST}"
            expected = expected_answer(shape, expected_bytes(path), result.etags.get(path))
            result.checked += 1
            try:
                connection.request("GET", path, headers=headers)
                response = connection.getresponse()
                answer = response.read()
            except (OSError, http.client.HTTPException) as exc:
                result.mismatches.append(f"{shape} {path}: {type(exc).__name__}: {exc}")
                result.checked += len(jobs) - index - 1
                result.mismatches += [f"{s} {p}: not fetched" for p, s in jobs[index + 1:]]
                break
            problems = compare(path, shape, expected, response.status, response.headers, answer)
            result.mismatches.extend(problems)
            if shape == "plain" and not problems:
                etag = response.headers.get("ETag")
                result.etags[path] = etag
                if previous is not None and previous.etags.get(path) not in (None, etag):
                    result.mismatches.append(
                        f"plain {path}: ETag {etag} changed from {previous.etags[path]}"
                    )
    finally:
        connection.close()
    return result


def shapes_for(conditional_fraction: float, range_fraction: float) -> tuple:
    """The request shapes a loadgen mix produces."""
    shapes = ["plain"]
    if conditional_fraction > 0:
        shapes.append("conditional")
    if range_fraction > 0:
        shapes.append("ranged")
    return tuple(shapes)
