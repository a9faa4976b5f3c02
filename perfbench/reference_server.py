"""A fixed HTTP responder the benchmark uses to gauge the host's speed.

Usage (started by ``perfbench/run.py``)::

    python3 perfbench/reference_server.py [--cpu N]

It binds an ephemeral loopback port, prints ``{"port": N}`` on stdout, and
answers every request on every keep-alive connection with the same 4 KB
``200`` response until stdin closes.  Its code is part of the benchmark, not
of the program under test, so it does the same work on every commit: the
rate the load generator reaches against it moves only with the host.
"""

from __future__ import annotations

import argparse
import email.utils
import http.client
import io
import json
import os
import selectors
import socket
import sys

BODY = bytes(range(32, 127)) * 43 + b"\n" * 11  # 4,096 bytes


def respond(head: bytes) -> bytes:
    """Parse one request head the way a small Python server would, and answer it."""
    request_line, _, rest = head.partition(b"\r\n")
    method, _target, _version = request_line.decode("latin-1").split(" ", 2)
    headers = http.client.parse_headers(io.BytesIO(rest + b"\r\n\r\n"))
    keep = headers.get("Connection", "keep-alive").lower() != "close"
    header = (
        "HTTP/1.1 200 OK\r\n"
        f"Date: {email.utils.formatdate(usegmt=True)}\r\n"
        "Server: perfbench-reference\r\n"
        "Content-Type: text/html\r\n"
        f"Content-Length: {len(BODY)}\r\n"
        f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n"
    )
    return header.encode("latin-1") + (BODY if method != "HEAD" else b"")


def serve(listener: socket.socket, control) -> None:
    selector = selectors.DefaultSelector()
    selector.register(listener, selectors.EVENT_READ, "accept")
    selector.register(control, selectors.EVENT_READ, "control")
    pending = {}
    while True:
        for key, _mask in selector.select():
            if key.data == "control":
                if not os.read(control.fileno(), 4096):
                    return
            elif key.data == "accept":
                conn, _ = listener.accept()
                conn.setblocking(False)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                pending[conn] = b""
                selector.register(conn, selectors.EVENT_READ, "conn")
            else:
                conn = key.fileobj
                try:
                    data = conn.recv(65536)
                except ConnectionError:
                    data = b""
                if not data:
                    selector.unregister(conn)
                    del pending[conn]
                    conn.close()
                    continue
                *heads, pending[conn] = (pending[conn] + data).split(b"\r\n\r\n")
                if heads:
                    # 4 KB responses fit the loopback send buffer.
                    conn.sendall(b"".join(respond(head) for head in heads))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, help="pin the process to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(64)
    listener.setblocking(False)
    sys.stdout.write(json.dumps({"port": listener.getsockname()[1]}) + "\n")
    sys.stdout.flush()
    try:
        serve(listener, sys.stdin)
    finally:
        listener.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
