"""Process that runs the server under test for the benchmark.

Usage (started by ``perfbench/run.py``, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/server_main.py --root DOCROOT --architecture amped \
        [--trace-prefix PATH] [--cpu N]

The server is built from the default :class:`~repro.core.config.ServerConfig`
with only ``document_root`` and ``port`` set (port 0: the kernel picks one).
With ``--trace-prefix`` the :class:`~tracer.Tracer` wraps the layer entry
points *before* the server is built.

Once bound, the process prints ``{"port": N}`` on stdout and then obeys one
command per stdin line, answering each with one JSON line:

``stats``        the server's ``ServerStats.snapshot()`` and ``cache_stats()``
``trace-start``  open the tracing window (answer: counters at its start)
``trace-stop``   close it (answer: counters at its end)
``quit``         stop the server, write the spans, answer, exit
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from tracer import Tracer


def _counters(server) -> dict:
    return {"stats": server.stats.snapshot(), "cache": server.store.cache_stats()}


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--architecture", choices=("amped", "mt"), required=True)
    parser.add_argument("--trace-prefix", default="")
    parser.add_argument("--cpu", type=int, help="pin the process (and its threads) to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.trace_prefix:
        tracer = Tracer()
        tracer.install()

    from repro.core.config import ServerConfig
    from repro.servers import create_server

    server = create_server(
        args.architecture, ServerConfig(document_root=args.root, port=0)
    )
    if tracer is not None:
        tracer.snapshot_fn = lambda: _counters(server)
    server.start()
    _reply({"port": server.port})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                _reply(_counters(server))
            elif command == "trace-start" and tracer is not None:
                _reply(tracer.start())
            elif command == "trace-stop" and tracer is not None:
                _reply(tracer.stop())
            elif command == "quit":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        server.stop()
        if tracer is not None:
            tracer.dump(args.trace_prefix)
    _reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
