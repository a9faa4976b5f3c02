"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The smoke test runs every workload end to end with tiny durations, in both
modes, and checks that every metric is printed with its unit.  The negative
tests show that the independent verifier flags a wrong body and an
unexpected status, and that such a finding counts as a failed request.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import socket
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference_server  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from verify import compare, expected_answer, read_file, verify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics every untraced run prints, with their units: the
#: ones in BENCHMARK.json plus the three kept as diagnostics.
PRINTED_END_TO_END = dict(run.END_TO_END, p50_ms="ms", p99_ms="ms", error_rate="ratio")


def _bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _printed(stdout: str) -> dict:
    """``name = value unit`` lines of a run's output: name -> unit."""
    found = {}
    for line in stdout.splitlines():
        match = re.match(r"^(\S+) = (\S+) (\S+)", line)
        if match:
            found[match.group(1)] = match.group(3)
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    if trace:
        expected = {name: unit for name, (unit, _better) in PER_LAYER.items()}
    else:
        expected = dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = _printed(done.stdout)
    wanted = expected if trace else PRINTED_END_TO_END
    for name, unit in wanted.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"
    if trace:
        assert "trace_overhead: rps untraced=" in done.stdout


def test_quiet_keeps_calm_windows_else_the_least_disturbed_quarter():
    def window(steal, others=0.0):
        return run.Window(result=None, noise={"steal": steal, "others": others}, cpu_seconds=0.0)

    calm = [window(0.01), window(0.0, others=0.02), window(0.05)]
    assert run.quiet(calm + [window(0.2)] * 5) == calm
    stormy = [window(d) for d in (0.3, 0.12, 0.2, 0.4, 0.08, 0.25, 0.5, 0.15)]
    assert [w.disturbance for w in run.quiet(stormy)] == [0.08, 0.12]


def test_figures_are_scaled_to_the_reference_speed():
    def window(requests, cpu_seconds, reference_rps):
        result = SimpleNamespace(elapsed=1.0, requests_completed=requests)
        return run.Window(result, {"steal": 0.0, "others": 0.0}, cpu_seconds, reference_rps)

    # A host at 3/4 of the reference speed for three windows, 5/4 for one: 7/8 on average.
    slow, fast = 0.75 * run.REFERENCE_RPS, 1.25 * run.REFERENCE_RPS
    windows = [window(6000, 0.9, slow), window(9000, 0.8, slow), window(15000, 1.0, fast),
               window(10000, 1.0, slow)]
    assert run.host_speed(windows) == pytest.approx(0.875)
    rps = run.at_reference_speed(windows, lambda w: w.result.requests_completed)
    assert rps == pytest.approx(40000 / 4 / 0.875)
    assert run.server_us_per_req(windows) == pytest.approx(3.7e6 / 40000 * 0.875)


def test_reference_responder_answers_every_pipelined_request():
    reference = run.ReferenceProcess()
    try:
        with socket.create_connection(("127.0.0.1", reference.port), timeout=10) as conn:
            conn.sendall(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n" * 3)
            data = b""
            while data.count(b"HTTP/1.1 200 OK") < 3 or not data.endswith(reference_server.BODY):
                data += conn.recv(65536)
    finally:
        reference.stop()
    assert reference.proc.returncode == 0
    assert len(data) == 3 * len(reference_server.respond(b"GET /a HTTP/1.1\r\nHost: x"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = _bench("--workload", "cached-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_flags_wrong_body_and_status():
    body = bytes(range(256)) * 8
    expected = expected_answer("plain", body, None)
    headers = {"Content-Length": str(len(body)), "ETag": '"x"'}
    assert compare("/f", "plain", expected, 200, headers, body) == []
    assert compare("/f", "plain", expected, 200, headers, body[:-1] + b"!")
    assert compare("/f", "plain", expected, 404, headers, body)
    ranged = expected_answer("ranged", body, None)
    wrong_range = dict(headers, **{"Content-Length": "1024", "Content-Range": "bytes 1-1024/2048"})
    assert compare("/f", "ranged", ranged, 206, wrong_range, body[:1024])


def test_live_verifier_counts_wrong_answers_as_failed(tmp_path):
    docroot = tmp_path / "www"
    docroot.mkdir()
    (docroot / "good.html").write_bytes(b"a" * 3000)
    (docroot / "bad.html").write_bytes(b"b" * 3000)
    on_disk = read_file(str(docroot))

    def expected_bytes(path):
        if path == "/bad.html":
            return b"c" * 3000  # the server serves b"b" * 3000
        if path == "/missing.html":
            return b"never served"  # the server answers 404
        return on_disk(path)

    log = tmp_path / "server.log"
    server = run.ServerProcess("amped", str(docroot), str(log))
    try:
        result = verify(
            server.port,
            ["/good.html", "/bad.html", "/missing.html"],
            ("plain", "conditional", "ranged"),
            expected_bytes,
        )
    finally:
        server.stop()
    assert result.checked == 9
    assert any("bad.html" in m and "body" in m for m in result.mismatches)
    assert any("missing.html" in m and "status 404" in m for m in result.mismatches)
    assert not any("good.html" in m for m in result.mismatches)
    tally = run.Tally()
    run.check_into(tally, "negative", result)
    assert tally.failed == len(result.mismatches) > 0
    assert tally.attempted == 9
