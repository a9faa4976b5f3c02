"""The repository's benchmark: live servers under four traffic mixes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cached-small --seed 1 --seconds 30 --trace 0

One run starts the server under test in its own process (default
``ServerConfig``, only ``document_root`` and ``port`` set) and drives it
from this process with one ``LoadGenerator`` over 2 keep-alive connections:

1. set-up: the server is launched five times; ``setup_s`` is the median
   time from launch to the first verified response;
2. an independent ``http.client`` check of every request shape (cold);
3. a closed-loop warm-up pass over the head of the request sequence that
   fills the caches;
4. the closed-loop phase (two thirds of ``--seconds``): ``rps`` and ``mbps``;
5. the open-loop Poisson phase (the last third) at the workload's fixed
   rate: ``cpu_us_per_req``, and ``p50_ms`` and ``p99_ms`` as diagnostics;
6. the ``http.client`` check again (warm), counter cross-checks, and
   ``rss_mb`` (the server's ``VmHWM``).

Both timed phases run in pairs of windows: one second against the server
under test, then half a second of closed loop against a fixed reference
responder (``reference_server.py``) on the same CPU.  The responder is part
of the benchmark, so its rate moves only with the host, whose CPU speed
drifts by tens of percent over seconds and minutes on a shared machine.
``rps``, ``mbps`` and ``cpu_us_per_req`` are reported at the reference
host speed: the phase's figure over its quiet pairs, scaled by the mean
reference rate of those pairs against ``REFERENCE_RPS``.  The figures as
measured are printed beside them.

With ``--trace 1`` the same steps run twice on half the time each: once
untraced, then on a server whose layers are wrapped by ``tracer.py``; the
per-layer metrics come from the traced closed-loop phase, and the
``trace_overhead`` line compares the two runs' closed-loop phases.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``).  The exit code is 0 when the
run was correct, 1 when a response or a cross-check was wrong, and 2 when
the benchmark could not run at all (for instance without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (catalogs, spans, server logs).
WORK = os.path.join(ROOT, ".perfbench")

CONNECTIONS = 2
SETUP_LAUNCHES = 5
#: The warm-up pass stops after this long even if it has not walked its
#: whole share of the sequence (about 5 s on cs-trace on a quiet host), so
#: a spell of CPU steal cannot stretch a run past its time budget.
WARMUP_LIMIT_SECONDS = 10.0
WINDOW_SECONDS = 1.0
#: Length of the reference window that follows every server window.
REFERENCE_SECONDS = 0.5
#: The reference responder's closed-loop rate that defines the reference
#: host speed (about its median rate on a 2-vCPU Xeon guest).  It only scales
#: the reported figures; any fixed value gives the same ratios between runs.
REFERENCE_RPS = 18000.0
#: Share of ``--seconds`` given to the closed-loop phase.  The gated
#: throughput metrics come from it and spread more between runs than the
#: open-loop CPU cost does, so it gets the larger share.
CLOSED_SHARE = 2 / 3
#: A pair of windows is disturbed when CPU steal plus other processes' user
#: and system time exceed this share of all CPU time (see quiet()).
DISTURBED = 0.05
#: Replies from the server process must arrive within this long.
REPLY_TIMEOUT = 30.0
#: Share tolerance for the 206/304 mix cross-check (plus 3 requests of slack).
MIX_TOLERANCE = 0.01

END_TO_END = {
    "rps": "req/s",
    "mbps": "Mbit/s",
    "cpu_us_per_req": "us",
    "rss_mb": "MiB",
    "setup_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a wrong response)."""


def _import_repro() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError(f"no repro package under {SRC}: run from a full checkout")
    sys.path.insert(0, SRC)


# -- /proc readers ---------------------------------------------------------------

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_seconds(pid) -> float:
    """User + system CPU of ``pid`` (or ``"self"``) from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of stat(5); index 0 here is field 3 (state).
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def peak_rss_mib(pid) -> float:
    """``VmHWM`` of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def system_cpu_ticks() -> dict:
    """The aggregate ``cpu`` line of ``/proc/stat``: total, busy and steal ticks.

    ``busy`` is user + nice + system time only: interrupt and softirq time
    is mostly the loopback traffic the benchmark itself causes, so it is
    not counted as another process's CPU.
    """
    with open("/proc/stat") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = (values + [0] * 8)[:8]
    total = user + nice + system + idle + iowait + irq + softirq + steal
    return {"total": total, "busy": user + nice + system, "steal": steal}


class NoiseProbe:
    """What else used the machine during a timed window.

    ``steal`` is the share of all CPU time the hypervisor withheld; ``others``
    the user and system time of processes other than the servers and this
    benchmark, as a share of all CPU time.
    """

    def __init__(self, *pids: int) -> None:
        self.pids = pids + ("self",)
        self.system = system_cpu_ticks()
        self.ours = self._ours()

    def _ours(self) -> float:
        return sum(process_cpu_seconds(pid) for pid in self.pids)

    def finish(self) -> dict:
        system = system_cpu_ticks()
        total = max(1, system["total"] - self.system["total"])
        ours = (self._ours() - self.ours) * CLOCK_TICKS
        busy = system["busy"] - self.system["busy"]
        return {
            "steal": (system["steal"] - self.system["steal"]) / total,
            "others": max(0.0, busy - ours) / total,
        }


# -- the server process ------------------------------------------------------------


def cpu_split():
    """(server CPU, load-generator CPU), or ``None`` with fewer than 2 CPUs.

    The two processes play ping-pong over loopback; left to the scheduler
    they migrate between CPUs and the closed-loop rate moves by tens of
    percent from one second to the next.  One CPU each keeps it steady.
    Computed once, before this process pins itself.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


CPU_SPLIT = cpu_split()


class ServerProcess:
    """``server_main.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, architecture: str, root: str, log_path: str, trace_prefix: str = ""):
        command = [
            sys.executable,
            os.path.join(HERE, "server_main.py"),
            "--root", root,
            "--architecture", architecture,
        ]
        if CPU_SPLIT is not None:
            command += ["--cpu", str(CPU_SPLIT[0])]
        if trace_prefix:
            command += ["--trace-prefix", trace_prefix]
        env = dict(os.environ, PYTHONPATH=SRC)
        self._log = open(log_path, "ab")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, env=env, cwd=ROOT,
        )
        self._buffer = b""
        self.port = self._read_reply()["port"]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read_reply(self) -> dict:
        deadline = time.monotonic() + REPLY_TIMEOUT
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchmarkError("server process did not answer in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    with open(self._log.name, "rb") as log:
                        tail = log.read()[-2000:].decode(errors="replace")
                    raise BenchmarkError(
                        f"server process exited (code {self.proc.wait(timeout=30)}):\n{tail}"
                    )
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name.encode() + b"\n")
        self.proc.stdin.flush()
        return self._read_reply()

    def stop(self) -> None:
        """Quit the server and wait for the process to end (killing it if needed)."""
        try:
            if self.proc.poll() is None:
                self.command("quit")
                self.proc.wait(timeout=30)
        except (BenchmarkError, OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=30)
            for pipe in (self.proc.stdin, self.proc.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass
            self._log.close()


class ReferenceProcess:
    """``reference_server.py`` in a child process, on the server's CPU."""

    def __init__(self) -> None:
        command = [sys.executable, os.path.join(HERE, "reference_server.py")]
        if CPU_SPLIT is not None:
            command += ["--cpu", str(CPU_SPLIT[0])]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.stop()
            raise BenchmarkError("reference server did not start")
        self.port = json.loads(line)["port"]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """Close its stdin (its signal to exit) and wait for the process to end."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=30)
            self.proc.stdout.close()


# -- load phases ---------------------------------------------------------------------


class SampleRecorder:
    """Stands in for the loadgen's histogram: keeps every latency exactly."""

    def __init__(self) -> None:
        self.samples: list = []

    def record(self, seconds: float) -> None:
        self.samples.append(seconds)


def percentile_ms(samples: list, failures: int, fraction: float) -> float:
    """Exact percentile in ms; each failed request counts beyond every sample."""
    n = len(samples) + failures
    if n == 0:
        return float("nan")
    rank = max(1, math.ceil(fraction * n))
    if rank > len(samples):
        return float("inf")
    return sorted(samples)[rank - 1] * 1e3


@dataclass
class Tally:
    """Requests attempted and failed, with the reason for every failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{count} failed: {why}")


def check_into(tally: Tally, label: str, verification) -> None:
    """Count a verification pass: every fetch attempted, every mismatch failed."""
    tally.attempted += verification.checked
    tally.fail(len(verification.mismatches), f"{label}: " + "; ".join(verification.mismatches[:3]))


def run_load(server, workload, cursor, etags, tally, *, duration, rate=None, seed=0,
             max_requests=None):
    """One ``LoadGenerator`` run; checks its counters into ``tally``."""
    from repro.client.loadgen import LoadGenerator

    generator = LoadGenerator(
        ("127.0.0.1", server.port),
        cursor,
        num_clients=CONNECTIONS,
        keep_alive=True,
        duration=duration,
        max_requests=max_requests,
        conditional_fraction=workload.conditional_fraction,
        range_fraction=workload.range_fraction,
        arrival_rate=rate,
        seed=seed,
    )
    generator.latency = SampleRecorder()
    for path, etag in etags.items():
        generator.record_etag(path, etag)
    result = generator.run()
    completed = result.requests_completed
    tally.attempted += completed + result.errors + result.rejected_503
    tally.fail(result.errors, "loadgen errors")
    tally.fail(result.rejected_503, "503 rejections")
    tally.fail(completed - result.responses_2xx - result.not_modified, "status neither 2xx nor 304")
    slack = MIX_TOLERANCE * completed + 3
    for label, count, fraction in (
        ("304", result.not_modified, workload.conditional_fraction),
        ("206", result.responses_206, workload.range_fraction),
    ):
        if abs(count - fraction * completed) > slack:
            tally.fail(1, f"{count} {label}s in {completed} responses, expected {fraction:.0%}")
    return result


@dataclass
class Window:
    """One loadgen run of a timed phase and the reference run after it.

    ``reference_rps`` is the closed-loop rate the same load generator
    reached against the reference responder right after the window;
    ``noise`` is what disturbed the two runs together.
    """

    result: object
    noise: dict
    cpu_seconds: float
    reference_rps: float = REFERENCE_RPS

    @property
    def disturbance(self) -> float:
        return self.noise["steal"] + self.noise["others"]

    @property
    def speed(self) -> float:
        """The host's speed during the pair, relative to the reference speed."""
        return self.reference_rps / REFERENCE_RPS


def reference_rate(reference) -> float:
    """Closed-loop req/s against the reference responder for one window."""
    from repro.client.loadgen import LoadGenerator

    result = LoadGenerator(
        ("127.0.0.1", reference.port), ["/reference"], num_clients=CONNECTIONS,
        keep_alive=True, duration=REFERENCE_SECONDS,
    ).run()
    if result.errors or result.requests_completed != result.responses_2xx:
        raise BenchmarkError(f"the reference responder failed: {result.to_dict()}")
    return result.request_rate


def timed_windows(server, reference, workload, cursor, etags, tally, seconds, rate=None,
                  seed=0):
    """``seconds`` of load as pairs of a server window and a reference window."""
    from repro.client.latency import derive_worker_seed

    count = max(1, round(seconds / (WINDOW_SECONDS + REFERENCE_SECONDS)))
    windows = []
    for index in range(count):
        noise = NoiseProbe(server.pid, reference.pid)
        cpu = process_cpu_seconds(server.pid)
        result = run_load(
            server, workload, cursor, etags, tally, duration=WINDOW_SECONDS,
            rate=rate, seed=derive_worker_seed(seed, index),
        )
        cpu = process_cpu_seconds(server.pid) - cpu
        speed = reference_rate(reference)
        windows.append(Window(result, noise.finish(), cpu, speed))
    return windows


def quiet(windows: list) -> list:
    """The windows a phase's metrics are taken from.

    Every window whose disturbance is at most :data:`DISTURBED`; if that
    leaves fewer than a quarter of them, the least-disturbed quarter.  Both
    parts of the disturbance are outside this benchmark's control: time the
    hypervisor gave to other guests, and CPU used by other processes.  CPU
    steal comes in bursts shorter than a pair, so it does not slow both
    halves of a pair alike, and the reference speed cannot correct for it.
    """
    least = math.ceil(len(windows) / 4)
    calm = [w for w in windows if w.disturbance <= DISTURBED]
    if len(calm) >= least:
        return calm
    return sorted(windows, key=lambda w: w.disturbance)[:least]


def host_speed(windows: list) -> float:
    """The host's mean speed over ``windows``, relative to the reference speed."""
    return statistics.mean(w.speed for w in windows)


def at_reference_speed(windows: list, amount) -> float:
    """``amount(w)`` summed over ``windows``, per second at the reference host speed.

    The total over the windows' time is divided by their mean speed: the
    traffic mix changes from window to window, so the run's rate is taken
    as a whole, not as a median of windows.
    """
    seconds = sum(w.result.elapsed for w in windows)
    return sum(amount(w) for w in windows) / seconds / host_speed(windows)


def server_us_per_req(windows: list) -> float:
    """Server CPU (µs) per request completed over ``windows``, at the reference speed."""
    return sum(w.cpu_seconds for w in windows) * 1e6 / max(
        1, sum(w.result.requests_completed for w in windows)
    ) * host_speed(windows)


@dataclass
class Measurement:
    """End-to-end numbers of one server's timed phases."""

    rps: float
    mbps: float
    #: Closed-loop req/s as measured, and the mean reference rate beside it.
    raw_rps: float
    reference_rps: float
    p50_ms: float
    p99_ms: float
    p99_samples: int
    cpu_us_per_req: float
    #: Server CPU per request over the closed-loop phase (tracing overhead).
    closed_cpu_us_per_req: float
    rss_mb: float
    warmup: object
    closed: list
    opened: list


def measure(server, reference, workload, catalog, seconds, seed, tally,
            tracing=False) -> Measurement:
    """Checks, warm-up, closed loop and open loop against one running server."""
    from verify import read_file, shapes_for, verify

    from workloads import Cursor

    shapes = shapes_for(workload.conditional_fraction, workload.range_fraction)
    expected = read_file(catalog.root)
    cold = verify(server.port, catalog.verify_paths, shapes, expected)
    check_into(tally, "cold check", cold)

    cursor = Cursor(catalog.sequence)
    before = server.command("stats")["stats"]
    warmup = run_load(
        server, workload, cursor, cold.etags, tally,
        duration=WARMUP_LIMIT_SECONDS, max_requests=catalog.warmup_requests,
    )
    if tracing:
        server.command("trace-start")
    closed = timed_windows(
        server, reference, workload, cursor, cold.etags, tally, seconds * CLOSED_SHARE
    )
    if tracing:
        server.command("trace-stop")
    opened = timed_windows(
        server, reference, workload, cursor, cold.etags, tally, seconds * (1 - CLOSED_SHARE),
        rate=workload.open_rate, seed=seed,
    )
    after = server.command("stats")["stats"]

    # Every request the clients completed was counted by the server; the
    # server may also count the one in flight per connection at the end
    # of each loadgen run (and any the clients saw fail).
    runs = [warmup] + [w.result for w in closed + opened]
    completed = sum(r.requests_completed for r in runs)
    extra = (after["requests"] - before["requests"]) - completed
    if not 0 <= extra <= CONNECTIONS * len(runs) + sum(r.errors for r in runs):
        tally.fail(abs(extra) or 1, f"server counted {extra:+d} requests beyond the clients")

    check_into(
        tally, "warm check",
        verify(server.port, catalog.verify_paths, shapes, expected, previous=cold),
    )

    calm, still = quiet(closed), quiet(opened)
    samples = [s for w in still for s in w.result.latency.samples]
    failures = sum(w.result.errors + w.result.rejected_503 for w in still)
    return Measurement(
        rps=at_reference_speed(calm, lambda w: w.result.requests_completed),
        mbps=at_reference_speed(calm, lambda w: w.result.bytes_received * 8 / 1e6),
        raw_rps=sum(w.result.requests_completed for w in calm)
        / sum(w.result.elapsed for w in calm),
        reference_rps=host_speed(calm) * REFERENCE_RPS,
        p50_ms=percentile_ms(samples, failures, 0.50),
        p99_ms=percentile_ms(samples, failures, 0.99),
        p99_samples=len(samples) + failures,
        cpu_us_per_req=server_us_per_req(still),
        closed_cpu_us_per_req=server_us_per_req(calm),
        rss_mb=peak_rss_mib(server.pid),
        warmup=warmup,
        closed=closed,
        opened=opened,
    )


# -- set-up ---------------------------------------------------------------------------


def launch_verified(workload, catalog, log_path, tally, trace_prefix=""):
    """Launch a server; returns it with the time to its first verified response."""
    from verify import read_file, verify

    server = ServerProcess(workload.architecture, catalog.root, log_path, trace_prefix)
    try:
        check = verify(server.port, catalog.verify_paths[:1], ("plain",), read_file(catalog.root))
        elapsed = time.perf_counter() - server.launched
    except BaseException:
        server.stop()
        raise
    check_into(tally, "first response", check)
    return server, elapsed


def host_stamp() -> str:
    """nproc, Python, kernel, and the checkout's git commit (with a dirty flag)."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        commit = sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"kernel={platform.release()} commit={commit}"
    )


def describe(label: str, m: Measurement) -> list:
    """Diagnostic lines: every window, its disturbance, and the generator's lag."""

    def window(w):
        return f"{w.result.request_rate:.0f}/{w.reference_rps:.0f}@{w.disturbance:.3f}"

    def dump(windows):
        return [
            [round(w.result.request_rate, 1), round(w.result.bandwidth_mbps, 3),
             round(w.cpu_seconds, 3), w.result.requests_completed,
             round(w.reference_rps, 1), round(w.disturbance, 4)]
            for w in windows
        ]

    dispatched = sum(w.result.dispatched for w in m.opened)
    lateness = sum(w.result.lateness_sum for w in m.opened) / max(1, dispatched)
    steal = statistics.mean(w.noise["steal"] for w in m.closed + m.opened)
    others = statistics.mean(w.noise["others"] for w in m.closed + m.opened)
    return [
        f"{label}: warm-up: {m.warmup.requests_completed} requests in "
        f"{m.warmup.elapsed:.2f} s",
        f"{label}: closed-loop windows (req/s/reference req/s@disturbance): "
        + " ".join(window(w) for w in m.closed),
        f"{label}: open-loop windows (req/s/reference req/s@disturbance): "
        + " ".join(window(w) for w in m.opened),
        f"{label}: as measured: rps {m.raw_rps:.1f} req/s against reference "
        f"{m.reference_rps:.1f} req/s (reference speed: {REFERENCE_RPS:.0f} req/s)",
        f"{label}: noise: steal={steal:.4f} others={others:.4f} (mean shares of all CPU "
        f"time); generator lateness mean {lateness * 1e3:.3f} ms max "
        f"{max(w.result.lateness_max for w in m.opened) * 1e3:.3f} ms, max backlog "
        f"{max(w.result.max_backlog for w in m.opened)}; p99 over {m.p99_samples} samples",
        f"{label}: windows [req/s, Mbit/s, server CPU s, requests, reference req/s, "
        f"disturbance]: " + json.dumps({"closed": dump(m.closed), "open": dump(m.opened)}),
    ]


# -- entry point ------------------------------------------------------------------------


def run_untraced(workload, catalog, args, log_path, tally, servers, reference):
    """``--trace 0``: set-up launches, then the timed phases on the last one."""
    setups = []
    for _ in range(SETUP_LAUNCHES):
        server, elapsed = launch_verified(workload, catalog, log_path, tally)
        servers.append(server)
        setups.append(elapsed)
        if len(setups) < SETUP_LAUNCHES:
            servers.pop().stop()
    m = measure(servers[0], reference, workload, catalog, args.seconds, args.seed, tally)
    lines = describe("untraced", m) + [
        f"setup launches (s): {[round(s, 4) for s in setups]}",
        f"p50_ms = {m.p50_ms!r} ms (diagnostic)",
        f"p99_ms = {m.p99_ms!r} ms (diagnostic: {m.p99_samples} samples, "
        f"{m.p99_samples // 100} beyond it)",
    ]
    metrics = {
        "rps": m.rps, "mbps": m.mbps,
        "cpu_us_per_req": m.cpu_us_per_req, "rss_mb": m.rss_mb,
        "setup_s": statistics.median(setups),
    }
    return metrics, END_TO_END, lines


def run_traced(workload, catalog, args, log_path, tally, servers, reference, run_dir):
    """``--trace 1``: half the time untraced, half traced; per-layer metrics."""
    from layers import PER_LAYER, layer_metrics

    from tracer import read_spans

    half = args.seconds / 2.0
    servers.append(launch_verified(workload, catalog, log_path, tally)[0])
    plain = measure(servers[-1], reference, workload, catalog, half, args.seed, tally)
    servers.pop().stop()
    prefix = os.path.join(run_dir, "trace")
    servers.append(launch_verified(workload, catalog, log_path, tally, trace_prefix=prefix)[0])
    traced = measure(
        servers[-1], reference, workload, catalog, half, args.seed, tally, tracing=True
    )
    servers.pop().stop()
    meta, spans = read_spans(prefix)
    lines = describe("untraced", plain) + describe("traced", traced) + [
        f"trace_overhead: rps untraced={plain.rps:.1f} traced={traced.rps:.1f} req/s; "
        f"cpu_us_per_req untraced={plain.closed_cpu_us_per_req:.2f} "
        f"traced={traced.closed_cpu_us_per_req:.2f} us (both over the closed loop, at the "
        f"reference speed)",
        f"trace: {meta['spans']} spans recorded (limit {meta['max_spans']})",
    ]
    metrics = layer_metrics(meta, spans, vars(plain), vars(traced))
    units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
    return metrics, units, lines


def run(args) -> int:
    _import_repro()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, build_catalog

    if args.workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.seconds <= 0:
        raise BenchmarkError("--seconds must be positive")
    if CPU_SPLIT is not None:
        os.sched_setaffinity(0, {CPU_SPLIT[1]})
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    log_path = os.path.join(run_dir, "server.log")
    lines = [
        f"host: {host_stamp()} cpus(server,loadgen)={CPU_SPLIT}",
        f"workload: {workload.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} open_rate={workload.open_rate} req/s",
    ]
    tally = Tally()
    servers = []
    reference = catalog = None
    try:
        catalog = build_catalog(workload, os.path.join(WORK, "catalogs"), args.seed)
        reference = ReferenceProcess()
        if args.trace:
            metrics, units, more = run_traced(
                workload, catalog, args, log_path, tally, servers, reference, run_dir
            )
        else:
            metrics, units, more = run_untraced(
                workload, catalog, args, log_path, tally, servers, reference
            )
        lines += more
    finally:
        for server in servers:
            server.stop()
        if reference is not None:
            reference.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        if catalog is not None and workload.catalog == "hotpath":
            shutil.rmtree(catalog.root, ignore_errors=True)

    lines.append(
        f"error_rate = {tally.failed / tally.attempted!r} ratio "
        f"({tally.failed} failed of {tally.attempted} attempted)"
    )
    lines += [f"FAILED: {problem}" for problem in tally.problems]
    lines += [f"{name} = {value!r} {units[name]}" for name, value in metrics.items()]
    print("\n".join(lines))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
