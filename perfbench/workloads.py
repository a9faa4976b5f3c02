"""The benchmark's workloads: catalogs, request sequences and fixed rates.

Everything a run sends is derived from its ``--seed``: the catalog's sizes
and bytes, the order of the request sequence and the open-loop arrival
schedule.  The server only sees the generated files and requests.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass

from repro.workload.dataset import materialize_catalog
from repro.workload.traces import CS_TRACE, TraceWorkload

#: The fig11-hotpath catalog: 48 files of 4 KB with Zipf(1.2) popularity.
HOTPATH_FILES = 48
HOTPATH_FILE_SIZE = 4096
HOTPATH_ALPHA = 1.2
HOTPATH_SEQUENCE = 4096

#: Length of the cs-trace request sequence.  The run walks it with one
#: cursor (warm-up, closed loop, open loop); at this length it touches
#: more distinct files than the 6,000-entry pathname cache holds.
CS_SEQUENCE = 60_000
PATHNAME_CACHE_ENTRIES = 6000

#: Files of the cs-trace catalog checked by the independent verifier
#: (besides the smallest and the largest file).
CS_VERIFY_SAMPLE = 40


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server build."""

    name: str
    why: str
    architecture: str
    catalog: str
    #: Loadgen mixes (exact error-diffusion shares of the request stream).
    conditional_fraction: float = 0.0
    range_fraction: float = 0.0
    #: Open-loop Poisson rate (req/s): fixed once, at about a fifth of the
    #: closed-loop ``rps`` this workload reached on the commit that
    #: introduced the benchmark (cached-small 14k, revalidate-range 10k,
    #: cs-trace 4.5k, cs-trace-mt 6k req/s).  Never re-derived per run.
    #: At half of it, a spell of CPU steal on a shared host (which can cut
    #: capacity by half or more) saturates the server, and that run's
    #: median latency grows five- to fiftyfold.
    open_rate: float = 1000.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cached-small",
            why="48 x 4 KB hot files, plain GETs on AMPED: every response is a hot-cache "
            "hit, so per-request overhead dominates",
            architecture="amped",
            catalog="hotpath",
            open_rate=3000.0,
        ),
        Workload(
            name="revalidate-range",
            why="same catalog with 40% If-None-Match (304) and 30% Range (206): the "
            "conditional/range planner on the hot path",
            architecture="amped",
            catalog="hotpath",
            conditional_fraction=0.4,
            range_fraction=0.3,
            open_rate=2000.0,
        ),
        Workload(
            name="cs-trace",
            why="Rice CS trace (12,000 files, 135 MB) on AMPED: working set beyond every "
            "cache, so translate, build_response, helpers and sendfile do the work",
            architecture="amped",
            catalog="cs",
            open_rate=900.0,
        ),
        Workload(
            name="cs-trace-mt",
            why="the cs-trace traffic against the MT build: blocking workers, their "
            "senders and the shared-cache lock",
            architecture="mt",
            catalog="cs",
            open_rate=1200.0,
        ),
    )
}


@dataclass
class Catalog:
    """A materialized document root and the request sequence over it."""

    root: str
    #: The seeded request sequence (URL paths), walked with one cursor.
    sequence: list
    #: Paths the independent verifier fetches in every request shape.
    verify_paths: list
    #: Length of the warm-up pass: the head of the sequence that fills the
    #: server's caches (for cs, the requests that touch as many distinct
    #: files as the pathname cache holds).
    warmup_requests: int


class Cursor:
    """The loadgen's path source: walks the sequence, wrapping around.

    One cursor is shared by every phase of a run, so the phases continue
    through the sequence instead of each replaying its head.
    """

    def __init__(self, sequence: list) -> None:
        self.sequence = sequence
        self.position = 0

    def __call__(self) -> str:
        path = self.sequence[self.position % len(self.sequence)]
        self.position += 1
        return path


def _hotpath(root: str, seed: int) -> Catalog:
    rng = random.Random(f"hotpath-catalog:{seed}")
    os.makedirs(root, exist_ok=True)
    sizes = {}
    for index in range(HOTPATH_FILES):
        payload = bytes(rng.randrange(32, 127) for _ in range(HOTPATH_FILE_SIZE))
        name = f"doc_{index:03d}.html"
        with open(os.path.join(root, name), "wb") as handle:
            handle.write(payload)
        sizes["/" + name] = HOTPATH_FILE_SIZE
    paths = sorted(sizes)
    # Popularity rank -> file is a seeded shuffle, so the hottest file
    # differs from seed to seed.
    rng.shuffle(paths)
    weights = [1.0 / (rank**HOTPATH_ALPHA) for rank in range(1, HOTPATH_FILES + 1)]
    sequence = rng.choices(paths, weights=weights, k=HOTPATH_SEQUENCE)
    return Catalog(root, sequence, sorted(sizes), warmup_requests=HOTPATH_SEQUENCE)


def _cs(root: str, seed: int) -> Catalog:
    # File sizes and popularity ranks are the trace's own (CS_TRACE is one
    # fixed trace, so every seed transfers the same bytes on average); the
    # seed draws the file contents and picks the request stream.
    trace = TraceWorkload(CS_TRACE)
    marker = os.path.join(root, ".complete")
    if not os.path.exists(marker):
        shutil.rmtree(root, ignore_errors=True)
        materialize_catalog(root, trace.files, seed=seed)
        # Flush now, so the kernel's write-back of 135 MB does not land in
        # the timed phases.
        os.sync()
        with open(marker, "w") as handle:
            handle.write("ok\n")
    sizes = {trace.path_for(file_id): size for file_id, size in trace.files}
    sequence = trace.request_paths(CS_SEQUENCE, client_id=seed)
    touched = set()
    warmup = 0
    for index, path in enumerate(sequence):
        touched.add(path)
        if not warmup and len(touched) == PATHNAME_CACHE_ENTRIES:
            warmup = index + 1
    if len(touched) <= PATHNAME_CACHE_ENTRIES:
        raise RuntimeError(
            f"cs-trace sequence touches only {len(touched)} distinct files, "
            f"not more than the {PATHNAME_CACHE_ENTRIES}-entry pathname cache"
        )
    by_size = sorted(sizes, key=sizes.get)
    rng = random.Random(f"cs-verify:{seed}")
    sample = rng.sample(sorted(set(sequence)), CS_VERIFY_SAMPLE)
    verify = sorted(set(sample) | {by_size[0], by_size[-1]})
    return Catalog(root, sequence, verify, warmup_requests=warmup)


def build_catalog(workload: Workload, cache_dir: str, seed: int) -> Catalog:
    """Materialize ``workload``'s catalog for ``seed`` under ``cache_dir``.

    The hotpath catalog is small and rewritten every run.  The cs catalog
    (135 MB) is kept per seed, so ``cs-trace`` and ``cs-trace-mt`` runs with
    the same seed share it; only the most recent cs catalogs are kept.
    """
    if workload.catalog == "hotpath":
        root = os.path.join(cache_dir, f"hotpath-{seed}")
        shutil.rmtree(root, ignore_errors=True)
        return _hotpath(root, seed)
    root = os.path.join(cache_dir, f"cs-{seed}")
    _evict_old_catalogs(cache_dir, keep=root)
    return _cs(root, seed)


def _evict_old_catalogs(cache_dir: str, keep: str, limit: int = 2) -> None:
    if not os.path.isdir(cache_dir):
        return
    roots = [
        os.path.join(cache_dir, name)
        for name in os.listdir(cache_dir)
        if name.startswith("cs-") and os.path.join(cache_dir, name) != keep
    ]
    roots.sort(key=os.path.getmtime, reverse=True)
    for stale in roots[limit - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
