"""Pathname translation cache (paper Section 5.2).

The pathname translation cache maintains mappings between requested
filenames (e.g. ``/~bob/``) and actual files on disk (e.g.
``/home/users/bob/public_html/index.html``).  It lets Flash avoid invoking
the pathname translation helpers for every incoming request, reducing both
per-request processing and the number of helper processes the server needs;
the memory spent on the cache is recovered by the reduction in helper
processes.

Entries record the translated path along with the file's size and
modification time (obtained during the "Find file" step), because the
response header cache and the mapped-file cache key off the same metadata.
An entry is revalidated lazily: when the underlying file's mtime or size
changes, the entry is refreshed and dependent caches are notified via the
``on_invalidate`` callback (this is how the response-header cache avoids
needing its own invalidation mechanism, Section 5.3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cache.lru import LRUCache
from repro.http.response import make_etag

#: Default entry limit used by the paper's evaluation for the full Flash
#: configuration (Section 6: "a pathname cache limit of 6000 entries").
DEFAULT_MAX_ENTRIES = 6000


@dataclass(frozen=True)
class PathnameEntry:
    """A cached URL-to-file translation.

    Attributes
    ----------
    uri:
        The normalized request path that was translated.
    filesystem_path:
        Absolute path of the file that serves this URI.
    size:
        File size in bytes at translation time.
    mtime:
        File modification time at translation time.
    mtime_ns:
        Modification time in integer nanoseconds (``stat.st_mtime_ns``),
        the second ingredient of the strong entity-tag minted at
        translation time.  ``0`` (legacy constructors) falls back to a
        value derived from ``mtime``.
    """

    uri: str
    filesystem_path: str
    size: int
    mtime: float
    mtime_ns: int = 0

    @property
    def etag(self) -> str:
        """The strong entity-tag for the file state this entry validated.

        Minted from ``(size, mtime_ns)`` — see
        :func:`repro.http.response.make_etag`.  Every translation site
        records ``st_mtime_ns``, so the tag is identical no matter which
        architecture (or helper) performed the translation; the
        float-derived fallback only serves tests that construct entries
        by hand.
        """
        mtime_ns = self.mtime_ns or int(self.mtime * 1_000_000_000)
        return make_etag(self.size, mtime_ns)


class PathnameCache:
    """LRU cache of URL to filesystem-path translations.

    Parameters
    ----------
    translate:
        The (potentially blocking) translation function, typically
        :func:`repro.http.uri.translate_path` bound to a document root, or a
        helper-process proxy in the AMPED server.  It must return the
        translated absolute path.
    max_entries:
        Capacity of the cache.
    on_invalidate:
        Callback invoked with the URI whenever a cached translation is found
        to be stale; the Flash server wires this to the response-header and
        mapped-file caches.
    """

    def __init__(
        self,
        translate: Callable[[str], str],
        max_entries: int = DEFAULT_MAX_ENTRIES,
        on_invalidate: Optional[Callable[[str, PathnameEntry], None]] = None,
    ):
        self._translate = translate
        self._cache: LRUCache[str, PathnameEntry] = LRUCache(max_entries=max_entries)
        self._on_invalidate = on_invalidate
        self.revalidations = 0

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, uri: str) -> bool:
        return uri in self._cache

    @property
    def hits(self) -> int:
        """Number of lookups satisfied without invoking the translator."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Number of lookups that required a translation."""
        return self._cache.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit the cache."""
        return self._cache.hit_rate

    def lookup(self, uri: str, *, revalidate: bool = True) -> PathnameEntry:
        """Return the translation for ``uri``, translating on a miss.

        When ``revalidate`` is true (the default), a hit is checked against
        the filesystem with a cheap ``stat`` and refreshed if the file
        changed; this mirrors Flash's mapping-cache-driven invalidation of
        dependent caches.

        Any exception raised by the translation function (``NotFoundError``
        and friends) propagates to the caller; negative results are not
        cached, matching the original server (a cache of valid URLs only).
        """
        entry = self._cache.get(uri)
        if entry is not None:
            if not revalidate:
                return entry
            stat = self._safe_stat(entry.filesystem_path)
            if (
                stat is not None
                and stat.st_size == entry.size
                and stat.st_mtime == entry.mtime
            ):
                return entry
            # The underlying file changed or vanished: invalidate dependents
            # and fall through to a fresh translation.
            self.revalidations += 1
            self._cache.remove(uri)
            if self._on_invalidate is not None:
                self._on_invalidate(uri, entry)

        path = self._translate(uri)
        stat = os.stat(path)
        entry = PathnameEntry(
            uri=uri,
            filesystem_path=path,
            size=stat.st_size,
            mtime=stat.st_mtime,
            mtime_ns=stat.st_mtime_ns,
        )
        self._cache.put(uri, entry)
        return entry

    def insert(self, entry: PathnameEntry) -> None:
        """Insert a translation produced elsewhere (e.g. by a helper).

        The AMPED server's translation helpers return completed
        :class:`PathnameEntry` objects over IPC; the main process records
        them here so subsequent requests for the same URI hit the cache.
        """
        self._cache.put(entry.uri, entry)

    def invalidate(self, uri: str) -> None:
        """Explicitly drop the translation for ``uri`` (and notify dependents)."""
        entry = self._cache.remove(uri)
        if entry is not None and self._on_invalidate is not None:
            self._on_invalidate(uri, entry)

    def clear(self) -> None:
        """Drop every translation."""
        self._cache.clear()

    @staticmethod
    def _safe_stat(path: str):
        try:
            return os.stat(path)
        except OSError:
            return None
