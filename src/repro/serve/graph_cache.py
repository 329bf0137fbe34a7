"""Per-worker cache of parsed graphs, keyed by content.

A serve worker lives for many jobs, and jobs repeat graphs: parsing a
text graph file can take as long as detecting its communities.  Each
worker therefore keeps the graphs it built in one small LRU, owned by
the worker loop (never a module global, so a forked worker inherits
nothing and a restarted one starts cold).

The key is the graph's *content*, never its path or file metadata:

* a file ref keys on its reader (:func:`repro.graph.io.detect_format`)
  plus the sha256 of the file's bytes, so a file rewritten in place —
  same size, same mtime — is parsed afresh, and the same bytes under a
  ``.metis`` and a ``.txt`` name are two graphs;
* a ``planted:``/``dataset:`` ref keys on its generator and the parsed,
  defaulted arguments (:class:`~repro.serve.job.GraphSource`), which
  determine the graph.

A file is hashed before its parse and again after it; an entry is
inserted only when both digests agree, so a file rewritten mid-parse
serves that one job exactly as an uncached parse would and is never
cached.  Sharing one graph across jobs cannot change a result: the CSR
arrays are read-only and the graph's lazy state (degrees, ``m``, the
row view) is a deterministic function of the content.

Each entry also keeps its graph's phase-0 colors
(:class:`PhaseColors`, read by :func:`repro.core.pipeline.use_phase_colors`):
a fresh run's first coloring depends only on the graph, the VF mode,
the colorer settings and the seed, so jobs that repeat those color
once per worker.  The colors count against the same byte budget and
leave with their graph.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from repro.serve.job import parse_graph_ref

__all__ = ["GRAPH_CACHE_BYTES", "GraphCache", "PhaseColors"]

#: Bytes of graphs one worker keeps: :attr:`CSRGraph.nbytes` plus the
#: index arrays of the built row view, plus each graph's
#: :class:`PhaseColors`.  A larger graph is used uncached.
GRAPH_CACHE_BYTES = 256 << 20

_READ_BYTES = 1 << 20


def _file_digest(path: str) -> str:
    """The sha256 hex digest of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_READ_BYTES):
            digest.update(block)
    return digest.hexdigest()


class PhaseColors:
    """One cached graph's phase-0 colors, keyed by the run settings that
    determine them (see :func:`repro.core.pipeline.use_phase_colors`)."""

    def __init__(self, cache: "GraphCache", key):
        self._cache = cache
        self._key = key
        self._colors: dict = {}
        #: Bytes of the stored color arrays.
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._colors)

    def get(self, key):
        """The colors stored under ``key``, or ``None``."""
        return self._colors.get(key)

    def put(self, key, colors) -> None:
        """Keep ``colors`` (a read-only array) under ``key`` while the
        graph is cached, evicting other graphs to make room; colors that
        would not fit beside their graph are not kept."""
        cache = self._cache
        entry = cache._entries.get(self._key)
        if (entry is not None and entry[2] is self
                and cache._make_room(colors.nbytes, keep=self._key)):
            self._colors[key] = colors
            self.nbytes += colors.nbytes
            cache.nbytes += colors.nbytes


class GraphCache:
    """An LRU of parsed graphs within a byte budget (see the module doc)."""

    def __init__(self):
        #: Total size of the cached entries, their colors included, at
        #: most :data:`GRAPH_CACHE_BYTES`.
        self.nbytes = 0
        #: key -> (graph, graph bytes, PhaseColors), least recent first.
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def phase_colors(self, graph) -> "PhaseColors | None":
        """The colors memo of the entry holding ``graph`` (by identity),
        or ``None`` when ``graph`` is not cached."""
        for cached, _, colors in self._entries.values():
            if cached is graph:
                return colors
        return None

    def resolve(self, ref: str) -> "tuple[object, str]":
        """The graph ``ref`` names and how it was found: ``"hit"``,
        ``"miss"`` (built, then cached) or ``"uncached"`` (built, but
        larger than the budget or changed while it was read)."""
        source = parse_graph_ref(ref)
        if source.path is None:
            key = (source.kind, source.params)
        else:
            key = (source.kind, _file_digest(source.path))
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0], "hit"
        graph = source.build()
        if source.path is not None and _file_digest(source.path) != key[1]:
            return graph, "uncached"
        # A cached graph keeps the row view any later job's sweep builds
        # on it, so the entry is charged for one; building it here makes
        # the size exact.  Its data array is the graph's weights, so only
        # the index copies are new bytes.
        view = graph.row_view
        size = graph.nbytes + view.indptr.nbytes + view.indices.nbytes
        if size > GRAPH_CACHE_BYTES:
            return graph, "uncached"
        self._make_room(size)
        self._entries[key] = (graph, size, PhaseColors(self, key))
        self.nbytes += size
        return graph, "miss"

    def _make_room(self, size: int, keep=None) -> bool:
        """Evict least recently used entries other than ``keep`` until
        ``size`` more bytes fit; false when they cannot."""
        while self.nbytes + size > GRAPH_CACHE_BYTES:
            victim = next((k for k in self._entries if k != keep), None)
            if victim is None:
                return False
            _, graph_bytes, colors = self._entries.pop(victim)
            self.nbytes -= graph_bytes + colors.nbytes
        return True
