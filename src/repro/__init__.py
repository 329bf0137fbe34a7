"""repro — parallel heuristics for scalable community detection.

A from-scratch Python reproduction of

    Hao Lu, Mahantesh Halappanavar, Ananth Kalyanaraman,
    "Parallel heuristics for scalable community detection",
    Parallel Computing 47 (2015) 19-37 (preliminary version: IPDPSW 2014),

i.e. the algorithmic core of the *Grappolo* community-detection package:
a parallelization of the Louvain modularity-optimization method using the
minimum-label heuristic, distance-1 graph coloring, and vertex-following
preprocessing.

Quick start
-----------
>>> from repro import CSRGraph, louvain
>>> g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
>>> result = louvain(g)

The top-level namespace re-exports the most commonly used pieces; the
subpackages hold the full system:

``repro.graph``
    CSR graph substrate, builders, I/O, synthetic generators, statistics,
    and the between-phase coarsening (graph rebuild) step.
``repro.coloring``
    Serial and parallel-semantics distance-1 (and distance-k) vertex
    coloring, plus balanced recoloring.
``repro.core``
    The Louvain template: modularity (Eq. 3), modularity gain (Eq. 4),
    the serial algorithm, the parallel sweep (Algorithm 1) with the
    minimum-label heuristics, vertex following, and the multi-phase driver.
``repro.parallel``
    Execution backends (serial / thread pool), vertex partitioners, and the
    simulated-machine cost model used to regenerate the paper's scaling
    figures.
``repro.metrics``
    Pair-counting partition comparison (specificity, sensitivity, overlap
    quality, Rand index) and performance profiles.
``repro.datasets``
    Synthetic stand-ins for the paper's eleven real-world inputs.
``repro.bench``
    The experiment harness that regenerates every table and figure of the
    paper's evaluation section.
"""

from __future__ import annotations

from repro._version import __version__
from repro.graph.csr import CSRGraph
from repro.graph.build import GraphBuilder
from repro.core.config import HeuristicVariant, LouvainConfig
from repro.core.driver import LouvainResult, louvain
from repro.core.louvain_serial import louvain_serial
from repro.core.modularity import modularity

__all__ = [
    "CSRGraph",
    "GraphBuilder",
    "HeuristicVariant",
    "LouvainConfig",
    "LouvainResult",
    "__version__",
    "louvain",
    "louvain_serial",
    "modularity",
]
