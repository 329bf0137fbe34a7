"""Block-diagonal packing of many graphs into one CSR union.

Many small independent graphs (parameter sweeps over generator ensembles,
per-snapshot dynamic inputs, benchmark suites) waste the vectorized sweep
kernels' throughput when run one at a time: every sweep pays fixed NumPy
dispatch and kernel-launch overhead on a tiny array.  Packing the graphs
as the *disconnected union* — one CSR whose adjacency is the block
diagonal of the inputs — lets one kernel invocation sweep all of them at
once (:func:`repro.core.batch.louvain_batch`), amortizing the fixed costs
over the whole batch.

The union is exact, not approximate: there are no edges between blocks,
so every per-vertex quantity of graph ``g`` is unchanged, community labels
initialized per block stay inside their block, and any per-graph reduction
over a block slice equals the same reduction on the standalone graph —
including bitwise, because the packed arrays are contiguous copies of the
originals in the same order.  The only quantity that is *not* per-graph is
the modularity normalizer ``m``; the batched sweep therefore normalizes
per vertex (``m_v``/``two_m_sq_v`` in
:func:`repro.core.sweep.compute_targets_vectorized`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.errors import ValidationError

__all__ = ["GraphBatch", "pack_graphs"]


@dataclass(frozen=True)
class GraphBatch:
    """A block-diagonal union of graphs plus the per-graph offsets.

    Attributes
    ----------
    graph:
        The disconnected union: vertex ``v`` of input graph ``g`` is union
        vertex ``vertex_offsets[g] + v``; its adjacency row is a shifted
        copy of the original row.
    vertex_offsets:
        ``(B + 1,)`` exclusive prefix sums of the input vertex counts.
    entry_offsets:
        ``(B + 1,)`` exclusive prefix sums of the input CSR entry counts
        (``graph.indices``/``graph.weights`` slice bounds per block).
    """

    graph: CSRGraph
    vertex_offsets: np.ndarray
    entry_offsets: np.ndarray

    @property
    def num_graphs(self) -> int:
        return int(self.vertex_offsets.shape[0] - 1)

    def block(self, g: int) -> slice:
        """Vertex slice of input graph ``g`` within the union."""
        return slice(int(self.vertex_offsets[g]),
                     int(self.vertex_offsets[g + 1]))

    def entry_block(self, g: int) -> slice:
        """CSR-entry slice of input graph ``g`` within the union."""
        return slice(int(self.entry_offsets[g]),
                     int(self.entry_offsets[g + 1]))

    def num_vertices_of(self, g: int) -> int:
        return int(self.vertex_offsets[g + 1] - self.vertex_offsets[g])

    def vertex_graph_ids(self) -> np.ndarray:
        """``(n_union,)`` graph index owning each union vertex."""
        return np.repeat(
            np.arange(self.num_graphs, dtype=np.int64),
            np.diff(self.vertex_offsets).astype(np.int64),
        )

    def per_vertex(self, per_graph_values) -> np.ndarray:
        """Expand a ``(B,)`` per-graph array to ``(n_union,)`` per vertex."""
        values = np.asarray(per_graph_values)
        if values.shape != (self.num_graphs,):
            raise ValidationError(
                f"expected ({self.num_graphs},) per-graph values, "
                f"got {values.shape}"
            )
        return np.repeat(values,
                         np.diff(self.vertex_offsets).astype(np.int64))

    def subgraph(self, g: int) -> CSRGraph:
        """Reconstruct input graph ``g`` from its union block.

        The returned graph equals the packed input exactly (same indptr,
        indices, and weights arrays, element for element).
        """
        vs, es = self.block(g), self.entry_block(g)
        indptr = self.graph.indptr[vs.start:vs.stop + 1] - es.start
        return CSRGraph(
            indptr,
            self.graph.indices[es] - vs.start,
            self.graph.weights[es],
            validate=False,
        )

    def split(self, per_vertex_values: np.ndarray) -> list[np.ndarray]:
        """Cut an ``(n_union,)`` array into per-graph block copies."""
        values = np.asarray(per_vertex_values)
        if values.shape[0] != self.graph.num_vertices:
            raise ValidationError(
                "per-vertex array does not match the union's vertex count"
            )
        return [values[self.block(g)].copy() for g in range(self.num_graphs)]


def pack_graphs(graphs: "Sequence[CSRGraph]") -> GraphBatch:
    """Pack graphs into their block-diagonal union.

    Parameters
    ----------
    graphs:
        Any sequence of :class:`CSRGraph` (already validated at their own
        construction; the union is assembled with ``validate=False`` since
        shifting rows preserves every invariant).  Weight dtypes are
        promoted to the widest member (float32 blocks stay float32 only
        when every member is float32).

    Examples
    --------
    >>> from repro.graph.generators import two_cliques_bridge
    >>> batch = pack_graphs([two_cliques_bridge(3), two_cliques_bridge(4)])
    >>> batch.num_graphs, batch.graph.num_vertices
    (2, 14)
    >>> batch.subgraph(1) == two_cliques_bridge(4)
    True
    """
    if len(graphs) == 0:
        raise ValidationError("pack_graphs requires at least one graph")
    for g in graphs:
        if not isinstance(g, CSRGraph):
            raise ValidationError("pack_graphs takes CSRGraph instances")

    vertex_offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    entry_offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    for i, g in enumerate(graphs):
        vertex_offsets[i + 1] = vertex_offsets[i] + g.num_vertices
        entry_offsets[i + 1] = entry_offsets[i] + g.num_entries

    n_union = int(vertex_offsets[-1])
    nnz = int(entry_offsets[-1])
    indptr = np.zeros(n_union + 1, dtype=np.int64)
    indices = np.empty(nnz, dtype=np.int64)
    weight_dtype = (np.float32 if all(g.weights.dtype == np.float32
                                      for g in graphs) else np.float64)
    weights = np.empty(nnz, dtype=weight_dtype)
    for i, g in enumerate(graphs):
        vs = slice(int(vertex_offsets[i]), int(vertex_offsets[i + 1]))
        es = slice(int(entry_offsets[i]), int(entry_offsets[i + 1]))
        indptr[vs.start + 1:vs.stop + 1] = g.indptr[1:] + es.start
        indices[es] = g.indices + vs.start
        weights[es] = g.weights
    return GraphBatch(
        graph=CSRGraph(indptr, indices, weights, validate=False),
        vertex_offsets=vertex_offsets,
        entry_offsets=entry_offsets,
    )
