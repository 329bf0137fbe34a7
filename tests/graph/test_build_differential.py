"""Differential tests for CSR assembly and validation.

``_assemble_csr`` orders entries with one stable ``argsort`` on the key
``src * n + dst``, and ``CSRGraph`` checks symmetry by comparing the graph
with its transpose.  The ``lexsort`` versions they replaced are kept here
as oracles: both must accept and reject the same inputs, raise the same
error class and build bitwise-equal graphs, including ``combine="sum"``
merges whose result depends on the order of the addends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.build import MAX_VERTICES, from_edge_array
from repro.graph.csr import CSRGraph
from repro.utils.errors import GraphStructureError

SETTINGS = dict(max_examples=200, deadline=None)
_COMBINERS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


# ---------------------------------------------------------------------------
# Oracles: the lexsort implementations
# ---------------------------------------------------------------------------
def old_validate(indptr, indices, weights) -> None:
    n = indptr.size - 1
    if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
        raise GraphStructureError("indptr ends")
    if np.any(np.diff(indptr) < 0):
        raise GraphStructureError("indptr must be non-decreasing")
    if indices.size:
        if indices.min() < 0 or indices.max() >= n:
            raise GraphStructureError("neighbor ids out of range [0, n)")
        if not np.all(np.isfinite(weights)):
            raise GraphStructureError("edge weights must be finite")
        if not np.all(weights > 0):
            raise GraphStructureError("edge weights must be strictly positive")
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    if indices.size:
        same_row = row_of[1:] == row_of[:-1]
        if np.any(same_row & (indices[1:] <= indices[:-1])):
            raise GraphStructureError("adjacency rows must be strictly increasing")
    loops = indices == row_of
    u, v, w = row_of[~loops], indices[~loops], weights[~loops]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((w, hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    if lo.size % 2 != 0:
        raise GraphStructureError("adjacency is not symmetric")
    if lo.size:
        a, b = slice(0, None, 2), slice(1, None, 2)
        if (np.any(lo[a] != lo[b]) or np.any(hi[a] != hi[b])
                or np.any(w[a] != w[b])):
            raise GraphStructureError("adjacency (or its weights) is not symmetric")


def old_assemble_csr(num_vertices, src, dst, w, combine):
    if combine != "error" and combine not in _COMBINERS:
        raise ValueError(f"unknown combine policy: {combine!r}")
    if src.size == 0:
        return CSRGraph.empty(num_vertices)
    if src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= num_vertices:
        raise GraphStructureError("edge endpoints out of range")
    if not np.all(w > 0):
        raise GraphStructureError("edge weights must be strictly positive")
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    dup = np.zeros(src.size, dtype=bool)
    dup[1:] = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if dup.any():
        if combine == "error":
            raise GraphStructureError("multi-edge detected")
        starts = np.flatnonzero(~dup)
        w = _COMBINERS[combine].reduceat(w, starts)
        src, dst = src[starts], dst[starts]
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
    old_validate(indptr, dst, w)
    return CSRGraph(indptr, dst, w, validate=False)


def old_from_edge_array(num_vertices, edges, weights=None, *, combine="error"):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    m = edges.shape[0]
    w = (np.ones(m) if weights is None
         else np.asarray(weights, dtype=np.float64))
    u, v = edges[:, 0], edges[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    loops = lo == hi
    src = np.concatenate([lo, hi[~loops]])
    dst = np.concatenate([hi, lo[~loops]])
    ww = np.concatenate([w, w[~loops]])
    if combine == "error":
        order = np.lexsort((hi, lo))
        clo, chi = lo[order], hi[order]
        if np.any((clo[1:] == clo[:-1]) & (chi[1:] == chi[:-1])):
            raise GraphStructureError("multi-edge detected")
    return old_assemble_csr(num_vertices, src, dst, ww, combine)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (GraphStructureError, ValueError) as exc:
        return exc


def _assert_same_outcome(new, old):
    if isinstance(old, Exception):
        assert type(new) is type(old), (new, old)
    else:
        assert isinstance(new, CSRGraph), new
        assert new == old
        assert new.weights.dtype == old.weights.dtype


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------
#: Weights whose sums depend on the order of the addends
#: (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1).
WEIGHTS = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 2.5, 1e-3, 1e16])


@st.composite
def edge_inputs(draw, valid=True):
    n = draw(st.integers(1, 10))
    ids = st.integers(0, n - 1) if valid else st.integers(-1, n)
    m = draw(st.integers(0, 30))
    edges = draw(st.lists(st.tuples(ids, ids), min_size=m, max_size=m))
    weight = WEIGHTS if valid else st.one_of(WEIGHTS, st.sampled_from(
        [0.0, -1.0, float("inf"), float("nan")]))
    weights = draw(st.lists(weight, min_size=m, max_size=m))
    # Repeat some edges, in either orientation, so duplicates merge.
    for _ in range(draw(st.integers(0, 6)) if m else 0):
        k = draw(st.integers(0, m - 1))
        a, b = edges[k]
        edges.append((b, a) if draw(st.booleans()) else (a, b))
        weights.append(draw(weight))
    combine = draw(st.sampled_from(["error", "sum", "min", "max"]))
    use_weights = draw(st.booleans())
    return (n, np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            np.asarray(weights) if use_weights else None, combine)


@settings(**SETTINGS)
@given(case=edge_inputs())
def test_assembly_matches_lexsort_oracle(case):
    n, edges, weights, combine = case
    _assert_same_outcome(
        _outcome(from_edge_array, n, edges, weights, combine=combine),
        _outcome(old_from_edge_array, n, edges, weights, combine=combine),
    )


@settings(**SETTINGS)
@given(case=edge_inputs(valid=False))
def test_assembly_rejects_what_the_oracle_rejects(case):
    n, edges, weights, combine = case
    _assert_same_outcome(
        _outcome(from_edge_array, n, edges, weights, combine=combine),
        _outcome(old_from_edge_array, n, edges, weights, combine=combine),
    )


@pytest.mark.parametrize("weights", [[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
def test_sum_merge_keeps_input_order(weights):
    edges = [(0, 1), (1, 0), (0, 1)]
    g = from_edge_array(2, edges, weights, combine="sum")
    assert g.edge_weight(0, 1) == np.add.reduceat(np.asarray(weights), [0])[0]
    assert g == old_from_edge_array(2, edges, weights, combine="sum")


def test_multi_edge_message_names_the_first_pair():
    with pytest.raises(GraphStructureError, match="between 1 and 2"):
        from_edge_array(4, [(3, 3), (2, 1), (3, 3), (1, 2)])


def test_vertex_count_beyond_the_sort_key_is_rejected():
    # The key src * n + dst must fit in int64; n this large would need a
    # 24 GB indptr, so it is refused before anything is allocated.
    from_edge_array(0, np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(GraphStructureError, match="exceeds"):
        from_edge_array(MAX_VERTICES + 1, [(0, 1)])
    assert (MAX_VERTICES - 1) * MAX_VERTICES + MAX_VERTICES - 1 \
        <= np.iinfo(np.int64).max


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
@st.composite
def perturbed_csr(draw):
    n, edges, weights, combine = draw(edge_inputs())
    g = from_edge_array(n, edges, weights, combine="sum")
    indptr = g.indptr.copy()
    indices = g.indices.copy()
    w = g.weights.copy()
    nnz = indices.size
    op = draw(st.sampled_from(["none", "flip", "drop", "add", "unsort"]))
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    if op == "flip" and nnz:
        e = draw(st.integers(0, nnz - 1))
        w[e] = w[e] * 2.0
    elif op == "drop" and nnz:
        e = draw(st.integers(0, nnz - 1))
        indices = np.delete(indices, e)
        w = np.delete(w, e)
        indptr[row_of[e] + 1:] -= 1
    elif op == "add":
        r = draw(st.integers(0, n - 1))
        c = draw(st.integers(0, n - 1))
        row = indices[indptr[r]:indptr[r + 1]]
        at = int(indptr[r] + np.searchsorted(row, c))
        indices = np.insert(indices, at, c)
        w = np.insert(w, at, 1.0)
        indptr[r + 1:] += 1
    elif op == "unsort":
        rows = np.flatnonzero(np.diff(indptr) >= 2)
        if rows.size:
            r = int(draw(st.sampled_from(rows.tolist())))
            a = int(indptr[r])
            indices[[a, a + 1]] = indices[[a + 1, a]]
            w[[a, a + 1]] = w[[a + 1, a]]
    if draw(st.booleans()):
        w = w.astype(np.float32)
    return indptr, indices, w


@settings(**SETTINGS)
@given(arrays=perturbed_csr())
def test_symmetry_check_matches_lexsort_oracle(arrays):
    indptr, indices, weights = arrays
    new = _outcome(CSRGraph, indptr, indices, weights, validate=True)
    old = _outcome(old_validate, indptr, indices, weights)
    if old is None:
        assert isinstance(new, CSRGraph), new
    else:
        assert type(new) is type(old), (new, old)


def test_transpose_check_catches_one_way_weight():
    # Same structure both ways, different weights across the diagonal.
    with pytest.raises(GraphStructureError, match="not symmetric"):
        CSRGraph([0, 1, 2], [1, 0], [1.0, 2.0])
    with pytest.raises(GraphStructureError, match="not symmetric"):
        CSRGraph([0, 1, 1], [1], [1.0])
