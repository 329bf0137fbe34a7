"""Differential tests: the row-block sweep kernel against its predecessors.

The oracles below are the kernel as it stood before the row-block
rewrite: a ``gather_rows`` position expansion for the plan, pairs
returned with an explicit owner per pair, a selection tail built on
``run_boundaries`` segments and a winners compress, and a commit that
re-gathers the movers' rows by position.  More pin the later rewrites:
SciPy's generic ``A @ S`` for the single-pass product; the full-segment
tail (every pair reduced, own pairs masked to −inf) for the positive-
pair scatter selection; and the per-plan self-loop strip for plans cut
from the workspace's loop-free row view.  Each rewrite claims bitwise
identity, so every comparison here is ``==``, never approximate:
targets, pair arrays, plan blocks, the incremental-modularity deltas,
the frontier mask and the committed state.  The pinned digests at the
end carry the same claim through whole ``louvain`` runs.
"""

import hashlib
import math
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import sparse

from repro.core.driver import louvain
from repro.core.louvain_serial import louvain_serial
from repro.core.sweep import (
    SweepState,
    apply_moves_tracked,
    compute_targets_vectorized,
    init_state,
)
from repro.core.vf import vf_merge
from repro.core.workspace import (
    GatherPlan,
    SweepWorkspace,
    aggregate_pairs,
    build_plan,
    loop_free_rows,
)
from repro.graph.coarsen import coarsen
from repro.graph.csr import CSRGraph, gather_rows
from repro.distributed.louvain_dist import distributed_louvain
from repro.graph.generators import planted_partition, rmat
from repro.robust.budget import RunBudget
from repro.utils.arrays import run_boundaries
from repro.utils.errors import FaultInjected, ValidationError

MODES = ("bincount", "matmul", "sort")


# ---------------------------------------------------------------------------
# Oracles: the pre-rewrite plan, tail and commit
# ---------------------------------------------------------------------------
def oracle_plan(graph, vertices):
    positions, owner = gather_rows(graph, vertices)
    dst = graph.indices[positions]
    non_loop = dst != vertices[owner]
    return (owner[non_loop], dst[non_loop],
            graph.weights[positions[non_loop]])


def oracle_pairs(graph, vertices, comm, mode):
    """``(pair_owner, pair_comm, e)``, grouped by owner."""
    n = graph.num_vertices
    owner, dst, weights = oracle_plan(graph, vertices)
    k = vertices.size
    if mode == "bincount":
        key = owner * (n + 1) + comm[dst]
        totals = np.bincount(key, weights=weights, minlength=k * (n + 1))
        pairs = np.flatnonzero(totals)
        pair_owner = pairs // (n + 1)
        return pair_owner, pairs - pair_owner * (n + 1), totals[pairs]
    if mode == "matmul":
        counts = np.bincount(owner, minlength=k)
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        block = sparse.csr_matrix((weights, dst, indptr), shape=(k, n))
        indicator = sparse.csr_matrix(
            (np.ones(n), comm, np.arange(n + 1)), shape=(n, n))
        product = block @ indicator
        pair_owner = np.repeat(np.arange(k), np.diff(product.indptr))
        return pair_owner, product.indices.astype(np.int64), product.data
    dst_comm = comm[dst]
    key = owner * (n + 1) + dst_comm
    order = np.argsort(key, kind="stable")
    starts = run_boundaries(key[order])
    e = np.add.reduceat(weights[order], starts)
    return owner[order][starts], dst_comm[order][starts], e


def oracle_targets(graph, state, vertices, *, mode, use_min_label=True,
                   resolution=1.0, m_v=None, two_m_sq_v=None):
    n = graph.num_vertices
    m = graph.total_weight
    cur = state.comm[vertices]
    if vertices.size == 0 or (m_v is None and m <= 0):
        return cur.copy()
    if oracle_plan(graph, vertices)[0].size == 0:
        return cur.copy()
    pair_owner, pair_comm, e = oracle_pairs(graph, vertices, state.comm,
                                            mode)
    num_active = vertices.size
    k_v = graph.degrees[vertices]
    comm_degree = state.comm_degree
    e_cur = np.zeros(num_active, dtype=graph.weights.dtype)
    own_pairs = pair_comm == cur[pair_owner]
    e_cur[pair_owner[own_pairs]] = e[own_pairs]
    a_cur_excl = comm_degree[cur] - k_v
    penalty = resolution * (
        2.0 * k_v[pair_owner]
        * (a_cur_excl[pair_owner] - comm_degree[pair_comm])
    )
    if m_v is None:
        two_m_sq = (2.0 * m) ** 2
        gain = (e - e_cur[pair_owner]) / m + penalty / two_m_sq
    else:
        gain = ((e - e_cur[pair_owner]) / m_v[pair_owner]
                + penalty / two_m_sq_v[pair_owner])
    gain[own_pairs] = -math.inf
    best_gain = np.full(num_active, -math.inf, dtype=gain.dtype)
    chosen = np.full(num_active, n if use_min_label else -1, dtype=np.int64)
    seg_starts = run_boundaries(pair_owner)
    best_gain[pair_owner[seg_starts]] = np.maximum.reduceat(gain, seg_starts)
    winners = gain == best_gain[pair_owner]
    targets = cur.copy()
    win_owner = pair_owner[winners]
    win_starts = run_boundaries(win_owner)
    if win_starts.size:
        reduce = np.minimum if use_min_label else np.maximum
        chosen[win_owner[win_starts]] = reduce.reduceat(pair_comm[winners],
                                                        win_starts)
    move = best_gain > 0.0
    targets[move] = chosen[move]
    if use_min_label:
        size = state.comm_size
        suppress = ((targets != cur) & (size[cur] == 1)
                    & (size[targets] == 1) & (targets > cur))
        targets[suppress] = cur[suppress]
    return targets


def oracle_commit(graph, state, vertices, targets, frontier_out):
    """Returns ``(delta_intra, delta_degree_sq)``; mutates like the kernel."""
    cur = state.comm[vertices]
    moved_mask = targets != cur
    if not moved_mask.any():
        return 0.0, 0.0
    mv = vertices[moved_mask]
    src = cur[moved_mask]
    dst_comm = targets[moved_mask]
    k = graph.degrees[mv]
    n = graph.num_vertices
    positions, owner = gather_rows(graph, mv)
    nbr = graph.indices[positions]
    w = graph.weights[positions]
    mover_mask = np.zeros(n, dtype=bool)
    mover_mask[mv] = True
    both_moved = mover_mask[nbr]
    intra_entries = state.comm[nbr] == src[owner]
    s_before = float(w[intra_entries].sum())
    p_before = float(w[intra_entries & both_moved].sum())
    affected_mask = np.zeros(n, dtype=bool)
    affected_mask[src] = True
    affected_mask[dst_comm] = True
    affected = np.flatnonzero(affected_mask)
    a_before = state.comm_degree[affected].copy()
    state.comm[mv] = dst_comm
    np.subtract.at(state.comm_degree, src, k)
    np.add.at(state.comm_degree, dst_comm, k)
    np.subtract.at(state.comm_size, src, 1)
    np.add.at(state.comm_size, dst_comm, 1)
    a_after = state.comm_degree[affected]
    delta_degree_sq = float((a_after * a_after - a_before * a_before).sum())
    intra_after = state.comm[nbr] == dst_comm[owner]
    s_after = float(w[intra_after].sum())
    p_after = float(w[intra_after & both_moved].sum())
    frontier_out[mv] = True
    frontier_out[nbr] = True
    return (2.0 * (s_after - s_before) - (p_after - p_before),
            delta_degree_sq)


# ---------------------------------------------------------------------------
# Hypothesis inputs
# ---------------------------------------------------------------------------
@st.composite
def sweep_cases(draw):
    """A graph with self-loops, isolated vertices and float32 or float64
    weights; a mid-phase community state; and a frontier subset."""
    n = draw(st.integers(1, 60))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=8 * n))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    # A few small weights make exact gain ties (the min-label paths)
    # common; arbitrary ones make the sums' rounding order observable.
    if draw(st.booleans()):
        weight = st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.0])
    else:
        weight = st.floats(0.01, 10.0)
    weights = draw(st.lists(weight, min_size=len(edges),
                            max_size=len(edges)))
    graph = CSRGraph.from_edges(
        n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), weights)
    if draw(st.booleans()):
        graph = CSRGraph(graph.indptr, graph.indices,
                         graph.weights.astype(np.float32), validate=False)
    # Few labels make large communities, so the commit's intra sums run
    # over many entries.
    num_labels = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(0, num_labels - 1), min_size=n,
                           max_size=n))
    state = init_state(graph, np.asarray(labels, dtype=np.int64))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    frontier = np.flatnonzero(mask).astype(np.int64)
    if draw(st.booleans()):
        frontier = np.arange(n, dtype=np.int64)
    return graph, state, frontier


def clone(state):
    return SweepState(state.comm.copy(), state.comm_degree.copy(),
                      state.comm_size.copy())


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Kernel against oracle
# ---------------------------------------------------------------------------
class TestTargetsMatchOracle:
    @SETTINGS
    @given(case=sweep_cases(), mode=st.sampled_from(MODES),
           use_min_label=st.booleans(),
           resolution=st.sampled_from([1.0, 0.5, 2.0, 1.3]),
           with_workspace=st.booleans())
    def test_targets(self, case, mode, use_min_label, resolution,
                     with_workspace):
        graph, state, frontier = case
        expected = oracle_targets(graph, state, frontier, mode=mode,
                                  use_min_label=use_min_label,
                                  resolution=resolution)
        workspace = (SweepWorkspace(graph, aggregation=mode)
                     if with_workspace else None)
        got = compute_targets_vectorized(
            graph, state, frontier, use_min_label=use_min_label,
            resolution=resolution, workspace=workspace, aggregation=mode)
        np.testing.assert_array_equal(got, expected)

    @SETTINGS
    @given(case=sweep_cases(), mode=st.sampled_from(MODES),
           use_min_label=st.booleans())
    def test_batch_normalizer_hook(self, case, mode, use_min_label):
        """The per-vertex ``m_v``/``(2m)²`` hook of the batched pipeline,
        with ``m_v`` in the weight dtype as ``louvain_batch`` passes it."""
        graph, state, frontier = case
        m = graph.total_weight
        if m <= 0:
            return
        m_v = np.full(frontier.size, m, dtype=graph.weights.dtype)
        two_m_sq_v = np.full(frontier.size, (2.0 * m) ** 2)
        expected = oracle_targets(graph, state, frontier, mode=mode,
                                  use_min_label=use_min_label,
                                  m_v=m_v, two_m_sq_v=two_m_sq_v)
        got = compute_targets_vectorized(
            graph, state, frontier, use_min_label=use_min_label,
            aggregation=mode, m_v=m_v, two_m_sq_v=two_m_sq_v)
        np.testing.assert_array_equal(got, expected)


def indicator_product(block, comm, n):
    """SciPy's generic two-pass ``A @ S``: the single-pass product's oracle."""
    indicator = sparse.csr_matrix(
        (np.ones(n), comm, np.arange(n + 1)), shape=(n, n))
    return block @ indicator


def assert_same_pairs(plan, comm, n):
    pair_indptr, pair_comm, e, mode = aggregate_pairs(plan, comm, n,
                                                      "matmul")
    product = indicator_product(plan.block, comm, n)
    assert mode == "matmul"
    np.testing.assert_array_equal(pair_indptr, product.indptr)
    np.testing.assert_array_equal(pair_comm, product.indices)
    assert pair_comm.dtype == np.int64
    assert e.dtype == product.data.dtype == np.float64
    assert e.tobytes() == product.data.tobytes()


class TestSinglePassProduct:
    """``aggregate_pairs``' matmul mode calls SciPy's private C
    ``csr_matmat`` once, sized by the block; this pins it to the public
    ``@`` (and trips if the private signature drifts)."""

    @SETTINGS
    @given(case=sweep_cases(), data=st.data())
    def test_matches_generic_product(self, case, data):
        graph, _, frontier = case
        n = graph.num_vertices
        comm = np.asarray(data.draw(st.lists(
            st.integers(0, n - 1), min_size=n, max_size=n)), dtype=np.int64)
        assert_same_pairs(build_plan(graph, frontier), comm, n)

    def test_int64_indexed_block(self):
        """A block whose index arrays are int64 (SciPy's constructor
        would narrow them, so they are set after construction)."""
        n = 7
        block = sparse.csr_matrix(
            (np.array([0.5, 1.25, 3.0, 2.0, 0.75, 1.5]),
             np.array([1, 3, 3, 6, 0, 2]), np.array([0, 2, 2, 4, 6])),
            shape=(4, n))
        block.indices = block.indices.astype(np.int64)
        block.indptr = block.indptr.astype(np.int64)
        plan = GatherPlan(vertices=np.arange(4, dtype=np.int64),
                          block=block, degrees=np.ones(4),
                          num_entries=block.nnz)
        comm = np.array([2, 5, 2, 5, 0, 6, 5], dtype=np.int64)
        assert_same_pairs(plan, comm, n)


    @pytest.mark.parametrize("bad", [-1, 8])
    def test_rejects_labels_outside_the_accumulator(self, bad):
        """The C routine indexes unchecked, so a label outside [0, n) or
        a label array of the wrong length is refused before the call."""
        graph = planted_partition(2, 4, 1.0, 0.0, seed=0)
        plan = build_plan(graph, np.arange(8, dtype=np.int64))
        comm = np.zeros(8, dtype=np.int64)
        comm[3] = bad
        with pytest.raises(ValidationError):
            aggregate_pairs(plan, comm, 8, "matmul")
        with pytest.raises(ValidationError):
            aggregate_pairs(plan, np.zeros(7, dtype=np.int64), 8, "matmul")


def oracle_full_tail(graph, state, vertices, *, mode, use_min_label=True,
                     resolution=1.0, m_v=None, two_m_sq_v=None):
    """The selection as it stood before positive-pair selection: the gain
    of every pair in the kernel's operation order, own pairs masked to
    −inf, maximum and tie reductions over every non-empty segment.

    Returns ``(targets, any_positive)``, the latter telling whether any
    non-own pair had a positive gain."""
    n = graph.num_vertices
    m = graph.total_weight
    cur = state.comm[vertices]
    plan = build_plan(graph, vertices)
    if plan.block.nnz == 0:
        return cur.copy(), False
    pair_indptr, pair_comm, e, _ = aggregate_pairs(plan, state.comm, n, mode)
    counts = np.diff(pair_indptr)
    pair_owner = np.repeat(np.arange(vertices.size), counts)
    k_v = graph.degrees[vertices]
    comm_degree = state.comm_degree
    e_cur = np.zeros(vertices.size, dtype=graph.weights.dtype)
    own_pairs = pair_comm == cur[pair_owner]
    e_cur[pair_owner[own_pairs]] = e[own_pairs]
    gain = e - e_cur[pair_owner]
    if m_v is None:
        gain /= m
    else:
        gain = gain / m_v[pair_owner]
    penalty = (comm_degree[cur] - k_v)[pair_owner]
    penalty -= comm_degree[pair_comm]
    penalty *= (2.0 * k_v)[pair_owner]
    if resolution != 1.0:
        penalty *= resolution
    if m_v is None:
        penalty /= (2.0 * m) ** 2
    else:
        penalty /= two_m_sq_v[pair_owner]
    gain = penalty + gain
    gain[own_pairs] = -math.inf
    live = np.flatnonzero(counts)
    seg_starts = pair_indptr[live]
    best = np.maximum.reduceat(gain, seg_starts)
    winners = gain == np.repeat(best, counts[live])
    candidates = np.where(winners, pair_comm, n if use_min_label else -1)
    reduce = np.minimum if use_min_label else np.maximum
    chosen = reduce.reduceat(candidates, seg_starts)
    move = best > 0.0
    targets = cur.copy()
    targets[live[move]] = chosen[move]
    if use_min_label:
        size = state.comm_size
        suppress = ((targets != cur) & (size[cur] == 1)
                    & (size[targets] == 1) & (targets > cur))
        targets[suppress] = cur[suppress]
    return targets, bool(move.any())


SELECTION_RESOLUTIONS = [1.0, 0.7, 0.0, -0.5]


class TestPositivePairSelection:
    """Scatter-max and scatter-min (-max) over the positive non-own pairs
    pick the targets the full-segment tail picks — also at ``resolution
    ≤ 0``, where an own pair's gain can be positive and must still never
    win, and on a first sweep from singletons, where every pair is
    positive and the kernel skips the compress."""

    @SETTINGS
    @given(case=sweep_cases(), mode=st.sampled_from(MODES),
           use_min_label=st.booleans(),
           resolution=st.sampled_from(SELECTION_RESOLUTIONS),
           batch_hook=st.booleans())
    def test_targets(self, case, mode, use_min_label, resolution,
                     batch_hook):
        graph, state, frontier = case
        m = graph.total_weight
        if m <= 0:
            return
        hook = {}
        if batch_hook:
            hook = dict(
                m_v=np.full(frontier.size, m, dtype=graph.weights.dtype),
                two_m_sq_v=np.full(frontier.size, (2.0 * m) ** 2))
        expected, _ = oracle_full_tail(
            graph, state, frontier, mode=mode, use_min_label=use_min_label,
            resolution=resolution, **hook)
        got = compute_targets_vectorized(
            graph, state, frontier, use_min_label=use_min_label,
            resolution=resolution, aggregation=mode, **hook)
        np.testing.assert_array_equal(got, expected)

    @staticmethod
    def two_cliques():
        """Two 4-cliques of unit weight joined by one 0.5 bridge, each
        clique its own community: every pair off the bridge is an own
        pair, and the bridge pairs have negative gain."""
        edges = [(u, v) for base in (0, 4)
                 for u in range(base, base + 4)
                 for v in range(u + 1, base + 4)] + [(0, 4)]
        weights = [1.0] * 12 + [0.5]
        graph = CSRGraph.from_edges(8, np.asarray(edges), weights)
        return graph, init_state(graph, np.array([0] * 4 + [4] * 4))

    @pytest.mark.parametrize("resolution", SELECTION_RESOLUTIONS)
    @pytest.mark.parametrize("use_min_label", [True, False])
    def test_no_positive_pair(self, resolution, use_min_label):
        graph, state = self.two_cliques()
        vertices = np.arange(8, dtype=np.int64)
        expected, any_positive = oracle_full_tail(
            graph, state, vertices, mode="matmul",
            use_min_label=use_min_label, resolution=resolution)
        assert not any_positive
        got = compute_targets_vectorized(
            graph, state, vertices, use_min_label=use_min_label,
            resolution=resolution)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got, state.comm)

    @pytest.mark.parametrize("resolution", SELECTION_RESOLUTIONS)
    def test_all_own_segments(self, resolution):
        """One community holding every vertex: each segment is own pairs
        only, positive ones included at ``resolution < 0``."""
        graph, _ = self.two_cliques()
        state = init_state(graph, np.zeros(8, dtype=np.int64))
        vertices = np.arange(8, dtype=np.int64)
        got = compute_targets_vectorized(graph, state, vertices,
                                         resolution=resolution)
        expected, any_positive = oracle_full_tail(
            graph, state, vertices, mode="sort", resolution=resolution)
        assert not any_positive
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got, state.comm)

    def test_positive_own_pair_never_wins(self):
        """At ``resolution < 0`` vertex 3's own pair outscores its
        positive pair into community 3; the own pair must not win."""
        graph = CSRGraph.from_edges(
            5, np.array([(0, 2), (1, 2), (1, 4), (2, 3), (3, 4)]),
            [2.0, 0.5, 2.0, 1.0, 1.0])
        state = init_state(graph, np.array([3, 2, 1, 1, 3]))
        vertices = np.arange(5, dtype=np.int64)
        expected, _ = oracle_full_tail(graph, state, vertices, mode="sort",
                                       resolution=-0.5)
        got = compute_targets_vectorized(graph, state, vertices,
                                         resolution=-0.5)
        np.testing.assert_array_equal(got, expected)
        assert got[3] == 3

    @SETTINGS
    @given(case=sweep_cases(), use_min_label=st.booleans(),
           resolution=st.sampled_from([1.0, 0.7, 0.0]))
    def test_first_sweep_from_singletons(self, case, use_min_label,
                                         resolution):
        graph, _, _ = case
        if graph.total_weight <= 0:
            return
        state = init_state(graph)
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        expected, _ = oracle_full_tail(
            graph, state, vertices, mode="matmul",
            use_min_label=use_min_label, resolution=resolution)
        got = compute_targets_vectorized(
            graph, state, vertices, use_min_label=use_min_label,
            resolution=resolution)
        np.testing.assert_array_equal(got, expected)

    def test_exact_ties_at_the_maximum(self):
        """A vertex with dyadic-weight edges into two singleton
        communities of equal degree: both gains are the same float, so the
        label rule alone decides."""
        graph = CSRGraph.from_edges(
            3, np.array([(0, 1), (0, 2)]), [0.5, 0.5])
        state = init_state(graph, np.array([2, 0, 1]))
        vertices = np.array([0], dtype=np.int64)
        for use_min_label in (True, False):
            expected, any_positive = oracle_full_tail(
                graph, state, vertices, mode="bincount",
                use_min_label=use_min_label)
            assert any_positive
            got = compute_targets_vectorized(
                graph, state, vertices, use_min_label=use_min_label)
            np.testing.assert_array_equal(got, expected)
            assert got[0] == (0 if use_min_label else 1)


class TestCommitMatchesOracle:
    @SETTINGS
    @given(case=sweep_cases(), use_min_label=st.booleans(),
           with_workspace=st.booleans())
    def test_commit(self, case, use_min_label, with_workspace):
        graph, state, frontier = case
        targets = compute_targets_vectorized(graph, state, frontier,
                                             use_min_label=use_min_label)
        n = graph.num_vertices
        oracle_state = clone(state)
        oracle_mask = np.zeros(n, dtype=bool)
        intra, degree_sq = oracle_commit(graph, oracle_state, frontier,
                                         targets, oracle_mask)
        mask = np.zeros(n, dtype=bool)
        workspace = SweepWorkspace(graph) if with_workspace else None
        result = apply_moves_tracked(graph, state, frontier, targets,
                                     workspace=workspace, frontier_out=mask)
        assert result.delta_intra == intra
        assert result.delta_degree_sq == degree_sq
        np.testing.assert_array_equal(mask, oracle_mask)
        np.testing.assert_array_equal(state.comm, oracle_state.comm)
        np.testing.assert_array_equal(state.comm_degree,
                                      oracle_state.comm_degree)
        np.testing.assert_array_equal(state.comm_size, oracle_state.comm_size)


def oracle_strip_plan(graph, vertices):
    """The plan as built before the per-phase loop-free view: a row
    gather from ``graph.row_view``, then a compress of the block's loops
    per plan.  Returns ``(block, num_entries)``."""
    block = graph.row_view[vertices]
    num_entries = block.nnz
    loop = block.indices == np.repeat(vertices, np.diff(block.indptr))
    loops = np.flatnonzero(loop)
    if loops.size:
        indptr = block.indptr - np.searchsorted(
            loops, block.indptr).astype(block.indptr.dtype)
        block = sparse.csr_matrix(
            (block.data[~loop], block.indices[~loop], indptr),
            shape=block.shape)
    return block, num_entries


def assert_same_block(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()


def looped_graphs():
    """Graphs with self-loops: a VF graph, a coarse graph, one with rows
    holding only their loop, and one with every vertex looped."""
    base = rmat(9, 4, seed=0)
    vf = vf_merge(base).graph
    planted = planted_partition(6, 8, 0.6, 0.05, seed=3)
    coarse = coarsen(planted, np.arange(planted.num_vertices) // 3).graph
    only_loop = CSRGraph.from_edges(
        5, np.array([(0, 0), (1, 2), (2, 2), (3, 3), (1, 4)]),
        [2.5, 1.0, 0.75, 3.0, 1.25])
    n = 12
    ring = [(v, (v + 1) % n) for v in range(n)] + [(v, v) for v in range(n)]
    every = CSRGraph.from_edges(
        n, np.array(ring), np.random.default_rng(5).uniform(0.1, 4.0, 2 * n))
    return {"vf": vf, "coarse": coarse, "only_loop": only_loop,
            "every_vertex": every}


class TestLoopFreePlan:
    """Plans cut from the workspace's loop-free row view equal the
    per-plan strip, loops still counted in ``num_entries``."""

    @pytest.mark.parametrize("name", sorted(looped_graphs()))
    def test_matches_per_plan_strip(self, name):
        graph = looped_graphs()[name]
        assert graph.num_self_loops > 0
        n = graph.num_vertices
        rng = np.random.default_rng(11)
        workspace = SweepWorkspace(graph)
        sets = [np.arange(n, dtype=np.int64),
                np.flatnonzero(rng.random(n) < 0.4).astype(np.int64),
                np.array([n - 1, 0], dtype=np.int64),
                np.zeros(0, dtype=np.int64)]
        for vertices in sets:
            want, num_entries = oracle_strip_plan(graph, vertices)
            for plan in (build_plan(graph, vertices),
                         workspace.plan(vertices)):
                assert_same_block(plan.block, want)
                assert plan.num_entries == num_entries
        # The full vertex range is the view itself, not a gathered copy.
        assert workspace.plan(sets[0]).block is workspace.rows

    @SETTINGS
    @given(case=sweep_cases())
    def test_random_graphs_and_frontiers(self, case):
        graph, _, frontier = case
        want, num_entries = oracle_strip_plan(graph, frontier)
        plan = SweepWorkspace(graph).plan(frontier)
        assert_same_block(plan.block, want)
        assert plan.num_entries == num_entries

    def test_view_is_the_row_view_without_loops(self):
        graph = planted_partition(4, 6, 0.5, 0.1, seed=2)
        assert graph.num_self_loops == 0
        assert loop_free_rows(graph) is graph.row_view
        looped = looped_graphs()["only_loop"]
        rows = SweepWorkspace(looped).rows
        assert rows is not looped.row_view
        assert rows.nnz == looped.num_entries - looped.num_self_loops
        for arr in (rows.data, rows.indices, rows.indptr):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("mode", MODES)
    def test_looped_graph_sweeps(self, mode):
        """Targets and commits on a weighted looped graph, workspace or
        not, against the oracles through several pruned sweeps."""
        graph = looped_graphs()["coarse"]
        n = graph.num_vertices
        state = init_state(graph)
        oracle_state = clone(state)
        workspace = SweepWorkspace(graph)
        frontier = np.arange(n, dtype=np.int64)
        for _ in range(4):
            expected = oracle_targets(graph, oracle_state, frontier,
                                      mode=mode)
            for ws in (workspace, None):
                got = compute_targets_vectorized(
                    graph, state, frontier, workspace=ws, aggregation=mode)
                np.testing.assert_array_equal(got, expected)
            oracle_mask = np.zeros(n, dtype=bool)
            want = oracle_commit(graph, oracle_state, frontier, expected,
                                 oracle_mask)
            mask = np.zeros(n, dtype=bool)
            result = apply_moves_tracked(graph, state, frontier, expected,
                                         workspace=workspace,
                                         frontier_out=mask)
            assert (result.delta_intra, result.delta_degree_sq) == want
            np.testing.assert_array_equal(mask, oracle_mask)
            frontier = np.flatnonzero(mask).astype(np.int64)


def reachable(root):
    """Every object reachable from ``root`` through attributes, slots and
    containers (arrays are leaves)."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (
                np.ndarray, str, bytes, int, float, bool, type,
                types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return out


def test_result_holds_no_loop_free_copy():
    """The loop-free view lives in the phase's workspace only: after a
    ``baseline+VF`` run, every sparse matrix reachable from the result is
    some reachable graph's own row view (loops included)."""
    graph = rmat(9, 4, seed=0)
    result = louvain(graph, variant="baseline+VF")
    objects = reachable(result)
    graphs = [o for o in objects if isinstance(o, CSRGraph)]
    assert result.vf.graph.num_self_loops > 0
    assert any(g is result.vf.graph for g in graphs)
    views = {id(g._row_view) for g in graphs if g._row_view is not None}
    for obj in objects:
        if sparse.issparse(obj):
            assert id(obj) in views
    for g in graphs:
        assert g._row_view is None or g._row_view.nnz == g.num_entries


def weighted_planted(seed, dtype):
    """A planted graph with arbitrary float weights: unit or integer
    weights sum exactly in any order, so only these expose a change in
    the order of a floating-point reduction."""
    base = planted_partition(20, 50, 0.3, 0.01, seed=seed)
    u, v, _ = base.edge_arrays()
    weights = np.random.default_rng(seed).uniform(0.05, 5.0, u.size)
    graph = CSRGraph.from_edges(base.num_vertices, np.stack([u, v], 1),
                                weights)
    return CSRGraph(graph.indptr, graph.indices,
                    graph.weights.astype(dtype), validate=False)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", [0, 1])
def test_pruned_iterations_on_weighted_graph(seed, dtype):
    """Several sweeps of a pruned phase: every mode's targets, then the
    commit's deltas and frontier, against the oracles at each step."""
    graph = weighted_planted(seed, dtype)
    n = graph.num_vertices
    state = init_state(graph)
    oracle_state = clone(state)
    workspace = SweepWorkspace(graph)
    frontier = np.arange(n, dtype=np.int64)
    for _ in range(5):
        expected = oracle_targets(graph, oracle_state, frontier,
                                  mode="matmul")
        for mode in MODES:
            got = compute_targets_vectorized(graph, state, frontier,
                                             workspace=workspace,
                                             aggregation=mode)
            np.testing.assert_array_equal(got, expected)
        oracle_mask = np.zeros(n, dtype=bool)
        intra, degree_sq = oracle_commit(graph, oracle_state, frontier,
                                         expected, oracle_mask)
        mask = np.zeros(n, dtype=bool)
        result = apply_moves_tracked(graph, state, frontier, expected,
                                     workspace=workspace, frontier_out=mask)
        assert (result.delta_intra, result.delta_degree_sq) == (intra,
                                                                degree_sq)
        np.testing.assert_array_equal(mask, oracle_mask)
        frontier = np.flatnonzero(mask).astype(np.int64)


# ---------------------------------------------------------------------------
# Whole runs, pinned to the pre-rewrite kernel's output
# ---------------------------------------------------------------------------
def _digest(array) -> str:
    data = np.ascontiguousarray(array).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


#: variant → (labels digest, repr(Q), trajectory digest, trajectory length)
#: of ``louvain(planted_partition(40, 50, 0.3, 1e-3, seed=1), variant)``,
#: recorded with the kernel the oracles above describe.
PINNED = {
    "baseline": ("6c2c2f882bba0bf3", "0.855948387953901",
                 "4f081a3af9f6646d", 16),
    "baseline+VF": ("6c2c2f882bba0bf3", "0.855948387953901",
                    "4f081a3af9f6646d", 16),
    "baseline+VF+Color": ("6c2c2f882bba0bf3", "0.855948387953901",
                          "4f081a3af9f6646d", 16),
}


@pytest.mark.parametrize("variant", sorted(PINNED))
def test_pinned_trajectories(variant):
    graph = planted_partition(40, 50, 0.3, 1e-3, seed=1)
    result = louvain(graph, variant=variant)
    trajectory = np.asarray(result.history.modularity_trajectory(),
                            dtype=np.float64)
    assert (_digest(result.communities), repr(result.modularity),
            _digest(trajectory), trajectory.size) == PINNED[variant]


def _pin(result) -> tuple:
    trajectory = np.asarray(result.history.modularity_trajectory(),
                            dtype=np.float64)
    return (_digest(result.communities), repr(result.modularity),
            _digest(trajectory), trajectory.size)


#: Every pipeline on ``rmat(11, 8, seed=0)`` — VF merges 295 vertices,
#: and with ``coloring_min_vertices=64`` the colored variant colors three
#: phases — recorded before the pipelines shared one phase loop.  The
#: driver and the distributed pipeline, at every rank count and
#: aggregation, give the same run.
PIPELINE_VARIANTS = {
    "baseline": {},
    "baseline+VF": {"use_vf": True},
    "baseline+VF+Color": {"use_vf": True, "use_coloring": True},
}
PINNED_DRIVER = {
    "baseline": ("cd26079096cefdab", "0.1367708735535902",
                 "996f4be32057bfe0", 19),
    "baseline+VF": ("e050c93d19676c82", "0.13780332456216723",
                    "a3e43a75f8cf62c6", 20),
    "baseline+VF+Color": ("a323cf0e2ef45cc9", "0.1676950524130375",
                          "9753e0891c11a956", 13),
}
#: The anytime partition of a ``max_iterations=1`` budget cancel; both
#: pipelines stop after the same first sweep.
PINNED_CANCELLED = {
    "baseline": ("1ab079d68306ebc3", "0.057742812459944455",
                 "78dc7a6ed7a04b3f", 1),
    "baseline+VF": ("3fd354f1fae6e80e", "0.06287195141776745",
                    "de3d8029ec799fd1", 1),
    "baseline+VF+Color": ("0835c557ad747121", "0.07468216711512408",
                          "cdf141aaa27faffa", 1),
}
PINNED_SERIAL = {
    "natural": ("d8c28359fdbcb871", "0.16229128126457382",
                "2eb38a55663a88c5", 23),
    "random": ("4a6bcc1f44311737", "0.16918123671465307",
               "d21608884623a269", 23),
}


@pytest.fixture(scope="module")
def pipeline_graph():
    return rmat(11, 8, seed=0)


@pytest.mark.parametrize("variant", sorted(PIPELINE_VARIANTS))
@pytest.mark.parametrize("num_ranks", [1, 3])
@pytest.mark.parametrize("aggregation", ["dense", "sparse"])
def test_pinned_distributed(pipeline_graph, variant, num_ranks, aggregation):
    result = distributed_louvain(pipeline_graph, num_ranks,
                                 aggregation=aggregation,
                                 coloring_min_vertices=64,
                                 **PIPELINE_VARIANTS[variant])
    assert _pin(result) == PINNED_DRIVER[variant]


@pytest.mark.parametrize("variant", sorted(PIPELINE_VARIANTS))
def test_distributed_matches_driver_on_rmat13(variant):
    """A larger graph, on which the sweeps oscillate and the best-seen
    state and frontier pruning both shape the result."""
    graph = rmat(13, 8, seed=0)
    flags = dict(PIPELINE_VARIANTS[variant], coloring_min_vertices=64)
    shared = louvain(graph, variant=variant, coloring_min_vertices=64)
    for num_ranks in (1, 2, 3):
        dist = distributed_louvain(graph, num_ranks, **flags)
        np.testing.assert_array_equal(dist.communities, shared.communities)
        assert repr(dist.modularity) == repr(shared.modularity), num_ranks


@pytest.mark.parametrize("order", sorted(PINNED_SERIAL))
def test_pinned_serial(pipeline_graph, order):
    result = louvain_serial(pipeline_graph, order=order, seed=1)
    assert _pin(result) == PINNED_SERIAL[order]


@pytest.mark.parametrize("variant", sorted(PIPELINE_VARIANTS))
def test_driver_resumes_from_every_phase_boundary(pipeline_graph, variant,
                                                  tmp_path):
    run = louvain(pipeline_graph, variant=variant, coloring_min_vertices=64)
    assert _pin(run) == PINNED_DRIVER[variant]
    assert run.num_phases >= 4
    for phase in range(1, run.num_phases):
        path = tmp_path / f"phase{phase}.ckpt.npz"
        with pytest.raises(FaultInjected):
            louvain(pipeline_graph, variant=variant, coloring_min_vertices=64,
                    checkpoint=path, fault_plan=f"raise:phase={phase},sweep=0")
        resumed = louvain(pipeline_graph, variant=variant,
                          coloring_min_vertices=64, resume=path)
        assert _pin(resumed) == PINNED_DRIVER[variant], phase


@pytest.mark.parametrize("variant", sorted(PIPELINE_VARIANTS))
def test_budget_cancel_then_resume(pipeline_graph, variant, tmp_path):
    driver_ckpt = tmp_path / "driver.ckpt.npz"
    cancelled = louvain(
        pipeline_graph, variant=variant, coloring_min_vertices=64,
        budget=RunBudget(max_iterations=1, checkpoint=str(driver_ckpt)))
    assert _pin(cancelled) == PINNED_CANCELLED[variant]
    resumed = louvain(pipeline_graph, variant=variant,
                      coloring_min_vertices=64, resume=driver_ckpt)
    assert _pin(resumed) == PINNED_DRIVER[variant]

    dist_ckpt = tmp_path / "distributed.ckpt.npz"
    flags = dict(PIPELINE_VARIANTS[variant], coloring_min_vertices=64)
    cancelled = distributed_louvain(
        pipeline_graph, 3,
        budget=RunBudget(max_iterations=1, checkpoint=str(dist_ckpt)),
        **flags)
    assert _pin(cancelled) == PINNED_CANCELLED[variant]
    resumed = distributed_louvain(pipeline_graph, 3, resume=dist_ckpt,
                                  **flags)
    assert _pin(resumed) == PINNED_DRIVER[variant]


def weighted_rmat():
    """``rmat(11, 8, seed=0)`` with uniform(0.05, 5) weights: four to six
    phases, whose coarse weights are sums of non-integers."""
    base = rmat(11, 8, seed=0)
    u, v, _ = base.edge_arrays()
    weights = np.random.default_rng(0).uniform(0.05, 5.0, u.size)
    return CSRGraph.from_edges(base.num_vertices, np.stack([u, v], 1),
                               weights)


@pytest.mark.parametrize("variant", sorted(PIPELINE_VARIANTS))
def test_weighted_resume_from_every_phase_boundary(variant, tmp_path):
    """Every coarse graph a weighted run checkpoints passes the symmetry
    check of ``load_checkpoint``, and both pipelines resume from each
    phase boundary to the uninterrupted labels."""
    graph = weighted_rmat()
    flags = dict(PIPELINE_VARIANTS[variant], coloring_min_vertices=64)
    runs = {
        "driver": lambda **kw: louvain(graph, variant=variant,
                                       coloring_min_vertices=64, **kw),
        "distributed": lambda **kw: distributed_louvain(graph, 3, **flags,
                                                        **kw),
    }
    for name, run in runs.items():
        full = run()
        num_phases = full.history.num_phases
        assert num_phases >= 4
        for phase in range(1, num_phases):
            path = tmp_path / f"{name}{phase}.ckpt.npz"
            with pytest.raises(FaultInjected):
                run(checkpoint=path, fault_plan=f"raise:phase={phase},sweep=0")
            resumed = run(resume=path)
            np.testing.assert_array_equal(resumed.communities,
                                          full.communities)
            assert repr(resumed.modularity) == repr(full.modularity), \
                (name, phase)
