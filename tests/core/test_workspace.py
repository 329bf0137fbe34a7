"""Tests of the sweep workspace: aggregation paths, plan caching, frontier
pruning and the incremental-modularity commit (the hot-path overhaul).

The headline property is differential: every aggregation path, with and
without a reused workspace, must produce *exactly* the targets of the
per-vertex reference kernel — and pruned phases must converge to the same
partitions as full-sweep phases.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.core.modularity import modularity
from repro.core.phase import run_phase, state_modularity
from repro.core.sweep import (
    SweepState,
    apply_moves,
    apply_moves_tracked,
    compute_targets,
    compute_targets_reference,
    compute_targets_vectorized,
    init_state,
    sweep,
)
from repro.core.workspace import (
    AGGREGATIONS,
    SweepWorkspace,
    aggregate_pairs,
    build_plan,
)
from repro.graph.csr import CSRGraph, gather_rows
from repro.graph.generators import planted_partition, rmat
from repro.parallel.backends import SerialBackend, ThreadBackend
from repro.parallel.chunking import edge_balanced_partition
from repro.utils.errors import ValidationError

CONCRETE = [m for m in AGGREGATIONS if m != "auto"]


def random_graph(seed, n=60, p=0.12):
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < p, 1)
    src, dst = np.nonzero(mask)
    w = rng.integers(1, 4, src.size).astype(np.float64)
    return CSRGraph.from_edges(n, list(zip(src, dst)), w)


def mid_state(graph, sweeps=2):
    state = init_state(graph)
    verts = np.arange(graph.num_vertices, dtype=np.int64)
    for _ in range(sweeps):
        sweep(graph, state, verts)
    return state


# ---------------------------------------------------------------------------
# Aggregation paths
# ---------------------------------------------------------------------------
class TestAggregatePairs:
    def pair_dict(self, plan, comm, n, mode):
        indptr, pcomm, e, used = aggregate_pairs(plan, comm, n, mode)
        owner = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        return {(int(o), int(c)): float(x)
                for o, c, x in zip(owner, pcomm, e)}, used

    @pytest.mark.parametrize("seed", range(4))
    def test_paths_produce_identical_pair_sets(self, seed):
        g = random_graph(seed)
        state = mid_state(g, sweeps=1)
        verts = np.arange(g.num_vertices, dtype=np.int64)
        plan = build_plan(g, verts)
        base, _ = self.pair_dict(plan, state.comm, g.num_vertices, "sort")
        for mode in ("bincount", "matmul"):
            other, used = self.pair_dict(plan, state.comm, g.num_vertices, mode)
            assert used == mode
            assert set(other) == set(base)
            for key in base:
                assert other[key] == pytest.approx(base[key])

    @pytest.mark.parametrize("mode", CONCRETE)
    def test_pairs_grouped_by_owner(self, mode):
        """The pair block's indptr contract the selection relies on: one
        segment per active vertex, covering every pair, each community at
        most once per segment."""
        g = random_graph(11)
        state = mid_state(g, sweeps=1)
        verts = np.arange(g.num_vertices, dtype=np.int64)
        indptr, pcomm, e, _ = aggregate_pairs(
            build_plan(g, verts), state.comm, g.num_vertices, mode
        )
        assert indptr.size == verts.size + 1
        assert indptr[0] == 0 and indptr[-1] == pcomm.size == e.size
        assert (np.diff(indptr) >= 0).all()
        for lo, hi in zip(indptr[:-1], indptr[1:]):
            assert np.unique(pcomm[lo:hi]).size == hi - lo

    def test_unknown_mode_rejected(self):
        g = random_graph(0)
        plan = build_plan(g, np.arange(g.num_vertices, dtype=np.int64))
        with pytest.raises(ValidationError):
            aggregate_pairs(plan, np.zeros(g.num_vertices, np.int64),
                            g.num_vertices, "radix")

    def test_auto_resolves_to_a_concrete_mode(self):
        g = random_graph(1)
        plan = build_plan(g, np.arange(g.num_vertices, dtype=np.int64))
        *_, used = aggregate_pairs(
            plan, np.zeros(g.num_vertices, np.int64), g.num_vertices, "auto"
        )
        assert used in CONCRETE


class TestDifferentialKernels:
    """Every aggregation path × min-label setting equals the reference."""

    @pytest.mark.parametrize("mode", CONCRETE)
    @pytest.mark.parametrize("use_min_label", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_on_random_graphs(self, mode, use_min_label, seed):
        g = random_graph(seed)
        verts = np.arange(g.num_vertices, dtype=np.int64)
        state = mid_state(g, sweeps=seed % 3)
        ref = compute_targets_reference(
            g, state, verts, use_min_label=use_min_label
        )
        out = compute_targets_vectorized(
            g, state, verts, use_min_label=use_min_label, aggregation=mode
        )
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("mode", CONCRETE)
    def test_matches_reference_on_planted(self, planted, mode):
        state = mid_state(planted)
        verts = np.arange(planted.num_vertices, dtype=np.int64)
        ref = compute_targets_reference(planted, state, verts)
        out = compute_targets_vectorized(planted, state, verts,
                                         aggregation=mode)
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("mode", CONCRETE)
    def test_workspace_reuse_identical_to_fresh(self, planted, mode):
        """Iterating with one cached workspace = fresh buffers every call."""
        ws = SweepWorkspace(planted, aggregation=mode)
        verts = np.arange(planted.num_vertices, dtype=np.int64)
        with_ws = init_state(planted)
        fresh = init_state(planted)
        for _ in range(4):
            tw = compute_targets_vectorized(planted, with_ws, verts,
                                            workspace=ws, plan_key="all")
            tf = compute_targets_vectorized(planted, fresh, verts,
                                            aggregation=mode)
            np.testing.assert_array_equal(tw, tf)
            apply_moves(planted, with_ws, verts, tw)
            apply_moves(planted, fresh, verts, tf)
        assert ws.num_cached_plans == 1


# ---------------------------------------------------------------------------
# Gather plans and row gathering
# ---------------------------------------------------------------------------
class TestGatherRowsEdgeCases:
    def test_empty_vertex_set(self, planted):
        positions, owner = gather_rows(planted, np.zeros(0, np.int64))
        assert positions.size == 0 and owner.size == 0
        plan = build_plan(planted, np.zeros(0, np.int64))
        assert plan.owner.size == 0 and plan.num_entries == 0

    def test_isolated_vertices(self):
        # Vertices 3 and 4 have no edges at all.
        g = CSRGraph.from_edges(5, [(0, 1), (1, 2)])
        positions, owner = gather_rows(g, np.array([3, 4], np.int64))
        assert positions.size == 0 and owner.size == 0
        # Mixed set: only vertex 1's two entries appear, owned by index 1.
        positions, owner = gather_rows(g, np.array([3, 1, 4], np.int64))
        assert owner.tolist() == [1, 1]
        state = init_state(g)
        out = compute_targets_vectorized(g, state, np.array([3, 4], np.int64))
        np.testing.assert_array_equal(out, state.comm[[3, 4]])

    def test_all_self_loop_rows(self):
        g = CSRGraph.from_edges(3, [(0, 0), (1, 1)], [2.0, 3.0])
        verts = np.arange(3, dtype=np.int64)
        plan = build_plan(g, verts)
        # Loops are CSR entries but never aggregation candidates.
        assert plan.num_entries == 2
        assert plan.owner.size == 0
        state = init_state(g)
        for mode in CONCRETE:
            out = compute_targets_vectorized(g, state, verts, aggregation=mode)
            np.testing.assert_array_equal(out, state.comm)

    def test_gather_matches_manual_expansion(self, karate):
        verts = np.array([5, 0, 33], np.int64)
        positions, owner = gather_rows(karate, verts)
        for idx, v in enumerate(verts):
            got = karate.indices[positions[owner == idx]]
            lo, hi = karate.indptr[v], karate.indptr[v + 1]
            np.testing.assert_array_equal(got, karate.indices[lo:hi])


class TestPlanCache:
    def test_identity_hit(self, planted):
        ws = SweepWorkspace(planted)
        verts = np.arange(planted.num_vertices, dtype=np.int64)
        assert ws.plan(verts) is ws.plan(verts)
        assert ws.num_cached_plans == 1

    def test_keyed_hit_verifies_contents(self, planted):
        """A pruned frontier reusing a key must rebuild, not reuse stale."""
        ws = SweepWorkspace(planted)
        a = np.arange(planted.num_vertices, dtype=np.int64)
        plan_a = ws.plan(a.copy(), key=("set", 0))
        shrunk = a[: planted.num_vertices // 2]
        plan_b = ws.plan(shrunk.copy(), key=("set", 0))
        assert plan_b is not plan_a
        assert plan_b.vertices.size == shrunk.size
        # Same contents under the same key → cache hit.
        assert ws.plan(shrunk.copy(), key=("set", 0)) is plan_b

    def test_scratch_buffers_are_reused(self, planted):
        ws = SweepWorkspace(planted)
        a = ws.zeros_bool("y", 5)
        b = ws.zeros_bool("y", 10)
        assert a.base is b.base
        assert a.dtype == bool

    def test_invalid_aggregation_rejected(self, planted):
        with pytest.raises(ValidationError):
            SweepWorkspace(planted, aggregation="quantum")


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------
class TestChunkingEdgeCases:
    def test_more_workers_than_vertices(self, karate):
        verts = np.array([0, 1], np.int64)
        chunks = edge_balanced_partition(verts, karate.indptr, 16)
        np.testing.assert_array_equal(np.concatenate(chunks), verts)
        assert all(c.size > 0 for c in chunks)

    def test_empty_vertex_set(self, karate):
        chunks = edge_balanced_partition(
            np.zeros(0, np.int64), karate.indptr, 4
        )
        total = sum(c.size for c in chunks)
        assert total == 0

    @pytest.mark.parametrize("mode", CONCRETE)
    def test_chunked_equals_unchunked_through_both_paths(self, planted, mode):
        state = mid_state(planted)
        verts = np.arange(planted.num_vertices, dtype=np.int64)
        whole = compute_targets_vectorized(planted, state, verts,
                                           aggregation=mode)
        chunks = edge_balanced_partition(verts, planted.indptr, 5)
        pieces = [
            compute_targets_vectorized(planted, state, c, aggregation=mode)
            for c in chunks
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)

    def test_thread_backend_chunk_map_matches_serial(self, planted):
        state = mid_state(planted)
        verts = np.arange(planted.num_vertices, dtype=np.int64)
        serial = compute_targets(planted, state, verts,
                                 backend=SerialBackend())
        with ThreadBackend(4) as tb:
            threaded = compute_targets(planted, state, verts, backend=tb)
        np.testing.assert_array_equal(threaded, serial)


# ---------------------------------------------------------------------------
# Incremental modularity
# ---------------------------------------------------------------------------
class TestApplyMovesTracked:
    def deltas_match_recount(self, graph, state, verts, targets):
        before_q = state_modularity(graph, state)
        m = graph.total_weight
        a_sq_before = float(np.square(state.comm_degree).sum())
        result = apply_moves_tracked(graph, state, verts, targets)
        after_q = state_modularity(graph, state)
        # Reassemble Q from the reported deltas and compare to the recount.
        from repro.core.modularity import intra_community_weight

        intra_after = intra_community_weight(graph, state.comm)
        intra_before = intra_after - result.delta_intra
        assert (
            intra_before / (2 * m) - a_sq_before / (2 * m) ** 2
        ) == pytest.approx(before_q, abs=1e-12)
        a_sq_after = a_sq_before + result.delta_degree_sq
        assert (
            intra_after / (2 * m) - a_sq_after / (2 * m) ** 2
        ) == pytest.approx(after_q, abs=1e-12)
        return result

    @pytest.mark.parametrize("seed", range(3))
    def test_deltas_exact_on_random_graphs(self, seed):
        g = random_graph(seed, n=80)
        state = init_state(g)
        verts = np.arange(g.num_vertices, dtype=np.int64)
        for _ in range(3):
            targets = compute_targets_vectorized(g, state, verts)
            self.deltas_match_recount(g, state, verts, targets)

    def test_deltas_exact_with_self_loops(self, loops_graph):
        state = init_state(loops_graph)
        verts = np.arange(3, dtype=np.int64)
        targets = compute_targets_vectorized(loops_graph, state, verts)
        self.deltas_match_recount(loops_graph, state, verts, targets)

    def test_no_moves_short_circuit(self, karate):
        state = init_state(karate)
        verts = np.arange(karate.num_vertices, dtype=np.int64)
        result = apply_moves_tracked(karate, state, verts, state.comm[verts])
        assert result.num_moved == 0
        assert result.delta_intra == 0.0 and result.delta_degree_sq == 0.0

    def test_frontier_covers_movers_and_neighbors(self, cliques8):
        state = init_state(cliques8)
        verts = np.arange(cliques8.num_vertices, dtype=np.int64)
        targets = compute_targets_vectorized(cliques8, state, verts)
        result = apply_moves_tracked(cliques8, state, verts, targets)
        expected = set(result.moved.tolist())
        for v in result.moved:
            expected.update(cliques8.neighbors(int(v))[0].tolist())
        assert set(result.frontier.tolist()) == expected

    def test_frontier_out_mask_matches_array(self, cliques8):
        state_a = init_state(cliques8)
        state_b = init_state(cliques8)
        verts = np.arange(cliques8.num_vertices, dtype=np.int64)
        targets = compute_targets_vectorized(cliques8, state_a, verts)
        arr = apply_moves_tracked(cliques8, state_a, verts, targets)
        mask = np.zeros(cliques8.num_vertices, dtype=bool)
        out = apply_moves_tracked(cliques8, state_b, verts, targets,
                                  frontier_out=mask)
        assert out.frontier.size == 0
        np.testing.assert_array_equal(np.flatnonzero(mask), arr.frontier)

    def test_matches_apply_moves(self, planted):
        state_a = mid_state(planted, sweeps=1)
        state_b = SweepState(state_a.comm.copy(), state_a.comm_degree.copy(),
                             state_a.comm_size.copy())
        verts = np.arange(planted.num_vertices, dtype=np.int64)
        targets = compute_targets_vectorized(planted, state_a, verts)
        n_a = apply_moves(planted, state_a, verts, targets)
        res = apply_moves_tracked(planted, state_b, verts, targets)
        assert res.num_moved == n_a
        np.testing.assert_array_equal(state_a.comm, state_b.comm)
        np.testing.assert_array_equal(state_a.comm_degree, state_b.comm_degree)
        np.testing.assert_array_equal(state_a.comm_size, state_b.comm_size)


# ---------------------------------------------------------------------------
# Frontier pruning and best-state phases
# ---------------------------------------------------------------------------
def phase_backends():
    yield "serial", None
    yield "threads", ThreadBackend(3)
    if "fork" in mp.get_all_start_methods():
        from repro.parallel.process_backend import ProcessBackend

        yield "processes", ProcessBackend(2)


class TestFrontierPruning:
    @pytest.mark.parametrize("kernel", ["vectorized", "reference"])
    def test_pruned_matches_full_partition(self, planted, kernel):
        full = run_phase(planted, init_state(planted), threshold=1e-9,
                         kernel=kernel, prune=False)
        pruned = run_phase(planted, init_state(planted), threshold=1e-9,
                           kernel=kernel, prune=True)
        assert pruned.end_modularity == pytest.approx(full.end_modularity)
        np.testing.assert_array_equal(pruned.state.comm, full.state.comm)

    def test_pruned_matches_full_across_backends(self, planted):
        full = run_phase(planted, init_state(planted), threshold=1e-9,
                         prune=False)
        for name, backend in phase_backends():
            try:
                pruned = run_phase(planted, init_state(planted),
                                   threshold=1e-9, backend=backend, prune=True)
            finally:
                if backend is not None:
                    backend.close()
            np.testing.assert_array_equal(
                pruned.state.comm, full.state.comm,
                err_msg=f"backend={name}",
            )

    def test_converged_pruned_phase_is_full_fixed_point(self):
        """A pruned phase that stops on moved == 0 is a *full*-sweep fixed
        point (the verification sweep).  threshold=-inf disables the
        small-gain stop, so moved == 0 is the only way to converge."""
        g = planted_partition(6, 20, 0.6, 0.002, seed=3)
        out = run_phase(g, init_state(g), threshold=float("-inf"), prune=True)
        assert out.converged
        # Pruning really shrank the sweeps on the way there...
        assert min(r.active_vertices for r in out.records) < g.num_vertices
        # ...yet the returned partition survives a full sweep unchanged.
        moved = sweep(g, out.state,
                      np.arange(g.num_vertices, dtype=np.int64))
        assert moved == 0

    def test_pruning_shrinks_active_counters(self, planted):
        out = run_phase(planted, init_state(planted), threshold=1e-9,
                        prune=True)
        actives = [r.active_vertices for r in out.records]
        assert actives[0] == planted.num_vertices
        assert min(actives) < planted.num_vertices
        for rec in out.records:
            assert 0.0 <= rec.active_vertex_fraction <= 1.0
            assert rec.aggregation in CONCRETE

    def test_incremental_q_matches_recount_trajectory(self, planted):
        inc = run_phase(planted, init_state(planted), threshold=1e-9,
                        prune=False, incremental=True)
        full = run_phase(planted, init_state(planted), threshold=1e-9,
                         prune=False, incremental=False)
        assert len(inc.records) == len(full.records)
        for a, b in zip(inc.records, full.records):
            assert a.modularity == pytest.approx(b.modularity, abs=1e-9)


class TestBestStatePhase:
    def test_end_modularity_is_best_seen(self, planted):
        out = run_phase(planted, init_state(planted), threshold=1e-9)
        best = max(r.modularity for r in out.records)
        assert out.end_modularity == pytest.approx(best, abs=1e-9)
        # The returned state really evaluates to the reported Q.
        assert state_modularity(planted, out.state) == pytest.approx(
            out.end_modularity
        )

    def test_phase_never_ends_below_its_input(self, planted):
        """Warm-start monotonicity: re-running from a converged state
        cannot lose modularity, even though parallel sweeps may oscillate
        (Lemma 1)."""
        first = run_phase(planted, init_state(planted), threshold=1e-9)
        q1 = first.end_modularity
        again = run_phase(
            planted, init_state(planted, first.state.comm), threshold=1e-9
        )
        assert again.end_modularity >= q1 - 1e-12

    def test_degenerate_graphs(self):
        empty = CSRGraph.empty(0)
        out = run_phase(empty, init_state(empty), threshold=1e-6)
        assert out.end_modularity == 0.0
        edgeless = CSRGraph.empty(5)
        out = run_phase(edgeless, init_state(edgeless), threshold=1e-6)
        assert out.converged
        assert modularity(edgeless, out.state.comm) == 0.0
