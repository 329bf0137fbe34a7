"""Unit tests for the within-phase iteration loop (Algorithm 1 outer loop)."""

import numpy as np
import pytest

from repro.coloring.greedy import greedy_coloring
from repro.coloring.validate import color_set_partition
from repro.core.modularity import modularity
from repro.core.phase import run_phase, state_modularity
from repro.core.sweep import init_state
from repro.core.workspace import aggregate_pairs, build_plan
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, planted_partition


class TestStateModularity:
    def test_matches_full_recompute(self, karate):
        state = init_state(karate, (np.arange(34) % 4).astype(np.int64))
        assert state_modularity(karate, state) == pytest.approx(
            modularity(karate, state.comm)
        )

    def test_empty(self):
        g = CSRGraph.empty(2)
        assert state_modularity(g, init_state(g)) == 0.0


class TestRunPhase:
    def test_terminates_and_improves(self, planted):
        state = init_state(planted)
        out = run_phase(planted, state, threshold=1e-6)
        assert out.converged
        assert out.end_modularity > out.start_modularity
        assert len(out.records) >= 1

    def test_records_consistent(self, planted):
        state = init_state(planted)
        out = run_phase(planted, state, threshold=1e-4, phase_index=2)
        for i, rec in enumerate(out.records):
            assert rec.phase == 2
            assert rec.iteration == i
            assert rec.vertices_scanned == planted.num_vertices
            assert rec.edges_scanned == planted.num_entries
        assert out.records[-1].modularity == pytest.approx(out.end_modularity)

    def test_colored_phase_records_sets(self, planted):
        colors = greedy_coloring(planted)
        sets = color_set_partition(colors)
        state = init_state(planted)
        out = run_phase(planted, state, threshold=1e-4, color_sets=sets)
        rec = out.records[0]
        assert len(rec.color_set_vertices) == len(sets)
        assert rec.vertices_scanned == planted.num_vertices
        assert out.end_modularity > out.start_modularity

    def test_colored_fewer_iterations_than_uncolored(self, planted):
        """§5.2's design intent: coloring converges in fewer iterations."""
        colors = greedy_coloring(planted)
        sets = color_set_partition(colors)
        plain = run_phase(planted, init_state(planted), threshold=1e-6)
        colored = run_phase(
            planted, init_state(planted), threshold=1e-6, color_sets=sets
        )
        assert len(colored.records) <= len(plain.records)

    def test_higher_threshold_fewer_iterations(self, planted):
        loose = run_phase(planted, init_state(planted), threshold=1e-1)
        tight = run_phase(planted, init_state(planted), threshold=1e-8)
        assert len(loose.records) <= len(tight.records)

    def test_iteration_cap(self, planted):
        out = run_phase(planted, init_state(planted), threshold=1e-12,
                        max_iterations=2)
        assert len(out.records) <= 2

    def test_complete_graph_single_community(self):
        g = complete_graph(6)
        state = init_state(g)
        run_phase(g, state, threshold=1e-6)
        # A clique has no 2+-community split with positive modularity, and
        # the min-label heuristic funnels everything into label 0.
        assert state.num_communities() == 1

    def test_reference_kernel_same_outcome(self, planted):
        s1 = init_state(planted)
        s2 = init_state(planted)
        o1 = run_phase(planted, s1, threshold=1e-4, kernel="vectorized")
        o2 = run_phase(planted, s2, threshold=1e-4, kernel="reference")
        np.testing.assert_array_equal(s1.comm, s2.comm)
        assert o1.end_modularity == pytest.approx(o2.end_modularity)

    @pytest.mark.parametrize("mode", ["sort", "bincount", "matmul"])
    def test_records_name_the_forced_aggregation(self, planted, mode):
        out = run_phase(planted, init_state(planted), threshold=1e-4,
                        aggregation=mode)
        assert {r.aggregation for r in out.records} == {mode}
        ref = run_phase(planted, init_state(planted), threshold=1e-4,
                        kernel="reference")
        assert {r.aggregation for r in ref.records} == {""}

    @pytest.mark.parametrize("groups", [4, 40])  # bincount, matmul
    def test_records_name_the_kernels_auto_choice(self, groups):
        # Unpruned and uncolored, every iteration sweeps all vertices, so
        # each record must name the path the kernel picks for that set;
        # the loops are entries the kernel does not aggregate.
        base = planted_partition(groups, 50, 0.3, 1e-3, seed=1)
        u, v, w = base.edge_arrays()
        loops = np.arange(0, base.num_vertices, 3)
        graph = CSRGraph.from_edges(
            base.num_vertices,
            np.column_stack([np.concatenate([u, loops]),
                             np.concatenate([v, loops])]),
            np.concatenate([w, np.ones(loops.size)]))
        n = graph.num_vertices
        expected = aggregate_pairs(build_plan(graph, np.arange(n)),
                                   np.zeros(n, np.int64), n, "auto")[3]
        out = run_phase(graph, init_state(graph), threshold=1e-4,
                        prune=False)
        assert {r.aggregation for r in out.records} == {expected}

    def test_empty_graph(self):
        g = CSRGraph.empty(0)
        out = run_phase(g, init_state(g), threshold=1e-6)
        assert out.converged
