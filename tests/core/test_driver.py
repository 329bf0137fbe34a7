"""Integration-level tests for the full pipeline driver (§5.4)."""

import numpy as np
import pytest

from repro.core.config import HeuristicVariant, LouvainConfig
from repro.core.driver import louvain
from repro.core.modularity import modularity
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    karate_club,
    planted_partition,
    road_with_spokes,
    star_graph,
)
from repro.utils.errors import ValidationError


class TestBasics:
    def test_default_run(self, karate):
        result = louvain(karate)
        assert result.modularity > 0.35
        assert result.config.variant_name == "baseline"
        assert result.num_phases >= 1

    def test_modularity_matches_communities(self, karate):
        result = louvain(karate)
        assert result.modularity == pytest.approx(
            modularity(karate, result.communities)
        )

    def test_dense_labels(self, planted):
        comm = louvain(planted).communities
        labels = np.unique(comm)
        np.testing.assert_array_equal(labels, np.arange(labels.size))

    def test_two_cliques(self, cliques8):
        result = louvain(cliques8)
        assert result.num_communities == 2

    def test_empty_graph(self):
        result = louvain(CSRGraph.empty(0))
        assert result.communities.shape == (0,)
        assert result.modularity == 0.0

    def test_edgeless_graph(self):
        result = louvain(CSRGraph.empty(5))
        assert result.num_communities == 5

    def test_repr(self, karate):
        r = repr(louvain(karate))
        assert "Q=" in r and "variant=" in r


class TestVariants:
    def test_variant_string_and_enum(self, karate):
        r1 = louvain(karate, variant="baseline+VF")
        r2 = louvain(karate, variant=HeuristicVariant.BASELINE_VF)
        np.testing.assert_array_equal(r1.communities, r2.communities)

    def test_config_and_variant_exclusive(self, karate):
        with pytest.raises(ValidationError):
            louvain(karate, LouvainConfig(), variant="baseline")

    def test_overrides(self, karate):
        result = louvain(karate, variant="baseline+VF+Color",
                         coloring_min_vertices=10)
        assert result.config.coloring_min_vertices == 10
        assert result.config.use_coloring

    def test_vf_level_in_dendrogram(self):
        g = road_with_spokes(30, 3)
        result = louvain(g, variant="baseline+VF")
        assert result.vf is not None
        assert result.vf.num_merged == 90
        assert result.dendrogram.labels[0] == "vf"
        # Communities still live on the original 120 vertices.
        assert result.communities.shape == (120,)

    def test_vf_noop_when_no_single_degree(self):
        from repro.graph.generators import cycle_graph

        result = louvain(cycle_graph(12), variant="baseline+VF")
        assert result.vf is not None
        assert result.vf.num_merged == 0

    def test_chain_compression_option(self):
        g = road_with_spokes(30, 2)
        result = louvain(g, variant="baseline+VF", vf_chain_compression=True)
        assert result.vf.rounds >= 1
        assert result.communities.shape == (g.num_vertices,)

    def test_coloring_actually_used(self, planted):
        result = louvain(planted, variant="baseline+VF+Color",
                         coloring_min_vertices=4)
        assert any(p.colored for p in result.history.phases)
        assert result.history.phases[0].num_colors >= 2

    def test_coloring_cutoff_respected(self, planted):
        result = louvain(planted, variant="baseline+VF+Color",
                         coloring_min_vertices=10**6)
        assert not any(p.colored for p in result.history.phases)

    def test_first_phase_only_coloring(self, planted):
        result = louvain(
            planted, variant="baseline+VF+Color",
            coloring_min_vertices=4, multiphase_coloring=False,
        )
        colored = [p.colored for p in result.history.phases]
        assert colored[0]
        assert not any(colored[1:])

    def test_colored_phases_use_colored_threshold(self, planted):
        result = louvain(planted, variant="baseline+VF+Color",
                         coloring_min_vertices=4)
        for p in result.history.phases:
            expected = 1e-2 if p.colored else 1e-6
            assert p.threshold == expected

    def test_min_label_ablation_runs(self, planted):
        result = louvain(planted, use_min_label=False)
        assert result.modularity > 0  # still finds structure

    def test_balanced_coloring_option(self, planted):
        result = louvain(planted, variant="baseline+VF+Color",
                         coloring_min_vertices=4, balanced_coloring=True)
        assert result.modularity > 0.5

    def test_distance2_coloring_option(self, karate):
        result = louvain(karate, variant="baseline+VF+Color",
                         coloring_min_vertices=4, distance_k=2)
        assert result.modularity > 0.35


class TestDeterminismAndBackends:
    def test_deterministic(self, planted):
        r1 = louvain(planted, variant="baseline+VF+Color", coloring_min_vertices=4)
        r2 = louvain(planted, variant="baseline+VF+Color", coloring_min_vertices=4)
        np.testing.assert_array_equal(r1.communities, r2.communities)
        assert r1.modularity == r2.modularity

    def test_backend_invariance(self, planted):
        """§5.4 stability: thread backend changes nothing in the output."""
        serial = louvain(planted, backend="serial")
        threaded = louvain(planted, backend="threads", num_threads=4)
        np.testing.assert_array_equal(serial.communities, threaded.communities)

    def test_kernel_invariance(self, karate):
        vec = louvain(karate)
        ref = louvain(karate, kernel="reference")
        np.testing.assert_array_equal(vec.communities, ref.communities)


class TestHistoryAndTimers:
    def test_history_shape(self, planted):
        result = louvain(planted, variant="baseline+VF+Color",
                         coloring_min_vertices=4)
        h = result.history
        assert h.total_iterations == sum(p.iterations for p in h.phases)
        assert h.final_modularity == pytest.approx(
            h.phases[-1].end_modularity
        )
        bounds = h.phase_boundaries()
        assert bounds[-1] == h.total_iterations

    def test_monotone_phase_start(self, planted):
        """Each phase starts from the previous phase's communities, so its
        start modularity equals the previous end (coarsening invariance)."""
        result = louvain(planted)
        phases = result.history.phases
        for prev, nxt in zip(phases, phases[1:]):
            assert nxt.start_modularity == pytest.approx(
                prev.end_modularity, abs=1e-9
            )

    def test_timers(self, planted):
        result = louvain(planted, variant="baseline+VF+Color",
                         coloring_min_vertices=4)
        assert result.timers.get("clustering") > 0
        assert result.timers.get("coloring") > 0
        assert result.timers.get("rebuild") > 0

    def test_dendrogram_flatten_matches_result(self, planted):
        result = louvain(planted)
        np.testing.assert_array_equal(
            result.dendrogram.flatten(), result.communities
        )

    def test_rebuild_lock_ops_recorded(self, planted):
        result = louvain(planted)
        assert result.history.phases[0].rebuild_lock_ops > 0


class TestQuality:
    def test_planted_recovery(self, planted, planted_truth):
        result = louvain(planted, variant="baseline+VF+Color",
                         coloring_min_vertices=4)
        assert result.modularity >= modularity(planted, planted_truth) - 0.02

    def test_star_single_community(self):
        result = louvain(star_graph(10), variant="baseline+VF")
        assert result.num_communities == 1

    def test_parallel_close_to_serial(self, planted):
        from repro.core.louvain_serial import louvain_serial

        serial_q = louvain_serial(planted).modularity
        parallel_q = louvain(planted, variant="baseline+VF+Color",
                             coloring_min_vertices=4).modularity
        assert parallel_q >= serial_q - 0.03

    def test_communities_respect_components(self):
        """Detected communities never straddle components."""
        from scipy.sparse.csgraph import connected_components

        g = CSRGraph.from_edges(
            8,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)],
        )
        _, comp = connected_components(g.to_scipy(), directed=False)
        comm = louvain(g).communities
        for c in np.unique(comm):
            members = np.flatnonzero(comm == c)
            assert len(set(comp[members].tolist())) == 1
