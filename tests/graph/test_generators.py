"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph.generators import (
    chung_lu,
    clique_chain,
    complete_graph,
    cycle_graph,
    grid_lattice,
    karate_club,
    path_graph,
    planted_partition,
    power_law_degrees,
    random_geometric,
    relaxed_caveman,
    rmat,
    road_with_spokes,
    star_graph,
    two_cliques_bridge,
)
from repro.graph.stats import degree_rsd
from repro.utils.errors import ValidationError


class TestFixtures:
    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.unweighted_degrees.tolist() == [1, 2, 2, 2, 1]

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert set(g.unweighted_degrees.tolist()) == {2}

    def test_cycle_too_small(self):
        with pytest.raises(ValidationError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(7)
        assert g.num_vertices == 8
        assert g.unweighted_degrees[0] == 7
        assert (g.unweighted_degrees[1:] == 1).all()

    def test_complete(self):
        g = complete_graph(6)
        assert g.num_edges == 15
        assert set(g.unweighted_degrees.tolist()) == {5}

    def test_karate(self):
        g = karate_club()
        assert g.num_vertices == 34
        assert g.num_edges == 78
        assert g.unweighted_degrees[33] == 17  # the instructor hub

    def test_two_cliques_bridge(self):
        g = two_cliques_bridge(4)
        assert g.num_vertices == 8
        assert g.num_edges == 2 * 6 + 1

    def test_clique_chain(self):
        g = clique_chain(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 6 + 2


class TestRandomModels:
    def test_planted_partition_shape(self):
        g = planted_partition(4, 25, 0.3, 0.01, seed=0)
        assert g.num_vertices == 100
        assert g.num_self_loops == 0

    def test_planted_partition_determinism(self):
        g1 = planted_partition(4, 25, 0.3, 0.01, seed=5)
        g2 = planted_partition(4, 25, 0.3, 0.01, seed=5)
        assert g1 == g2

    def test_planted_partition_edge_counts_near_expectation(self):
        g = planted_partition(4, 50, 0.4, 0.02, seed=1)
        intra_expected = 4 * (50 * 49 / 2) * 0.4
        inter_expected = 6 * 50 * 50 * 0.02
        total_expected = intra_expected + inter_expected
        assert g.num_edges == pytest.approx(total_expected, rel=0.15)

    def test_planted_partition_degenerate(self):
        assert planted_partition(2, 3, 0.0, 0.0, seed=0).num_edges == 0
        g = planted_partition(1, 4, 1.0, 0.5, seed=0)
        assert g.num_edges == 6  # one complete block

    def test_planted_partition_validation(self):
        with pytest.raises(ValidationError):
            planted_partition(0, 5, 0.1, 0.1)
        with pytest.raises(ValidationError):
            planted_partition(2, 5, 1.5, 0.1)

    def test_chung_lu_heavy_tail(self):
        w = power_law_degrees(500, 2.5, 2.0, 100.0, seed=3)
        g = chung_lu(w, seed=3)
        assert g.num_vertices == 500
        assert degree_rsd(g) > 0.5  # heavy-tailed

    def test_chung_lu_determinism(self):
        w = power_law_degrees(100, 2.5, 2.0, 50.0, seed=1)
        assert chung_lu(w, seed=2) == chung_lu(w, seed=2)

    def test_chung_lu_zero_weights(self):
        assert chung_lu(np.zeros(5)).num_edges == 0

    def test_chung_lu_validation(self):
        with pytest.raises(ValidationError):
            chung_lu(np.array([-1.0, 2.0]))
        with pytest.raises(ValidationError):
            chung_lu(np.zeros((2, 2)))

    def test_power_law_validation(self):
        with pytest.raises(ValidationError):
            power_law_degrees(10, 0.5, 1.0, 10.0)
        with pytest.raises(ValidationError):
            power_law_degrees(10, 2.5, 10.0, 1.0)

    def test_rmat_shape_and_skew(self):
        g = rmat(9, 8, seed=11)
        assert g.num_vertices == 512
        # R-MAT with default quadrants is much more skewed than uniform.
        assert degree_rsd(g) > 0.5

    def test_rmat_determinism(self):
        assert rmat(7, 4, seed=3) == rmat(7, 4, seed=3)

    def test_rmat_default_seed_is_fixed(self):
        assert rmat(10, 8) == rmat(10, 8, seed=0)

    def test_rmat_validation(self):
        with pytest.raises(ValidationError):
            rmat(0, 8)
        with pytest.raises(ValidationError):
            rmat(5, 8, a=0.9, b=0.2, c=0.2)

    def test_random_geometric_uniform_degrees(self):
        g = random_geometric(800, 0.06, seed=2)
        assert g.num_vertices == 800
        # RGG degree RSD is low (the Rgg_n_2_24_s0 signature, Table 1: 0.251).
        assert degree_rsd(g) < 0.5

    def test_random_geometric_radius_monotone(self):
        small = random_geometric(300, 0.04, seed=9)
        large = random_geometric(300, 0.10, seed=9)
        assert large.num_edges > small.num_edges

    def test_random_geometric_validation(self):
        with pytest.raises(ValidationError):
            random_geometric(0, 0.1)
        with pytest.raises(ValidationError):
            random_geometric(10, -0.1)

    def test_relaxed_caveman(self):
        g = relaxed_caveman(10, 8, 0.1, seed=4)
        assert g.num_vertices == 80
        assert g.num_edges > 0

    def test_relaxed_caveman_no_rewire_is_cliques(self):
        g = relaxed_caveman(3, 5, 0.0, seed=0)
        assert g.num_edges == 3 * 10


class TestWattsStrogatz:
    def test_no_rewire_is_ring_lattice(self):
        from repro.graph.generators import watts_strogatz

        g = watts_strogatz(20, 4, 0.0)
        assert g.num_edges == 20 * 2  # n*k/2
        assert set(g.unweighted_degrees.tolist()) == {4}
        assert g.has_edge(0, 1) and g.has_edge(0, 2)
        assert not g.has_edge(0, 3)

    def test_rewiring_changes_structure(self):
        from repro.graph.generators import watts_strogatz

        ring = watts_strogatz(50, 4, 0.0)
        wild = watts_strogatz(50, 4, 0.5, seed=1)
        assert wild != ring
        # Edge count can only drop (dedupe/self-loop removal on rewire).
        assert wild.num_edges <= ring.num_edges

    def test_deterministic(self):
        from repro.graph.generators import watts_strogatz

        assert watts_strogatz(30, 4, 0.2, seed=3) == watts_strogatz(
            30, 4, 0.2, seed=3
        )

    def test_small_world_shortens_paths(self):
        from scipy.sparse.csgraph import shortest_path

        from repro.graph.generators import watts_strogatz

        def diameter(graph):
            hops = shortest_path(graph.to_scipy(), unweighted=True)
            return hops[np.isfinite(hops)].max()

        ring = watts_strogatz(200, 4, 0.0)
        small_world = watts_strogatz(200, 4, 0.2, seed=0)
        assert diameter(small_world) < diameter(ring)

    def test_validation(self):
        from repro.graph.generators import watts_strogatz
        from repro.utils.errors import ValidationError

        with pytest.raises(ValidationError):
            watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(ValidationError):
            watts_strogatz(4, 4, 0.1)  # k >= n
        with pytest.raises(ValidationError):
            watts_strogatz(10, 4, 1.5)


class TestStructuredModels:
    def test_grid_2d(self):
        g = grid_lattice((4, 5))
        assert g.num_vertices == 20
        assert g.num_edges == 4 * 4 + 5 * 3  # 31

    def test_grid_3d(self):
        g = grid_lattice((3, 3, 3))
        assert g.num_vertices == 27
        assert g.num_edges == 3 * (2 * 3 * 3)  # 54

    def test_grid_periodic(self):
        g = grid_lattice((4, 4), periodic=True)
        assert set(g.unweighted_degrees.tolist()) == {4}
        assert g.num_edges == 32

    def test_grid_degenerate_dims(self):
        assert grid_lattice((1, 1)).num_edges == 0
        assert grid_lattice((5,)).num_edges == 4  # a path

    def test_grid_low_rsd(self):
        # The Channel/NLPKKT240 signature: near-uniform degrees.
        assert degree_rsd(grid_lattice((12, 12))) < 0.25

    def test_road_with_spokes(self):
        g = road_with_spokes(10, 3)
        assert g.num_vertices == 40
        # 9 chain edges + 30 spoke edges.
        assert g.num_edges == 39
        # All spokes are single-degree.
        assert (g.unweighted_degrees[10:] == 1).all()

    def test_road_with_shortcuts(self):
        g = road_with_spokes(20, 0, extra_chain_skip=5)
        assert g.num_edges == 19 + 3

    def test_road_validation(self):
        with pytest.raises(ValidationError):
            road_with_spokes(1, 3)
