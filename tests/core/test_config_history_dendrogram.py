"""Unit tests for configuration, history records and the dendrogram."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import HeuristicVariant, LouvainConfig
from repro.core.dendrogram import Dendrogram
from repro.core.history import ConvergenceHistory, IterationRecord, PhaseRecord
from repro.utils.errors import ValidationError


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = LouvainConfig()
        assert cfg.colored_threshold == 1e-2
        assert cfg.final_threshold == 1e-6
        assert cfg.coloring_min_vertices == 100_000
        assert cfg.use_min_label

    def test_variant_presets(self):
        base = HeuristicVariant.BASELINE.config()
        vf = HeuristicVariant.BASELINE_VF.config()
        vfc = HeuristicVariant.BASELINE_VF_COLOR.config()
        assert (base.use_vf, base.use_coloring) == (False, False)
        assert (vf.use_vf, vf.use_coloring) == (True, False)
        assert (vfc.use_vf, vfc.use_coloring) == (True, True)

    def test_variant_names(self):
        assert LouvainConfig().variant_name == "baseline"
        assert LouvainConfig(use_vf=True).variant_name == "baseline+VF"
        assert (
            LouvainConfig(use_vf=True, use_coloring=True).variant_name
            == "baseline+VF+Color"
        )
        assert LouvainConfig(use_coloring=True).variant_name == "baseline+Color"

    def test_with_override(self):
        cfg = LouvainConfig().with_(colored_threshold=1e-4)
        assert cfg.colored_threshold == 1e-4
        assert cfg.final_threshold == 1e-6  # untouched

    def test_preset_overrides(self):
        cfg = HeuristicVariant.BASELINE_VF_COLOR.config(num_threads=8)
        assert cfg.num_threads == 8

    @pytest.mark.parametrize("bad", [
        dict(colored_threshold=0.0),
        dict(final_threshold=-1e-6),
        dict(kernel="cuda"),
        dict(backend="mpi"),
        dict(distance_k=0),
        dict(num_threads=0),
        dict(max_phases=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValidationError):
            LouvainConfig(**bad)

    def test_bad_budget_dict_is_a_validation_error(self):
        from repro.core.driver import louvain
        from repro.graph.generators import karate_club

        with pytest.raises(ValidationError, match="warp"):
            LouvainConfig(budget={"warp": 1})
        with pytest.raises(ValidationError, match="warp"):
            louvain(karate_club(), budget={"warp": 1})
        with pytest.raises(ValidationError, match="bad budget"):
            LouvainConfig(budget={"deadline": "soon"})

    def test_frozen(self):
        cfg = LouvainConfig()
        with pytest.raises(AttributeError):
            cfg.use_vf = True


class TestConfigFromDict:
    def test_round_trips_asdict(self):
        cfg = HeuristicVariant.BASELINE_VF.config(resolution=0.7,
                                                  budget={"max_phases": 2})
        assert LouvainConfig.from_dict(asdict(cfg)) == cfg

    def test_legacy_numpy_array_backend_is_dropped(self):
        fields = asdict(LouvainConfig())
        fields["array_backend"] = "numpy"
        assert LouvainConfig.from_dict(fields) == LouvainConfig()
        assert "array_backend" in fields  # the caller's dict is untouched

    @pytest.mark.parametrize("value", ["cupy", "torch", "NumPy", None])
    def test_other_array_backend_is_rejected(self, value):
        with pytest.raises(ValidationError, match="array_backend"):
            LouvainConfig.from_dict({"array_backend": value})

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ValidationError, match="warp_factor"):
            LouvainConfig.from_dict({"use_vf": True, "warp_factor": 9})

    def test_wrong_value_type_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            LouvainConfig.from_dict({"colored_threshold": "high"})
        with pytest.raises(ValidationError):
            LouvainConfig.from_dict({"budget": {"warp_factor": 9}})


def _record(phase=0, iteration=0, q=0.5, moved=3, comms=10,
            sets=((5,), (8,))):
    return IterationRecord(
        phase=phase, iteration=iteration, modularity=q, vertices_moved=moved,
        num_communities=comms, color_set_vertices=sets[0],
        color_set_edges=sets[1],
    )


class TestHistory:
    def test_iteration_record_sums(self):
        rec = _record(sets=((3, 4), (10, 20)))
        assert rec.vertices_scanned == 7
        assert rec.edges_scanned == 30

    def test_trajectory_and_boundaries(self):
        h = ConvergenceHistory()
        h.iterations = [_record(0, 0, 0.1), _record(0, 1, 0.2), _record(1, 0, 0.3)]
        h.phases = [
            PhaseRecord(0, 10, 20, False, 0, 1e-6, 2, 0.0, 0.2, 5, 4),
            PhaseRecord(1, 4, 8, False, 0, 1e-6, 1, 0.2, 0.3, 2, 2),
        ]
        np.testing.assert_allclose(h.modularity_trajectory(), [0.1, 0.2, 0.3])
        assert h.phase_boundaries() == [2, 3]
        assert h.total_iterations == 3
        assert h.final_modularity == 0.3
        assert len(h.iterations_of_phase(0)) == 2

    def test_empty_history(self):
        h = ConvergenceHistory()
        assert h.final_modularity == 0.0
        assert h.modularity_trajectory().shape == (0,)

    def test_json_is_the_asdict_json_of_a_colored_run(self):
        """The field-by-field dicts serialize byte for byte as
        ``dataclasses.asdict`` did, color-set tuples included, and the
        string round-trips."""
        import json

        from repro.core.driver import louvain
        from repro.graph.generators import rmat

        history = louvain(rmat(10, 8, seed=2), variant="baseline+VF+Color",
                          coloring_min_vertices=16, seed=2).history
        assert history.phases[0].colored
        assert history.phases[0].color_class_sizes
        assert len(history.iterations[0].color_set_vertices) > 1
        want = json.dumps({
            "iterations": [asdict(r) for r in history.iterations],
            "phases": [asdict(r) for r in history.phases],
        })
        assert history.to_json() == want
        assert ConvergenceHistory.from_json(want) == history


class TestDendrogram:
    def test_flatten_levels(self):
        d = Dendrogram()
        d.push([0, 0, 1, 1, 2])
        d.push([0, 1, 1])
        assert d.flatten().tolist() == [0, 0, 1, 1, 1]
        assert d.flatten(1).tolist() == [0, 0, 1, 1, 2]
        assert d.flatten(0).tolist() == [0, 1, 2, 3, 4]

    def test_level_sizes_and_labels(self):
        d = Dendrogram()
        d.push([0, 0, 1], "vf")
        d.push([0, 0], "phase-0")
        assert d.level_sizes() == [2, 1]
        assert d.labels == ["vf", "phase-0"]
        assert d.num_levels == 2

    def test_domain_mismatch_rejected(self):
        d = Dendrogram()
        d.push([0, 0, 1])
        with pytest.raises(ValidationError):
            d.push([0, 0, 0])  # previous codomain has size 2

    def test_bad_level_request(self):
        d = Dendrogram()
        d.push([0, 1])
        with pytest.raises(ValidationError):
            d.flatten(5)

    def test_repr(self):
        d = Dendrogram()
        d.push([0, 0])
        assert "levels=1" in repr(d)
