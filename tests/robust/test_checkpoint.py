"""Checkpoint persistence and interrupt/resume equivalence on all pipelines."""

import dataclasses
import hashlib
import json
import multiprocessing as mp
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import HeuristicVariant, LouvainConfig
from repro.core.driver import louvain
from repro.distributed.louvain_dist import distributed_louvain
from repro.graph.generators import planted_partition
from repro.robust.budget import RunBudget
from repro.robust.checkpoint import (
    DIGEST_KEY,
    NONSEMANTIC_CONFIG_FIELDS,
    Checkpoint,
    config_fingerprint,
    describe_checkpoint,
    fingerprint_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.errors import (
    CheckpointError,
    FaultInjected,
    ValidationError,
)


@pytest.fixture
def graph():
    # Big enough that baseline Louvain runs several phases, so a
    # phase-1 interrupt leaves real work for the resumed run.
    return planted_partition(10, 40, 0.3, 0.005, seed=11)


def _interrupted(graph, ckpt_path, **overrides):
    """Run until the injected raise fires; the checkpoint must exist."""
    with pytest.raises(FaultInjected):
        louvain(graph, variant="baseline", checkpoint=ckpt_path,
                fault_plan="raise:phase=1,sweep=0", **overrides)
    assert ckpt_path.exists()


class TestPersistence:
    def test_round_trip(self, graph, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        ckpt = load_checkpoint(path)
        assert ckpt.pipeline == "driver"
        assert ckpt.phase_index == 1
        assert ckpt.n_original == graph.num_vertices
        assert ckpt.m_original == graph.num_edges
        assert ckpt.mapping.shape == (graph.num_vertices,)
        text = describe_checkpoint(ckpt)
        assert "driver" in text and ckpt.config_fingerprint in text

    def test_save_is_atomic(self, graph, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        assert list(tmp_path.iterdir()) == [path]  # no tmp file left

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "nope.ckpt.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.ckpt.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_version(self, graph, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        data = dict(np.load(path, allow_pickle=False))
        data["format_version"] = np.asarray([999], dtype=np.int64)
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_archive(self, graph, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        with zipfile.ZipFile(path) as zf:
            names = zf.namelist()
        assert names  # sanity: npz is a zip of arrays
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestIntegrity:
    """Content digests + fail-fast fingerprint validation on load."""

    def _tamper(self, path):
        """Alter one array while keeping the stored digest stale."""
        data = dict(np.load(path, allow_pickle=False))
        data["mapping"] = data["mapping"] + 1
        np.savez(path, **data)

    def test_digest_detects_tampered_array(self, graph, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        self._tamper(path)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_bit_flip_detected(self, graph, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_expected_fingerprint_round_trip(self, graph, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        fingerprint = load_checkpoint(path).config_fingerprint
        ckpt = load_checkpoint(path, expected_fingerprint=fingerprint)
        assert ckpt.config_fingerprint == fingerprint

    def test_fingerprint_validated_before_arrays(self, graph, tmp_path):
        # The fingerprint lives in the tiny meta entry and is checked
        # first: a wrong-config resume fails fast even when the array
        # payload is corrupt — the digest never runs.
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        good = load_checkpoint(path).config_fingerprint
        self._tamper(path)  # arrays corrupt; meta intact
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(path, expected_fingerprint="0" * 40)
        # The matching fingerprint proceeds to the digest, which trips.
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path, expected_fingerprint=good)

    def test_digestless_archive_still_loads(self, graph, tmp_path):
        # Pre-digest spools remain readable (no digest, no check).
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        data = dict(np.load(path, allow_pickle=False))
        data.pop(DIGEST_KEY)
        np.savez(path, **data)
        assert load_checkpoint(path).phase_index == 1


_BACKENDS = ["serial", "threads"]
if "fork" in mp.get_all_start_methods():
    _BACKENDS.append("processes")


class TestDriverResume:
    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_resume_reproduces_run(self, graph, tmp_path, backend):
        overrides = ({"backend": backend, "num_threads": 2}
                     if backend != "serial" else {})
        baseline = louvain(graph, variant="baseline", **overrides)
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path, **overrides)
        resumed = louvain(graph, variant="baseline", resume=path,
                          **overrides)
        np.testing.assert_array_equal(
            resumed.communities, baseline.communities
        )
        assert resumed.modularity == baseline.modularity

    def test_mechanics_may_differ_on_resume(self, graph, tmp_path):
        baseline = louvain(graph, variant="baseline")
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)  # serial run wrote the checkpoint
        resumed = louvain(graph, variant="baseline", resume=path,
                          backend="threads", num_threads=2, trace=True)
        np.testing.assert_array_equal(
            resumed.communities, baseline.communities
        )

    def test_semantic_mismatch_rejected(self, graph, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        with pytest.raises(CheckpointError, match="fingerprint"):
            louvain(graph, variant="baseline", resume=path, seed=99)

    def test_graph_mismatch_rejected(self, graph, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        other = planted_partition(6, 20, 0.4, 0.01, seed=42)
        with pytest.raises(CheckpointError):
            louvain(other, variant="baseline", resume=path)

    def test_resume_with_warm_start_rejected(self, graph, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        _interrupted(graph, path)
        with pytest.raises(ValidationError):
            louvain(graph, variant="baseline", resume=path,
                    initial_communities=np.zeros(graph.num_vertices,
                                                 dtype=np.int64))

    def test_budget_is_not_semantic(self, graph, tmp_path):
        # Budget fields are excluded from the fingerprint: a checkpoint
        # written by a budget-cancelled run resumes unbudgeted, and a
        # fault-interrupted unbudgeted checkpoint resumes under a fresh
        # budget.  Both directions, both bitwise.
        from repro.robust.budget import RunBudget

        baseline = louvain(graph, variant="baseline")

        # Direction 1: budgeted cancel -> unbudgeted resume.
        path = tmp_path / "budgeted.ckpt.npz"
        cancelled = louvain(
            graph, variant="baseline",
            budget=RunBudget(max_phases=1, handle_signals=False,
                             checkpoint=str(path)))
        assert cancelled.budget_outcome.cancelled
        resumed = louvain(graph, variant="baseline", resume=path)
        np.testing.assert_array_equal(
            resumed.communities, baseline.communities)

        # Direction 2: unbudgeted interrupt -> budgeted resume.
        path2 = tmp_path / "unbudgeted.ckpt.npz"
        _interrupted(graph, path2)
        resumed2 = louvain(
            graph, variant="baseline", resume=path2,
            budget=RunBudget(max_phases=1000, handle_signals=False))
        np.testing.assert_array_equal(
            resumed2.communities, baseline.communities)
        assert resumed2.budget_outcome.completed

    def test_checkpoint_saved_counter(self, graph, tmp_path):
        result = louvain(graph, variant="baseline", trace=True,
                         checkpoint=tmp_path / "run.ckpt.npz")
        counters = result.trace.metrics.snapshot()["counters"]
        assert counters["checkpoint.saved"] >= 1


class TestDistributedResume:
    def test_resume_reproduces_run(self, graph, tmp_path):
        baseline = distributed_louvain(graph, num_ranks=3, seed=0)
        path = tmp_path / "dist.ckpt.npz"
        with pytest.raises(FaultInjected):
            distributed_louvain(graph, num_ranks=3, seed=0,
                                checkpoint=path,
                                fault_plan="raise:phase=1,sweep=0")
        assert path.exists()
        resumed = distributed_louvain(graph, num_ranks=3, seed=0,
                                      resume=path)
        np.testing.assert_array_equal(
            resumed.communities, baseline.communities
        )
        assert resumed.modularity == baseline.modularity

    def test_rank_count_mismatch_rejected(self, graph, tmp_path):
        path = tmp_path / "dist.ckpt.npz"
        with pytest.raises(FaultInjected):
            distributed_louvain(graph, num_ranks=3, seed=0,
                                checkpoint=path,
                                fault_plan="raise:phase=1,sweep=0")
        with pytest.raises(CheckpointError, match="fingerprint"):
            distributed_louvain(graph, num_ranks=4, seed=0, resume=path)

    def test_cross_pipeline_rejected(self, graph, tmp_path):
        path = tmp_path / "dist.ckpt.npz"
        with pytest.raises(FaultInjected):
            distributed_louvain(graph, num_ranks=3, seed=0,
                                checkpoint=path,
                                fault_plan="raise:phase=1,sweep=0")
        with pytest.raises(CheckpointError, match="pipeline"):
            louvain(graph, variant="baseline", resume=path)


class TestCheckpointCLI:
    def test_inspect_and_resume(self, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "run.ckpt.npz"
        full_labels = tmp_path / "full.labels"
        resumed_labels = tmp_path / "resumed.labels"
        base = ["detect", "--dataset", "CNR", "--scale", "0.05",
                "--seed", "1"]
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        main(base + ["--output", str(full_labels)])
        # Interrupt a checkpointing run through the ambient env knob —
        # the CLI has no --fault-plan flag; REPRO_FAULTS is the
        # operator-facing switch.
        monkeypatch.setenv("REPRO_FAULTS", "raise:phase=1,sweep=0")
        with pytest.raises(FaultInjected):
            main(base + ["--checkpoint", str(ckpt)])
        monkeypatch.delenv("REPRO_FAULTS")
        assert ckpt.exists()
        main(["robust", "inspect", str(ckpt)])
        out = capsys.readouterr().out
        assert "driver" in out

        main(["robust", "resume", str(ckpt),
              "--dataset", "CNR", "--scale", "0.05", "--seed", "1",
              "--output", str(resumed_labels)])
        np.testing.assert_array_equal(
            np.loadtxt(resumed_labels), np.loadtxt(full_labels)
        )

    def test_inspect_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="error"):
            main(["robust", "inspect", str(tmp_path / "nope.ckpt.npz")])

    def _legacy_checkpoint(self, tmp_path, monkeypatch, extra_field):
        """A CLI checkpoint whose ``config_json`` has the shape versions
        with an ``array_backend`` field wrote (``asdict(cfg)``, the field
        right after ``backend``), plus ``extra_field``; the full run's
        labels alongside."""
        ckpt = tmp_path / "run.ckpt.npz"
        full_labels = tmp_path / "full.labels"
        base = ["detect", "--dataset", "CNR", "--scale", "0.05",
                "--seed", "1"]
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        main(base + ["--output", str(full_labels)])
        monkeypatch.setenv("REPRO_FAULTS", "raise:phase=1,sweep=0")
        with pytest.raises(FaultInjected):
            main(base + ["--checkpoint", str(ckpt)])
        monkeypatch.delenv("REPRO_FAULTS")
        stored = load_checkpoint(ckpt)
        legacy = {}
        for key, value in json.loads(stored.config_json).items():
            legacy[key] = value
            if key == "backend":
                legacy["array_backend"] = "numpy"
        legacy.update(extra_field)
        save_checkpoint(ckpt, dataclasses.replace(
            stored, config_json=json.dumps(legacy)))
        return ckpt, full_labels

    def test_resume_of_legacy_config(self, tmp_path, monkeypatch):
        ckpt, full_labels = self._legacy_checkpoint(tmp_path, monkeypatch,
                                                    {})
        assert '"array_backend": "numpy"' in load_checkpoint(ckpt).config_json
        resumed_labels = tmp_path / "resumed.labels"
        main(["robust", "resume", str(ckpt),
              "--dataset", "CNR", "--scale", "0.05", "--seed", "1",
              "--output", str(resumed_labels)])
        np.testing.assert_array_equal(
            np.loadtxt(resumed_labels), np.loadtxt(full_labels)
        )

    def test_resume_with_unknown_config_field_errors(self, tmp_path,
                                                     monkeypatch):
        ckpt, _ = self._legacy_checkpoint(tmp_path, monkeypatch,
                                          {"warp_factor": 9})
        with pytest.raises(SystemExit, match="error: .*warp_factor"):
            main(["robust", "resume", str(ckpt),
                  "--dataset", "CNR", "--scale", "0.05", "--seed", "1"])


#: ``config_fingerprint`` of the default config and the three §6.1
#: presets, recorded when ``LouvainConfig`` still had an
#: ``array_backend`` field: checkpoints stored then must still pass the
#: fingerprint check on resume.
PINNED_FINGERPRINTS = {
    "default": "d305d3dee7c5ef5cee599e3c3297408ecf2c1c6c",
    "baseline": "d305d3dee7c5ef5cee599e3c3297408ecf2c1c6c",
    "baseline+VF": "f4bb9d689678406c294a50fe4b32d92820d065c6",
    "baseline+VF+Color": "bbb81993fe448ee4afc77b944c151251d5a5fa20",
}


#: (num_ranks, partition_scheme, aggregation) -> the distributed run's
#: fingerprint; rank count, scheme and aggregation are semantic there.
PINNED_DISTRIBUTED_FINGERPRINTS = {
    (3, "edge_balanced", "dense"): "fc7e9ebbaaf2db99fba2cb8d800591f2f0da28ea",
    (3, "edge_balanced", "sparse"):
        "68efb5a916cd3723d21f8de19d13c067fbaf70db",
    (2, "block", "dense"): "14442bd6c047bf8ea58986d638b62025bf9599f2",
}


class TestFingerprintPins:
    @staticmethod
    def _config(name):
        if name == "default":
            return LouvainConfig()
        return HeuristicVariant(name).config()

    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_fingerprint_is_pinned(self, name):
        assert (config_fingerprint(self._config(name))
                == PINNED_FINGERPRINTS[name])

    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_stored_legacy_dict_fingerprints_the_same(self, name):
        stored = dataclasses.asdict(self._config(name))
        stored["array_backend"] = "numpy"
        assert (fingerprint_dict(stored, exclude=NONSEMANTIC_CONFIG_FIELDS)
                == PINNED_FINGERPRINTS[name])

    @pytest.mark.parametrize("key", sorted(PINNED_DISTRIBUTED_FINGERPRINTS))
    def test_distributed_fingerprint_is_pinned(self, key, graph, tmp_path):
        num_ranks, scheme, aggregation = key
        path = tmp_path / "cancel.ckpt.npz"
        distributed_louvain(
            graph, num_ranks, partition_scheme=scheme,
            aggregation=aggregation,
            budget=RunBudget(max_iterations=1, checkpoint=str(path)),
        )
        assert (load_checkpoint(path).config_fingerprint
                == PINNED_DISTRIBUTED_FINGERPRINTS[key])


#: Checkpoints written before the pipelines shared one phase loop, by
#: ``louvain(g, variant="baseline+VF", checkpoint=...)`` and
#: ``distributed_louvain(g, 3, use_vf=True, checkpoint=...)`` with
#: ``fault_plan="raise:phase=1,sweep=0"`` on
#: ``g = planted_partition(5, 16, 0.6, 0.02, seed=1)``; both hold the
#: phase-1 boundary.  Resuming either gives the uninterrupted run.
CHECKPOINT_DATA = Path(__file__).parent / "data"
#: (labels digest, repr(Q)) of the uninterrupted runs.
PINNED_RESUMED = ("dbae25d3dc381404", "0.693049134948097")


class TestCommittedCheckpoints:
    @pytest.fixture
    def small(self):
        return planted_partition(5, 16, 0.6, 0.02, seed=1)

    @staticmethod
    def _pin(result):
        labels = np.ascontiguousarray(result.communities).tobytes()
        return (hashlib.sha256(labels).hexdigest()[:16],
                repr(result.modularity))

    def test_driver_checkpoint_resumes(self, small):
        path = CHECKPOINT_DATA / "driver.ckpt.npz"
        assert load_checkpoint(path).phase_index == 1
        resumed = louvain(small, variant="baseline+VF", resume=path)
        assert self._pin(resumed) == PINNED_RESUMED
        assert self._pin(louvain(small, variant="baseline+VF")) \
            == PINNED_RESUMED

    def test_distributed_checkpoint_resumes(self, small):
        path = CHECKPOINT_DATA / "distributed.ckpt.npz"
        ckpt = load_checkpoint(path)
        assert ckpt.phase_index == 1
        assert ckpt.extra["num_ranks"] == 3
        resumed = distributed_louvain(small, 3, use_vf=True, resume=path)
        assert self._pin(resumed) == PINNED_RESUMED
        assert len(resumed.partition_stats) == resumed.history.num_phases
