"""Backend registry, resolution, and the generic shim implementations.

The NumPy backend's bitwise-identity claim is carried by the rest of the
suite (every test runs through ``numpy_ops``); this module covers the
dispatch machinery itself plus the *generic* host-round-trip shims —
exercised here against the NumPy namespace wrapped in the base class, so
the code path accelerator backends inherit is tested without any
accelerator installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    ArrayOps,
    available_backends,
    backend_default,
    get_ops,
    numpy_ops,
)
from repro.backends import dispatch
from repro.utils.errors import ValidationError


class TestResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(dispatch.ENV_VAR, raising=False)
        assert backend_default() == "numpy"
        assert get_ops() is numpy_ops

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(dispatch.ENV_VAR, "NumPy")
        assert backend_default() == "numpy"
        monkeypatch.setenv(dispatch.ENV_VAR, "array_api_strict")
        assert backend_default() == "array-api-strict"

    def test_explicit_name_normalized(self):
        assert get_ops("NUMPY") is numpy_ops
        assert get_ops("numpy") is numpy_ops

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown array backend"):
            get_ops("jax")

    def test_uninstalled_backend_names_available(self):
        missing = [n for n in ("cupy", "torch", "array-api-strict")
                   if n not in available_backends()]
        if not missing:
            pytest.skip("every optional backend is installed here")
        with pytest.raises(ValidationError, match="not installed"):
            get_ops(missing[0])

    def test_available_backends_always_has_numpy(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert set(names) <= set(dispatch.BACKEND_NAMES)

    def test_repr_and_is_numpy(self):
        assert repr(numpy_ops) == "ArrayOps('numpy')"
        assert numpy_ops.is_numpy
        assert not ArrayOps("array-api-strict", np).is_numpy

    def test_getattr_delegates_to_namespace(self):
        assert numpy_ops.searchsorted is np.searchsorted
        assert numpy_ops.cumsum is np.cumsum
        with pytest.raises(AttributeError):
            numpy_ops.not_an_array_function


@pytest.fixture
def generic_ops():
    """The *base-class* shims running over the NumPy namespace."""
    return ArrayOps("generic", np)


class TestGenericShims:
    """Generic host-round-trip shims must agree with the NumPy bindings."""

    def test_bincount(self, generic_ops):
        x = np.array([0, 2, 2, 5, 1], dtype=np.int64)
        w = np.array([1.0, 0.5, 0.25, 2.0, 3.0])
        assert np.array_equal(generic_ops.bincount(x, minlength=8),
                              numpy_ops.bincount(x, minlength=8))
        assert np.array_equal(generic_ops.bincount(x, weights=w),
                              numpy_ops.bincount(x, weights=w))

    def test_reduceats(self, generic_ops):
        vals = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        starts = np.array([0, 2, 5], dtype=np.int64)
        assert np.array_equal(generic_ops.add_reduceat(vals, starts),
                              numpy_ops.add_reduceat(vals, starts))

    @pytest.mark.parametrize("op", ["scatter_max", "scatter_min"])
    def test_scatter_extrema_match_numpy(self, generic_ops, op):
        """Repeated indices reduce; untouched slots keep their start."""
        idx = np.array([1, 3, 1, 1, 0], dtype=np.int64)
        vals = np.array([2.5, -1.0, 7.0, 0.5, 4.0])
        want = np.full(5, 1.0)
        getattr(numpy_ops, op)(want, idx, vals)
        got = np.full(5, 1.0)
        getattr(generic_ops, op)(got, idx, vals)
        assert np.array_equal(got, want)
        expect = ([4.0, 7.0, 1.0, 1.0, 1.0] if op == "scatter_max"
                  else [1.0, 0.5, 1.0, -1.0, 1.0])
        assert np.array_equal(want, expect)

    def test_scatter_add_accumulates_duplicates(self, generic_ops):
        out = np.zeros(4)
        generic_ops.scatter_add(out, np.array([1, 1, 3]),
                                np.array([2.0, 3.0, 7.0]))
        assert np.array_equal(out, [0.0, 5.0, 0.0, 7.0])
        generic_ops.scatter_sub(out, np.array([1, 1]), np.array([1.0, 1.0]))
        assert np.array_equal(out, [0.0, 3.0, 0.0, 7.0])

    def test_put(self, generic_ops):
        out = np.arange(5, dtype=np.float64)
        generic_ops.put(out, np.array([0, 4]), np.array([-1.0, -2.0]))
        assert np.array_equal(out, [-1.0, 1.0, 2.0, 3.0, -2.0])

    def test_argsort_stable_preserves_tie_order(self, generic_ops):
        keys = np.array([1, 0, 1, 0, 1], dtype=np.int64)
        assert np.array_equal(generic_ops.argsort_stable(keys),
                              numpy_ops.argsort_stable(keys))

    def test_run_boundaries_matches_utils(self, generic_ops):
        for keys in ([], [7], [1, 1, 2, 2, 2, 5], [3, 3, 3]):
            arr = np.asarray(keys, dtype=np.int64)
            got = generic_ops.run_boundaries(arr)
            want = numpy_ops.run_boundaries(arr)
            assert np.array_equal(got, want), keys
            assert got.dtype == np.int64

    def test_flatnonzero(self, generic_ops):
        mask = np.array([True, False, True, True, False])
        assert np.array_equal(generic_ops.flatnonzero(mask),
                              numpy_ops.flatnonzero(mask))


class TestGenericBackendEndToEnd:
    """Full pipeline through the base-class shims: results must be
    bitwise identical to the NumPy backend (the generic shims compute on
    the host, so there is no rounding excuse)."""

    @pytest.fixture
    def registered_generic(self):
        name = "generic-test"
        dispatch._CACHE[name] = ArrayOps(name, np)
        yield name
        dispatch._CACHE.pop(name, None)

    def test_louvain_matches_numpy_backend(self, registered_generic):
        from repro import LouvainConfig, louvain
        from repro.graph.generators import karate_club, planted_partition

        for g in (karate_club(), planted_partition(3, 8, 0.6, 0.05, seed=4)):
            base = louvain(g, LouvainConfig(array_backend="numpy"))
            alt = louvain(g, LouvainConfig(array_backend=registered_generic))
            assert np.array_equal(alt.communities, base.communities)
            assert alt.modularity == base.modularity
            assert alt.total_iterations == base.total_iterations

    def test_louvain_batch_matches_numpy_backend(self, registered_generic):
        from repro import LouvainConfig, louvain_batch
        from repro.graph.generators import two_cliques_bridge

        gs = [two_cliques_bridge(3), two_cliques_bridge(5)]
        base = louvain_batch(gs, LouvainConfig(array_backend="numpy"))
        alt = louvain_batch(gs, LouvainConfig(array_backend=registered_generic))
        for b, a in zip(base, alt):
            assert np.array_equal(a.communities, b.communities)
            assert a.modularity == b.modularity
