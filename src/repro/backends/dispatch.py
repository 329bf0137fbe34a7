"""Resolution and registry of array-API backends.

One :class:`ArrayOps` instance wraps one array namespace (NumPy, CuPy,
torch, or ``array_api_strict``) and adds the few operations the array-API
standard does not define but the sweep kernels need:

* ``bincount`` — the e_{v→C} hash-kernel aggregation and all community
  degree/size bookkeeping;
* ``add_reduceat`` — contiguous segment sums over sorted pair keys;
* ``scatter_add`` / ``scatter_sub`` — the commutative commit updates;
* ``scatter_max`` / ``scatter_min`` — the sweep selection's per-owner
  best gain and tie-break label;
* ``put`` — fancy-index assignment (the array-API standard defines
  ``__setitem__`` only for basic keys);
* ``argsort_stable``, ``run_boundaries``, ``flatnonzero`` — sorted-run
  segmentation.

The NumPy subclass binds these to the exact NumPy calls the kernels used
before the port (``np.bincount``, ``np.add.reduceat``, ``np.add.at``, …),
which is what makes the NumPy backend bitwise identical by construction.
The generic base implements every shim by round-tripping through NumPy on
the host (``from_dlpack``/``asarray``) — always correct, and numerically
identical across backends, at the cost of a device→host copy.  Accelerator
subclasses override the shims that have exact native equivalents
(``bincount`` on integer keys, ``index_add_``-style scatters) and keep the
host path for the rest; fusing the remaining segment reductions into
native kernels is the follow-up GPU-tier work, not this layer's job.

All other attributes delegate to the wrapped namespace, so standard
array-API functions (``ops.asarray``, ``ops.zeros``, ``ops.cumsum``, …)
resolve directly.
"""

from __future__ import annotations

import os

import numpy as np

from repro.utils.arrays import run_boundaries as _np_run_boundaries
from repro.utils.errors import ValidationError

__all__ = [
    "ArrayOps",
    "available_backends",
    "backend_default",
    "get_ops",
    "numpy_ops",
]

#: Recognized backend names, in preference order for listings.
BACKEND_NAMES = ("numpy", "cupy", "torch", "array-api-strict")

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_ARRAY_BACKEND"


def _normalize(name: str) -> str:
    return name.strip().lower().replace("_", "-")


class ArrayOps:
    """One array namespace plus the kernel shims (see module docstring).

    Parameters
    ----------
    name:
        Canonical backend name (``"numpy"``, ``"cupy"``, ``"torch"``,
        ``"array-api-strict"``).
    xp:
        The namespace module.  Standard array-API functions are reached by
        attribute delegation (``ops.zeros`` → ``xp.zeros``).
    """

    def __init__(self, name: str, xp):
        self.name = name
        self.xp = xp

    def __getattr__(self, attr):
        # Only called for attributes not found on the instance/class:
        # standard namespace functions fall through to the module.
        return getattr(self.xp, attr)

    def __repr__(self) -> str:
        return f"ArrayOps({self.name!r})"

    @property
    def is_numpy(self) -> bool:
        return self.name == "numpy"

    # -- host boundary --------------------------------------------------
    def to_numpy(self, a) -> np.ndarray:
        """Materialize ``a`` as a host NumPy array (view when possible)."""
        if isinstance(a, np.ndarray):
            return a
        try:
            return np.from_dlpack(a)
        except (TypeError, RuntimeError, BufferError):
            return np.asarray(a)

    def from_numpy(self, a: np.ndarray):
        """Lift a host array into this backend's namespace."""
        return self.xp.asarray(a)

    # -- shims (generic host-round-trip implementations) ----------------
    def bincount(self, x, weights=None, minlength: int = 0):
        w = None if weights is None else self.to_numpy(weights)
        out = np.bincount(self.to_numpy(x), weights=w, minlength=minlength)
        return self.from_numpy(out)

    def add_reduceat(self, values, starts):
        out = np.add.reduceat(self.to_numpy(values), self.to_numpy(starts))
        return self.from_numpy(out)

    def _write_host(self, out, mutate) -> None:
        """Run ``mutate`` against a host view of ``out``; write back when
        the host buffer does not share memory with ``out``."""
        buf = self.to_numpy(out)
        shared = isinstance(out, np.ndarray) or (
            getattr(buf, "base", None) is not None and buf.flags.writeable
        )
        if not buf.flags.writeable:
            buf = buf.copy()
            shared = False
        mutate(buf)
        if not shared:
            out[...] = self.from_numpy(buf)

    def scatter_add(self, out, idx, vals) -> None:
        """``out[idx] += vals`` with repeated-index accumulation."""
        idx_h, vals_h = self.to_numpy(idx), self.to_numpy(vals)
        self._write_host(out, lambda buf: np.add.at(buf, idx_h, vals_h))

    def scatter_sub(self, out, idx, vals) -> None:
        """``out[idx] -= vals`` with repeated-index accumulation."""
        idx_h, vals_h = self.to_numpy(idx), self.to_numpy(vals)
        self._write_host(out, lambda buf: np.subtract.at(buf, idx_h, vals_h))

    def scatter_max(self, out, idx, vals) -> None:
        """``out[idx] = maximum(out[idx], vals)`` over repeated indices."""
        idx_h, vals_h = self.to_numpy(idx), self.to_numpy(vals)
        self._write_host(out, lambda buf: np.maximum.at(buf, idx_h, vals_h))

    def scatter_min(self, out, idx, vals) -> None:
        """``out[idx] = minimum(out[idx], vals)`` over repeated indices."""
        idx_h, vals_h = self.to_numpy(idx), self.to_numpy(vals)
        self._write_host(out, lambda buf: np.minimum.at(buf, idx_h, vals_h))

    def put(self, out, idx, vals) -> None:
        """``out[idx] = vals`` (integer fancy-index assignment)."""
        idx_h, vals_h = self.to_numpy(idx), self.to_numpy(vals)

        def assign(buf):
            buf[idx_h] = vals_h

        self._write_host(out, assign)

    def argsort_stable(self, x):
        return self.from_numpy(
            np.argsort(self.to_numpy(x), kind="stable")
        )

    def flatnonzero(self, x):
        return self.xp.nonzero(self.xp.reshape(x, (-1,)))[0]

    def run_boundaries(self, sorted_keys):
        """Start indices of equal-key runs (device-generic formulation)."""
        xp = self.xp
        if sorted_keys.shape[0] == 0:
            return xp.zeros(0, dtype=xp.int64)
        head = xp.ones(1, dtype=xp.bool)
        changed = xp.concat([head, sorted_keys[1:] != sorted_keys[:-1]])
        return xp.astype(self.flatnonzero(changed), xp.int64)


class NumpyOps(ArrayOps):
    """The default backend: binds the exact pre-port NumPy calls.

    Every shim here is the literal function the kernels invoked before the
    array-API port — the construction that keeps NumPy results bitwise
    identical (the tier's hard acceptance criterion).
    """

    def __init__(self):
        super().__init__("numpy", np)
        # Pre-bound fast paths (skip __getattr__ on the hot path).
        self.bincount = np.bincount
        self.flatnonzero = np.flatnonzero
        self.run_boundaries = _np_run_boundaries

    def to_numpy(self, a) -> np.ndarray:
        return a

    def from_numpy(self, a: np.ndarray) -> np.ndarray:
        return a

    def add_reduceat(self, values, starts):
        return np.add.reduceat(values, starts)

    def scatter_add(self, out, idx, vals) -> None:
        np.add.at(out, idx, vals)

    def scatter_sub(self, out, idx, vals) -> None:
        np.subtract.at(out, idx, vals)

    def scatter_max(self, out, idx, vals) -> None:
        np.maximum.at(out, idx, vals)

    def scatter_min(self, out, idx, vals) -> None:
        np.minimum.at(out, idx, vals)

    def put(self, out, idx, vals) -> None:
        out[idx] = vals

    def argsort_stable(self, x):
        return np.argsort(x, kind="stable")


class CupyOps(ArrayOps):
    """CuPy backend: native bincount/scatter-adds, host path for the rest."""

    def __init__(self, xp, cupy):
        super().__init__("cupy", xp)
        self._cupy = cupy

    def to_numpy(self, a) -> np.ndarray:
        if isinstance(a, np.ndarray):
            return a
        return self._cupy.asnumpy(a)

    def bincount(self, x, weights=None, minlength: int = 0):
        return self._cupy.bincount(x, weights=weights, minlength=minlength)

    def scatter_add(self, out, idx, vals) -> None:
        import cupyx

        cupyx.scatter_add(out, idx, vals)

    def scatter_sub(self, out, idx, vals) -> None:
        import cupyx

        cupyx.scatter_add(out, idx, -vals)

    def argsort_stable(self, x):
        # CuPy's radix argsort is stable for integer keys (the only keys
        # the kernels sort).
        return self._cupy.argsort(x)


class TorchOps(ArrayOps):
    """Torch backend: native bincount/index_add, host path for the rest."""

    def __init__(self, xp, torch):
        super().__init__("torch", xp)
        self._torch = torch

    def to_numpy(self, a) -> np.ndarray:
        if isinstance(a, np.ndarray):
            return a
        return a.detach().cpu().numpy()

    def bincount(self, x, weights=None, minlength: int = 0):
        return self._torch.bincount(x, weights=weights, minlength=minlength)

    def scatter_add(self, out, idx, vals) -> None:
        out.index_add_(0, idx, self._torch.as_tensor(vals, dtype=out.dtype))

    def scatter_sub(self, out, idx, vals) -> None:
        out.index_add_(
            0, idx, -self._torch.as_tensor(vals, dtype=out.dtype)
        )

    def argsort_stable(self, x):
        return self._torch.argsort(x, stable=True)


#: Module-level NumPy singleton — the default `ops` of every kernel.
numpy_ops = NumpyOps()

_CACHE: dict[str, ArrayOps] = {"numpy": numpy_ops}


def _compat_namespace(module_name: str):
    """The array-API-compat wrapper for ``module_name`` when available."""
    try:
        import importlib

        return importlib.import_module(f"array_api_compat.{module_name}")
    except ImportError:
        return None


def _build(name: str) -> ArrayOps:
    if name == "cupy":
        try:
            import cupy
        except ImportError as exc:
            raise ValidationError(
                f"array backend 'cupy' is not installed "
                f"(available: {', '.join(available_backends())})"
            ) from exc
        return CupyOps(_compat_namespace("cupy") or cupy, cupy)
    if name == "torch":
        try:
            import torch
        except ImportError as exc:
            raise ValidationError(
                f"array backend 'torch' is not installed "
                f"(available: {', '.join(available_backends())})"
            ) from exc
        return TorchOps(_compat_namespace("torch") or torch, torch)
    if name == "array-api-strict":
        try:
            import array_api_strict
        except ImportError as exc:
            raise ValidationError(
                f"array backend 'array-api-strict' is not installed "
                f"(available: {', '.join(available_backends())})"
            ) from exc
        return ArrayOps("array-api-strict", array_api_strict)
    raise ValidationError(
        f"unknown array backend {name!r} "
        f"(recognized: {', '.join(BACKEND_NAMES)})"
    )


def backend_default() -> str:
    """Backend name selected by ``REPRO_ARRAY_BACKEND`` (default numpy)."""
    return _normalize(os.environ.get(ENV_VAR, "") or "numpy")


def get_ops(name: "str | None" = None) -> ArrayOps:
    """Resolve an :class:`ArrayOps`; ``None`` follows the environment.

    Raises :class:`~repro.utils.errors.ValidationError` when the requested
    backend's package is not importable, naming the available ones.
    """
    key = _normalize(name) if name else backend_default()
    ops = _CACHE.get(key)
    if ops is None:
        ops = _build(key)
        _CACHE[key] = ops
    return ops


def available_backends() -> tuple[str, ...]:
    """Backends whose packages import cleanly in this environment."""
    out = ["numpy"]
    for candidate in ("cupy", "torch", "array-api-strict"):
        try:
            __import__(candidate.replace("-", "_"))
        except ImportError:
            continue
        out.append(candidate)
    return tuple(out)
