"""Static AST rules encoding this codebase's parallel-correctness discipline.

Codebase-specific rules
-----------------------
SNAP001
    Inside a function decorated ``@snapshot_kernel`` (see
    :mod:`repro.lint.sanitizer`), any write rooted at a snapshot-state
    parameter — subscript/attribute assignment, augmented assignment,
    ``np.<ufunc>.at`` scatter, ``np.copyto``/``np.put``/… with the
    parameter as destination, or a mutating method call (``.sort()``,
    ``.fill()``, …).  Kernels read the previous-iteration snapshot; they
    never write it (§5.4).
RNG001
    Direct ``np.random.*`` module-level calls (or ``from numpy.random
    import …`` of callables) outside ``utils/rng.py``.  All randomness
    flows through :func:`repro.utils.rng.as_rng` so runs are seedable and
    thread-count-invariant; referencing the ``Generator`` /
    ``SeedSequence`` / ``BitGenerator`` *types* is fine.
DET001
    Iteration order of ``set``/``dict`` feeding array construction
    (``np.array(list(a_set))``, comprehension over ``set(...)`` inside
    ``np.asarray``, ``np.fromiter(d.keys(), …)``) in the deterministic
    packages ``repro/core``, ``repro/parallel``, ``repro/coloring``.
    Wrap in ``sorted(...)`` to fix the order.
ATOM001
    Scatter accumulation (``np.<ufunc>.at`` or ``+=`` into a subscript of
    a parameter) inside worker functions (name contains ``worker``) of
    ``repro/parallel`` outside ``atomic.py`` — concurrent accumulation
    must go through :class:`repro.parallel.atomic.ThreadLocalAccumulator`.
OBS001
    Direct wall-clock reads (``time.perf_counter()``, ``time.time()``,
    ``time.monotonic()`` and their ``_ns`` variants, or the equivalent
    ``from time import …``) in library code outside ``utils/timing.py``
    and ``repro/obs/`` — all timing flows through the instrumented path
    (:class:`repro.utils.timing.Timer`/``StepTimer`` or the
    :mod:`repro.obs` tracer) so every measurement lands in one stream.
QUEUE001
    Untimed ``Queue.get()`` on a queue-named receiver in library code
    (outside ``repro/robust/``) — the hang class behind the seed process
    backend.  Use ``get(timeout=...)`` inside a deadline-and-liveness
    loop (docs/robustness.md).
DEAD001
    ``sleep(...)`` inside a loop in library code (outside
    ``repro/robust/``) where no enclosing loop consults a deadline — a
    sleep/retry loop that never checks remaining time parks forever when
    its producer dies and can overrun any :class:`~repro.robust.budget.
    RunBudget`.  Bound each pass against a ``monotonic()`` deadline, a
    timeout variable, or the ambient ``BudgetController`` (complements
    QUEUE001, which covers the blocking-``get`` variant of the same
    class).
OBS002
    Metric/span name literals passed to the obs surface (``count``,
    ``gauge``, ``observe``, ``span``, ``step`` on a tracer/registry
    receiver) that do not match the ``dotted.lower_snake`` scheme
    ``^[a-z][a-z0-9_]*(\\.[a-z0-9_]+)*$`` (later segments may be numeric:
    ``worker.0.alive``).  One naming scheme keeps the Prometheus
    exposition mapping (``repro_`` + dots→underscores) collision-free
    and dashboards greppable (docs/observability.md).  F-string names
    are checked on their static fragments (each must stay within
    ``[a-z0-9_.]``); fully dynamic names are skipped.

Generic rules
-------------
MUT001
    Mutable default argument (list/dict/set literal or constructor call).
ASSERT001
    Bare ``assert`` in library code — the convention is
    :class:`repro.utils.errors.ValidationError` (asserts vanish under
    ``python -O``).
DTYPE001
    ``np.zeros``/``np.empty``/``np.full`` without an explicit dtype in the
    hot packages (``core``, ``parallel``, ``coloring``, ``graph``,
    ``distributed``) — the float64 default has silently widened int
    arrays before; spell the dtype out.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

__all__ = ["RULES", "LintContext", "Rule", "RuleFinding", "all_codes"]


@dataclass(frozen=True)
class RuleFinding:
    """One raw rule hit (the engine turns these into full Findings)."""

    line: int
    col: int
    code: str
    message: str


@dataclass(frozen=True)
class LintContext:
    """Where the source being linted lives (drives rule scoping)."""

    #: Path as given to the engine, normalized to forward slashes.
    path: str

    def in_packages(self, *packages: str) -> bool:
        """True when the path sits inside any ``repro/<package>``."""
        return any(f"repro/{pkg}/" in self.path for pkg in packages)

    def is_library_code(self) -> bool:
        """True for repro library modules (fixture paths mimic them)."""
        return "repro/" in self.path

    def endswith(self, suffix: str) -> bool:
        return self.path.endswith(suffix)


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------
def _attr_chain(node: ast.AST) -> "tuple[str, ...] | None":
    """``np.random.default_rng`` → ``("np", "random", "default_rng")``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _root_name(node: ast.AST) -> "str | None":
    """Base variable of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_numpy(name: str) -> bool:
    return name in ("np", "numpy")


def _func_params(func: ast.AST) -> list[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class Rule:
    """Base class: subclasses define ``code``/``description`` and ``check``."""

    code: str = ""
    description: str = ""

    def applies(self, ctx: LintContext) -> bool:
        return True

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[RuleFinding]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# SNAP001 — writes to snapshot state inside @snapshot_kernel functions
# ---------------------------------------------------------------------------
#: ndarray methods that mutate in place.
_MUTATING_METHODS = frozenset({
    "fill", "sort", "partition", "put", "itemset", "resize", "setflags",
    "setfield", "byteswap",
})
#: ``np.<fn>(dest, ...)`` functions whose first argument is written.
_SCATTER_FUNCS = frozenset({"copyto", "put", "place", "putmask"})


def _snapshot_params_of(func: ast.AST) -> "set[str] | None":
    """Snapshot parameter names when ``func`` is ``@snapshot_kernel``-marked.

    ``None`` means not marked; an empty decorator argument list (the bare
    form) marks *every* parameter.
    """
    for dec in func.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        chain = _attr_chain(target)
        if chain is None or chain[-1] != "snapshot_kernel":
            continue
        if isinstance(dec, ast.Call):
            names = {
                a.value for a in dec.args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            }
            if names:
                return names
        return set(_func_params(func))
    return None


class SnapshotWriteRule(Rule):
    code = "SNAP001"
    description = (
        "write to snapshot state inside a @snapshot_kernel function "
        "(kernels read the previous-iteration snapshot only, §5.4)"
    )

    def check(self, tree, ctx):
        for func in ast.walk(tree):
            if not isinstance(func, _FUNC_NODES):
                continue
            snap = _snapshot_params_of(func)
            if not snap:
                continue
            yield from self._check_kernel(func, snap)

    def _check_kernel(self, func, snap):
        shadowed = self._shadowed_in_nested(func, snap)
        for node in ast.walk(func):
            hits = ()
            if isinstance(node, ast.Assign):
                hits = [t for t in node.targets if self._writes_snap(t, snap)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if self._writes_snap(node.target, snap):
                    hits = [node.target]
            elif isinstance(node, ast.AugAssign):
                root = _root_name(node.target)
                if root in snap:
                    hits = [node.target]
            elif isinstance(node, ast.Call):
                hits = list(self._call_writes(node, snap))
            for hit in hits:
                root = _root_name(hit) or "?"
                if root in shadowed:
                    continue
                yield RuleFinding(
                    node.lineno, node.col_offset, self.code,
                    f"write to snapshot parameter {root!r} inside "
                    f"@snapshot_kernel function {func.name!r}",
                )

    @staticmethod
    def _shadowed_in_nested(func, snap):
        """Snapshot names rebound as parameters of nested functions."""
        shadowed: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, _FUNC_NODES + (ast.Lambda,)) and node is not func:
                shadowed.update(set(_func_params(node)) & snap)
        return shadowed

    @staticmethod
    def _writes_snap(target, snap):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(
                SnapshotWriteRule._writes_snap(elt, snap) for elt in target.elts
            )
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            return _root_name(target) in snap
        return False

    @staticmethod
    def _call_writes(node, snap):
        chain = _attr_chain(node.func)
        if chain is None:
            return
        # np.<ufunc>.at(dest, ...) / np.copyto(dest, ...)
        if _is_numpy(chain[0]) and node.args:
            is_scatter = (chain[-1] == "at" and len(chain) >= 3) or (
                len(chain) == 2 and chain[1] in _SCATTER_FUNCS
            )
            if is_scatter and _root_name(node.args[0]) in snap:
                yield node.args[0]
                return
        # snapshot.sort() / snapshot.attr.fill(...)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and _root_name(node.func.value) in snap
        ):
            yield node.func.value


# ---------------------------------------------------------------------------
# RNG001 — unseeded numpy randomness outside utils/rng.py
# ---------------------------------------------------------------------------
#: ``np.random`` attributes that are types, not stochastic entry points.
_RNG_TYPE_NAMES = frozenset({
    "Generator", "SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM",
    "Philox", "SFC64", "MT19937", "RandomState",
})


class UnseededRNGRule(Rule):
    code = "RNG001"
    description = (
        "direct np.random usage outside utils/rng.py — route randomness "
        "through repro.utils.rng.as_rng for seedable, thread-count-"
        "invariant runs"
    )

    def applies(self, ctx):
        return not ctx.endswith("utils/rng.py")

    def check(self, tree, ctx):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if (
                    chain is not None
                    and len(chain) >= 3
                    and _is_numpy(chain[0])
                    and chain[1] == "random"
                    and chain[2] not in _RNG_TYPE_NAMES
                ):
                    yield RuleFinding(
                        node.lineno, node.col_offset, self.code,
                        f"direct call to {'.'.join(chain)}; use "
                        "repro.utils.rng.as_rng(seed) instead",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module != "numpy.random":
                    continue
                bad = [
                    a.name for a in node.names
                    if a.name not in _RNG_TYPE_NAMES
                ]
                if bad:
                    yield RuleFinding(
                        node.lineno, node.col_offset, self.code,
                        "import of numpy.random callables "
                        f"({', '.join(bad)}); use repro.utils.rng.as_rng",
                    )


# ---------------------------------------------------------------------------
# DET001 — set/dict iteration order feeding array construction
# ---------------------------------------------------------------------------
_ARRAY_CTORS = frozenset({
    "array", "asarray", "asanyarray", "fromiter", "concatenate", "stack",
    "hstack", "vstack", "column_stack",
})


def _is_unordered(node) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
            "set", "frozenset", "dict",
        ):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "keys", "values", "items", "union", "intersection", "difference",
        ):
            return True
    return False


def _feeds_unordered(node) -> bool:
    if _is_unordered(node):
        return True
    # list(<unordered>) / tuple(<unordered>) — materializing fixes nothing.
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "tuple")
        and node.args
        and _is_unordered(node.args[0])
    ):
        return True
    # [f(x) for x in <unordered>] / generator equivalent.
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return bool(node.generators) and _is_unordered(node.generators[0].iter)
    return False


class UnorderedToArrayRule(Rule):
    code = "DET001"
    description = (
        "set/dict iteration order feeds array construction in a "
        "deterministic package — wrap the iterable in sorted(...)"
    )

    def applies(self, ctx):
        return ctx.in_packages("core", "parallel", "coloring")

    def check(self, tree, ctx):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if (
                chain is None
                or len(chain) != 2
                or not _is_numpy(chain[0])
                or chain[1] not in _ARRAY_CTORS
            ):
                continue
            if any(_feeds_unordered(arg) for arg in node.args):
                yield RuleFinding(
                    node.lineno, node.col_offset, self.code,
                    f"np.{chain[1]} consumes set/dict iteration order; "
                    "wrap the iterable in sorted(...) for a deterministic "
                    "array",
                )


# ---------------------------------------------------------------------------
# ATOM001 — scatter accumulation in parallel worker functions
# ---------------------------------------------------------------------------
class WorkerScatterRule(Rule):
    code = "ATOM001"
    description = (
        "scatter accumulation inside a parallel worker bypasses "
        "ThreadLocalAccumulator (repro.parallel.atomic)"
    )

    def applies(self, ctx):
        return ctx.in_packages("parallel") and not ctx.endswith("atomic.py")

    def check(self, tree, ctx):
        for func in ast.walk(tree):
            if not isinstance(func, _FUNC_NODES):
                continue
            if "worker" not in func.name.lower():
                continue
            params = set(_func_params(func))
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    chain = _attr_chain(node.func)
                    if (
                        chain is not None
                        and len(chain) >= 3
                        and _is_numpy(chain[0])
                        and chain[-1] == "at"
                    ):
                        yield RuleFinding(
                            node.lineno, node.col_offset, self.code,
                            f"np.{chain[1]}.at scatter inside worker "
                            f"{func.name!r}; accumulate through a per-worker "
                            "ThreadLocalAccumulator buffer and reduce once",
                        )
                elif isinstance(node, ast.AugAssign):
                    if (
                        isinstance(node.target, ast.Subscript)
                        and _root_name(node.target) in params
                    ):
                        yield RuleFinding(
                            node.lineno, node.col_offset, self.code,
                            "augmented assignment into a shared array inside "
                            f"worker {func.name!r}; use ThreadLocalAccumulator",
                        )


# ---------------------------------------------------------------------------
# OBS001 — wall-clock reads outside the instrumented timing path
# ---------------------------------------------------------------------------
#: ``time`` module attributes that read the wall/monotonic clock.
_CLOCK_FUNCS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
})


class DirectTimingRule(Rule):
    code = "OBS001"
    description = (
        "direct time.perf_counter()/time.time() outside utils/timing.py "
        "and repro/obs/ — route timing through the obs tracer or "
        "repro.utils.timing so measurements land in one stream"
    )

    def applies(self, ctx):
        return (
            ctx.is_library_code()
            and not ctx.endswith("utils/timing.py")
            and "repro/obs/" not in ctx.path
        )

    def check(self, tree, ctx):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if (
                    chain is not None
                    and len(chain) == 2
                    and chain[0] == "time"
                    and chain[1] in _CLOCK_FUNCS
                ):
                    yield RuleFinding(
                        node.lineno, node.col_offset, self.code,
                        f"direct call to {'.'.join(chain)}; use the "
                        "repro.obs tracer (span/step) or repro.utils.timing "
                        "instead",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module != "time":
                    continue
                bad = [a.name for a in node.names if a.name in _CLOCK_FUNCS]
                if bad:
                    yield RuleFinding(
                        node.lineno, node.col_offset, self.code,
                        f"import of time clock reader(s) ({', '.join(bad)}); "
                        "use the repro.obs tracer or repro.utils.timing",
                    )


# ---------------------------------------------------------------------------
# OBS002 — metric/span names must follow the dotted.lower_snake scheme
# ---------------------------------------------------------------------------
#: Full metric/span name: lower_snake segments joined by dots; the first
#: segment must start with a letter, later segments may be numeric
#: (``worker.0.alive``).
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
#: Static fragments of an f-string name may only contribute these
#: characters (the dynamic parts fill in whole segments).
_METRIC_FRAGMENT_RE = re.compile(r"^[a-z0-9_.]*$")
#: Obs-surface methods that take a metric/span name first.
_OBS_NAME_METHODS = frozenset({"count", "gauge", "observe", "span", "step"})
#: Receiver names that identify the obs surface (``tracer.count``,
#: ``self._tracer.gauge``, ``reg.observe``, ``tracer.metrics.count``).
_OBS_RECEIVERS = frozenset({"tracer", "_tracer", "metrics", "registry", "reg"})


class MetricNameSchemeRule(Rule):
    code = "OBS002"
    description = (
        "metric/span name off the dotted.lower_snake scheme — one naming "
        "scheme keeps the Prometheus mapping collision-free and "
        "dashboards greppable (docs/observability.md)"
    )

    def applies(self, ctx):
        return ctx.is_library_code()

    @staticmethod
    def _is_obs_receiver(node: ast.AST) -> bool:
        """Receiver looks like a tracer/registry (``get_tracer()`` included)."""
        if isinstance(node, ast.Name):
            return node.id in _OBS_RECEIVERS
        if isinstance(node, ast.Attribute):
            return node.attr in _OBS_RECEIVERS
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            return chain is not None and chain[-1] == "get_tracer"
        return False

    @staticmethod
    def _name_arg(node: ast.Call) -> "ast.AST | None":
        if node.args:
            return node.args[0]
        for kw in node.keywords:
            if kw.arg == "name":
                return kw.value
        return None

    def check(self, tree, ctx):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _OBS_NAME_METHODS
                    and self._is_obs_receiver(node.func.value)):
                continue
            arg = self._name_arg(node)
            if arg is None:
                continue
            method = node.func.attr
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if not _METRIC_NAME_RE.match(arg.value):
                    yield RuleFinding(
                        node.lineno, node.col_offset, self.code,
                        f"{method} name {arg.value!r} is off the "
                        "dotted.lower_snake scheme "
                        "(^[a-z][a-z0-9_]*(\\.[a-z0-9_]+)*$)",
                    )
            elif isinstance(arg, ast.JoinedStr):
                bad = [
                    part.value for part in arg.values
                    if isinstance(part, ast.Constant)
                    and isinstance(part.value, str)
                    and not _METRIC_FRAGMENT_RE.match(part.value)
                ]
                if bad:
                    yield RuleFinding(
                        node.lineno, node.col_offset, self.code,
                        f"{method} f-string name has fragment(s) "
                        f"{bad!r} outside [a-z0-9_.]; keep dynamic names "
                        "on the dotted.lower_snake scheme",
                    )
            # Anything else (a variable, a call) is dynamic: skipped.


class UntimedQueueGetRule(Rule):
    code = "QUEUE001"
    description = (
        "untimed Queue.get() on a queue-named receiver — the hang class "
        "behind the seed process backend: a worker dying mid-chunk (or a "
        "SIGKILL holding the queue lock) blocks the reader forever.  Use "
        "get(timeout=...) inside a deadline-and-liveness loop "
        "(docs/robustness.md)"
    )

    def applies(self, ctx):
        # repro.robust owns the recovery machinery and documents any
        # exception it makes for itself.
        return ctx.is_library_code() and "repro/robust/" not in ctx.path

    @staticmethod
    def _queue_named(name: "str | None") -> bool:
        if name is None:
            return False
        lowered = name.lower()
        return lowered == "q" or lowered.endswith("_q") or "queue" in lowered

    def check(self, tree, ctx):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"):
                continue
            receiver = node.func.value
            name = (receiver.attr if isinstance(receiver, ast.Attribute)
                    else receiver.id if isinstance(receiver, ast.Name)
                    else None)
            if not self._queue_named(name):
                continue
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            if any(
                kw.arg == "block"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in node.keywords
            ):
                continue
            if len(node.args) >= 2:  # get(block, timeout)
                continue
            if (node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is False):
                continue  # get(False): non-blocking
            yield RuleFinding(
                node.lineno, node.col_offset, self.code,
                f"untimed {name}.get() blocks forever if the producer "
                "dies; pass timeout= and check liveness between waits",
            )


#: Identifier substrings that count as "consulting a deadline" for
#: DEAD001 (variables like ``deadline``, ``remaining_budget``,
#: ``retry_timeout``, ``wait_until``, ``expires_at``).
_DEADLINE_HINTS = ("deadline", "remaining", "budget", "timeout",
                   "until", "expir")
#: Call/attribute names that consult a clock or the budget controller.
_DEADLINE_CALLS = frozenset({
    "monotonic", "should_stop", "stop_reason", "expired",
})


class SleepWithoutDeadlineRule(Rule):
    code = "DEAD001"
    description = (
        "sleep inside a loop that never consults a deadline — a "
        "sleep/retry loop in library code must bound itself against "
        "remaining time (monotonic() deadline, a timeout variable, or "
        "the ambient BudgetController), or a dead producer parks it "
        "forever and it can overrun any RunBudget"
    )

    def applies(self, ctx):
        # repro.robust owns the budget/recovery machinery and documents
        # any exception it makes for itself (mirrors QUEUE001).
        return ctx.is_library_code() and "repro/robust/" not in ctx.path

    @staticmethod
    def _identifiers(node) -> "Iterator[str]":
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    def _consults_deadline(self, loop) -> bool:
        for ident in self._identifiers(loop):
            lowered = ident.lower()
            if lowered in _DEADLINE_CALLS:
                return True
            if any(hint in lowered for hint in _DEADLINE_HINTS):
                return True
        return False

    @staticmethod
    def _is_sleep(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (isinstance(func, ast.Attribute) and func.attr == "sleep") \
            or (isinstance(func, ast.Name) and func.id == "sleep")

    def check(self, tree, ctx):
        findings: list[tuple[int, int]] = []

        def walk(node, enclosing_loops):
            if isinstance(node, (ast.While, ast.For)):
                enclosing_loops = enclosing_loops + [node]
            elif self._is_sleep(node) and enclosing_loops:
                if not any(self._consults_deadline(loop)
                           for loop in enclosing_loops):
                    findings.append((node.lineno, node.col_offset))
            for child in ast.iter_child_nodes(node):
                walk(child, enclosing_loops)

        walk(tree, [])
        for line, col in findings:
            yield RuleFinding(
                line, col, self.code,
                "sleep in a loop that never consults a deadline; check "
                "remaining time each pass (utils.timing.monotonic "
                "deadline, a timeout bound, or the ambient "
                "BudgetController)",
            )


# ---------------------------------------------------------------------------
# Generic rules
# ---------------------------------------------------------------------------
class MutableDefaultRule(Rule):
    code = "MUT001"
    description = "mutable default argument (shared across calls)"

    def check(self, tree, ctx):
        for func in ast.walk(tree):
            if not isinstance(func, _FUNC_NODES + (ast.Lambda,)):
                continue
            defaults = list(func.args.defaults) + [
                d for d in func.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set", "bytearray")
                )
                if mutable:
                    name = getattr(func, "name", "<lambda>")
                    yield RuleFinding(
                        default.lineno, default.col_offset, self.code,
                        f"mutable default argument in {name!r}; default to "
                        "None and create the object inside the function",
                    )


class BareAssertRule(Rule):
    code = "ASSERT001"
    description = (
        "bare assert in library code (stripped under python -O); raise "
        "ValidationError instead"
    )

    def applies(self, ctx):
        return ctx.is_library_code()

    def check(self, tree, ctx):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                yield RuleFinding(
                    node.lineno, node.col_offset, self.code,
                    "bare assert in library code; raise "
                    "repro.utils.errors.ValidationError (asserts vanish "
                    "under python -O)",
                )


#: allocation → index of the positional argument that would carry dtype.
_ALLOC_DTYPE_POS = {"zeros": 1, "empty": 1, "full": 2}


class MissingDtypeRule(Rule):
    code = "DTYPE001"
    description = (
        "np.zeros/np.empty/np.full without an explicit dtype in a hot "
        "module (the float64 default widens int arrays silently)"
    )

    def applies(self, ctx):
        return ctx.in_packages(
            "core", "parallel", "coloring", "graph", "distributed"
        )

    def check(self, tree, ctx):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain is None or len(chain) != 2 or not _is_numpy(chain[0]):
                continue
            fn = chain[1]
            pos = _ALLOC_DTYPE_POS.get(fn)
            if pos is None:
                continue
            has_dtype = len(node.args) > pos or any(
                kw.arg == "dtype" for kw in node.keywords
            )
            if not has_dtype:
                yield RuleFinding(
                    node.lineno, node.col_offset, self.code,
                    f"np.{fn} without an explicit dtype in a hot module; "
                    "spell the dtype out",
                )


#: Registry, in reporting order.
RULES: tuple[Rule, ...] = (
    SnapshotWriteRule(),
    UnseededRNGRule(),
    UnorderedToArrayRule(),
    WorkerScatterRule(),
    DirectTimingRule(),
    MetricNameSchemeRule(),
    UntimedQueueGetRule(),
    SleepWithoutDeadlineRule(),
    MutableDefaultRule(),
    BareAssertRule(),
    MissingDtypeRule(),
)


def all_codes() -> tuple[str, ...]:
    """Every registered rule code, in registry order."""
    return tuple(rule.code for rule in RULES)
