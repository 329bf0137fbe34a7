"""Forward dataflow/taint engine over the project call graph.

The engine answers the questions the interprocedural rules
(:mod:`repro.lint.iprules`) ask:

* *does this function — or anything it calls — write one of its
  parameters?*  (SNAP101: a ``@snapshot_kernel`` function passing its
  snapshot state into a helper that mutates it);
* *does a shared-memory view escape its scope?*  (SHM001: returned
  without ``.copy()``, captured by an escaping closure, or handed to a
  callee that retains it);
* *which values are queues, wherever they travel?*  (QPROTO001: an
  untimed ``get()`` is a hang bug no matter what the receiver variable
  is called);
* *which module globals does each side of a worker fork touch?*
  (LOCK001).

Design: one **local pass** per function computes a
:class:`FunctionSummary` (parameters written / returned-as-view /
retained) plus taint contributions to its callees' parameters; a
**fixpoint loop** over the call graph re-runs local passes with the
latest callee summaries until nothing changes (summaries and taints only
grow, so termination is structural, with a hard round cap as a belt).
A final pass replays every function against the converged summaries and
records :class:`Event` objects for the rules to consume.

Taint tokens are plain strings: ``"param:<name>"`` (value is a view of a
parameter), ``"shm"`` (value is backed by ``multiprocessing.shared_memory``),
``"queue"`` (value is a queue object).  ``.copy()`` / ``np.array(...)`` /
``.tolist()`` launder taint — a copy is exactly the sanctioned way to
move data out of a snapshot or a shared segment.

Everything here is deliberately an *over*-approximation on alias
propagation and an *under*-approximation on call resolution: a missed
edge can only hide a finding, never fabricate one — the right bias for
a lint gate with ``# noqa`` as the escape hatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    _iter_own_nodes,
    _resolve_callee,
    build_callgraph,
)
from repro.lint.rules import (
    _FUNC_NODES,
    _MUTATING_METHODS,
    _SCATTER_FUNCS,
    _attr_chain,
    _is_numpy,
    _root_name,
)

__all__ = ["Event", "FunctionSummary", "LocalResult", "ProjectAnalysis"]

#: Taint tokens.  ``SHM`` marks ndarray *views* over shared memory — the
#: escape hazard SHM001 tracks.  ``SHMSEG`` marks the ``SharedMemory``
#: segment objects themselves: passing or returning a segment is an
#: ownership transfer (the receiver calls ``close()``/``unlink()``), so
#: it is deliberately NOT flagged; a view constructed over a segment
#: (``np.ndarray(..., buffer=seg.buf)``) picks up ``SHM``.
SHM = "shm"
SHMSEG = "shmseg"
QUEUE = "queue"


def _param_token(name: str) -> str:
    return f"param:{name}"


def _token_param(token: str) -> "str | None":
    return token[len("param:"):] if token.startswith("param:") else None


#: Call shapes that launder taint (they copy data out of the source).
_LAUNDER_METHODS = frozenset({"copy", "tolist", "item", "sum", "mean",
                              "max", "min", "all", "any"})
#: Queue constructors (stdlib queue / multiprocessing / ctx.Queue()).
_QUEUE_CTORS = frozenset({"Queue", "SimpleQueue", "JoinableQueue",
                          "LifoQueue", "PriorityQueue"})


@dataclass
class FunctionSummary:
    """What a function does to its parameters, transitively.

    ``writes``/``stores`` map a parameter name to the call path (tuple of
    qnames, ``()`` = in this very body) through which the effect happens;
    only the first-discovered path is kept, so the fixpoint compares key
    sets, not paths.
    """

    writes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    returns: set[str] = field(default_factory=set)
    stores: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Non-parameter taint returned by the function ({"shm"}, {"queue"}).
    returns_extra: set[str] = field(default_factory=set)

    def signature(self) -> tuple:
        """Change-detection key for the fixpoint (paths excluded)."""
        return (
            frozenset(self.writes),
            frozenset(self.returns),
            frozenset(self.stores),
            frozenset(self.returns_extra),
        )


@dataclass(frozen=True)
class Event:
    """One rule-relevant fact discovered during the final pass.

    ``kind`` values:

    - ``tainted_call_write`` — a parameter-rooted argument is written by
      the callee (``param``, ``callee``, ``path`` set);
    - ``alias_write`` — a parameter is written through a local alias
      (``param``, ``detail`` = alias name);
    - ``shm_return`` — a shared-memory view is returned un-copied;
    - ``shm_closure`` — an escaping closure captures an shm view
      (``detail`` = closure name);
    - ``shm_store_arg`` — an shm view is passed to a callee that retains
      it (``callee``, ``param`` = callee parameter, ``path``);
    - ``untimed_get`` — untimed ``get()`` on a queue-tainted receiver
      (``detail`` = receiver description);
    - ``put_after_close`` — ``put()`` on a queue this function already
      ``close()``d (``detail`` = queue name).
    """

    kind: str
    qname: str
    line: int
    col: int
    param: str = ""
    callee: str = ""
    path: tuple[str, ...] = ()
    detail: str = ""


@dataclass
class LocalResult:
    """Per-function facts from the final (event-collecting) pass."""

    summary: FunctionSummary
    events: list[Event] = field(default_factory=list)
    #: Module-level mutable globals read / written by this function:
    #: name -> (line, col) of one representative site.
    global_reads: dict[str, tuple[int, int]] = field(default_factory=dict)
    global_writes: dict[str, tuple[int, int]] = field(default_factory=dict)


class _LocalPass:
    """One abstract-interpretation pass over a single function body."""

    def __init__(self, analysis: "ProjectAnalysis", fn: FunctionInfo,
                 collect: bool):
        self.analysis = analysis
        self.graph = analysis.graph
        self.fn = fn
        self.info: ModuleInfo = analysis.graph.modules[fn.module]
        self.collect = collect
        self.summary = FunctionSummary()
        self.result = LocalResult(self.summary)
        self.env: dict[str, frozenset[str]] = {}
        self.closed_queues: set[str] = set()
        self._local_names: set[str] = set(fn.params)
        for p in fn.params:
            tokens = {_param_token(p)}
            if _queue_named(p):
                tokens.add(QUEUE)
            tokens |= analysis.param_taint.get(fn.qname, {}).get(p, set())
            self.env[p] = frozenset(tokens)

    # -- entry ----------------------------------------------------------

    def run(self) -> LocalResult:
        body = getattr(self.fn.node, "body", [])
        self._exec_block(body)
        if self.collect:
            self._check_closures()
        return self.result

    # -- statement walk (document order, nested functions skipped) -------

    def _exec_block(self, stmts) -> None:
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, node: ast.AST) -> None:
        if isinstance(node, _FUNC_NODES + (ast.Lambda, ast.ClassDef)):
            return  # nested defs are separate graph nodes
        if isinstance(node, ast.Assign):
            tokens = self._tokens(node.value)
            for target in node.targets:
                self._assign(target, tokens, node)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self._tokens(node.value), node)
        elif isinstance(node, ast.AugAssign):
            value_tokens = self._tokens(node.value)
            self._write_target(node.target, node, value_tokens, aug=True)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                tokens = self._tokens(node.value)
                for token in tokens:
                    p = _token_param(token)
                    if p is not None:
                        self.summary.returns.add(p)
                if SHM in tokens:
                    self.summary.returns_extra.add(SHM)
                    self._emit(Event("shm_return", self.fn.qname,
                                     node.lineno, node.col_offset))
                if SHMSEG in tokens:
                    self.summary.returns_extra.add(SHMSEG)
                if QUEUE in tokens:
                    self.summary.returns_extra.add(QUEUE)
            return
        elif isinstance(node, ast.Expr):
            self._tokens(node.value)
        elif isinstance(node, (ast.If, ast.While)):
            self._tokens(node.test)
            self._exec_block(node.body)
            self._exec_block(node.orelse)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            # Iterating a tainted container yields tainted views.
            self._assign(node.target, self._tokens(node.iter), node)
            self._exec_block(node.body)
            self._exec_block(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                tokens = self._tokens(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, tokens, node)
            self._exec_block(node.body)
        elif isinstance(node, ast.Try):
            self._exec_block(node.body)
            for handler in node.handlers:
                self._exec_block(handler.body)
            self._exec_block(node.orelse)
            self._exec_block(node.finalbody)
        elif isinstance(node, (ast.Delete, ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._tokens(child)
        else:
            # Any other statement: evaluate contained expressions so call
            # effects (and np-call collection) are not missed.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._tokens(child)
                elif isinstance(child, ast.stmt):
                    self._exec(child)

    # -- assignment / write handling -------------------------------------

    def _assign(self, target, tokens: frozenset[str], stmt) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = tokens
            self._local_names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self._assign(inner, tokens, stmt)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, tokens, stmt)
        else:
            self._write_target(target, stmt, tokens)

    def _write_target(self, target, stmt, value_tokens: frozenset[str],
                      *, aug: bool = False) -> None:
        """A mutation through ``target`` (subscript/attribute/aug)."""
        if isinstance(target, ast.Name):
            if not aug:
                return  # plain rebind, handled by _assign
            root = target.id
        else:
            root = _root_name(target)
        if root is None:
            return
        if root in ("self", "cls"):
            # Retaining state on the instance: record param stores, and
            # taint the instance attribute so other methods of the class
            # see shm/queue values stored here (``self._views = views``).
            for token in value_tokens:
                p = _token_param(token)
                if p is not None:
                    self.summary.stores.setdefault(p, ())
            if (self.fn.class_qname is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)):
                flow = {t for t in (SHM, SHMSEG, QUEUE) if t in value_tokens}
                if flow:
                    self.analysis.note_attr_taint(
                        self.fn.class_qname, target.attr, flow
                    )
            return
        self._note_global_write(root, stmt)
        for token in self.env.get(root, frozenset()):
            p = _token_param(token)
            if p is None:
                continue
            self.summary.writes.setdefault(p, ())
            if root != p:
                self._emit(Event("alias_write", self.fn.qname,
                                 stmt.lineno, stmt.col_offset,
                                 param=p, detail=root))

    def _note_global_write(self, name: str, stmt) -> None:
        if not self.collect:
            return
        if name in self._local_names:
            return
        if name in self.info.mutable_globals:
            self.result.global_writes.setdefault(
                name, (stmt.lineno, stmt.col_offset)
            )

    # -- expression evaluation -------------------------------------------

    def _tokens(self, node: "ast.AST | None") -> frozenset[str]:
        if node is None:
            return frozenset()
        if isinstance(node, ast.Name):
            if (self.collect and node.id not in self._local_names
                    and node.id in self.info.mutable_globals):
                self.result.global_reads.setdefault(
                    node.id, (node.lineno, node.col_offset)
                )
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            base = self._tokens(node.value)
            if (isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                    and self.fn.class_qname is not None):
                base |= frozenset(
                    self.analysis.attr_taint
                    .get(self.fn.class_qname, {})
                    .get(node.attr, set())
                )
            return base
        if isinstance(node, ast.Subscript):
            self._tokens(node.slice)
            return self._tokens(node.value)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.IfExp):
            self._tokens(node.test)
            return self._tokens(node.body) | self._tokens(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out: frozenset[str] = frozenset()
            for elt in node.elts:
                out |= self._tokens(elt)
            return out
        if isinstance(node, ast.Dict):
            out = frozenset()
            for key, value in zip(node.keys, node.values):
                if key is not None:
                    self._tokens(key)
                out |= self._tokens(value)
            return out
        if isinstance(node, (ast.DictComp, ast.SetComp, ast.ListComp,
                             ast.GeneratorExp)):
            # Comprehensions materialize element-wise; a dict of shm
            # segments stays shm-tainted, scalar folds launder.
            for gen in node.generators:
                self._tokens(gen.iter)
            if isinstance(node, ast.DictComp):
                return self._tokens(node.value)
            return self._tokens(node.elt)
        if isinstance(node, ast.Starred):
            return self._tokens(node.value)
        if isinstance(node, (ast.BoolOp,)):
            out = frozenset()
            for value in node.values:
                out |= self._tokens(value)
            return out
        if isinstance(node, ast.NamedExpr):
            tokens = self._tokens(node.value)
            self._assign(node.target, tokens, node)
            return tokens
        # Arithmetic, comparisons, f-strings, constants, lambdas: the
        # result is fresh data (or opaque); evaluate children for effects.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr) and not isinstance(
                    child, ast.Lambda):
                self._tokens(child)
        return frozenset()

    # -- call handling ----------------------------------------------------

    def _call(self, node: ast.Call) -> frozenset[str]:
        chain = _attr_chain(node.func)
        arg_tokens = [self._tokens(a) for a in node.args]
        kw_tokens = {kw.arg: self._tokens(kw.value) for kw in node.keywords}

        # Laundering copies: x.copy(), np.array(x), x.tolist(), ...
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _LAUNDER_METHODS):
            return frozenset()
        if chain is not None and len(chain) == 2 and _is_numpy(chain[0]) \
                and chain[1] == "array":
            return frozenset()

        # Mutating methods / numpy scatter on tainted receivers.
        if isinstance(node.func, ast.Attribute):
            self._method_effects(node, chain)

        # Constructors with intrinsic taint.
        if chain is not None:
            tail = chain[-1]
            if tail in _QUEUE_CTORS:
                return frozenset({QUEUE})
            if tail == "SharedMemory":
                return frozenset({SHMSEG})
            if _is_numpy(chain[0]) and tail == "ndarray":
                buf = kw_tokens.get("buffer", frozenset())
                if buf & {SHM, SHMSEG}:
                    return frozenset({SHM})

        # Project callees: apply summaries, contribute parameter taint.
        out: frozenset[str] = frozenset()
        for callee_q, bound in self._resolve(node):
            callee = self.graph.functions.get(callee_q)
            if callee is None:
                continue
            summary = self.analysis.summaries.get(
                callee_q, FunctionSummary()
            )
            out |= frozenset(summary.returns_extra)
            for param, expr, tokens in self._bind(
                    callee, node, bound, arg_tokens, kw_tokens):
                # Flow caller taint into the callee's parameter.
                flow = {t for t in (SHM, SHMSEG, QUEUE) if t in tokens}
                if flow:
                    self.analysis.note_param_taint(callee_q, param, flow)
                # Writes through the call boundary.
                if param in summary.writes:
                    for token in tokens:
                        p = _token_param(token)
                        if p is None:
                            continue
                        path = (callee_q,) + summary.writes[param]
                        self.summary.writes.setdefault(p, path)
                        self._emit(Event(
                            "tainted_call_write", self.fn.qname,
                            node.lineno, node.col_offset,
                            param=p, callee=callee_q, path=path,
                        ))
                # Retention through the call boundary.
                if param in summary.stores and SHM in tokens:
                    path = (callee_q,) + summary.stores[param]
                    self._emit(Event(
                        "shm_store_arg", self.fn.qname,
                        node.lineno, node.col_offset,
                        param=param, callee=callee_q, path=path,
                    ))
                # Param-to-param store/write propagation upward.
                for token in tokens:
                    p = _token_param(token)
                    if p is not None and param in summary.stores:
                        self.summary.stores.setdefault(
                            p, (callee_q,) + summary.stores[param]
                        )
                # Returned views propagate argument taint.
                if param in summary.returns:
                    out |= tokens
        return out

    def _method_effects(self, node: ast.Call, chain) -> None:
        func = node.func
        receiver = func.value
        rec_tokens = self._tokens(receiver)
        # snapshot/alias mutation via mutating methods.
        if func.attr in _MUTATING_METHODS:
            root = _root_name(receiver)
            for token in rec_tokens:
                p = _token_param(token)
                if p is not None:
                    self.summary.writes.setdefault(p, ())
                    if root != p:
                        self._emit(Event(
                            "alias_write", self.fn.qname,
                            node.lineno, node.col_offset,
                            param=p, detail=root or "?",
                        ))
            if root is not None:
                self._note_global_write(root, node)
        # np.<ufunc>.at(dest, ...) / np.copyto(dest, ...) scatter writes.
        if chain is not None and _is_numpy(chain[0]) and node.args:
            is_scatter = (chain[-1] == "at" and len(chain) >= 3) or (
                len(chain) == 2 and chain[1] in _SCATTER_FUNCS
            )
            if is_scatter:
                dest = node.args[0]
                dest_root = _root_name(dest)
                for token in self._tokens(dest):
                    p = _token_param(token)
                    if p is not None:
                        self.summary.writes.setdefault(p, ())
                        if dest_root != p:
                            self._emit(Event(
                                "alias_write", self.fn.qname,
                                node.lineno, node.col_offset,
                                param=p, detail=dest_root or "?",
                            ))
                if dest_root is not None:
                    self._note_global_write(dest_root, node)
        # Queue protocol: untimed get / put-after-close.
        if QUEUE in rec_tokens:
            name = _receiver_desc(receiver)
            if func.attr == "close":
                if isinstance(receiver, (ast.Name, ast.Attribute)):
                    self.closed_queues.add(name)
            elif func.attr == "put" and name in self.closed_queues:
                self._emit(Event("put_after_close", self.fn.qname,
                                 node.lineno, node.col_offset, detail=name))
            elif func.attr == "get" and _get_is_untimed(node):
                self._emit(Event("untimed_get", self.fn.qname,
                                 node.lineno, node.col_offset, detail=name))

    def _resolve(self, node: ast.Call) -> list[tuple[str, bool]]:
        callees, bound = _resolve_callee(
            self.graph, self.info, self.fn, node.func
        )
        return [(c, bound) for c in callees]

    def _bind(self, callee: FunctionInfo, node: ast.Call, bound: bool,
              arg_tokens, kw_tokens) -> Iterator[tuple]:
        params = list(callee.params)
        if params and params[0] in ("self", "cls") and (
                bound or callee.name == "__init__"):
            params = params[1:]
        positional = [a for a in node.args
                      if not isinstance(a, ast.Starred)]
        for i, arg in enumerate(positional):
            if i < len(params):
                yield params[i], arg, arg_tokens[i]
        for kw in node.keywords:
            if kw.arg and kw.arg in callee.params:
                yield kw.arg, kw.value, kw_tokens[kw.arg]

    # -- closures ----------------------------------------------------------

    def _check_closures(self) -> None:
        """Flag escaping closures that capture shm-tainted locals."""
        for child in ast.walk(self.fn.node):
            if child is self.fn.node or not isinstance(child, _FUNC_NODES):
                continue
            nested_q = f"{self.fn.qname}.<locals>.{child.name}"
            if nested_q not in self.graph.functions:
                continue
            captured = {
                name for name in _free_names(child)
                if SHM in self.env.get(name, frozenset())
            }
            if captured and self._escapes(child.name, nested_q):
                self._emit(Event(
                    "shm_closure", self.fn.qname,
                    child.lineno, child.col_offset,
                    detail=child.name,
                    param=", ".join(sorted(captured)),
                ))

    def _escapes(self, name: str, nested_q: str) -> bool:
        for node in _iter_own_nodes(self.fn.node):
            if isinstance(node, ast.Return) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == name:
                return True
            if isinstance(node, ast.Assign):
                roots = {
                    _root_name(t) for t in node.targets
                    if not isinstance(t, ast.Name)
                }
                if isinstance(node.value, ast.Name) and \
                        node.value.id == name and \
                        roots & {"self", "cls"}:
                    return True
        for site in self.graph.calls_from(self.fn.qname):
            if site.callee == nested_q and site.kind in ("ref", "partial"):
                return True
        return False

    # -- util --------------------------------------------------------------

    def _emit(self, event: Event) -> None:
        if self.collect:
            self.result.events.append(event)


def _queue_named(name: "str | None") -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return lowered == "q" or lowered.endswith("_q") or "queue" in lowered


def _receiver_desc(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return "<expr>"


def _get_is_untimed(node: ast.Call) -> bool:
    """Mirror QUEUE001's notion of an untimed blocking ``get()``."""
    if any(kw.arg == "timeout" for kw in node.keywords):
        return False
    if any(
        kw.arg == "block" and isinstance(kw.value, ast.Constant)
        and kw.value.value is False
        for kw in node.keywords
    ):
        return False
    if len(node.args) >= 2:
        return False
    if node.args and isinstance(node.args[0], ast.Constant) \
            and node.args[0].value is False:
        return False
    return True


def _free_names(func: ast.AST) -> set[str]:
    """Names a nested function reads but does not bind itself."""
    bound = set()
    args = func.args
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    reads: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            else:
                reads.add(node.id)
    return reads - bound


class ProjectAnalysis:
    """Call graph + converged summaries + per-function events."""

    #: Hard cap on fixpoint rounds (summaries grow monotonically, so this
    #: is a belt; typical convergence is 2-4 rounds).
    MAX_ROUNDS = 30

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.summaries: dict[str, FunctionSummary] = {}
        #: Extra taint flowing into parameters from call sites:
        #: qname -> param -> {"shm", "shmseg", "queue"}.
        self.param_taint: dict[str, dict[str, set[str]]] = {}
        #: Taint stored on instance attributes (``self.x = <tainted>``):
        #: class qname -> attribute -> {"shm", "shmseg", "queue"}.
        self.attr_taint: dict[str, dict[str, set[str]]] = {}
        self.results: dict[str, LocalResult] = {}
        self._taint_changed = False

    @classmethod
    def build(cls, sources: "dict[str, ast.Module]") -> "ProjectAnalysis":
        return cls.from_graph(build_callgraph(sources))

    @classmethod
    def from_graph(cls, graph: CallGraph) -> "ProjectAnalysis":
        analysis = cls(graph)
        analysis._fixpoint()
        analysis._final_pass()
        return analysis

    def note_param_taint(self, qname: str, param: str,
                         tokens: set[str]) -> None:
        slot = self.param_taint.setdefault(qname, {}).setdefault(
            param, set()
        )
        if not tokens <= slot:
            slot.update(tokens)
            self._taint_changed = True

    def note_attr_taint(self, class_qname: str, attr: str,
                        tokens: set[str]) -> None:
        slot = self.attr_taint.setdefault(class_qname, {}).setdefault(
            attr, set()
        )
        if not tokens <= slot:
            slot.update(tokens)
            self._taint_changed = True

    def _fixpoint(self) -> None:
        order = sorted(self.graph.functions)
        self.summaries = {q: FunctionSummary() for q in order}
        for _ in range(self.MAX_ROUNDS):
            changed = False
            self._taint_changed = False
            for qname in order:
                fn = self.graph.functions[qname]
                summary = _LocalPass(self, fn, collect=False).run().summary
                if summary.signature() != self.summaries[qname].signature():
                    self.summaries[qname] = summary
                    changed = True
            if not changed and not self._taint_changed:
                break

    def _final_pass(self) -> None:
        for qname in sorted(self.graph.functions):
            fn = self.graph.functions[qname]
            self.results[qname] = _LocalPass(self, fn, collect=True).run()

    # -- derived facts for the rules --------------------------------------

    def events(self, kind: "str | None" = None) -> Iterator[Event]:
        for qname in sorted(self.results):
            for event in self.results[qname].events:
                if kind is None or event.kind == kind:
                    yield event
