"""``fork-fence-safety``: worker-reachable global mutation needs a fence.

The experiment orchestrator and the link-level runner fan work out over
``multiprocessing`` pools.  Under the fork start method a worker inherits
a snapshot of every module global; anything a worker *mutates* after the
fork diverges silently from the parent — counters undercount, registries
drift, caches go stale — and the observability layer grew an explicit
fork-aware handoff (``owner_pid`` + ``in_foreign_process()`` + adopt/
drain/merge) for exactly this failure.  That protocol is convention,
though: nothing stopped the next worker helper from rebinding a module
global and reintroducing the bug.

This rule walks the conservative call graph from every worker entry
point and flags functions that declare ``global X`` and store to ``X``,
unless the function also *tests* ``X`` in an ``if`` — the guarded-memo /
latch idiom (``if _CACHE is None: _CACHE = build()``;
``if _warmed: return``) which is idempotent and therefore fork-safe: a
worker recomputes the same value into its own copy instead of producing
divergent state.

Worker entry points, in decreasing specificity:

- first argument of ``imap_jobs`` / ``map_jobs`` (the
  ``repro.utils.parallel`` wrappers all fan-out goes through);
- first argument of a pool-method call (``.map``, ``.imap``,
  ``.imap_unordered``, ``.starmap``, ``.apply_async``, ...) in a module
  that imports ``multiprocessing``, ``concurrent.futures`` or
  ``repro.utils.parallel``;
- the ``target=`` keyword of any call (``Process(target=fn)``).

An argument that is a plain variable is resolved flow-insensitively to
every function ever assigned to it in the enclosing scope — the
orchestrator's ``job_fn = _inline if fast else _measured`` pattern makes
both candidates roots.  Resolution is in-graph only, so reachability
under-approximates: the rule can miss a path, never invent one.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.contracts.modgraph import FnKey, ModuleGraph, ModuleInfo
from repro.lint.engine import Finding, Rule

__all__ = ["ForkFenceSafety"]

#: Resolved dotted suffixes of the repo's fan-out wrappers.
_PARALLEL_WRAPPERS = ("utils.parallel.imap_jobs", "utils.parallel.map_jobs")

#: Pool methods whose first argument runs in a worker process.
_POOL_METHODS = frozenset({
    "map", "imap", "imap_unordered", "starmap", "starmap_async",
    "map_async", "apply", "apply_async",
})

#: Module imports that mark a file as pool-using (keeps the attribute
#: heuristic from firing on unrelated ``.map`` methods elsewhere).
_POOL_IMPORT_ROOTS = ("multiprocessing", "concurrent.futures",
                      "repro.utils.parallel")


def _uses_pools(info: ModuleInfo) -> bool:
    for target in info.ctx.aliases.values():
        dotted = info.resolve_relative(target)
        if any(dotted == root or dotted.startswith(root + ".")
               for root in _POOL_IMPORT_ROOTS):
            return True
    return False


def _assigned_values(scope: ast.AST, name: str) -> list[ast.expr]:
    """Every value ever assigned to ``name`` inside ``scope``."""
    out: list[ast.expr] = []
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == name
                   for t in node.targets):
                out.append(node.value)
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
              and isinstance(node.target, ast.Name)
              and node.target.id == name):
            out.append(node.value)
    return out


class ForkFenceSafety(Rule):
    """Flag worker-reachable unguarded global mutation (module docstring)."""

    id = "fork-fence-safety"
    description = ("a function reachable from a multiprocessing worker "
                   "entry point rebinds a module global without a "
                   "guarded-memo fence")
    hint = ("make the mutation idempotent (guarded memo: `if X is None: "
            "X = ...`) or hand state across the fork explicitly, as "
            "repro.obs does with owner_pid + adopt()/drain")
    cross_file = True

    def run_graph(self, graph: ModuleGraph) -> Iterable[Finding]:
        roots = self._worker_roots(graph)
        if not roots:
            return
        reachable = graph.reachable(roots)
        for mod_name, fn_name in sorted(reachable):
            info = graph.module(mod_name)
            if info is None:
                continue
            fn = info.functions.get(fn_name)
            if fn is None:
                continue
            yield from self._check_function(info, fn)

    # -- root discovery ----------------------------------------------------

    def _worker_roots(self, graph: ModuleGraph) -> list[FnKey]:
        roots: list[FnKey] = []
        seen: set[FnKey] = set()

        def add(keys: Iterable[FnKey]) -> None:
            for key in keys:
                if key not in seen:
                    seen.add(key)
                    roots.append(key)

        for info in graph:
            pool_module = _uses_pools(info)
            for call in info.ctx.nodes(ast.Call):
                assert isinstance(call, ast.Call)
                worker = self._worker_arg(info, call, pool_module)
                if worker is not None:
                    add(self._resolve_worker(graph, info, call, worker))
        return roots

    def _worker_arg(
        self, info: ModuleInfo, call: ast.Call, pool_module: bool
    ) -> ast.expr | None:
        resolved = info.ctx.resolve(call.func)
        if resolved is not None:
            dotted = info.resolve_relative(resolved)
            if any(dotted.endswith(suffix)
                   for suffix in _PARALLEL_WRAPPERS) and call.args:
                return call.args[0]
        if (pool_module and isinstance(call.func, ast.Attribute)
                and call.func.attr in _POOL_METHODS and call.args):
            return call.args[0]
        for kw in call.keywords:
            if kw.arg == "target":
                return kw.value
        return None

    def _resolve_worker(
        self, graph: ModuleGraph, info: ModuleInfo,
        call: ast.Call, worker: ast.expr,
    ) -> list[FnKey]:
        direct = graph.resolve_function(info, worker)
        if direct is not None:
            return [direct]
        if not isinstance(worker, ast.Name):
            return []
        # A variable: union every function ever assigned to it in the
        # enclosing function (or, failing that, at module level).
        scope: ast.AST | None = call
        while scope is not None and not isinstance(scope, ast.FunctionDef):
            scope = info.ctx.parent(scope)
        out: list[FnKey] = []
        for container in (scope, info.ctx.tree):
            if container is None:
                continue
            for value in _assigned_values(container, worker.id):
                for sub in ast.walk(value):
                    if isinstance(sub, (ast.Name, ast.Attribute)) \
                            and isinstance(
                                getattr(sub, "ctx", None), ast.Load):
                        key = graph.resolve_function(info, sub)
                        if key is not None and key not in out:
                            out.append(key)
            if out:
                break
        return out

    # -- the check ---------------------------------------------------------

    def _check_function(
        self, info: ModuleInfo, fn: ast.FunctionDef
    ) -> Iterable[Finding]:
        declared: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared.update(node.names)
        if not declared:
            return
        guarded = self._guard_tested_names(fn)
        for node in ast.walk(fn):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                if not (isinstance(target, ast.Name)
                        and target.id in declared):
                    continue
                if target.id in guarded:
                    continue
                yield self.finding(
                    info.ctx, node,
                    f"{fn.name}() rebinds module global {target.id!r} "
                    "and is reachable from a multiprocessing worker "
                    "entry point: under fork the mutation lands in the "
                    "worker's copy and silently diverges from the "
                    "parent")

    @staticmethod
    def _guard_tested_names(fn: ast.FunctionDef) -> frozenset[str]:
        """Globals the function tests in an ``if`` (memo/latch fence)."""
        tested: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.If):
                for sub in ast.walk(node.test):
                    if isinstance(sub, ast.Name):
                        tested.add(sub.id)
        return frozenset(tested)
