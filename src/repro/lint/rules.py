"""The determinism rules, each grounded in a real incident or guarantee.

Every rule is a small class with an ``id``, a one-line ``description``
(rendered by ``--list-rules``), a default fix ``hint``, and a
``run(ctx)`` returning :class:`~repro.lint.engine.Finding` objects.  The
shared :class:`~repro.lint.engine.ModuleContext` supplies alias-resolved
call names, bound-name shadowing info, and parent links, so rules match
semantics (``from time import perf_counter as pc; pc()``) instead of
text.

Which rules apply where is decided by :mod:`repro.lint.config`; there is
no per-line waiver.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import Finding, ModuleContext, Rule

__all__ = ["RULES", "Rule"]


#: Wall-clock reads (aliased or not) that make output depend on run time.
_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "time.localtime", "time.gmtime", "time.ctime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class NoWallclock(Rule):
    """time/datetime clock reads outside ``repro.obs``.

    The incident class: ``examples/voip_small_packets.py`` called
    ``time.time()`` and ``benchmarks/bench_decoder_throughput.py`` used
    ``time.perf_counter`` directly; the CI grep only saw literal spellings
    and only looked under ``src/repro``.
    """

    id = "no-wallclock"
    description = ("wall-clock read outside repro.obs (catches aliased and "
                   "from-imports)")
    hint = ("route timing through repro.obs.clock (the one sanctioned "
            "wall-clock read) or drop the timestamp")

    def run(self, ctx: ModuleContext) -> Iterable[Finding]:
        for call in ctx.nodes(ast.Call):
            name = ctx.call_name(call)
            if name in _WALLCLOCK_CALLS:
                yield self.finding(
                    ctx, call,
                    f"wall-clock read via {name}() — simulation output "
                    "must not depend on when it ran")


class NoBuiltinHash(Rule):
    """Builtin ``hash()`` feeding seeds or spec content.

    ``hash(str)`` is salted per interpreter run (PYTHONHASHSEED), which is
    how fig8_10's ``hash(sched) % 1000`` seeding shipped numbers the bench
    could never reproduce (frozen to constants in PR 5).
    """

    id = "no-builtin-hash"
    description = ("builtin hash() call — PYTHONHASHSEED-salted, changes "
                   "every interpreter run")
    hint = ("derive seeds from explicit integers or content digests "
            "(hashlib / repro.experiments.spec.point_hash), never "
            "builtin hash()")

    def run(self, ctx: ModuleContext) -> Iterable[Finding]:
        if "hash" in ctx.bound_names:
            return  # the module rebinds `hash`; not the builtin
        for call in ctx.nodes(ast.Call):
            if isinstance(call.func, ast.Name) and call.func.id == "hash":
                yield self.finding(
                    ctx, call,
                    "builtin hash() is salted by PYTHONHASHSEED; its value "
                    "is not stable across interpreter runs")


#: numpy.random names that construct explicit generator/seed objects (fine
#: when given a seed) rather than touching the global legacy state.
_NP_RANDOM_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.BitGenerator",
    "numpy.random.PCG64", "numpy.random.PCG64DXSM",
    "numpy.random.Philox", "numpy.random.MT19937", "numpy.random.SFC64",
})


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class NoUnseededRng(Rule):
    """Unseeded ``default_rng()`` and global-state RNG calls.

    ``default_rng()`` with no argument seeds from OS entropy; module-level
    ``np.random.*`` / ``random.*`` functions share hidden global state
    that any import can perturb.  Library code must thread explicit
    generators from explicit seeds.
    """

    id = "no-unseeded-rng"
    description = ("unseeded default_rng() or global-state np.random.* / "
                   "random.* call")
    hint = ("pass an explicit seed (or an existing Generator) — every "
            "stream in library code derives from a spec'd seed")

    def run(self, ctx: ModuleContext) -> Iterable[Finding]:
        for call in ctx.nodes(ast.Call):
            name = ctx.call_name(call)
            if name is None:
                continue
            if name == "numpy.random.default_rng":
                unseeded = (not call.args and not call.keywords) or (
                    len(call.args) == 1 and not call.keywords
                    and _is_none(call.args[0]))
                if unseeded:
                    yield self.finding(
                        ctx, call,
                        "default_rng() without a seed draws from OS "
                        "entropy — the stream differs every run")
            elif name.startswith("numpy.random."):
                if name not in _NP_RANDOM_CONSTRUCTORS:
                    yield self.finding(
                        ctx, call,
                        f"{name}() uses numpy's global RNG state — "
                        "unseeded and shared across the whole process")
            elif name == "random.Random":
                if not call.args and not call.keywords:
                    yield self.finding(
                        ctx, call,
                        "random.Random() without a seed draws from OS "
                        "entropy — the stream differs every run")
            elif name == "random" or name.startswith("random."):
                yield self.finding(
                    ctx, call,
                    f"{name}() uses the random module's global state — "
                    "unseeded and shared across the whole process")


def _rng_param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    return frozenset(
        n for n in names
        if n == "rng" or n.endswith("_rng") or n == "generator")


def _walk_own_body(fn: ast.AST) -> Iterable[ast.AST]:
    """Walk a function's body without descending into nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class RngStreamDiscipline(Rule):
    """Functions that both accept and independently construct a Generator.

    A function handed an ``rng`` owns a slice of the caller's seeded
    stream; constructing a second generator inside it (from a constant, a
    separate seed, or nothing) silently forks the determinism story.
    Coercion (``default_rng(rng)``) and stream-splitting
    (``default_rng(rng.integers(...))``) derive from the passed stream
    and are allowed.
    """

    id = "rng-stream-discipline"
    description = ("function accepts an rng parameter but constructs an "
                   "independent generator")
    hint = ("derive from the passed stream — default_rng(rng) to coerce, "
            "default_rng(rng.integers(0, 2**63)) to split — or take a "
            "seed parameter instead")

    def run(self, ctx: ModuleContext) -> Iterable[Finding]:
        for fn in ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
            rng_params = _rng_param_names(fn)
            if not rng_params:
                continue
            for node in _walk_own_body(fn):
                if not isinstance(node, ast.Call):
                    continue
                if ctx.call_name(node) != "numpy.random.default_rng":
                    continue
                arg_names = {
                    sub.id
                    for arg in (*node.args,
                                *(kw.value for kw in node.keywords))
                    for sub in ast.walk(arg)
                    if isinstance(sub, ast.Name)
                }
                if arg_names & rng_params:
                    continue  # coercion or split from the passed stream
                yield self.finding(
                    ctx, node,
                    f"{fn.name}() accepts {sorted(rng_params)[0]!r} but "
                    "builds an independent default_rng() — two streams, "
                    "one function")


#: Filesystem enumerations whose order is filesystem-dependent.
_UNORDERED_LISTING_CALLS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})
_UNORDERED_LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})


class CanonicalSerialization(Rule):
    """Order-nondeterministic constructs in serialization paths.

    Store files must be byte-identical across runs, workers, and
    machines: set iteration order varies with PYTHONHASHSEED,
    ``os.listdir``/``glob`` order varies with the filesystem, and
    ``json.dumps`` without ``sort_keys=True`` varies with insertion
    order.
    """

    id = "canonical-serialization"
    description = ("set iteration, unsorted directory listing, or "
                   "json.dumps without sort_keys in serialization paths")
    hint = ("wrap the iterable in sorted(...); serialize through "
            "repro.utils.results.canonical_json (sorted keys)")

    def _sorted_wrapped(self, ctx: ModuleContext, node: ast.AST) -> bool:
        parent = ctx.parent(node)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "sorted"
                and "sorted" not in ctx.bound_names)

    def run(self, ctx: ModuleContext) -> Iterable[Finding]:
        for loop in ctx.nodes(ast.For, ast.AsyncFor):
            it = loop.iter
            is_set = isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset")
                and it.func.id not in ctx.bound_names)
            if is_set:
                yield self.finding(
                    ctx, it,
                    "iterating a set: element order depends on "
                    "PYTHONHASHSEED and insertion history")
        for call in ctx.nodes(ast.Call):
            name = ctx.call_name(call)
            if name in _UNORDERED_LISTING_CALLS or (
                    name is None
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _UNORDERED_LISTING_METHODS):
                if not self._sorted_wrapped(ctx, call):
                    shown = name or f"<path>.{call.func.attr}"
                    yield self.finding(
                        ctx, call,
                        f"{shown}() order is filesystem-dependent; wrap "
                        "in sorted(...)")
            elif name in ("json.dumps", "json.dump"):
                sort_keys = next(
                    (kw.value for kw in call.keywords
                     if kw.arg == "sort_keys"), None)
                if not (isinstance(sort_keys, ast.Constant)
                        and sort_keys.value is True):
                    yield self.finding(
                        ctx, call,
                        f"{name}() without sort_keys=True serializes in "
                        "insertion order, not canonically")


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        NoWallclock(),
        NoBuiltinHash(),
        NoUnseededRng(),
        RngStreamDiscipline(),
        CanonicalSerialization(),
    )
}
