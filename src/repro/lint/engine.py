"""Rule engine: parse once, resolve imports, run the enabled rules.

The engine gives every rule the same three ingredients so each rule stays
a ~20-line check instead of its own mini-parser:

- **Alias-resolved call names.**  ``ModuleContext.resolve`` maps any
  ``Name``/``Attribute`` chain back through the module's imports to a
  fully-qualified dotted name, so ``import time as t; t.time()``,
  ``from time import perf_counter as pc; pc()`` and
  ``from datetime import datetime; datetime.now()`` all resolve to the
  ``time.*`` / ``datetime.*`` names a rule matches on — the aliased forms
  a ``grep`` is blind to.
- **Bound-name awareness.**  ``ModuleContext.bound_names`` holds every
  name the module ever binds (assignments, parameters, imports, defs), so
  a rule matching a builtin (``hash``, ``sorted``) can stand down when the
  module shadows it.
- **Parent links.**  ``ModuleContext.parent`` lets a rule look outward
  (is this ``os.listdir`` call wrapped in ``sorted(...)``?) without
  threading state through a visitor.

There are no inline suppressions: the per-directory policies in
:mod:`repro.lint.config` are the only exemption mechanism.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["Finding", "Linter", "LintReport", "ModuleContext", "Rule"]

#: Directory names never descended into when expanding path arguments.
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", "bench_results", ".venv"}


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str | None = None

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


class Rule:
    """Base class: subclasses set ``id``/``description``/``hint`` and
    implement ``run(ctx)``, yielding findings about that one module."""

    id: str = ""
    description: str = ""
    hint: str | None = None

    def run(self, ctx: "ModuleContext") -> Iterable["Finding"]:
        raise NotImplementedError

    def finding(self, ctx: "ModuleContext", node: ast.AST, message: str,
                hint: str | None = None) -> "Finding":
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=hint if hint is not None else self.hint,
        )


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Name -> fully-qualified dotted target, from every import statement.

    Imports are collected from all scopes (a function-local
    ``import time`` hides from a module-level-only pass).  Relative
    imports keep their leading dots, which no rule's target set matches —
    intra-package names are never what these rules police.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    # ``import numpy.random`` binds the name ``numpy``
                    root = a.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{module}.{a.name}"
    return aliases


def _collect_bound_names(tree: ast.Module) -> frozenset[str]:
    """Every name the module binds anywhere (any scope).

    Used to decide whether a bare builtin call (``hash``, ``sorted``)
    could refer to a local rebinding instead of the builtin.
    Deliberately scope-insensitive: one rebinding anywhere exempts the
    whole module, which errs on the quiet side and stays trivially
    deterministic.
    """
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                bound.add(arg.arg)
            if args.vararg:
                bound.add(args.vararg.arg)
            if args.kwarg:
                bound.add(args.kwarg.arg)
        elif isinstance(node, ast.ClassDef):
            bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                if a.name == "*":
                    continue
                bound.add(a.asname or a.name.split(".")[0])
    return frozenset(bound)


class ModuleContext:
    """Everything a rule needs about one parsed module."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.tree = tree
        self.aliases = _collect_aliases(tree)
        self.bound_names = _collect_bound_names(tree)
        self._all_nodes = list(ast.walk(tree))
        self._parents: dict[int, ast.AST] = {}
        for node in self._all_nodes:
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node

    def nodes(self, *types: type) -> Iterator[ast.AST]:
        """All nodes of the given AST types, in document order."""
        for node in self._all_nodes:
            if isinstance(node, types):
                yield node

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def resolve(self, node: ast.AST) -> str | None:
        """Fully-qualified dotted name of a Name/Attribute chain, if the
        chain is rooted in an imported name; ``None`` otherwise."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        target = self.aliases.get(node.id)
        if target is None:
            return None
        parts.append(target)
        return ".".join(reversed(parts))

    def call_name(self, call: ast.Call) -> str | None:
        """Resolved dotted name of a call's callee (alias-aware)."""
        return self.resolve(call.func)


@dataclass(frozen=True)
class LintReport:
    """Outcome of linting a set of paths."""

    findings: tuple[Finding, ...]
    n_files: int

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Iterable[str]) -> list[str]:
    """Expand files/directories to a sorted, deterministic .py file list."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in _SKIP_DIRS and not d.startswith("."))
                out.extend(os.path.join(dirpath, f)
                           for f in sorted(filenames) if f.endswith(".py"))
        else:
            out.append(path)
    return sorted(dict.fromkeys(out))


class Linter:
    """Run the rules over files.

    ``rules`` forces an explicit rule set (the fixture tests' mode);
    ``None`` applies the per-directory policies of
    :mod:`repro.lint.config` to each file's path relative to ``root``
    (default: the current directory — run from the repo root).
    """

    def __init__(self, rules: Iterable[str] | None = None,
                 root: str | None = None):
        self.forced_rules = None if rules is None else frozenset(rules)
        self.root = os.path.abspath(root or os.getcwd())

    def lint_file(self, path: str) -> list[Finding]:
        """Findings for one file, in line order."""
        from repro.lint.config import rules_for
        from repro.lint.rules import RULES

        rel = os.path.relpath(os.path.abspath(path), self.root)
        enabled = (self.forced_rules if self.forced_rules is not None
                   else rules_for(rel))
        display = path if rel.startswith("..") else rel
        with open(path, encoding="utf-8") as f:
            source = f.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [Finding("parse-error", display, exc.lineno or 1,
                            exc.offset or 0,
                            f"file does not parse: {exc.msg}")]
        ctx = ModuleContext(display, tree)
        findings = [finding
                    for rule_id in sorted(enabled)
                    for finding in RULES[rule_id].run(ctx)]
        return sorted(findings, key=lambda f: (f.line, f.col, f.rule))

    def lint_paths(self, paths: Iterable[str]) -> LintReport:
        files = iter_python_files(paths)
        findings = [finding for path in files
                    for finding in self.lint_file(path)]
        return LintReport(findings=tuple(findings), n_files=len(files))
