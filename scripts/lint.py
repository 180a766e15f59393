#!/usr/bin/env python
"""Stdlib-only lint gate.

Usage: python scripts/lint.py

Three checks, all fatal:

1. **Imports.**  Every ``repro.*`` module is imported with warnings
   turned into errors (as under ``python -W error``), so a module that
   fails to import or warns at import time fails the gate.
2. **Unused imports.**  An ``ast`` pass over every ``.py`` file under
   ``src``, ``tests``, ``benchmarks`` and ``scripts`` reports each
   imported name the file never reads.  A name listed in the module's
   ``__all__`` counts as read, as does a name used inside a quoted
   annotation.  An import whose line carries ``# noqa`` is skipped
   (re-exports that deliberately have no ``__all__`` entry mark
   themselves this way).
3. **Undefined names.**  A ``symtable`` pass over the same files
   reports each global name a file reads that no module-level binding,
   ``global`` assignment or builtin defines.  Names inside annotations
   are not checked, and a file with a star import is skipped.

Exit status is 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import os
import pkgutil
import symtable
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINTED_DIRS = ("src", "tests", "benchmarks", "scripts")


def import_all_modules() -> list[str]:
    """Import every ``repro.*`` module with warnings as errors; return
    one message per module that failed."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        import repro

        names = ["repro"] + [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        ]
        for name in names:
            try:
                importlib.import_module(name)
            except Exception as exc:  # any import-time failure is a finding
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return failures


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read inside quoted (string) annotations under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
            )
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    """String entries of a module-level ``__all__`` list or tuple."""
    names = set()
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
            and isinstance(stmt.value, (ast.List, ast.Tuple))
        ):
            names.update(
                e.value
                for e in stmt.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return names


def unused_imports(source: str, path: str = "<string>") -> list[tuple[int, str]]:
    """``(line, name)`` for every name ``source`` imports but never
    reads.  Usage is file-wide: a name read anywhere in the file keeps
    every import that binds it."""
    tree = ast.parse(source, path)
    lines = source.splitlines()
    imported = []  # (line, bound name, display name)
    used = _exported_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns:
                used |= _annotation_names(node.returns)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                if alias.asname:
                    bound = alias.asname
                elif isinstance(node, ast.Import):
                    bound = alias.name.split(".")[0]
                else:
                    bound = alias.name
                if "# noqa" in lines[alias.lineno - 1]:
                    continue
                imported.append((alias.lineno, bound, alias.name))
    return sorted(
        (line, display) for line, bound, display in imported if bound not in used
    )


#: Names every module has besides the builtins.
_MODULE_NAMES = set(dir(builtins)) | {"__file__", "__path__", "__builtins__"}


def undefined_names(source: str, path: str = "<string>") -> list[tuple[int, str]]:
    """``(line, name)`` for every global name ``source`` reads but never
    defines; the line is the name's first read."""
    tree = ast.parse(source, path)
    if any(
        isinstance(node, ast.ImportFrom) and node.names[0].name == "*"
        for node in ast.walk(tree)
    ):
        return []
    top = symtable.symtable(source, path, "exec")
    defined = set(_MODULE_NAMES)
    read = set()
    tables = [top]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        for sym in table.get_symbols():
            binds = sym.is_assigned() or sym.is_imported()
            if binds and (table is top or sym.is_declared_global()):
                defined.add(sym.get_name())
            if sym.is_referenced() and sym.is_global():
                read.add(sym.get_name())
    missing = read - defined
    first: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in missing:
            first[node.id] = min(node.lineno, first.get(node.id, node.lineno))
    return sorted((line, name) for name, line in first.items())


def iter_py_files():
    for path in LINTED_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, path)):
            dirnames[:] = sorted(
                d for d in dirnames if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def main() -> int:
    failures = [f"import: {msg}" for msg in import_all_modules()]
    for path in iter_py_files():
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        rel = os.path.relpath(path, ROOT)
        for line, name in unused_imports(source, rel):
            failures.append(f"{rel}:{line}: unused import {name!r}")
        for line, name in undefined_names(source, rel):
            failures.append(f"{rel}:{line}: undefined name {name!r}")
    for failure in failures:
        print(failure)
    if failures:
        print(f"lint: {len(failures)} finding(s)")
        return 1
    print("lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
