"""Name resolution shared by the rules: modules, imports, dotted names.

Everything here reads a parsed tree or a path; nothing imports the
code being analyzed.
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePosixPath


def module_name_for(rel_path: str) -> str | None:
    """Dotted module name for a repo-relative ``.py`` path, if importable.

    Strips a leading ``src/`` component (the layout this repo uses) and
    maps ``pkg/__init__.py`` to ``pkg``.  Returns ``None`` for paths
    that are not Python modules.
    """
    parts = list(PurePosixPath(rel_path).parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    if parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return None
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    if not all(p.isidentifier() for p in parts):
        return None
    return ".".join(parts)


def tree_nodes(tree: ast.AST) -> list[ast.AST]:
    """Every node of ``tree`` in :func:`ast.walk` order, walked once.

    The harvests and most rules scan a whole parsed file; the list is
    kept on the (never mutated) tree so a file is walked once per run
    however many passes read it.
    """
    nodes = getattr(tree, "_repro_nodes", None)
    if nodes is None:
        nodes = list(ast.walk(tree))
        tree._repro_nodes = nodes
    return nodes


def build_import_map(tree: ast.Module, module: str | None) -> dict[str, str]:
    """Local name -> dotted import target, from one file's imports.

    Shared by the interval interpreter and the hot-path rules; relative
    imports are anchored at ``module``'s package.
    """
    out: dict[str, str] = {}
    package = (module or "").split(".")[:-1]
    for node in tree_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = package[: len(package) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                out[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return out


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def rel_posix(path: Path, root: Path) -> str:
    """``path`` relative to ``root`` with POSIX separators (best effort)."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    return rel.as_posix()
