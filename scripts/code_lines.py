#!/usr/bin/env python3
"""Count the code lines of Python modules (no docstrings, comments or blank
lines) and their AST nodes.

Usage (from the repository root):

    python scripts/code_lines.py src/eprqkd

A line counts when it holds part of a token other than a comment, a line
break or an indent, and is not part of a module, class or function
docstring. A module's AST nodes are the nodes ``ast.walk`` visits in its
parse tree, which tracks what compiling it costs (an import without a
bytecode cache compiles every module it loads). A directory stands for the
``*.py`` files directly in it, and each of them is printed with its own
code lines and AST nodes before the totals.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def module_code_lines(text: str) -> int:
    """The code lines of one module's source."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    lines = {n for tok in tokens if tok.type not in _SKIP for n in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node):
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def module_ast_nodes(text: str) -> int:
    """The AST nodes of one module's source."""
    return sum(1 for _ in ast.walk(ast.parse(text)))


def modules(path: Path) -> list[Path]:
    """The modules ``path`` stands for: itself, or the ``*.py`` files
    directly in it, in order."""
    return sorted(path.glob("*.py")) if path.is_dir() else [path]


def code_lines(path: Path) -> int:
    """The code lines of ``path``, a module or a directory of modules."""
    return sum(module_code_lines(p.read_text()) for p in modules(path))


def ast_nodes(path: Path) -> int:
    """The AST nodes of ``path``, a module or a directory of modules."""
    return sum(module_ast_nodes(p.read_text()) for p in modules(path))


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    # An option such as --help names no file either.
    if not paths or not all(path.exists() for path in paths):
        raise SystemExit("usage: python scripts/code_lines.py PATH...")
    for directory in filter(Path.is_dir, paths):
        for module in modules(directory):
            text = module.read_text()
            print(f"{module_code_lines(text):5} {module_ast_nodes(text):6} {module}")
    print(f"{sum(map(code_lines, paths))} code lines")
    print(f"{sum(map(ast_nodes, paths))} AST nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
