"""Count the raw and code lines of the Python files under each path given.

    python3 tools/src_lines.py src tests

Raw lines are every line of every ``.py`` file. A code line holds at least
one token that is not a comment, a line break or indentation, and lies
outside every docstring (the leading string of a module, class or function
body). A string that spans lines counts on each line it spans. Only the
standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The raw and code lines of one file's ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(paths: list[str]) -> None:
    for path in paths:
        root = Path(path)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        raw = code = 0
        for file in files:
            file_raw, file_code = count(file.read_text(encoding="utf-8"))
            raw += file_raw
            code += file_code
        print(f"{path}: {raw} raw lines, {code} code lines, {len(files)} files")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src"])
