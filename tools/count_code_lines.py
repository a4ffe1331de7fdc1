"""Count the code lines of Python sources: no comments, blanks or docstrings.

A line counts when it carries at least one token that is not a
comment, a newline or an indentation change, and does not belong to a
docstring (the leading string-literal statement of a module, class or
function body, as ``ast`` finds it).  Continuation lines of a
multi-line statement count; a line holding only a comment does not.

Run:  python tools/count_code_lines.py [PATH ...]   (default: src/repro)
Prints one ``count path`` line per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: tokens that never make a line count on their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by every docstring in *tree*."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            first = body[0]
            lines.update(range(first.lineno, (first.end_lineno or first.lineno) + 1))
    return lines


def count_source(source: str) -> int:
    """Code lines of one Python source text."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def count_paths(paths: list[Path]) -> dict[Path, int]:
    """Per-file code lines of every ``*.py`` file under *paths*."""
    files: list[Path] = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return {f: count_source(f.read_text(encoding="utf-8")) for f in files}


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [REPO_ROOT / "src" / "repro"]
    counts = count_paths(paths)
    for path, count in counts.items():
        print(f"{count:6d} {path}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
