"""Total lines and code lines of each ``src/fishbone`` module, and their sums.

    python3 tools/src_lines.py [--root DIR]

A code line holds a token outside comments and docstrings: blank lines,
comment-only lines and the lines of a module, class or function docstring do
not count. A string that is not a docstring counts on every line it spans.
``--root`` counts another checkout's ``src/fishbone`` (default: this one), so a
change can report its before and after. It prints one markdown table, a row
per module and a last ``total`` row.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tokens that carry no code of their own.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) of each module, class and function docstring's string token."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def count_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = docstring_starts(source)
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or token.type == tokenize.STRING and token.start in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/fishbone to count")
    args = parser.parse_args()
    rows = [
        (path.name, *count_lines(path.read_text()))
        for path in sorted((args.root / "src" / "fishbone").glob("*.py"))
    ]
    print("| module | lines | code lines |")
    print("|---|---|---|")
    for name, lines, code in rows:
        print(f"| {name} | {lines} | {code} |")
    print(f"| total | {sum(row[1] for row in rows)} | {sum(row[2] for row in rows)} |")


if __name__ == "__main__":
    main()
