"""Count the code lines of Python files.

A code line is a physical line that holds a token other than a comment, a
newline or an indent, outside docstrings.  A docstring is the first
statement of a module, class or function when that statement is a string.
A string spanning several lines counts every line it spans.

    python tools/count_code_lines.py src/nhcool/cli.py [more files]

prints the count of each file and, for more than one file, their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

# Tokens that hold no code: layout, comments and the file's boundaries.
LAYOUT = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
})


def docstring_lines(tree: ast.Module) -> set[int]:
    """The physical lines that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = docstring_lines(ast.parse(source, path))
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code)


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = [count_code_lines(path) for path in paths]
    for path, count in zip(paths, counts):
        print(f"{count:6d} {path}")
    if len(paths) > 1:
        print(f"{sum(counts):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
