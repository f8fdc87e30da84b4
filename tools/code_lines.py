"""Count the code lines of every Python file under a directory.

A line is code when it holds a token other than a comment, a line break
or an indentation change, and lies outside every module, class and
function docstring.  A token that spans lines (a multi-line string that
is not a docstring) makes each of its lines code.  Blank lines, comment
lines and docstrings are therefore not counted.

Usage: ``python tools/code_lines.py src/sparsepolyak`` prints
``<file> <count>`` for each ``*.py`` under the directory, in path order,
then ``total <count>``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """Line numbers (1-based) of the module, class and function docstrings of source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of code lines in source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[0]).rglob("*.py")):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        print(path, count)
        total += count
    print("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
