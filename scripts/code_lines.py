#!/usr/bin/env python3
"""Count the non-docstring code lines of ``src/ratsep``, per module and in total.

    python scripts/code_lines.py [DIR]

A line counts when it holds a token other than a comment or a newline
(``tokenize``), and it is not part of a module, class or function
docstring (found by ``ast``).  Blank lines, comment-only lines and
docstrings therefore count 0.  DIR defaults to ``src/ratsep`` next to
this script.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of non-docstring code lines of one module's source."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {tok.start[0] for tok in tokens if tok.type not in NOT_CODE}
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "ratsep"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
