"""Print the size of each ``src/`` module and of all of them together.

Three counts, each per module and in total:

- lines: the lines of the file;
- code lines: the lines that hold a token other than a comment, outside
  every module, class and function docstring (blank lines and the line
  breaks and indentation around code hold no token of their own);
- AST nodes: the nodes of the module's syntax tree, as ``ast.walk``
  visits them.

Run from anywhere, with the standard library only:

    python3 tools/size.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# tokens that mark layout or a comment, not code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def size(text: str) -> tuple[int, int, int]:
    """The lines, code lines and AST nodes of the module ``text``."""
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            code.update(row for row in range(token.start[0], token.end[0] + 1)
                        if row not in docstrings)
    return len(text.splitlines()), len(code), sum(1 for _ in ast.walk(tree))


def main() -> int:
    rows = [(str(path.relative_to(SRC)), *size(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.rglob("*.py"))]
    rows.append(("total", *(sum(column) for column in zip(*(row[1:] for row in rows)))))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}  {'nodes':>6}")
    for name, lines, code, nodes in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}  {nodes:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
