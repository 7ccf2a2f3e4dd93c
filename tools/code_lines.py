"""Physical lines and code lines of each module of ``src/prodgeom``.

A code line is a physical line that holds a token of the program other than
a docstring: comments, blank lines and docstrings (the string that opens a
module, class or function body, found with ``ast``) do not count, a line
that holds a docstring and other code (``def f(): "doc"``) does, and a
statement spread over several lines counts each line that holds one of its
tokens (found with ``tokenize``). Run from anywhere, standard library only:

    python tools/code_lines.py [package directory]

It prints one row per module, then the totals.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(text: str) -> list:
    """The (start, end) positions of each docstring, as ``tokenize`` gives a
    token's: (line, column), the column counted in characters."""
    lines = text.split("\n")

    def position(line, byte_col):  # ast counts a column in bytes of UTF-8
        return line, len(lines[line - 1].encode("utf-8")[:byte_col].decode("utf-8"))

    spans = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc = body[0].value
                spans.append((position(doc.lineno, doc.col_offset),
                              position(doc.end_lineno, doc.end_col_offset)))
    return spans


def count(path: Path) -> tuple:
    """(physical lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = docstring_spans(text)
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE and not any(start <= tok.start and tok.end <= end
                                                     for start, end in docstrings):
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv: list) -> None:
    root = Path(__file__).resolve().parent.parent
    package = Path(argv[0]) if argv else root / "src" / "prodgeom"
    total_physical = total_code = 0
    print(f"{'module':<16}{'physical':>10}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        physical, code = count(path)
        total_physical += physical
        total_code += code
        print(f"{path.name:<16}{physical:>10}{code:>8}")
    print(f"{'total':<16}{total_physical:>10}{total_code:>8}")


if __name__ == "__main__":
    main(sys.argv[1:])
