"""Physical lines and code lines of each module of ``src/prodgeom``.

A code line is a physical line that holds a token of the program other than
a docstring: comments, blank lines and docstrings (the string that opens a
module, class or function body, found with ``ast``) do not count, and a
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


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(physical lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


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
