"""Code lines per ``src/catwalk`` file: lines that hold a token other than a
comment, a docstring or a line break, beside the file's physical lines and
its source bytes.  The benchmark compiles ``src/catwalk`` from source at
import, so the bytes weigh on its memory and setup time.

Run: python tests/code_lines.py [SRC_DIR]
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skipped = docstring_lines(ast.parse(text))
    with path.open("rb") as f:
        lines = {line for tok in tokenize.tokenize(f.readline) if tok.type not in SKIPPED
                 for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - skipped)


if __name__ == "__main__":
    src = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1] / "src/catwalk")
    totals = [0, 0, 0]
    print(f"{'file':16} {'code':>5} {'lines':>5} {'bytes':>7}")
    for path in sorted(src.glob("*.py")):
        counts = code_lines(path), len(path.read_text().splitlines()), path.stat().st_size
        totals = [total + count for total, count in zip(totals, counts)]
        print(f"{path.name:16} {counts[0]:5} {counts[1]:5} {counts[2]:7}")
    print(f"{'total':16} {totals[0]:5} {totals[1]:5} {totals[2]:7}")
