"""Count the code lines of the Python files directly under each directory.

    python3 tools/code_lines.py PATH...

PATH is a directory, whose *.py files (not those of its subdirectories)
are counted together, or one file. A code line holds a token that is not a
comment and is not part of a docstring (the string that opens a module,
class or function body), so blank, comment and docstring lines are not
counted; a string that spans several lines counts each of them. Prints
"<count> <path>" per PATH, then the total when there is more than one.
Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        first = node.body[0] if isinstance(node, BODIES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def path_lines(path: Path) -> int:
    files = [path] if path.is_file() else sorted(path.glob("*.py"))
    return sum(code_lines(file.read_text(encoding="utf-8")) for file in files)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    counts = [path_lines(Path(arg)) for arg in argv]
    for lines, arg in zip(counts, argv):
        print(f"{lines} {arg}")
    if len(argv) > 1:
        print(f"{sum(counts)} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
