"""Line counts of each module of src/pgconics: all lines and code lines.

The first count is `wc -l`.  The second counts the lines that hold a token
of code: comments, blank lines and docstrings (the leading string of a
module, class or function body, found with `ast`) do not count.

    python3 tools/code_lines.py

A reader that closes early (`| head -2`) ends the tool quietly, exit 0.
"""

from __future__ import annotations

import ast
import io
import os
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the docstrings of a parsed module span."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source):
    """How many lines of source hold code, leaving out comments, blank lines
    and docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    total_wc = total_code = 0
    print(f"{'module':<24}{'wc -l':>8}{'code':>8}")
    for path in sorted((ROOT / "src" / "pgconics").glob("*.py")):
        source = path.read_text()
        wc, code = source.count("\n"), code_lines(source)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<24}{wc:>8}{code:>8}")
    print(f"{'total':<24}{total_wc:>8}{total_code:>8}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (| head): stop quietly, and point stdout
        # at devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
