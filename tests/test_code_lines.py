"""tools/code_lines.py counts the lines that hold code."""

import importlib.util
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


class A:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function
        docstring."""
        x = """a string that
        is not a docstring"""
        return (x,

                os)
'''


def test_comments_docstrings_and_blank_lines_do_not_count():
    # import, class, def, the two lines of x, return and its last line
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_module_and_the_total(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted((code_lines.ROOT / "src" / "pgconics").glob("*.py"))
    assert rows[0] == ["module", "wc", "-l", "code"]
    assert [row[0] for row in rows[1:]] == [p.name for p in modules] + ["total"]
    counts = [(int(wc), int(code)) for _, wc, code in rows[1:-1]]
    assert [sum(c) for c in zip(*counts)] == [int(x) for x in rows[-1][1:]]
    assert all(0 < code < wc for wc, code in counts)


def test_a_reader_that_closes_early_ends_it_quietly():
    """As in `python3 tools/code_lines.py | head -2`: the pipe is closed
    before the tool writes, and it exits 0 with nothing on stderr."""
    proc = subprocess.Popen([sys.executable, str(TOOL)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (0, b"")
