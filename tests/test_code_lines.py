"""The code-line counter in tools/code_lines.py, on a small source string."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
# a comment

import math  # a trailing comment counts as code


def f(x):
    """One-line docstring."""
    return math.fsum(
        [x, 1.0]
    )


NOTE = """a string that is
not a docstring"""
'''


def test_counts_code_lines_only():
    # import, def, the three lines of return, and the two lines of NOTE
    assert code_lines.code_lines(SOURCE) == 7


def test_docstring_lines():
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 9}


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["7", "1", "8"]
