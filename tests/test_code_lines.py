import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Counted lines end in "# code"; every other line is a docstring, a comment or a blank.
SOURCE = '''"""A module docstring
over two lines."""

import math  # code

# a comment-only line


def area(r):  # code
    """A function docstring."""
    total = max(  # code
        0.0,  # code
        math.pi * r * r,  # code
    )  # code
    label = """a string assigned  # code
to a name, which counts"""  # code
    return total, label  # code
'''


def test_code_lines_counts_lines_that_hold_code():
    expected = sum(line.endswith("# code") for line in SOURCE.splitlines())
    assert expected == 9
    assert code_lines.code_lines(SOURCE) == expected


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\nx = 1\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["10", "total"],
    ]
