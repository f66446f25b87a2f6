"""tools/code_lines.py: the code-line count the ROADMAP reports for src/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring
over two lines."""

# a comment
x = (1 +
     2)
s = """a string that is
not a docstring"""


def f():
    """Function docstring."""
    return [x,  # a trailing comment
            s]
'''


def test_counts_code_lines_only(tmp_path, capsys):
    # counted: x = (1 + / 2) / s = """... / not a docstring""" / def f(): /
    # return [x, / s]; not the docstrings, the comment or the blank lines
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(FIXTURE)
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     7 pkg/mod.py\n     7 total\n"
