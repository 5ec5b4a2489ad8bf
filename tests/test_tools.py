import subprocess
import sys
from pathlib import Path

COUNTER = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a comment after code counts


# a comment line does not
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return """a string that is no docstring
        counts every line it spans"""


def g():
    x = 1
    "a later string statement is no docstring"
    return x
'''


def test_counts_code_lines_without_comments_blanks_or_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    proc = subprocess.run([sys.executable, str(COUNTER), str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # import, class, def f, the two-line return, def g, x, the string, return x
    assert proc.stdout.split() == ["9", str(path)]
