import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNTER = ROOT / "tools" / "count_code_lines.py"
CLI_BYTES = ROOT / "tools" / "cli_bytes.py"
LIB_BITS = ROOT / "tools" / "lib_bits.py"

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


def test_cli_bytes_finds_a_checkout_identical_to_itself():
    proc = subprocess.run([sys.executable, str(CLI_BYTES), str(ROOT), str(ROOT), "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 7 and all(line.endswith(" identical") for line in lines), proc.stdout


def test_lib_bits_finds_a_checkout_identical_to_itself():
    proc = subprocess.run([sys.executable, str(LIB_BITS), str(ROOT), str(ROOT), "--count", "10"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 10, proc.stdout
    assert all(re.fullmatch(r"\S+ +identical +10  different +0", line) for line in lines), proc.stdout
