"""The README's Python quick tour runs as written.

Executed in-process under the suite's ``filterwarnings = error``, so a tour
line that warns, or names an API the package no longer has, fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
