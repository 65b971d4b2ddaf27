"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library usage\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
