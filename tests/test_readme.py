"""The README's library quick start runs as written and prints what its comments say."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_as_written(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    # each print line ends in a comment whose first word is the value it prints
    commented = re.findall(r"^print\(.*\)\s+# (\S+)", code, re.MULTILINE)
    assert commented
    assert capsys.readouterr().out.splitlines() == commented
