"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})
