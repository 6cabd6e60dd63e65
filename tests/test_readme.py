"""Every ``python`` block of README.md runs as written, so the examples
keep up with the library signatures they show."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    blocks = [
        (text.count("\n", 0, m.start(1)), m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ]
    assert blocks
    monkeypatch.chdir(tmp_path)
    for line, block in blocks:
        # Leading newlines make a traceback give the block's README line.
        exec(compile("\n" * line + block, str(README), "exec"), {"__name__": "readme"})
