"""The README's library quick start runs against the current API."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_start_runs(capsys):
    with open(os.path.join(ROOT, "README.md")) as fh:
        (block,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("tikhonov(alpha=")
