"""The README's library quick start and its shell block run against the
current code."""

import os
import re
import shlex

from invreg.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the files the README names for each command, besides manifest.json
WRITES = {
    "synth": ["grid.csv", "operator.csv", "truth.csv", "data.csv"],
    "select": ["selection.csv", "family.csv", "summary.txt"],
    "diagnostics": ["diagnostics.txt"],
    "risk": ["risk.csv", "plotdata.csv"],
    "rates": ["risk.csv", "rates.csv"],
    "concentration": ["tails.csv", "moments.csv", "identity.csv"],
}


def _readme():
    with open(os.path.join(ROOT, "README.md")) as fh:
        return fh.read()


def test_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", _readme(), re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("tikhonov(alpha=")


def test_shell_block_runs(tmp_path):
    """Each ``invreg`` line of the shell block, in order and in process, on the
    shipped configs: ``--out`` and ``--data`` move under tmp_path, so
    ``select`` reads this test's own ``synth`` output."""
    readme = _readme()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("invreg ")]
    assert [shlex.split(line)[1] for line in lines] == [
        "synth", "select", "diagnostics", "risk", "rates", "rates", "concentration"]
    for line in lines:
        argv = shlex.split(line)[1:]
        for flag in ("--out", "--data"):
            if flag in argv:
                i = argv.index(flag) + 1
                argv[i] = str(tmp_path / argv[i])
        i = argv.index("--config") + 1
        argv[i] = os.path.join(ROOT, argv[i])
        assert main(argv) == 0, line
        names = WRITES[argv[0]] + ["manifest.json"]
        assert all(f"`{name}`" in readme for name in names)
        assert sorted(os.listdir(argv[argv.index("--out") + 1])) == sorted(names), line
