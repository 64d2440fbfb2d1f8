"""The README's library quick start and its shell block run against the
current code, and its table of config keys states the defaults the code
holds."""

import ast
import os
import re
import shlex

import invreg
from invreg import cli
from invreg.cli import main

from conftest import config_text, library_default

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


def _config_table():
    """(section, key, default cell, holder cell) of each row of the README's
    Config keys table."""
    table = _readme().split("### Config keys", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 5 and cells[1].startswith("`["):
            section, key = re.fullmatch(r"`\[(\w+)\] (\w+)`", cells[1]).groups()
            rows.append((section, key, cells[3], cells[4]))
    return rows


def _literal(call):
    """The default a cfg_value or cfg_list call gives: its literal, or None
    for a required or computed one."""
    if any(kw.arg == "required" for kw in call.keywords) or len(call.args) < 5:
        return None
    try:
        return ast.literal_eval(call.args[4])
    except ValueError:
        return None


def _cli_defaults():
    """{(section, key): the defaults that cli.py gives it} of every key the
    commands read: that of each cfg_value or cfg_list call, none for a key
    read by cfg_keys (its receiver holds the default), and for the ``[section]
    seed`` of each ``_seed(cp, section, ...)`` call that of the lookup of
    ``seed`` in ``_seed``."""
    with open(cli.__file__) as fh:
        calls = [node for node in ast.walk(ast.parse(fh.read()))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and len(node.args) >= 2]
    found, seed = {}, []
    for call in calls:
        name, (_, section, *rest) = call.func.id, call.args
        if name in ("cfg_value", "cfg_list") and isinstance(section, ast.Name):
            seed.append(_literal(call))     # _seed's lookup
        elif name in ("cfg_value", "cfg_list"):
            found.setdefault((section.value, rest[0].value), []).append(_literal(call))
        elif name == "cfg_keys":
            for kw in call.keywords:
                key = kw.value.elts[0].value if isinstance(kw.value, ast.Tuple) else kw.arg
                found.setdefault((section.value, key), [])
    for call in calls:
        if call.func.id == "_seed":
            found.setdefault((call.args[1].value, "seed"), []).extend(seed)
    return found


def test_config_keys_table_states_the_defaults_of_the_code():
    """The table lists each key the commands read, and each default it
    states is the one its holder gives: a library object's (dataclass field
    or parameter default) or a literal of cli.py.  A default in plain words
    stands for one that the holder computes (None) or a required key."""
    rows = _config_table()
    cli_defaults = _cli_defaults()
    assert {(section, key) for section, key, _, _ in rows} == set(cli_defaults)
    wrong = []
    for section, key, default, holder in rows:
        if holder == "`invreg.cli`":
            held = cli_defaults[(section, key)]
        else:
            obj, name = re.fullmatch(r"`(\w+)[.(](\w+)\)?`", holder).groups()
            held = [library_default(getattr(invreg, obj), name)]
        literal = re.fullmatch(r"`([^`]*)`", default)
        if literal:
            ok = any(v is not None and config_text(v) == literal[1] for v in held)
        else:
            ok = None in held
        if not ok:
            wrong.append((section, key, default, holder, held))
    assert not wrong
