"""The README's module table and CLI block.

The module table names every module of the package, each row short
enough to point to the module's docstring rather than restate it.
Each JSON block of the README's CLI section is written to the file named
last in backticks before it, and each line of the section's shell block
then runs in-process from that directory: ``ratsep ...`` through
``cli.main`` and ``echo`` as the shell runs it, with a trailing
``> file`` sending the line's output to that file.
"""

import json
import pkgutil
import re
import shlex
from pathlib import Path

import ratsep
from ratsep import cli

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(ratsep.__path__, "ratsep."))


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_module_table_names_every_module_in_short_rows():
    # past the header row and its rule, one row per module or pair of them
    rows = re.findall(r"^\| (.*?) \| (.*) \|$", section("What is inside"), flags=re.M)[2:]
    named = [name for names, _ in rows for name in re.findall(r"`(ratsep\.\w+)`", names)]
    assert sorted(named) == MODULES
    for names, contents in rows:
        assert len(contents.split()) <= 70, f"the row of {names} has {len(contents.split())} words"


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    cli_section = section("CLI")
    (commands,) = re.findall(r"```sh\n(.*?)```", cli_section, flags=re.S)
    for block in re.finditer(r"```json\n(.*?)```", cli_section, flags=re.S):
        name = re.findall(r"`([\w.]+\.json)`", cli_section[: block.start()])[-1]
        (tmp_path / name).write_text(block.group(1), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for line in commands.splitlines():
        words = shlex.split(line, comments=True)
        target = None
        if words[-2:-1] == [">"]:
            words, target = words[:-2], words[-1]
        if words[0] == "echo":
            out = " ".join(words[1:]) + "\n"
        else:
            assert words[0] == "ratsep", line
            code = cli.main(words[1:])
            captured = capsys.readouterr()
            assert code == 0, f"{line}: {captured.err}"
            out = captured.out
        if target is not None:
            (tmp_path / target).write_text(out, encoding="utf-8")
        outputs[words[1] if words[0] == "ratsep" else words[0]] = out
    assert json.loads(outputs["verify"]) == {"valid": True}
    assert json.loads(outputs["approximate"])["cuts"]
    assert (tmp_path / "plot.svg").is_file()
