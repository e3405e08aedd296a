import os
import re
import shlex

from bellquench.cli import SETTINGS, build_parser

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def test_library_quick_start_runs(capsys):
    # the documented API: the README block must run as written
    text = open(README, encoding="utf-8").read()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == code.count("print(")


def test_command_line_block_parses():
    # every documented invocation parses: a flag the CLI no longer has
    # would raise SystemExit here
    text = open(README, encoding="utf-8").read()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    block = block.replace("\\\n", " ")  # join continued lines
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    invocations = [shlex.split(line)[1:] for line in lines
                   if line.startswith("bellquench ")]
    parser = build_parser()
    commands = [parser.parse_args(argv).command for argv in invocations]
    assert sorted(commands) == sorted(SETTINGS)
