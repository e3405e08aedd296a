import os
import re

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
