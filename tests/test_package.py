"""The package namespace and command line: what the README documents exists, and vice versa."""

import re
from pathlib import Path

import qwtrap
from qwtrap import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title):
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^## {title}\n(.*?)^## ", text, re.S | re.M).group(1)


def test_every_export_imports():
    namespace = {}
    exec("from qwtrap import *", namespace)
    assert set(qwtrap.__all__) <= set(namespace)
    assert len(set(qwtrap.__all__)) == len(qwtrap.__all__)


def test_readme_library_section_lists_every_export():
    section = readme_section("Library")
    missing = [n for n in qwtrap.__all__ if n != "__version__" and f"`{n}`" not in section]
    assert missing == []


def test_readme_command_synopsis_lists_exactly_the_declared_flags():
    synopsis = re.search(r"^```\n(.*?)^```", readme_section("Command line"), re.S | re.M).group(1)
    documented = {
        m.group(1): set(re.findall(r"--([a-z]+)", m.group(2)))
        for m in re.finditer(r"^qwtrap (\w+)(.*)$", synopsis, re.M)
    }
    assert documented == {name: set(flags) for name, (_, _, flags) in cli._COMMANDS.items()}
