"""The package namespace and command line: what the README documents exists, and vice versa.

Also that every function and class of the package has a caller.
"""

import ast
import re
from pathlib import Path

import qwtrap
from qwtrap import cli
from test_cli import declared_console_script

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

#: Functions and classes of ``src/qwtrap`` that nothing in ``src/``, ``scripts/`` or ``bench/`` reads.
NO_CALLER = {
    "amplitude": "WalkState's one-site reader, the counterpart of GeometricVector.value",
    "overlap_sq": "DefectEigenForm's closed-form weight from the paper, which criterion A9 compares against",
}


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


def test_every_function_and_class_has_a_caller():
    # a definition has a caller when its name is read, as a name or an
    # attribute, anywhere in src/, scripts/ or bench/, is exported, or is the
    # console-script entry point
    package = ROOT / "src" / "qwtrap"
    defined, read = set(), set(qwtrap.__all__) | {declared_console_script()[1]}
    for path in [*package.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.parent == package:
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
    assert defined - read == set(NO_CALLER)
