"""The package namespace: every exported name imports and the README documents it."""

import re
from pathlib import Path

import qwtrap

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section():
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library\n(.*?)^## ", text, re.S | re.M).group(1)


def test_every_export_imports():
    namespace = {}
    exec("from qwtrap import *", namespace)
    assert set(qwtrap.__all__) <= set(namespace)
    assert len(set(qwtrap.__all__)) == len(qwtrap.__all__)


def test_readme_library_section_lists_every_export():
    section = library_section()
    missing = [n for n in qwtrap.__all__ if n != "__version__" and f"`{n}`" not in section]
    assert missing == []
