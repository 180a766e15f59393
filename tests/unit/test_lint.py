"""The unused-import pass of ``scripts/lint.py``."""

import importlib.util
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "scripts", "lint.py"
)
_spec = importlib.util.spec_from_file_location("repo_lint", _PATH)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", [(1, "os")]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb = 1\n", [(1, "b")]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import b  # noqa: F401\n", []),
        ("from a import (  # noqa: F401\n    b,\n    c,\n)\n", []),
        ("from a import (\n    b,\n    c,\n)\nc()\n", [(2, "b")]),
        ("from a import T\ndef f(x: 'T') -> 'list[T]':\n    pass\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import json\n    return 1\n", [(2, "json")]),
    ],
)
def test_unused_imports(source, expected):
    assert lint.unused_imports(source) == expected


def test_repo_modules_import_cleanly():
    assert lint.import_all_modules() == []
