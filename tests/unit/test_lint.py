"""The unused-import and undefined-name passes of ``scripts/lint.py``."""

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


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f():\n    return missing + 1\n", [(2, "missing")]),
        ("class C:\n    x = 1\n    y = x + nope\n", [(3, "nope")]),
        ("import os\nx = [os.sep for _ in range(2)]\nprint(len(x))\n", []),
        ("def f():\n    global g\n    g = 1\n\ndef h():\n    return g\n", []),
        ("def f():\n    n = 1\n    return lambda: n + __file__\n", []),
        ("from os import *\nx = sep\n", []),
        (
            "from __future__ import annotations\n"
            "def f(a: Unseen) -> None:\n    return a\n",
            [],
        ),
    ],
)
def test_undefined_names(source, expected):
    assert lint.undefined_names(source) == expected


def test_repo_modules_import_cleanly():
    assert lint.import_all_modules() == []
