"""Package modules reach each other only through public names."""
import ast
from pathlib import Path

import cubeint

PACKAGE = Path(cubeint.__file__).parent


def private_imports(source: str) -> list[str]:
    """`from .x import _name` lines between package modules, as text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    module = "." * node.level + (node.module or "")
                    found.append(f"{node.lineno}: from {module} import {alias.name}")
    return found


def test_detector_sees_private_names():
    assert private_imports("from .cube import LinearMap, _private\n") == [
        "1: from .cube import _private"
    ]
    assert private_imports("from . import __version__\nfrom cube import _x\n") == []


def test_no_private_imports_across_modules():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := private_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
