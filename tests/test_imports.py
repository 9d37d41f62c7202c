"""Package modules reach each other only through public names, every public
name resolves, no certificate draws random numbers, and the benchmark's hooks
still resolve."""
import ast
import importlib
import importlib.util
from pathlib import Path

import cubeint
from cubeint import cube

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


def imports_of(source: str, name: str) -> list[str]:
    """Absolute imports of the top-level module `name`, as text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                f"{node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name.split(".")[0] == name
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == name:
                found.append(f"{node.lineno}: from {node.module} import ...")
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


def test_detector_sees_random():
    source = "import random\nfrom random import choice\nimport randomness\nfrom .random import x\n"
    assert imports_of(source, "random") == ["1: import random", "2: from random import ..."]


def test_certificates_draw_no_random_numbers():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := imports_of(path.read_text(encoding="utf-8"), "random"))
    }
    assert offenders == {}


def test_public_names_resolve():
    missing = [name for name in cubeint.__all__ if not hasattr(cubeint, name)]
    assert missing == []


def test_benchmark_hooks_resolve():
    # the benchmark reports a renamed hook's counters as absent, not as a failure
    path = Path(__file__).resolve().parent.parent / "certbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("certbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BINDINGS
    for module_name, attr, _span in spans.BINDINGS:
        hook = getattr(importlib.import_module(module_name), attr, None)
        assert callable(hook), f"{module_name}.{attr} is gone"
    assert callable(cube._row_mask.cache_info)
