"""Package modules reach each other only through public names, every
definition is used by the package itself, every public name resolves, no
certificate draws random numbers, every refusal is one exception class, and
the benchmark's hooks still resolve."""
import ast
import builtins
import importlib
import importlib.util
from collections import Counter
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


def names_in(node) -> Counter:
    """How often each name is read, as a variable or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def definitions(tree):
    """(qualified name, node) of each top-level def or class and each public
    method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unused_definitions(sources: list[str]) -> list[str]:
    """Definitions whose name is read nowhere in the sources but inside
    themselves: API that only code outside the sources (such as tests) runs."""
    trees = [ast.parse(source) for source in sources]
    named = sum((names_in(tree) for tree in trees), Counter())
    return sorted(
        qualified
        for tree in trees
        for qualified, node in definitions(tree)
        if named[node.name] == names_in(node)[node.name]
    )


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


BUILTIN_EXCEPTIONS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def exception_classes(sources: dict[str, str]) -> list[str]:
    """Classes that derive from a built-in exception, directly or through
    another class of the sources, as "file: Name(Base, ...)"."""
    classes = {}
    for filename, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases = [ast.unparse(base).rpartition(".")[2] for base in node.bases]
                classes[f"{filename}: {node.name}({', '.join(bases)})"] = (node.name, bases)
    errors = set(BUILTIN_EXCEPTIONS)
    known = 0
    while known < len(errors):
        known = len(errors)
        errors |= {name for name, bases in classes.values() if errors.intersection(bases)}
    return sorted(label for label, (_, bases) in classes.items() if errors.intersection(bases))


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


def test_detector_sees_unused_definitions():
    source = (
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Box:\n    def read(self):\n        return used()\n"
        "    def _hidden(self):\n        return 0\n"
        "def caller(box: Box):\n    return box.read()\n"
    )
    assert unused_definitions([source]) == ["caller", "recursive"]
    assert unused_definitions([source, "caller(recursive)\n"]) == []


def test_every_definition_is_used_by_the_package():
    sources = [
        path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert unused_definitions(sources) == []


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


def test_detector_sees_exception_classes():
    source = (
        "class Refused(ValueError):\n    pass\n"
        "class Later(Refused):\n    pass\n"
        "class Plain:\n    pass\n"
        "class Record(Plain):\n    pass\n"
        "class Mixed(errors.Base, RuntimeError):\n    pass\n"
    )
    assert exception_classes({"m.py": source}) == [
        "m.py: Later(Refused)",
        "m.py: Mixed(Base, RuntimeError)",
        "m.py: Refused(ValueError)",
    ]


def test_budget_error_is_the_only_exception_class():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert exception_classes(sources) == ["cube.py: BudgetError(ValueError)"]
    assert issubclass(cube.BudgetError, ValueError)


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
