"""The package's public names and its dependencies."""

import ast
import sys
from pathlib import Path

import nullity


def test_every_public_name_resolves_once():
    assert len(set(nullity.__all__)) == len(nullity.__all__)
    assert [n for n in nullity.__all__ if not hasattr(nullity, n)] == []


def test_package_imports_numpy_and_the_standard_library_only():
    # pyproject.toml depends on numpy alone, so no other third-party module
    # (sympy, scipy, ...) may be imported anywhere in the package
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    sources = sorted(Path(nullity.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert foreign == []
