"""The test oracle stays on the test side: no ``src/`` module imports ``tests``.

``tests/oracle.py`` holds every reference implementation so that production
keeps one path per capability.  If a production module imported it (or any
other test module), a reference would be back on the production path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def imported_modules(tree: ast.AST) -> list[str]:
    """Every absolute module name an ``import``/``from ... import`` names."""
    names: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.append(node.module)
    return names


def test_no_src_module_imports_tests():
    # The scan sees both import forms (and skips relative imports).
    probe = ast.parse("import tests.oracle\nfrom tests import oracle\nfrom . import x\n")
    assert imported_modules(probe) == ["tests.oracle", "tests"]
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    offenders = [
        f"{path.relative_to(SRC)} imports {name}"
        for path in modules
        for name in imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name == "tests" or name.startswith("tests.")
    ]
    assert not offenders, offenders

