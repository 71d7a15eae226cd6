"""Every name imported into a module of the package is used there, so a
deletion cannot leave a dead import behind.  A line marked `# noqa: F401`
keeps a name on purpose."""

import ast
from pathlib import Path

import pytest

import nquasi

MODULES = sorted(Path(nquasi.__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name that the module never names."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                out.append((alias.lineno, name))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_name_and_honours_noqa():
    source = "from .terms import (\n    App,\n    has_elem,\n)\nimport os  # noqa: F401\nApp()\n"
    assert unused_imports(source) == [(3, "has_elem")]
