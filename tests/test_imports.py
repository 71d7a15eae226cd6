"""Every name imported into a module of the package is used there, so a
deletion cannot leave a dead import behind.  A line marked `# noqa: F401`
keeps a name on purpose, and only one that the benchmark's tracer rebinds
there.  Every public method of a package class is read by the package, a
demo or the benchmark, so no method is kept for tests alone.  The
process-wide caches are one named list."""

import ast
from pathlib import Path

import pytest

import nquasi

MODULES = sorted(Path(nquasi.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# the program's code outside the package that may read its names; tests do not count
READERS = [path for folder in ("demos", "perfbench") for path in sorted((ROOT / folder).glob("*.py")) if not path.name.startswith("test_")]


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


def kept_imports(source):
    """Each name imported on a line marked `# noqa: F401`."""
    lines = source.splitlines()
    return [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]


def traced_rebindings():
    """(module, function) of each caller-module binding that WRAPS in
    perfbench/tracing.py rebinds."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (wraps,) = [node.value for node in tree.body if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPS"]
    return {(module, name) for _layer, name, callers in ast.literal_eval(wraps) for module in callers}


def test_every_kept_import_is_a_name_the_tracer_rebinds():
    # today `match`, `replace_at` and `validate_embedding` in amalgams and
    # `validate_embedding` in codescent: the tracer shims, in one list
    kept = {(path.stem, name) for path in MODULES for name in kept_imports(path.read_text())}
    assert kept - traced_rebindings() == set()


def public_methods(source):
    """(class, name) of each public method or property a class defines."""
    return [
        (node.name, item.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]


def attribute_reads(source):
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_method_is_read_outside_the_tests():
    # Matched by name, not by class: any read of `.confluent` counts for
    # `ConfluenceVerdict.confluent` and would count for a method of that
    # name on another class, such as the deleted `OracleVerdict.confluent`.
    reads = set().union(*(attribute_reads(path.read_text()) for path in MODULES + READERS))
    unread = [
        (path.stem, cls, name)
        for path in MODULES
        for cls, name in public_methods(path.read_text())
        if name not in reads
    ]
    assert unread == []


def process_wide_caches(source):
    """Name of each function decorated with `functools.lru_cache` or
    `functools.cache`, called or bare, imported from functools or not."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if getattr(target, "attr", getattr(target, "id", None)) in ("lru_cache", "cache"):
                out.append(node.name)
    return out


def test_the_process_wide_caches_are_one_list():
    # A cache keeps what it holds until the process ends, so each one must
    # pay for that.  `_slot_readers` does: its value depends only on
    # (order, n) and is immutable, and the slot rows of every algebra read
    # it (5,892 `FiniteAlgebra` builds per traced seed-1 cep pass).  A
    # table filled for later calls, such as the closed-subset scan's, lives
    # for one call.
    caches = {(path.stem, name) for path in MODULES for name in process_wide_caches(path.read_text())}
    assert caches == {("algebras", "_slot_readers")}


def test_the_cache_check_sees_every_spelling():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\ndef a(): pass\n@functools.cache\ndef b(): pass\n"
        "@lru_cache\ndef c(): pass\n@cache\ndef d(): pass\n"
        "class K:\n    @functools.cached_property\n    def e(self): pass\n    @functools.lru_cache()\n    def f(self): pass\n"
    )
    assert process_wide_caches(source) == ["a", "b", "c", "d", "f"]
