"""Every public name of the package has a caller outside tests/: each name
in regover.__all__, and each public module-level def or class in
src/regover, is used by another package module or by a file under bench/,
the benchmark's harness and its tests.  A name that only tests/ calls is
deleted instead."""

import ast
from pathlib import Path

import regover

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regover"

ALLOWED = {
    # the enumeration oracle for p(n), a reference that tests compare the
    # series route against
    "oracle_partition",
    # r_k(n) by convolving the squares vector, a reference that tests
    # compare r_formula and the sieved r tables against
    "r_oracle",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, as a Name, an Attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


MODULES = {
    path: parse(path)
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    if path.name != "__init__.py"
}
USED = set().union(*map(used_names, MODULES.values()))


def public_definitions() -> list[str]:
    """module.name of each public module-level def or class in the package."""
    return [
        f"{path.stem}.{node.name}"
        for path, tree in MODULES.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_every_exported_name_has_a_caller():
    assert [name for name in regover.__all__ if name not in USED | ALLOWED] == []


def test_every_public_definition_has_a_caller():
    unused = [q for q in public_definitions() if q.split(".")[1] not in USED | ALLOWED]
    assert unused == []


def test_all_is_sorted_without_duplicates():
    assert regover.__all__ == sorted(set(regover.__all__))
