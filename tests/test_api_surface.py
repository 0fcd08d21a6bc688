"""Every public name of the package has a caller outside tests/: each name
in regover.__all__, each public module-level def or class in src/regover,
and each public method or property of such a class, is used by another
package module or by a file under bench/, the benchmark's harness and its
tests.  A name that only tests/ calls is deleted instead.  So is a
parameter with a default that no call outside tests/ passes, and any
parameter that every such call sets to one and the same literal (passed,
or the default where a call leaves it out): a knob with one value, unless
ONE_VALUE_KNOBS names it."""

import ast
import importlib
import importlib.util
from collections import defaultdict
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

ONE_VALUE_KNOBS = {
    # phi(q) = phi(-(-q)) is the tests' second route for theta_f_series
    "products.phi(sign)",
    # the identity core divides by the cube at scale 1 alone; ROADMAP item
    # 12 would expand cubes at the scales of an eta quotient's factors
    "products.jacobi_cube(scale)",
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


def public_members() -> list[str]:
    """module.class.name of each public method or property of a public
    class in the package; dunders are not public."""
    return [
        f"{path.stem}.{node.name}.{fn.name}"
        for path, tree in MODULES.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for fn in node.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    ]


def test_every_public_method_and_property_has_a_reader():
    unread = [q for q in public_members() if q.rsplit(".", 1)[1] not in USED]
    assert unread == []


def parameters() -> list[tuple[str, str, int | None, str, ast.expr | None]]:
    """(qualified name, callee name, position or None, parameter, default or
    None) of each parameter of a public function, or of a public class's
    __init__, __new__ or public method (the package has no staticmethod).
    A class's constructor is called by the class name; a method's position
    leaves out self or cls."""
    found = []

    def add(qualname, callee, fn, skip):
        args = fn.args
        positional = (args.posonlyargs + args.args)[skip:]
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        for i, (arg, default) in enumerate(zip(positional, defaults)):
            found.append((qualname, callee, i, arg.arg, default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            found.append((qualname, callee, None, arg.arg, default))

    for path, tree in MODULES.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                add(f"{path.stem}.{node.name}", node.name, node, 0)
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name in ("__init__", "__new__"):
                    callee = node.name
                elif fn.name.startswith("_"):
                    continue
                else:
                    callee = fn.name
                add(f"{path.stem}.{node.name}.{fn.name}", callee, fn, 1)
    return found


def calls_by_callee() -> dict[str, list[ast.Call]]:
    """The calls each module makes, by callee name (a Name or an Attribute)."""
    found = defaultdict(list)
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                found[node.func.id].append(node)
            elif isinstance(node.func, ast.Attribute):
                found[node.func.attr].append(node)
    return found


CALLS = calls_by_callee()


def passed_parameters(callee: str, call: ast.Call) -> set[tuple[str, int | str]]:
    """(callee name, position or keyword) of each argument the call passes;
    a call with *args or **kwargs passes every position or keyword, written
    (callee, "*") or (callee, "**")."""
    passed = set()
    for i, arg in enumerate(call.args):
        passed.add((callee, "*" if isinstance(arg, ast.Starred) else i))
    for kw in call.keywords:
        passed.add((callee, "**" if kw.arg is None else kw.arg))
    return passed


PASSED = set().union(
    *(passed_parameters(callee, call) for callee, found in CALLS.items() for call in found)
)


def test_every_defaulted_parameter_is_passed_outside_tests():
    unpassed = [
        f"{qualname}({name})"
        for qualname, callee, position, name, default in parameters()
        if default is not None
        and not {(callee, "*"), (callee, "**"), (callee, position), (callee, name)} & PASSED
    ]
    assert unpassed == []


def literal_value(node: ast.expr) -> tuple[str, str] | None:
    """(type name, repr) of a literal expression, so True and 1 differ; None
    for anything else."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value).__name__, repr(value)


def given_value(call: ast.Call, position: int | None, name: str, default: ast.expr | None):
    """The literal a call sets a parameter to: the argument it passes, or the
    default when it passes none; None when that is no literal, when a *args
    or **kwargs argument hides it, or when the call passes none and there is
    no default."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return None
    keywords = {kw.arg: kw.value for kw in call.keywords}
    if None in keywords:
        return None
    if position is not None and position < len(call.args):
        return literal_value(call.args[position])
    value = keywords.get(name, default)
    return None if value is None else literal_value(value)


def test_no_parameter_is_a_knob_with_one_value():
    knobs = {
        f"{qualname}({name})"
        for qualname, callee, position, name, default in parameters()
        if len(values := {given_value(c, position, name, default) for c in CALLS[callee]}) == 1
        and None not in values
    }
    # a name in ONE_VALUE_KNOBS that is no longer a one-value knob is stale
    assert sorted(knobs ^ ONE_VALUE_KNOBS) == []


def test_all_is_sorted_without_duplicates():
    assert regover.__all__ == sorted(set(regover.__all__))


def imported_but_unread(tree: ast.Module) -> set[str]:
    """The names a module imports (outside __future__) and never loads."""
    imported, loaded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return imported - loaded


def test_every_unread_import_is_a_name_the_tracer_wraps():
    # bench/tracer.py wraps some names where their caller looks them up, so
    # a package module may import a name only for the tracer to find there
    # (today claims.sequence_value, registry.primes_up_to,
    # registry.sequence_series and registry.oracle_regular_overpartition);
    # once the tracer stops wrapping one, its import is dead
    unread = {
        f"{path.stem}.{name}"
        for path, tree in MODULES.items()
        if path.parent == PACKAGE
        for name in imported_but_unread(tree)
    }
    stems = {name.split(".")[0] for name in unread}
    modules = {stem: importlib.import_module(f"regover.{stem}") for stem in stems}
    before = {stem: dict(vars(module)) for stem, module in modules.items()}
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install_layers(tracer)
        wrapped = {
            f"{stem}.{name}"
            for stem, module in modules.items()
            for name, value in vars(module).items()
            if before[stem].get(name) is not value
        }
    finally:
        tracer.uninstall()
    assert sorted(unread - wrapped) == []
