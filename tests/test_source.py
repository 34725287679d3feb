"""Source-level rules for src/: invariants are raised errors, never `assert`;
depth is bounded by explicit caps, never by the recursion limit; a module
outside a package's __init__ uses every name it imports; a package's __all__
lists exactly what its __init__ imports relatively or defines."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so a check written as one vanishes.
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_recursion_limit_handling_in_src():
    # Input depth is bounded by explicit caps (the parser's MAX_DEPTH), not by
    # catching RecursionError or moving the interpreter's recursion limit.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            caught = node.type if isinstance(node, ast.ExceptHandler) else None
            names = [caught] if not isinstance(caught, ast.Tuple) else caught.elts
            if any(isinstance(n, ast.Name) and n.id == "RecursionError" for n in names):
                found.append(f"{path.relative_to(SRC)}:{node.lineno} except RecursionError")
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Attribute, ast.Name, ast.alias)) and name == "setrecursionlimit":
                found.append(f"{path.relative_to(SRC)}:{node.lineno} setrecursionlimit")
    assert found == []


def test_no_unused_imports_in_src():
    # A package's __init__ imports to re-export; every other module imports to use.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert found == []


def test_package_all_lists_exactly_its_relative_imports_and_definitions():
    # A stale __all__ entry (a deleted class still exported) or a new name left
    # out of it shows up here, not in a user's `from orbibraid.x import *`.
    checked, found = 0, []
    for path in sorted(SRC.rglob("__init__.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        listed, names = None, set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                names.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        listed = [ast.literal_eval(e) for e in node.value.elts]
                    elif isinstance(target, ast.Name) and not target.id.startswith("__"):
                        names.add(target.id)
        if listed is None:
            continue
        checked += 1
        extra, missing = sorted(set(listed) - names), sorted(names - set(listed))
        if extra or missing or len(listed) != len(set(listed)):
            found.append(f"{path.relative_to(SRC)}: extra {extra}, missing {missing}")
    assert checked >= 3
    assert found == []
