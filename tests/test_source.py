"""Source-level rules for src/: invariants are raised errors, never `assert`;
depth is bounded by explicit caps, never by the recursion limit; a module
outside a package's __init__ uses every name it imports; a package's __all__
lists exactly what its __init__ imports relatively or defines; each layer
imports only from the layers below it; no code reads an object's __dict__;
a DSL node holds no cache but its strand count or its types; values are
records, not dataclasses; importing the CLI loads neither dataclasses nor
the modules it pulls in, nor any layer, and each command loads only the
layers it runs."""

import ast
import subprocess
import sys
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


def test_no_dict_attribute_access_in_src():
    # Per-node caches are attributes, written with object.__setattr__.  On
    # CPython 3.11 an instance keeps its attributes without a dict until
    # something reads its __dict__, which builds one for that node: over
    # 1,023 nodes (one diagram of the coherence-routes pool) that is 64 KB
    # more memory, and a cache lookup through it 0.083 ms against 0.021 ms
    # through the attribute (2-vCPU x86-64 machine).
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
    ]
    assert found == []


def test_dsl_nodes_hold_no_slot_beyond_their_fields_but_strand_count_or_types():
    # An object keeps the strand count it is built with, a morphism its (domain,
    # codomain); any other per-node cache would keep what a fold recomputes.
    allowed = {"objects.py": ("ObjectExpr", {"n_strands"}), "morphisms.py": ("MorExpr", {"_types"})}
    checked, found = 0, []
    for name, (root, kept) in allowed.items():
        tree = ast.parse((SRC / "orbibraid" / "dsl" / name).read_text(encoding="utf-8"))
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
        for node in classes.values():
            base = node
            while base is not None and base.name != root:
                base = next((classes[b.id] for b in base.bases if isinstance(b, ast.Name) and b.id in classes), None)
            if base is None:
                continue
            checked += 1
            declared = {}
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and target.id in ("__slots__", "__match_args__"):
                            declared[target.id] = set(ast.literal_eval(stmt.value))
            if "__slots__" not in declared:
                found.append(f"{name}:{node.lineno} {node.name} declares no __slots__")
            elif declared["__slots__"] - declared.get("__match_args__", set()) - kept:
                found.append(f"{name}:{node.lineno} {node.name} slots {sorted(declared['__slots__'])}")
    assert checked == 16
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


# The layers each top-level module of orbibraid may import from, besides its
# own package; cli may import any.  The order is acyclic by construction.
# record, the base of every value class, is a bottom layer every layer may import.
LAYERS = {
    "errors": set(),
    "record": set(),
    "braid": {"errors", "record"},
    "dsl": {"errors", "record"},
    "operad": {"errors", "record", "dsl"},
    "reflect": {"errors", "record", "braid", "dsl"},
    "coherence": {"errors", "record", "braid", "dsl"},
    "__init__": set(),
}


def _imported_layers(parts: tuple[str, ...], tree: ast.Module):
    """Top-level orbibraid modules imported by the module at ``parts`` below the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".")[1:] for alias in node.names if alias.name.startswith("orbibraid.")]
        elif isinstance(node, ast.ImportFrom) and node.level:
            anchor = list(parts[: len(parts) - node.level])
            targets = [anchor + node.module.split(".")] if node.module else [anchor + [a.name] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("orbibraid."):
            targets = [node.module.split(".")[1:]]
        else:
            continue
        yield from ((node.lineno, target[0]) for target in targets)


def test_each_layer_imports_only_the_layers_below_it():
    package = SRC / "orbibraid"
    checked, found = 0, []
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).with_suffix("").parts
        if parts[0] == "cli":
            continue
        checked += 1
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, layer in _imported_layers(parts, tree):
            if layer != parts[0] and layer not in LAYERS[parts[0]]:
                found.append(f"{path.relative_to(SRC)}:{lineno} imports {layer}")
    assert checked >= 15
    assert found == []


def test_no_dataclass_in_src():
    # Every value class is a record (orbibraid.record).  Only Record's refusal
    # of a write imports dataclasses, for FrozenInstanceError, and only then.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        at_top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names):
                found.append(f"{path.relative_to(SRC)}:{node.lineno} import dataclasses")
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                names = [a.name for a in node.names]
                if id(node) in at_top or names != ["FrozenInstanceError"]:
                    found.append(f"{path.relative_to(SRC)}:{node.lineno} from dataclasses import {names}")
            elif isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if "dataclass" in ast.unparse(target):
                        found.append(f"{path.relative_to(SRC)}:{node.lineno} @{ast.unparse(target)}")
    assert found == []


def test_importing_the_cli_loads_no_dataclasses_inspect_or_string():
    # dataclasses (with inspect, ast, dis and tokenize under it) and string
    # cost a fresh orbibraid process about 10 ms of its start-up.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import orbibraid.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'string') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def _loaded_by(*argv: str) -> set[str]:
    """What a fresh interpreter has loaded after importing the CLI and, given argv, running
    that command (which must exit 0): each orbibraid module by its name below the package,
    so a layer's modules by the layer's name, the package itself, and fractions."""
    code = (
        "import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); import orbibraid.cli\n"
        "if sys.argv[2:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = orbibraid.cli.main(sys.argv[2:])\n"
        "    if code: sys.exit(f'exit {code}')\n"
        "print(' '.join(m for m in sys.modules if m.startswith('orbibraid') or m == 'fractions'))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(SRC), *argv], capture_output=True, text=True, check=True)
    return {m.split(".")[1] if "." in m else m for m in out.stdout.split()}


def test_each_command_loads_only_the_layers_it_runs():
    # Every layer loaded costs a fresh process its import (the five together are
    # about 3,400 lines), so a command loads only the layers it runs.
    data = SRC / "orbibraid" / "data"
    assert _loaded_by() == {"orbibraid", "cli", "errors", "record"}
    braid = _loaded_by("braid", "eq", "-n", "3", "s1 s2 s1", "s2 s1 s2")
    assert "braid" in braid and not braid & {"dsl", "coherence", "operad", "reflect"}
    coherence = _loaded_by("coherence", "check", str(data / "diagrams" / "pentagon.diag"))
    assert "coherence" in coherence and not coherence & {"operad", "reflect"}
    operad = _loaded_by("operad", "classify", "-k", "3", "--output", "D", "--inputs", "D,D,D")
    assert "operad" in operad and not operad & {"braid", "coherence", "reflect"}
    rep = _loaded_by("rep", "verify", str(data / "sl2.rep.json"))
    assert "reflect" in rep and not rep & {"braid", "coherence", "operad", "fractions"}
