"""Every name the package defines is used by the package or the benchmark.

A name counts as used when ``src/ulrlab`` or ``bench/`` loads it outside
its own definition: a module-level function, class or constant by name
or as an attribute, a method, property or dataclass field as an
attribute.  Tests do not count; code only they call, or fields only
they read, belong in the tests.

Blind spot: names are matched by spelling alone, so a definition that
shares its name with a method of numpy arrays or bytes (``decode``,
``astype``) always looks used.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ulrlab").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def definitions(tree: ast.Module, module: str):
    """(qualified name, name, defining node, is a member) for every definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True
                elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and is_dataclass(node)):
                    name = item.target.id
                    yield f"{module}.{node.name}.{name}", name, item, True
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield f"{module}.{name.id}", name.id, node, False


def load_counts(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often ``tree`` loads each name, and each attribute."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs[node.attr] += 1
    return names, attrs


def test_every_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attrs = load_counts(tree)
        names += tree_names
        attrs += tree_attrs
    unused = []
    for path in SOURCES:
        for qualname, name, node, is_member in definitions(trees[path], path.stem):
            own_names, own_attrs = load_counts(node)
            outside = attrs[name] - own_attrs[name]
            if not is_member:
                outside += names[name] - own_names[name]
            if outside == 0:
                unused.append(qualname)
    assert not unused, f"defined but used only by tests, if at all: {unused}"
