"""Every function, class, method, property, field and constant the package
defines is used.

A module-level function or class, or a name assigned at a module's top
level (a constant), counts as used when its name is read (as a name or an
attribute) anywhere in ``src/polyspectra``, ``tests/`` or ``tools/``;
importing or assigning it alone does not count.  A method or property
that is not a dunder, and a field annotated in a class body, count as
used when some attribute of that name is read; setting a field in a
constructor call alone does not count.  The check is by name, so it
misses a dead definition whose name another definition shares, but it
catches the code nothing reaches.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "polyspectra").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "tools").rglob("*.py"))


def _reads() -> tuple:
    """The names and the attribute names read in every reader."""
    names, attributes = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_used():
    names, attributes = _reads()
    unused = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in names | attributes:
                unused.append(f"{path.name}: {node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{path.name}: {node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not _is_dunder(item.name)
                    and item.name not in attributes
                ]
    assert not unused, unused


def test_every_module_constant_is_read():
    names, attributes = _reads()
    unread = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            unread += [
                f"{path.name}: {name.id}"
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
                and not _is_dunder(name.id)
                and name.id not in names | attributes
            ]
    assert not unread, unread


def test_every_class_field_is_read():
    _, attributes = _reads()
    unread = [
        f"{path.name}: {node.name}.{item.target.id}"
        for path in PACKAGE
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and item.target.id not in attributes
    ]
    assert not unread, unread
