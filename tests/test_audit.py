"""Every name defined in the package has a reader in the package.

A top-level function or class, a method or a dataclass field of
``src/kmc`` that no ``Name``, ``Attribute`` or import in ``src/kmc``
references serves only its tests; it goes, unless it is a library
entry listed below.  ``__init__.py`` is left out: re-exporting a name
gives it no reader.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kmc"

UNREAD_BY_DESIGN = {
    # library entries
    "mirror": "a move generator for library users",
    "split_components": "splits a link diagram for library users",
    "render_pd": "writes a diagram back as PD text",
    "random_virtual_diagram": "seeded generator for property tests and the benchmark",
    "random_classical_diagram": "seeded generator for property tests and the benchmark",
    "braid_closure": "kink-free inputs with known answers",
    # read by the benchmark under perfbench/
    "circles_of_state": "perfbench/record.py computes chain_dim with it",
    "total_dimension": "perfbench's spans._complex_attrs calls it",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _definitions(tree: ast.Module):
    """(name, line) of the module's top-level functions and classes, their
    methods and their dataclass fields."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                yield item.name, item.lineno
            elif (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and _is_dataclass(node)
            ):
                yield item.target.id, item.lineno


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2]


def test_every_definition_in_the_package_has_a_reader():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    read = {name for tree in trees.values() for name in _references(tree)}
    defined = {}
    for module, tree in trees.items():
        for name, line in _definitions(tree):
            defined.setdefault(name, f"{module}:{line} {name}")
    unread = [
        where
        for name, where in defined.items()
        if name not in read
        and name not in UNREAD_BY_DESIGN
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unread == []
    # the allow-list names only defined names that still have no reader
    assert set(UNREAD_BY_DESIGN) <= defined.keys()
    assert not set(UNREAD_BY_DESIGN) & read
