"""Every name defined in the package has a reader in the package.

A top-level function or class, a method or a dataclass field of
``src/kmc`` that no ``Name``, ``Attribute`` or import in ``src/kmc``
references serves only its tests; it goes, unless it is a library
entry listed below.  An operator reads its methods: ``a + b`` and
``a += b`` read ``__add__``, ``__radd__`` and ``__iadd__``, ``-a``
reads ``__neg__``, ``a < b`` reads ``__lt__`` and ``__gt__``, and an
f-string reads ``__str__`` and ``__format__``.  Only the methods the
runtime calls without an operator are allowed by name.
``__init__.py`` is left out: re-exporting a name gives it no reader.
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


# called by the runtime itself: construction, dataclass set-up, repr(),
# hashing and truth tests
PROTOCOL = {"__init__", "__post_init__", "__repr__", "__hash__", "__bool__"}

BINARY = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.MatMult: "matmul",
    ast.Div: "truediv", ast.FloorDiv: "floordiv", ast.Mod: "mod", ast.Pow: "pow",
    ast.LShift: "lshift", ast.RShift: "rshift", ast.BitOr: "or", ast.BitXor: "xor",
    ast.BitAnd: "and",
}
UNARY = {ast.USub: "__neg__", ast.UAdd: "__pos__", ast.Invert: "__invert__", ast.Not: "__bool__"}
# each comparison and its reflection
COMPARE = {
    ast.Eq: ("__eq__",), ast.NotEq: ("__ne__", "__eq__"),
    ast.Lt: ("__lt__", "__gt__"), ast.Gt: ("__gt__", "__lt__"),
    ast.LtE: ("__le__", "__ge__"), ast.GtE: ("__ge__", "__le__"),
    ast.In: ("__contains__",), ast.NotIn: ("__contains__",),
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
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            name = BINARY[type(node.op)]
            yield from (f"__{name}__", f"__r{name}__", f"__i{name}__")
        elif isinstance(node, ast.UnaryOp):
            yield UNARY[type(node.op)]
        elif isinstance(node, ast.Compare):
            for op in node.ops:
                yield from COMPARE.get(type(op), ())
        elif isinstance(node, ast.JoinedStr):
            yield from ("__str__", "__format__")


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
        and name not in PROTOCOL
    ]
    assert unread == []
    # the allow-list names only defined names that still have no reader
    assert set(UNREAD_BY_DESIGN) <= defined.keys()
    assert not set(UNREAD_BY_DESIGN) & read


def _top_level_names(tree: ast.Module):
    """Names the module itself binds at top level: functions, classes and
    assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _exported(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def test_every_exported_name_is_defined_in_its_module():
    """A stale ``__all__`` entry would make ``from kmc.<module> import *``
    raise; every listed name must be bound by the module itself."""
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = _exported(tree)
        if exported is None:
            continue
        checked += 1
        missing = sorted(set(exported) - set(_top_level_names(tree)))
        assert missing == [], f"{path.name}: __all__ names undefined {missing}"
    assert checked
