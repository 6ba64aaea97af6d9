"""No module of the package imports a name it never uses, and no private
function or class of the package goes unreferenced."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "weierdyn"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is re-exported, so it counts as used
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_guard_reports_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os)\n")
    assert _unused_imports(tree) == ["pi (line 2)"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _unreferenced_private(trees: dict[str, ast.Module]) -> list[str]:
    """The private functions and classes of trees (module name -> tree) that
    no Name, Attribute or import alias of any tree refers to, outside their
    own definition."""
    refs = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
            elif isinstance(node, ast.alias):
                refs.append((node.name, node))
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _is_private(
                node.name
            ):
                inside = {id(n) for n in ast.walk(node)}
                if not any(name == node.name and id(ref) not in inside for name, ref in refs):
                    dead.append(f"{module}.{node.name} (line {node.lineno})")
    return sorted(dead)


def test_every_private_function_and_class_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private(trees) == []


def test_guard_reports_an_unreferenced_private_helper():
    toy = ast.parse(
        "from .other import _imported\n"
        "def _called(): return 1\n"
        "def _dead(): return _called()\n"
        "def _recursive(n): return _recursive(n - 1) if n else 0\n"
        "class _Used:\n"
        "    def __init__(self): self.x = _called\n"
        "    def _method(self): return 0\n"
        "class _Unused: pass\n"
        "def public(obj): return obj._method(), _Used\n"
    )
    other = ast.parse("def _imported(): return 0\ndef _only_named(): return 0\n")
    assert _unreferenced_private({"toy": toy, "other": other}) == [
        "other._only_named (line 2)", "toy._Unused (line 8)", "toy._dead (line 3)",
        "toy._recursive (line 4)",
    ]
