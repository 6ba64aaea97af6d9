"""No module of the package imports a name it never uses, no private
function or class of the package goes unreferenced, and every public one
that nothing in the package calls is on README's list of those kept."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weierdyn"


def _all_names(tree: ast.Module) -> list[str]:
    """The names a module lists in __all__."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.extend(ast.literal_eval(node.value))
    return names


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
    used.update(_all_names(tree))
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


def _uncalled_public(trees: dict[str, ast.Module]) -> list[str]:
    """The functions and classes that a module of trees (module name -> tree)
    lists in __all__ and that nothing in trees refers to outside their own
    definition: no Name in their module, no `module.name` attribute and no
    import, the re-exports of __init__ aside."""
    refs = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append(((module, node.id), node))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                refs.append(((node.value.id, node.attr), node))
            elif isinstance(node, ast.ImportFrom) and module != "__init__":
                refs.extend(((node.module, alias.name), alias) for alias in node.names)
    uncalled = []
    for module, tree in trees.items():
        exported = set(_all_names(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported:
                inside = {id(n) for n in ast.walk(node)}
                key = (module, node.name)
                if not any(k == key and id(ref) not in inside for k, ref in refs):
                    uncalled.append(f"{module}.{node.name}")
    return sorted(uncalled)


def _readme_kept(text: str) -> list[str]:
    """The `module.name` bullets of README's section on public callables
    kept with no caller in the package."""
    section = text.split("\n### Public callables with no caller in src/\n", 1)[1]
    section = section.split("\n#", 1)[0]
    return sorted(re.findall(r"^- `(\w+\.\w+)`", section, re.M))


def test_every_uncalled_public_callable_is_kept_in_the_readme():
    # a public callable nothing in src/ calls is either dead or kept for a
    # reason, and the README says which reason
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert _uncalled_public(trees) == _readme_kept((ROOT / "README.md").read_text())


def test_guard_reports_an_uncalled_public_callable():
    toy = ast.parse(
        "from .other import by_import\n"
        "__all__ = ['called', 'uncalled', 'recursive', 'Used', 'by_import']\n"
        "def called(): return 1\n"
        "def uncalled(): return called()\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class Used: pass\n"
        "def private_helper(): return Used\n"
    )
    other = ast.parse(
        "__all__ = ['by_import', 'by_attribute', 'reexported', 'same_attr']\n"
        "def by_import(): return 0\n"
        "def by_attribute(): return 0\n"
        "def reexported(): return 0\n"
        "def same_attr(): return 0\n"
    )
    user = ast.parse(
        "from . import other\n"
        "def f(np): return other.by_attribute(), np.fmin.same_attr\n"
    )
    init = ast.parse("from .other import reexported\n__all__ = ['reexported']\n")
    trees = {"toy": toy, "other": other, "user": user, "__init__": init}
    assert _uncalled_public(trees) == [
        "other.reexported", "other.same_attr", "toy.recursive", "toy.uncalled",
    ]
    readme = (
        "## Library\n\n### Public callables with no caller in src/\n\n"
        "- `a.b`: why\n  more\n- `c.d`: why\n\n## Next\n\n- `e.f`: not kept\n"
    )
    assert _readme_kept(readme) == ["a.b", "c.d"]
