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


# the scalar path into wp: one orbit loop (dynamics.iterate) and one scalar wp
# (lattice.wp, wp_pair's value) evaluate wp_pair, and only make_lattice's
# critical values evaluate wp; every other evaluation runs on split arrays
_SCALAR_WP_CALLERS = {
    ("lattice.wp", "wp_pair"), ("dynamics.iterate", "wp_pair"), ("lattice.make_lattice", "wp"),
}


def _scalar_wp_uses(trees: dict[str, ast.Module]) -> list[str]:
    """Each use of wp_pair or wp in trees (module name -> tree), as a Name or
    an attribute, outside the pairs of _SCALAR_WP_CALLERS: "module.owner uses
    name (line n)", the owner being the top-level function or class method
    the use is in, or <module>."""
    found = []
    for module, tree in trees.items():
        owners = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                owners += [(f"{node.name}.{item.name}", item) for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners.append((node.name, node))
            else:
                owners.append(("<module>", node))
        for owner, top in owners:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if (
                    isinstance(node, (ast.Name, ast.Attribute)) and name in ("wp_pair", "wp")
                    and (f"{module}.{owner}", name) not in _SCALAR_WP_CALLERS
                ):
                    found.append(f"{module}.{owner} uses {name} (line {node.lineno})")
    return sorted(found)


def test_only_iterate_and_wp_evaluate_scalar_wp_pair():
    # a second scalar orbit loop or scalar wp would show here first
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert _scalar_wp_uses(trees) == []


def test_guard_reports_a_scalar_wp_outside_its_callers():
    lattice = ast.parse(
        "def wp_pair(z): return z, 1\n"
        "def wp(z): return wp_pair(z)[0]\n"
        "def make_lattice(h): return [wp(c) for c in h]\n"
        "def _walk(z):\n"
        "    def step(w): return wp_pair(w)\n"
        "    return step(z)\n"
    )
    dynamics = ast.parse(
        "from .lattice import wp_pair\n"
        "def iterate(z): return wp_pair(z)\n"
        "class Orbit:\n"
        "    def refine(self, z): return lattice.wp(z)\n"
        "STEP = wp_pair\n"
    )
    assert _scalar_wp_uses({"lattice": lattice, "dynamics": dynamics}) == [
        "dynamics.<module> uses wp_pair (line 5)", "dynamics.Orbit.refine uses wp (line 4)",
        "lattice._walk uses wp_pair (line 5)",
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


def _unreached_oracles(oracles: ast.Module, tests: dict[str, ast.Module]) -> list[str]:
    """The public functions of the oracle module oracles that no test module
    of tests (module name -> tree) reaches: none uses a name it imports from
    oracles or an `oracles.name` attribute for them, nor for an oracle
    function, public or private, whose body refers to them, recursively."""
    defs = {
        node.name: node for node in oracles.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    reached = set()
    for tree in tests.values():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                imported.update({alias.asname or alias.name: alias.name for alias in node.names})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in imported:
                reached.add(imported[node.id])
            elif (
                isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "oracles"
            ):
                reached.add(node.attr)
    todo = sorted(reached & defs.keys())
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in defs and node.id not in reached:
                reached.add(node.id)
                todo.append(node.id)
    return sorted(name for name in defs if not _is_private(name) and name not in reached)


def test_every_public_oracle_is_reached_from_a_test():
    # an oracle no test reaches checks nothing, so a rewired test that drops
    # one must drop the oracle too
    tests_dir = ROOT / "tests"
    oracles = ast.parse((tests_dir / "oracles.py").read_text())
    tests = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(tests_dir.glob("test_*.py"))
    }
    assert _unreached_oracles(oracles, tests) == []


def test_guard_reports_an_unreached_oracle():
    oracles = ast.parse(
        "def called(): return _helper()\n"
        "def _helper(): return via_helper()\n"
        "def via_helper(): return 1\n"
        "def imported_only(): return 0\n"
        "def dead(): return called()\n"
        "def by_attribute(): return 0\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def aliased(): return 0\n"
        "def shadowed(): return 0\n"
    )
    user = ast.parse(
        "import oracles\n"
        "from oracles import called, imported_only, aliased as other_name\n"
        "from elsewhere import shadowed\n"
        "def test_a(): assert called() == oracles.by_attribute() + 1 == other_name() + 1\n"
        "def test_b(): assert shadowed() == 0\n"
    )
    assert _unreached_oracles(oracles, {"test_user": user}) == [
        "dead", "imported_only", "recursive", "shadowed",
    ]
