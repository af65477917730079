"""Every module of the package uses each name it imports, and every name
it defines is used somewhere.

A removed wrapper tends to leave its import behind (say, `plain` once the
last `to_dict` that called it is gone).  This reads each module's syntax
tree with the standard library's `ast` and lists the imported names that
the module never loads.  `__init__` is left out: it imports names to
re-export them.  A removed caller can leave its callee behind too, so a
second check lists the top-level functions, classes and constants of the
package that no file under `src/`, `tests/` or `perfbench/` loads.  A
third check keeps each private name private: no package module imports a
leading-underscore name from another.  A fourth reads the README's module
map, so a removed or renamed name cannot stay listed there.
"""

import ast
import importlib
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "dragonbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression loads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom .schema import check_keys, plain\n\nx = plain(os.sep)\n"
    assert unused_imports(source) == ["check_keys"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_definitions(modules: dict[str, str], sources: list[str]) -> list[str]:
    """`module.name` for each top-level function, class or constant of
    `modules` (name -> source) that no source in `sources` loads: by name,
    as an attribute, or spelled as a string (`getattr`, `monkeypatch`)."""
    loaded = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded.add(node.value)
    unused = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{module}.{name}" for name in names
                       if not name.startswith("__") and name not in loaded]
    return unused


def test_the_check_sees_an_unused_definition():
    module = "LIMIT = 1\n\ndef check(x):\n    return x < LIMIT\n\ndef spare():\n    pass\n"
    caller = "from m import check\n\nclass Box:\n    pass\n\ncheck(getattr(m, 'spare'))\n"
    assert unused_definitions({"m": module, "c": caller}, [module, caller]) == ["c.Box"]
    assert unused_definitions({"m": module}, [module]) == ["m.check", "m.spare"]


def test_every_package_definition_is_used():
    files = [p for root in ("src", "tests", "perfbench") for p in sorted((REPO / root).rglob("*.py"))]
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_definitions(modules, [p.read_text() for p in files]) == []


def private_imports(source: str) -> list[str]:
    """Leading-underscore names that the module imports from the package."""
    private = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "dragonbench"):
            private += [a.name for a in node.names if a.name.startswith("_")]
    return private


def test_the_check_sees_a_private_import():
    source = ("from types import ModuleType as _ModuleType\n"
              "from .objectives import _as_1d, h_values as _h\n"
              "from dragonbench.train import _train\n")
    assert private_imports(source) == ["_as_1d", "_train"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_a_private_name_of_another(path):
    assert private_imports(path.read_text()) == []


def module_map(readme: str) -> dict[str, list[str]]:
    """{module: the backticked names of its row} of the README's "Module map" table."""
    section = readme.split("## Module map", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`\w+`", cells[0]):
            rows[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    return rows


def resolves(obj, dotted: str) -> bool:
    """Whether `dotted` names a chain of attributes of `obj`; the last name
    may also be a field of a dataclass."""
    *path, last = dotted.split(".")
    for name in path:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return hasattr(obj, last) or (is_dataclass(obj) and last in {f.name for f in fields(obj)})


MODULE_MAP = module_map((REPO / "README.md").read_text())


def test_the_check_sees_a_name_the_module_lacks():
    readme = ("## Module map\n\n| module | contents |\n| --- | --- |\n"
              "| `models` | `FittedModel.predict`, `FittedModel.fit`, `predict` |\n\n## Next\n")
    [(module, names)] = module_map(readme).items()
    models = importlib.import_module(f"dragonbench.{module}")
    assert [name for name in names if not resolves(models, name)] == ["FittedModel.fit", "predict"]
    assert "estimators" in MODULE_MAP


@pytest.mark.parametrize("module", MODULE_MAP)
def test_every_name_in_the_readme_module_map_exists(module):
    found = importlib.import_module(f"dragonbench.{module}")
    assert [name for name in MODULE_MAP[module] if not resolves(found, name)] == []
