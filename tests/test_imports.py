"""Every name a library module imports is used in that module, none imports
a scipy submodule, and the modules import one another in one direction."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "molrmog"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def scipy_submodule_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
            if node.module == "scipy":
                names += [f"scipy.{a.name}" for a in node.names]
    return [name for name in names if name.startswith("scipy.")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_scipy_submodule_import(module):
    """`objective.py`'s top-level `import scipy` (for its install path) is the
    only scipy import in the library."""
    assert scipy_submodule_imports((SRC / module).read_text(encoding="utf-8")) == []


# each module imports only from modules before it; a model subspace is a
# score.LatentParams, so score comes before model
LAYERS = ("errors", "schedule", "score", "model", "calculus", "objective", "optimizer",
          "sampler", "cli")


def package_imports(source: str) -> list[str]:
    """The package modules a module imports from (relative or absolute);
    `from . import x` reads the package root, `__init__`."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or "__init__"
            if node.level == 1:
                names.append(module)
            elif node.level == 0 and module.startswith("molrmog."):
                names.append(module.split(".")[1])
        elif isinstance(node, ast.Import):
            names += [a.name.split(".")[1] for a in node.names
                      if a.name.startswith("molrmog.")]
    return names


def test_every_module_has_a_layer():
    assert sorted(LAYERS + ("__init__",)) == sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("module", LAYERS)
def test_imports_follow_layer_order(module):
    allowed = set(LAYERS[:LAYERS.index(module)]) | {"__init__"}
    imported = package_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert [name for name in imported if name not in allowed] == []
