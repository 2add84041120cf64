"""The library is what its callers reach.

Every top-level function, class, constant and method of `src/molrmog/`,
private ones included, must be reached from a root: `cli.DISPATCH` and
`cli.main`, the demos, the README tour, or the bench (its code and its string
constants, since `bench/tracing.py` rebinds functions named by strings).  A
name no root reaches is dead, even when a test calls it: a reference
implementation that only a test needs lives in `conftest.py`.

The reference graph is read from the source with `ast`.  A name resolves
through its module's top-level definitions and imports; `module.name`
through a module alias.  A method counts as reached when its class is reached
and reached code takes an attribute of that name (any dunder method counts
once its class does).  Annotations are not references.
"""

import ast
import functools
import re
from pathlib import Path

from conftest import readme_tour

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "molrmog"
PACKAGE = "__init__"

ROOTS = ("cli.DISPATCH", "cli.main")


def _nodes(tree, skip_docstrings=False):
    """Every node under tree except annotations and, if asked, docstrings."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            skip.add(id(node.annotation))
        elif isinstance(node, ast.FunctionDef) and node.returns:
            skip.add(id(node.returns))
        elif isinstance(node, ast.AnnAssign):
            skip.add(id(node.annotation))
        elif (skip_docstrings and isinstance(node, ast.Expr)
              and isinstance(node.value, ast.Constant)):
            skip.add(id(node.value))
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) not in skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _member(base: str, name: str) -> str:
    """name looked up in module base: a submodule of the package, else a definition."""
    return name if base == PACKAGE and (SRC / f"{name}.py").is_file() else f"{base}.{name}"


def _aliases(tree) -> dict[str, str]:
    """Local name -> module ("score") or definition ("score.latent_score"),
    for each import of the package, relative or absolute."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "molrmog":
                    out[a.asname or "molrmog"] = parts[-1] if a.asname and parts[1:] else PACKAGE
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module or PACKAGE
            elif (node.module or "").split(".")[0] == "molrmog":
                base = node.module.split(".")[-1] if "." in node.module else PACKAGE
            else:
                continue
            for a in node.names:
                out[a.asname or a.name] = _member(base, a.name)
    return out


def _resolve(expr, scope: dict[str, str]) -> str | None:
    if isinstance(expr, ast.Name):
        return scope.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _resolve(expr.value, scope)
        if base is not None and "." not in base:
            return _member(base, expr.attr)
    return None


def _references(trees, scope, strings=False):
    """(resolved names, attribute names) the trees use; with strings, each
    identifier in a string constant other than a docstring names the
    top-level definition of that name in every module, as a bench rebinding
    does."""
    names, attrs, words = set(), set(), set()
    for tree in trees:
        for node in _nodes(tree, skip_docstrings=strings):
            if isinstance(node, (ast.Name, ast.Attribute)):
                names.add(_resolve(node, scope))
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                words |= set(re.findall(r"[A-Za-z_]\w*", node.value))
    names |= {f"{path.stem}.{word}" for path in SRC.glob("*.py") for word in words}
    return names - {None}, attrs


@functools.cache
def graph():
    """(definitions, methods): definitions maps each name to the (names,
    attributes) its body references; methods lists (class, method name, key)."""
    defs, methods = {}, []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top[node.name] = node
            elif isinstance(node, ast.Assign):
                top |= {t.id: node.value for t in node.targets if isinstance(t, ast.Name)}
        scope = _aliases(tree) | {name: f"{mod}.{name}" for name in top}
        for name, node in top.items():
            body = [node]
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        key = f"{mod}.{name}.{fn.name}"
                        defs[key] = _references([fn], scope)
                        methods.append((f"{mod}.{name}", fn.name, key))
                # the class itself references its bases, decorators and fields
                body = node.bases + node.keywords + node.decorator_list + [
                    n for n in node.body if not isinstance(n, ast.FunctionDef)]
            defs[f"{mod}.{name}"] = _references(body, scope)
    return defs, methods


def _caller_references():
    """What the demos, the README tour and the bench reference."""
    names, attrs = set(), set()
    sources = [(p.read_text(encoding="utf-8"), False)
               for p in sorted((ROOT / "demos").glob("*.py"))]
    sources.append((readme_tour(), False))
    sources += [(p.read_text(encoding="utf-8"), True) for p in sorted((ROOT / "bench").glob("*.py"))]
    for text, strings in sources:
        tree = ast.parse(text)
        n, a = _references([tree], _aliases(tree), strings=strings)
        names |= n
        attrs |= a
    return names, attrs


@functools.cache
def reached() -> frozenset:
    defs, methods = graph()
    todo, attrs = _caller_references()
    todo |= set(ROOTS)
    seen = set()
    while True:
        new = (todo & defs.keys()) - seen
        new |= {key for cls, name, key in methods
                if cls in seen and (name in attrs or name.startswith("__"))} - seen
        if not new:
            return frozenset(seen)
        seen |= new
        todo = set()
        for key in new:
            names, more = defs[key]
            todo |= names
            attrs |= more


def test_every_library_name_is_reached():
    defs, _ = graph()
    unreached = sorted(set(defs) - reached())
    assert not unreached, f"no caller reaches {', '.join(unreached)}: delete them"
