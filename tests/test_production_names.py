"""The inventory of production names: every function and class a production
module defines, and every method of such a class, is reached from a
production path, ``scripts/`` or ``perfbench/``.  A name only the judges
(``oracle``, ``verify``, the tests) call belongs beside them; one left in a
production module fails here.  The judges' own names are held to the same
rule one level up: each serves a ``verify`` suite, the CLI, ``scripts/`` or
``perfbench/``, not the tests alone."""

import ast
from pathlib import Path

import qolct

ROOT = Path(__file__).resolve().parent.parent

#: the library's QFT API, which no production path calls
PUBLIC = {"QftPlan", "qft_fast_ij", "iqft"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _foreign(tree) -> set:
    """The names a module binds to modules outside qolct (``np``, ``math``)."""
    return {alias.asname or alias.name.split(".")[0]
            for n in ast.walk(tree) if isinstance(n, ast.Import)
            for alias in n.names if alias.name.split(".")[0] != "qolct"}


def _names(node, foreign=frozenset()) -> set:
    """Every name ``node`` refers to: a bare name, an attribute or an import.
    An attribute of a ``foreign`` module (``np.zeros``) names none of ours."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            base = n.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if not (isinstance(base, ast.Name) and base.id in foreign):
                found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.rsplit(".", 1)[-1])
    return found


def _definitions(module: str, tree):
    """Yield (qualified name, name, class it lives or dies with, the names
    its body refers to) for each module-level definition and method; a
    dunder method lives with its class.  A class's own body is its
    decorators, bases and statements other than methods."""
    foreign = _foreign(tree)
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        if isinstance(node, ast.ClassDef):
            body = set()
            for stmt in [*node.decorator_list, *node.bases, *node.body]:
                if isinstance(stmt, _DEFS):
                    dunder = stmt.name.startswith("__")
                    yield (f"{module}.{node.name}.{stmt.name}", stmt.name,
                           node.name if dunder else None, _names(stmt, foreign))
                else:
                    body |= _names(stmt, foreign)
            yield f"{module}.{node.name}", node.name, None, body
        else:
            yield f"{module}.{node.name}", node.name, None, _names(node, foreign)


def _unreached(defs, used) -> list:
    """The qualified names of ``defs`` that nothing reached refers to: a
    definition is reached when a reached name or body refers to its name."""
    reached, grew = set(), True
    while grew:
        grew = False
        for qualname, name, owner, body in defs:
            if qualname not in reached and (owner or name) in used:
                reached.add(qualname)
                used |= body
                grew = True
    return sorted(q for q, *_ in defs if q not in reached)


def _tree_names(paths) -> set:
    """Every name the whole files ``paths`` refer to."""
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        used |= _names(tree, _foreign(tree))
    return used


def _runners(root: Path) -> list:
    """``scripts/`` and ``perfbench/``: the code that runs the library."""
    return [*(root / "scripts").rglob("*.py"), *(root / "perfbench").rglob("*.py")]


def unreached(root: Path) -> list:
    """The qualified production names that nothing reached refers to.  The
    roots are the module-level statements of the production modules (the
    package root's re-exports are not uses), ``scripts/``, ``perfbench/`` and
    :data:`PUBLIC`."""
    used, defs = set(PUBLIC), []
    for path in sorted((root / "src" / "qolct").glob("*.py")):
        if path.stem in ("oracle", "verify", "__init__"):
            continue
        tree = ast.parse(path.read_text())
        defs += _definitions(path.stem, tree)
        foreign = _foreign(tree)
        used |= set().union(*(_names(n, foreign) for n in tree.body
                              if not isinstance(n, _DEFS)))
    return _unreached(defs, used | _tree_names(_runners(root)))


def judges_unreached(root: Path) -> list:
    """The qualified names of the judges (``oracle``, ``verify``) that no run
    reaches.  The roots are verify's module-level statements other than its
    imports (the suite table ``_SUITE_FNS``), ``cli.py``, ``scripts/`` and
    ``perfbench/``; the tests are none, so a name only a test reads is left
    unreached."""
    package, defs = root / "src" / "qolct", []
    for stem in ("oracle", "verify"):
        defs += _definitions(stem, ast.parse((package / f"{stem}.py").read_text()))
    tree = ast.parse((package / "verify.py").read_text())
    skip = (*_DEFS, ast.Import, ast.ImportFrom)
    used = set().union(*(_names(n, _foreign(tree)) for n in tree.body
                         if not isinstance(n, skip)))
    return _unreached(defs, used | _tree_names([package / "cli.py", *_runners(root)]))


def test_production_modules_define_only_reached_names():
    assert unreached(ROOT) == []


def test_every_judge_name_serves_a_run():
    assert judges_unreached(ROOT) == []


def test_a_foreign_module_attribute_reaches_no_production_name(tmp_path):
    package, scripts = tmp_path / "src" / "qolct", tmp_path / "scripts"
    package.mkdir(parents=True)
    scripts.mkdir()
    (package / "field.py").write_text(
        "import numpy as np\n\n\nclass QField:\n"
        "    def zeros(self):\n        pass\n\n"
        "    def modulus(self):\n        return np.zeros(3)\n")
    (scripts / "demo.py").write_text(
        "import numpy.ma\nfrom qolct.field import QField\n\n"
        "print(QField().modulus(), numpy.ma.zeros(3))\n")
    assert unreached(tmp_path) == ["field.QField.zeros"]


def test_public_api_is_exported():
    assert all(hasattr(qolct, name) for name in PUBLIC)
