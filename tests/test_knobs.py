"""The inventory of defaulted parameters: every knob a production caller may
leave out.  A new one fails here until it is listed, so it is seen."""

import ast
from pathlib import Path

import qolct

#: ``module.qualified.name`` of each defaulted function parameter and each
#: defaulted dataclass field in the production modules
DEFAULTED = {
    "cli.main.argv",
    "field.Grid2D.center1",
    "field.Grid2D.center2",
    "field.Grid2D.spacing1",
    "field.Grid2D.spacing2",
    "field.Grid2D.centered.center",
    "field.synth_gaussian.beta1_pair",
    "field.synth_gaussian.beta2_pair",
    "field.synth_gaussian.lam",
    "field.synth_gaussian.mu",
    "field.synth_gaussian.center",
    "olct.OffsetParams.tau",
    "olct.OffsetParams.eta",
    "olct.QolctPlan.create.lam",
    "olct.QolctPlan.create.mu",
    "qft.QftPlan.forward.lam",
    "qft.QftPlan.forward.mu",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _defaulted(node, prefix: str):
    """Yield the qualified name of each defaulted parameter or field below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            args = child.args
            positional = args.posonlyargs + args.args
            for arg in positional[len(positional) - len(args.defaults):]:
                yield f"{name}.{arg.arg}"
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{name}.{arg.arg}"
            yield from _defaulted(child, name)
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}.{child.name}"
            if _is_dataclass(child):
                for stmt in child.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        yield f"{name}.{stmt.target.id}"
            yield from _defaulted(child, name)
        else:
            yield from _defaulted(child, prefix)


def test_defaulted_parameters_are_listed():
    modules = sorted(Path(qolct.__file__).parent.glob("*.py"))
    found = []
    for path in modules:
        if path.stem not in ("oracle", "verify"):
            found += _defaulted(ast.parse(path.read_text()), path.stem)
    assert len(found) == len(set(found))
    assert set(found) == DEFAULTED, {"unlisted": sorted(set(found) - DEFAULTED),
                                     "gone": sorted(DEFAULTED - set(found))}
