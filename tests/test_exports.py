"""Each module owns its exports; the package re-exports their union."""

import ast
import inspect

import schurhorn
from schurhorn import carpenter, io, linalg, majorization, schur, sequences

MODULES = (linalg, majorization, schur, sequences, io, carpenter)


def _defined_public_names(module) -> set[str]:
    """Public names bound by a top-level ``def``, ``class`` or assignment in the module."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_module_exports_are_their_definitions_and_the_package_is_their_union():
    for module in MODULES:
        assert sorted(module.__all__) == sorted(_defined_public_names(module)), module.__name__
    exported = schurhorn.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == {"__version__"}.union(*(m.__all__ for m in MODULES))
    assert all(hasattr(schurhorn, name) for name in exported)
