"""Module boundaries of the package, read from its source with `ast`."""

import ast
from pathlib import Path

import schurkit

PACKAGE = Path(schurkit.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def schurkit_imports(tree: ast.Module):
    """(source module, imported name, line) for every `from ... import`
    of a schurkit module in `tree`, at any depth."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module or ""
        elif node.level == 0 and (node.module or "").startswith("schurkit"):
            source = node.module.removeprefix("schurkit").lstrip(".")
        else:
            continue
        for alias in node.names:
            yield source, alias.name, node.lineno


def test_no_module_imports_a_private_name_of_another():
    found = [
        f"{name}.py:{line} imports {imported} from {source or 'schurkit'}"
        for name, tree in MODULES.items()
        for source, imported, line in schurkit_imports(tree)
        if imported.startswith("_") and source != name
    ]
    assert not found, found


def test_the_packed_form_is_behind_poly():
    """Only `poly` and `field` write or read packed numerators: the other
    modules reach the packed form through `poly`'s encoder and decoder."""
    numerator_side = {"int_numerators", "power_bits", "scalar_from_numerators"}
    found = [
        f"{name}.py:{line} imports {imported}"
        for name, tree in MODULES.items()
        if name not in ("poly", "field")
        for source, imported, line in schurkit_imports(tree)
        if source == "field" and imported in numerator_side
    ]
    assert not found, found
