"""Module boundaries of the package, read from its source with `ast`."""

import ast
from pathlib import Path

import schurkit

PACKAGE = Path(schurkit.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
TESTS = {path.stem: ast.parse(path.read_text()) for path in sorted(Path(__file__).parent.glob("*.py"))}


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


def private_uses(tree: ast.Module):
    """(module, private name, line) for every private name of a schurkit
    module that `tree` imports, or reads off a module it imported with
    `from schurkit import ...`."""
    modules = set()
    for source, imported, line in schurkit_imports(tree):
        if imported.startswith("_"):
            yield source, imported, line
        elif not source:
            modules.add(imported)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            yield node.value.id, node.attr, node.lineno


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


def test_the_formula_format_is_behind_circuits():
    """Only `circuits` spells the keys of a gate in formula JSON: the other
    modules write and read formulas through `Formula.to_json`,
    `Formula.json_pieces` and `Formula.from_json`."""
    found = [
        f"{name}.py:{node.lineno} holds {node.value!r}"
        for name, tree in MODULES.items()
        if name != "circuits"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("children", "weights")
    ]
    assert not found, found


def test_a_test_uses_private_names_of_its_own_module_only():
    """Outside `tests/helpers.py`, a private name of module m appears only
    in `tests/test_m.py`: a reference implementation in another test file
    goes through the module's public names, so it breaks, not drifts,
    when a private layout changes."""
    found = [
        f"tests/{name}.py:{line} uses {module}.{private}"
        for name, tree in TESTS.items()
        if name != "helpers"
        for module, private, line in private_uses(tree)
        if name != f"test_{module}"
    ]
    assert not found, found


def test_only_the_expanders_use_the_packed_kernel():
    """Only `poly` itself, `circuits` (formula expansion) and `derivatives`
    (derivative spans) run on packed operands; the rest multiply `Poly`s or
    work on coefficients of partitions."""
    found = [
        f"{name}.py:{line} imports {imported}"
        for name, tree in MODULES.items()
        if name not in ("poly", "circuits", "derivatives")
        for source, imported, line in schurkit_imports(tree)
        if source == "poly" and (imported.startswith("packed_") or imported == "content_free")
    ]
    assert not found, found


def test_no_module_permutes_variables():
    """Symmetry is read off coefficients on partitions; relabelling the
    variables is only the tests' reference (`tests/helpers.py`)."""
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "permute_vars")
        or (isinstance(node, ast.Name) and node.id == "permute_vars")
        or (isinstance(node, ast.FunctionDef) and node.name == "permute_vars")
    ]
    assert not found, found


def test_the_reduction_checks_on_partitions():
    """`transforms` compares s_lambda on coefficients of partitions, so it
    imports none of the monomial Schur routes."""
    routes = {"schur_bialternant", "schur_jt_h", "schur_jt_e", "schur_ssyt", "skew_schur_h"}
    found = [
        f"transforms.py:{line} imports {imported}"
        for source, imported, line in schurkit_imports(MODULES["transforms"])
        if imported in routes
    ]
    assert not found, found
