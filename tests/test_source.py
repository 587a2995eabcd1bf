"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "pathideal"


def test_no_result_is_guarded_only_by_assert():
    # `python -O` strips assert statements, so a check must raise instead
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
    assert len(list(SOURCE.glob("*.py"))) > 5


def test_only_the_face_index_and_fields_name_the_reducers():
    # complexes.FaceIndex.homology restricts every simplicial boundary and
    # calls the field's reducer; other modules rank through it or through
    # fields.rank_sparse
    names = {"reducer", "pivots_gf2", "pivots_gfp", "pivots_qq"}
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            else:
                continue
            if name in names:
                found.add(path.name)
    assert found == {"fields.py", "complexes.py"}


def test_no_package_module_walks_assignment_products():
    # the free vertex search steps one vertex at a time; a 3^v walk over
    # itertools.product belongs to the test oracles only
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                if any(alias.name == "product" for alias in node.names):
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == "product":
                if isinstance(node.value, ast.Name) and node.value.id == "itertools":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"itertools.product in the package: {found}"
