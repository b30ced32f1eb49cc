"""The certificate validator shares no rank code with exact_rank.

validate_certificate proves full row rank with its own elimination,
_row_rank, so a wrong rank kernel cannot vouch for itself.  Of the
functions defined in matrices.py, the validator and everything it calls
in certificates.py may refer to build_P only: reading P is shared, the
elimination is not.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "flipbench"

VALIDATOR = ("validate_certificate", "_row_rank")
SHARED = {"build_P"}


def _functions(path):
    """Module-level functions of a source file, by name."""
    tree = ast.parse(path.read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _names(node):
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def validator_functions():
    """VALIDATOR and every certificates.py function they reach by name."""
    local = _functions(PACKAGE / "certificates.py")
    reached, todo = set(), list(VALIDATOR)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [used for used in _names(local[name]) if used in local]
    return {name: local[name] for name in reached}


def test_validator_uses_no_rank_code_of_matrices():
    kernel = set(_functions(PACKAGE / "matrices.py")) - SHARED
    assert {"exact_rank", "_rref", "build_P"} <= kernel | SHARED
    shared = {name: sorted(_names(node) & kernel)
              for name, node in validator_functions().items() if _names(node) & kernel}
    assert not shared, f"the validator refers to matrices.py functions {shared}"


def test_validator_reaches_its_own_elimination():
    # the check above is empty unless it reads the functions that rank
    reached = validator_functions()
    assert set(VALIDATOR) <= set(reached)
    assert "build_P" in _names(reached["validate_certificate"])
