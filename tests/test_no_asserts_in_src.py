"""No check in src/flipbench disappears under python -O.

An assert statement and a test of __debug__ are both stripped when
Python runs with -O, so a check written with either would pass silently
there.  Checks in the package raise an exception instead.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "flipbench"


def stripped_under_O(tree):
    """(line, what) for every assert statement and __debug__ in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node.lineno, "__debug__"


def test_package_has_no_assert_or_debug_test():
    found = [f"{path.name}:{line} {what}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what in stripped_under_O(ast.parse(path.read_text()))]
    assert found == []


def test_the_check_sees_both_forms():
    tree = ast.parse("assert x\nif __debug__:\n    pass\n")
    assert list(stripped_under_O(tree)) == [(1, "assert"), (2, "__debug__")]
