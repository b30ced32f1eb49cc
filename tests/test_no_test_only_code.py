"""Every module-level function and class in src/flipbench has a real caller.

A name counts as used when some code in src/flipbench outside its own
definition, or in perfbench/, refers to it.  Imports and the package's
re-exports in __init__.py do not count: they make a name reachable,
not used.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flipbench"

# kept although only tests and acceptance criteria call them
ALLOWED = {
    # test references: the brute-force improving set and the simplex frame
    "improving_moves", "simplex_vectors",
    # named by acceptance criteria 1, 2 and 6
    "move_delta", "apply_move", "weighted_column_sums", "find_alpha_cyclic_block",
    # the paper's good-arc definition, checked against certificate witnesses
    "is_good_arc",
}


def _used_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_module_level_definition_has_a_caller():
    defined = []  # (module, name, definition node)
    uses = []     # (definition node or None, names used in it)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name, node))
            uses.append((node, _used_names(node)))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        uses.append((None, _used_names(ast.parse(path.read_text()))))
    unused = [f"{module}.{name}" for module, name, node in defined
              if name not in ALLOWED
              and not any(name in names for owner, names in uses if owner is not node)]
    assert not unused, f"only tests call {unused}"
