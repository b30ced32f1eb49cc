"""Every function, class, method and property in src/flipbench has a real caller.

A name counts as used when some code in src/flipbench outside its own
definition, or in perfbench/, refers to it.  A method's own definition
is the method; a class's is the whole class body, so a method calling
its neighbour counts but a class naming itself does not.  Imports and
the package's re-exports in __init__.py do not count: they make a name
reachable, not used.  Dunder methods are called by the language.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flipbench"

# kept although only tests call it: ROADMAP item 6 makes it the half block rule
ALLOWED = {"find_alpha_cyclic_block"}


def _used_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _units(tree):
    """Top-level statements, with every class split into its members and
    a header (decorators and bases): (unit node, owning class or None)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            header = ast.Module(body=[*node.decorator_list, *node.bases], type_ignores=[])
            yield header, node
            for member in node.body:
                yield member, node
        else:
            yield node, None


def definitions_without_callers():
    defined = []  # (qualified name, name, units that make up its own definition)
    uses = []     # (unit, names used in it)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        units = list(_units(ast.parse(path.read_text())))
        uses += [(unit, _used_names(unit)) for unit, _ in units]
        for unit, owner in units:
            if owner is None and isinstance(unit, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{unit.name}", unit.name, {unit}))
            elif owner is not None and isinstance(unit, ast.FunctionDef):
                if not (unit.name.startswith("__") and unit.name.endswith("__")):
                    defined.append((f"{owner.name}.{unit.name}", unit.name, {unit}))
        classes = {owner for _, owner in units if owner is not None}
        for cls in classes:
            own = {unit for unit, owner in units if owner is cls}
            defined.append((f"{path.stem}.{cls.name}", cls.name, own))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        uses.append((None, _used_names(ast.parse(path.read_text()))))
    return sorted(qualified for qualified, name, own in defined
                  if not any(name in names for unit, names in uses if unit not in own))


def test_every_module_level_definition_has_a_caller():
    unused = [q for q in definitions_without_callers() if q.rpartition(".")[2] not in ALLOWED]
    assert not unused, f"only tests call {unused}"


def test_every_allowance_is_still_needed():
    # an allowed name must still be defined in src/flipbench and still have
    # no caller there or in perfbench/, so a stale allowance fails here
    names = {q.rpartition(".")[2] for q in definitions_without_callers()}
    stale = sorted(ALLOWED - names)
    assert not stale, f"remove {stale} from ALLOWED: gone or called now"
