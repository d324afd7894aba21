"""Every public module-level function and class of tpgf is used by tpgf,
and every import of a tpgf module is read by that module.

A public name that no other code in the package refers to is shadow
API: its unit tests pass, but no pipeline ever runs it. The scan is
syntactic: a definition counts as used when some other top-level
statement of any package module loads it as a name, reads it as an
attribute, or imports it. An attribute of the same name on another
object also counts, so the scan can miss a shadow name but never
flags a used one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tpgf"

# module.name -> why the package keeps it although no package code calls it
ALLOWED = {
    "data.multinode_clean_value":
        "closed form of the generator's clean series, the oracle the data "
        "tests check gen_multinode_series against",
    "metrics.mse_per_frame": "acceptance criterion 5's metric oracle",
    "data.denormalize":
        "documented reader: maps predictions back to raw units",
}


def _referenced(stmt) -> set:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unreferenced_public_names() -> list:
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    statements = [(mod, stmt) for mod, tree in modules.items()
                  for stmt in tree.body]
    refs = [(stmt, _referenced(stmt)) for _, stmt in statements]
    unused = []
    for mod, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name.startswith("_"):
            continue
        used = any(stmt.name in names for other, names in refs
                   if other is not stmt)
        if not used:
            unused.append(f"{mod}.{stmt.name}")
    return unused


def test_every_public_name_is_used_or_allowed():
    # equality, not a subset: a stale allowlist entry would hide a name
    # that later loses its last caller
    assert sorted(unreferenced_public_names()) == sorted(ALLOWED)


def unused_imports() -> list:
    """'module:line name' for each imported name its module never loads.

    No linter ships with the package's test dependencies, so this is the
    one check for imports that a removal left behind.
    """
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in loaded:
                    unused.append(f"{path.stem}:{node.lineno} {bound}")
    return unused


def test_no_unused_imports():
    assert unused_imports() == []
