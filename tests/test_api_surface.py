"""Every public module-level function and class of tpgf is used by tpgf,
every other module-level name is read by tpgf, every defaulted parameter
is passed by some call in tpgf, and every import of a tpgf module is
read by that module.

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
    "metrics.mse_per_frame": "acceptance criterion 5's metric oracle",
    "sampling.interleave_odd_even": "acceptance criterion 4's round trip; "
                                    "it writes the parity slots the m1 "
                                    "precompute writes",
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


def _unreferenced(bound) -> list:
    """'module.name' for each name in `bound(stmt)`, the names a
    top-level statement defines, that no other top-level statement of
    any package module refers to."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    statements = [(mod, stmt) for mod, tree in modules.items()
                  for stmt in tree.body]
    refs = [(stmt, _referenced(stmt)) for _, stmt in statements]
    unused = []
    for mod, stmt in statements:
        for name in bound(stmt):
            used = any(name in names for other, names in refs
                       if other is not stmt)
            if not used:
                unused.append(f"{mod}.{name}")
    return unused


def _is_public_def(stmt) -> bool:
    return (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_"))


def unreferenced_public_names() -> list:
    return _unreferenced(
        lambda stmt: [stmt.name] if _is_public_def(stmt) else [])


def test_every_public_name_is_used_or_allowed():
    # equality, not a subset: a stale allowlist entry would hide a name
    # that later loses its last caller
    assert sorted(unreferenced_public_names()) == sorted(ALLOWED)


def _other_bindings(stmt) -> list:
    """The names a top-level statement binds, except a public function or
    class (the scan above covers those) and a dunder, which the
    interpreter and packaging tools read."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [] if _is_public_def(stmt) else [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_module_level_name_is_read():
    # a constant, a table or a private helper that a removal left behind
    assert _unreferenced(_other_bindings) == []


# module.function(parameter) -> why no package call passes it
NEVER_PASSED = {
    "cli.main(argv)": "console entry point: the script passes no argv, so "
                      "argparse reads sys.argv",
}


def _calls_by_name(modules) -> dict:
    calls = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, param: str, pos) -> bool:
    """Does the call pass `param`, at index `pos` when positional? A
    starred argument or ** mapping counts as passing everything."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return pos is not None and len(call.args) > pos


def defaulted_parameters_never_passed() -> list:
    """'module.function(parameter)' for each defaulted parameter of a
    module-level function or a method that no call in the package passes.

    A parameter that every caller leaves at its default is an option no
    one sets. Like the name scan this is syntactic: a call counts when
    its callee has the function's name (a class's name for __init__), so
    the scan can miss such a parameter but never flags a passed one.
    """
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    calls = _calls_by_name(modules)
    defs = []  # (label, callee name, def, leading params a call omits)
    for mod, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                defs.append((f"{mod}.{stmt.name}", stmt.name, stmt, 0))
            elif isinstance(stmt, ast.ClassDef):
                for fn in stmt.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    if fn.name == "__init__":
                        defs.append((f"{mod}.{stmt.name}", stmt.name, fn, 1))
                    else:
                        defs.append((f"{mod}.{stmt.name}.{fn.name}", fn.name,
                                     fn, 1))
    never = []
    for label, name, fn, skip in defs:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = [(a.arg, i - skip)
                  for i, a in enumerate(positional) if i >= first]
        params += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                 args.kw_defaults)
                   if d is not None]
        for param, pos in params:
            if not any(_passes(c, param, pos) for c in calls.get(name, [])):
                never.append(f"{label}({param})")
    return never


def test_every_defaulted_parameter_is_passed_or_allowed():
    # equality, as for ALLOWED
    assert sorted(defaulted_parameters_never_passed()) == sorted(NEVER_PASSED)


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


def rollout_call_sites() -> dict:
    """{function name: count} of the rollout_batch calls in training.py,
    by the module-level function whose body holds them."""
    tree = ast.parse((SRC / "training.py").read_text(encoding="utf-8"))
    sites = {}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "rollout_batch"):
                sites[fn.name] = sites.get(fn.name, 0) + 1
    return sites


def test_rollout_batch_call_sites_are_pinned():
    """The benchmark's tracer (perfbench/tracer.py) files each
    rollout_batch call's time by the name of the calling function: under
    final evaluation when it is `evaluate` or `evaluate_horizon`, under
    the m1 precompute when it is `train_tpg`, and under cadence
    evaluation otherwise. A helper placed between one of those functions
    and rollout_batch would move its time into the cadence bucket, and no
    other test would fail. So the call sites are pinned here, until the
    benchmark attributes rollouts by phase instead of by caller.
    """
    assert rollout_call_sites() == {
        "_closed_loop_loss": 1,  # the cadence
        "evaluate": 1,
        "evaluate_horizon": 1,
        "train_tpg": 2,  # the m1 precompute, one call per half
    }
