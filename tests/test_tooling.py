"""Checks on the package source itself."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "hopla"


def _parsed(paths):
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so no check in src/ may be one
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _parsed(modules)
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def _attribute_targets(node):
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute):
                    yield sub.attr
    elif (isinstance(node, ast.Call) and len(node.args) >= 2
          and isinstance(node.args[1], ast.Constant)
          and (isinstance(node.func, ast.Name) and node.func.id == "setattr"
               or isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__")):
        yield node.args[1].value


def test_linear_combination_constructor_is_the_one_accumulator():
    # every sum of coefficients by key goes through LinearCombination(...);
    # operation tables are grouped per word by graded.table_from_terms
    modules = sorted(SRC.glob("*.py"))
    helpers = {"accumulate", "finish_combination"}
    found = []
    for path, tree in _parsed(modules + sorted((REPO / "tests").glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in helpers:
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name in helpers]
    assert found == []

    constructors = 0
    for path, tree in _parsed(modules):
        allowed = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "LinearCombination"
                   for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                   for node in ast.walk(fn)}
        constructors += bool(allowed)
        found += [f"{path.name}:{node.lineno} assigns .terms"
                  for node in ast.walk(tree)
                  if id(node) not in allowed and "terms" in _attribute_targets(node)]
        found += [f"{path.name}:{node.lineno} builds a setdefault table"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "setdefault" and len(node.args) == 2
                  and isinstance(node.args[1], ast.Dict)]
    assert constructors == 1
    assert found == []


def test_one_signed_action_kernel():
    # rho1 and rho2 act through the per-swap rule of the orbit kernel; sums
    # over whole symmetric groups stay in the sign-law witnesses
    modules = sorted(SRC.glob("*.py"))
    found = []
    for path, tree in _parsed(modules):
        found += [f"{path.name}:{node.lineno} defines {node.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name in ("act", "inverse", "_symmetry_generators")]
        if path.name not in ("permutations.py", "verify.py"):
            names = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                     | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                     | {alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for alias in node.names})
            if "all_permutations" in names:
                found.append(f"{path.name} references all_permutations")
        if path.name == "permutations.py":
            own = {id(node) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "koszul_sign"
                   for node in ast.walk(fn)}
            found += [f"{path.name}:{node.lineno} calls koszul_sign"
                      for node in ast.walk(tree)
                      if id(node) not in own and isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name) and node.func.id == "koszul_sign"]
    assert found == []


def test_coderivation_law_goes_through_one_coproduct_generator():
    # comultiply and the law's weight-1 check share one generator of the
    # coproduct terms of a given left weight; the law never forms a whole
    # coproduct, and the per-kind term generators and the full law's
    # right-hand side are gone from the package
    tree = ast.parse((SRC / "coalgebra.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    generators = [name for name, fn in functions.items()
                  if any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(fn))
                  and "coproduct" in name]
    assert generators == ["coproduct_terms"]
    calls = {node.func.id for node in ast.walk(functions["check_coderivation"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "coproduct_terms" in calls and "comultiply" not in calls
    calls = {node.func.id for node in ast.walk(functions["comultiply"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "coproduct_terms" in calls
    gone = {"_coderivation_rhs", "_wedge_coproduct_terms", "_perm_coproduct_terms"}
    found = [f"{path.name}:{node.lineno} {name}"
             for path, tree in _parsed(sorted(SRC.glob("*.py")))
             for node in ast.walk(tree)
             for name in ([node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                          else [node.id] if isinstance(node, ast.Name)
                          else [node.attr] if isinstance(node, ast.Attribute) else [])
             if name in gone]
    assert found == []
