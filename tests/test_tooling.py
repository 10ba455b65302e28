"""Checks on the package source itself."""

import ast
import collections
import json
import os
import subprocess
import sys
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


def _assigned_values(tree):
    """The values assigned to each plain name anywhere in the tree."""
    values = collections.defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    values[target.id].append(node.value)
    return values


def _is_dict_accumulator(node, assigned):
    """`d[k] = d.get(k, ...) + ...`, with the get anywhere in the value, or
    in a value assigned to the name stored (`c = d.get(k, 0) + x`, then
    `d[k] = c`; `assigned` is `_assigned_values` of the tree), or
    `d[k] += ...`: a sum of coefficients by key, allowed only in the two
    accumulators."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.target, ast.Subscript)
    if not isinstance(node, ast.Assign):
        return False
    values = [node.value]
    if isinstance(node.value, ast.Name):
        values += assigned.get(node.value.id, [])
    for target in node.targets:
        if not isinstance(target, ast.Subscript):
            continue
        owner, key = ast.dump(target.value), ast.dump(target.slice)
        for sub in (sub for value in values for sub in ast.walk(value)):
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "get" and sub.args
                    and ast.dump(sub.func.value) == owner and ast.dump(sub.args[0]) == key):
                return True
    return False


def test_dict_accumulator_pattern():
    def flagged(source):
        tree = ast.parse(source)
        assigned = _assigned_values(tree)
        return [_is_dict_accumulator(node, assigned) for node in ast.walk(tree)
                if isinstance(node, (ast.Assign, ast.AugAssign))]

    assert flagged("d[k] = d.get(k, 0) + c") == [True]
    assert flagged("acc[key] = c * s + acc.get(key, ZERO)") == [True]
    assert flagged("self.t[w, o] = self.t.get((w, o), 0) - c") == [True]
    assert flagged("d[k] += c") == [True]
    assert flagged("d[k] = e.get(k, 0) + c") == [False]
    assert flagged("d[k] = d.get(j, 0) + c") == [False]
    assert flagged("old = d.get(k)\nd[k] = c") == [False, False]
    # the sum kept in a name first, then stored
    assert flagged("c = d.get(k, 0) + x\nd[k] = c") == [False, True]
    assert flagged("c = e.get(k, 0) + x\nd[k] = c") == [False, False]
    # table_from_terms's update, which assigns the sum to a name as well
    assert flagged("sums[letter] = c = sums.get(letter, 0) + coeff") == [True]


def test_sum_by_key_and_table_from_terms_are_the_two_accumulators():
    # every sum of values by key goes through graded.sum_by_key, whether the
    # coefficients are Fractions or integer numerators kept as ints, and the
    # LinearCombination constructor sums through it; every operation table
    # is summed per word and letter by graded.table_from_terms, in one pass
    # with its own dict accumulator.  No other body accumulates
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

    accumulators, accumulating, constructors = [], [], []
    for path, tree in _parsed(modules):
        owners = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  and fn.name in ("sum_by_key", "table_from_terms")]
        accumulators += [(path.name, fn.name) for fn in owners]
        assigned = _assigned_values(tree)
        accumulating += [(path.name, fn.name) for fn in owners
                         for node in ast.walk(fn) if _is_dict_accumulator(node, assigned)]
        accumulator = {id(node) for fn in owners for node in ast.walk(fn)}
        inits = [fn for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "LinearCombination"
                 for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
        constructors += [{node.func.id for node in ast.walk(fn) if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name)} for fn in inits]
        init_nodes = {id(node) for fn in inits for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno} assigns .terms"
                  for node in ast.walk(tree)
                  if id(node) not in init_nodes and "terms" in _attribute_targets(node)]
        found += [f"{path.name}:{node.lineno} builds a setdefault table"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "setdefault" and len(node.args) == 2
                  and isinstance(node.args[1], ast.Dict)]
        found += [f"{path.name}:{node.lineno} accumulates into a dict entry"
                  for node in ast.walk(tree)
                  if id(node) not in accumulator and _is_dict_accumulator(node, assigned)]
    assert accumulators == [("graded.py", "sum_by_key"), ("graded.py", "table_from_terms")]
    assert accumulating == [("graded.py", "table_from_terms")]
    assert len(constructors) == 1 and "sum_by_key" in constructors[0], constructors
    assert found == []


def _fraction_calls(tree):
    """The owner of every `Fraction(...)` call: its top-level function, its
    method ("Class.method") or the module-level name it is assigned to."""
    owners = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            owners += [(f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                        else node.name, item) for item in node.body]
        elif isinstance(node, ast.Assign):
            owners.append((",".join(map(ast.unparse, node.targets)), node))
        else:
            owners.append((getattr(node, "name", "<module>"), node))
    return [owner for owner, node in owners for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and sub.func.id == "Fraction"]


def test_one_coefficient_rule():
    # both accumulators add ints and Fractions as given, sum_by_key with no
    # switch; a Fraction is made only where a value is read (over), where a
    # rational factor scales (scaled, linear_sum), where a value enters from
    # outside (the constructor, the parser) and where a paper coefficient
    # has a factorial denominator (project_pi, the equations' coefficients)
    tree = ast.parse((SRC / "graded.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("sum_by_key", "table_from_terms"):
        assert "Fraction" not in set(_names(functions[name])), name
    arguments = functions["sum_by_key"].args
    assert len(arguments.posonlyargs + arguments.args + arguments.kwonlyargs) == 1
    assert arguments.vararg is None and arguments.kwarg is None
    calls = {(path.stem, owner) for path, tree in _parsed(sorted(SRC.glob("*.py")))
             for owner in _fraction_calls(tree)}
    assert calls == {("graded", "over"), ("graded", "LinearCombination.__init__"),
                     ("graded", "LinearCombination.scaled"), ("graded", "linear_sum"),
                     ("graded", "ZERO"), ("coalgebra", "project_pi"),
                     ("docio", "parse_rational"), ("equations", "_coefficient"),
                     ("equations", "_circle_insertions")}, calls


# the kernels that build an Operation or a Folded sum, by module
KERNELS = {
    "permutations.py": ("fold", "expand", "block_representatives", "precompose_symmetrized"),
    "graded.py": ("insertion_terms", "compose_insert"),
    "equations.py": ("_insert_fold",),
    "functors.py": ("_shift_operation", "nary_embed"),
    "coalgebra.py": ("_components", "check_coderivation", "square_cogenerator_fold"),
}


def test_coderivation_law_and_components_sum_integer_numerators():
    # every kernel computes on integer numerators over a common denominator
    # and builds its result through the trusted constructor (or a Folded
    # sum), never the validating one; Fractions appear only where a value
    # is read, through graded.over
    for module, names in KERNELS.items():
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            found = set(_names(functions[name]))
            assert not found & {"Fraction", "LinearCombination", "over", "SIGNS", "ONE"}, \
                (module, name, found)
            assert not [node.lineno for node in ast.walk(functions[name])
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "Operation"], (module, name)
    tree = ast.parse((SRC / "coalgebra.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    # the components, the square's fold and the tensor law's blocks sum
    # through table_from_terms alone, the wedge and Perm law's word walk
    # through sum_by_key, reading the tables and never the merged image of
    # a word
    (blocks,) = [node for node in ast.walk(functions["check_coderivation"])
                 if isinstance(node, ast.FunctionDef) and node.name == "tensor_block_holds"]
    sums = {name: {"sum_by_key", "table_from_terms"} & set(_names(node))
            for name, node in (*((name, functions[name]) for name in
                                 ("_components", "square_cogenerator_fold", "check_coderivation")),
                               ("tensor_block_holds", blocks))}
    assert sums == {"_components": {"table_from_terms"},
                    "square_cogenerator_fold": {"table_from_terms"},
                    "check_coderivation": {"sum_by_key", "table_from_terms"},
                    "tensor_block_holds": {"table_from_terms"}}
    assert "image" not in set(_names(functions["check_coderivation"]))


def test_one_trusted_operation_constructor():
    # Operation.from_numerators is the only way past the validating
    # constructor: nothing else makes an instance with __new__, and the
    # stored form has no second spelling
    owners, found = [], []
    for path, tree in _parsed(sorted(SRC.glob("*.py"))):
        trusted = [node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "from_numerators"]
        owners += [path.name for _ in trusted]
        inside = {id(node) for owner in trusted for node in ast.walk(owner)}
        found += [f"{path.name}:{node.lineno} calls __new__" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "__new__"
                  and id(node) not in inside]
        found += [f"{path.name}:{node.lineno} defines {node.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name in ("numerators", "table_from_numerators", "map_keys")]
    assert owners == ["graded.py"] and found == [], (owners, found)


def _spells_acted_slots(function):
    """True when the function compares a mode with MODE_FULL or
    MODE_PARTIAL, or keys a dict by one, and also subtracts 1, when it keys
    a dict by LIE or PRELIE with a value that subtracts 1, or when it
    branches on a flag named `full` with a branch that subtracts 1: the
    mapping of a symmetrization mode, or of the kind that names one, to its
    acted slots."""
    modes = {"MODE_FULL", "MODE_PARTIAL"}

    def is_mode(node):
        return isinstance(node, ast.Name) and node.id in modes

    def minus_one(*nodes):
        return any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
                   and isinstance(sub.right, ast.Constant) and sub.right.value == 1
                   for node in nodes for sub in ast.walk(node))

    compares = any(isinstance(node, ast.Compare)
                   and any(is_mode(sub) for sub in ast.walk(node))
                   or isinstance(node, ast.Dict) and any(is_mode(key) for key in node.keys)
                   for node in ast.walk(function))
    on_full = any(isinstance(node, ast.IfExp) and minus_one(node.body, node.orelse)
                  or isinstance(node, ast.If) and minus_one(*node.body, *node.orelse)
                  for node in ast.walk(function)
                  if isinstance(node, (ast.IfExp, ast.If))
                  and isinstance(node.test, ast.Name) and node.test.id == "full")
    by_kind = any(isinstance(node, ast.Dict) and minus_one(*node.values)
                  and any(isinstance(key, ast.Name) and key.id in ("LIE", "PRELIE")
                          for key in node.keys)
                  for node in ast.walk(function))
    return compares and minus_one(function) or on_full or by_kind


def test_one_rule_for_acted_slots():
    # permutations.acted_count maps a symmetrization mode to the slots it
    # acts on; the fold, Folded, arrangement_count and the coalgebra words
    # call it, and no other function spells the mapping
    def flagged(source):
        return _spells_acted_slots(ast.parse(source).body[0])

    assert flagged("def f(mode, n):\n    return n if mode == MODE_FULL else n - 1\n")
    assert flagged("def f(mode, n):\n    return {MODE_FULL: n, MODE_PARTIAL: n - 1}.get(mode, 0)\n")
    assert not flagged("def f(mode, n):\n    return acted_count(mode, n - 1)\n")
    assert not flagged("def f(mode, n):\n    if mode not in (MODE_FULL, MODE_PARTIAL):\n"
                       "        raise ValueError(mode)\n    return n\n")
    assert flagged("def f(op, full):\n    n_acted = op.arity if full else op.arity - 1\n")
    assert flagged("def f(op, full):\n    if full:\n        return op.arity\n"
                   "    else:\n        return op.arity - 1\n")
    assert not flagged("def f(op, full):\n"
                       "    return acted_count(MODE_FULL if full else MODE_PARTIAL, op.arity)\n")
    assert not flagged("def f(full):\n    return 'full' if full else 'partial'\n")
    assert flagged("def f(kind, j):\n    return {LIE: (0, j), PRELIE: (0, j - 1)}.get(kind)\n")
    assert not flagged("def f(kind, j):\n    return {LIE: (0, j), PRELIE: (0, j)}.get(kind)\n")
    spellers, callers = [], set()
    for path, tree in _parsed(sorted(SRC.glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if _spells_acted_slots(node):
                    spellers.append(f"{path.stem}.{node.name}")
                if "acted_count" in {sub.func.id for sub in ast.walk(node)
                                     if isinstance(sub, ast.Call)
                                     and isinstance(sub.func, ast.Name)}:
                    callers.add(node.name)
    assert spellers == ["permutations.acted_count"], spellers
    assert {"fold", "acted", "arrangement_count", "_acted",
            "failing_symmetry_generator"} <= callers, callers


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
        # permutations.py calls koszul_sign only inside its own definition,
        # and coalgebra.py takes every unshuffle sign from one cached helper
        owner = {"permutations.py": "koszul_sign",
                 "coalgebra.py": "_signed_unshuffles"}.get(path.name)
        if owner is not None:
            own = {id(node) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == owner
                   for node in ast.walk(fn)}
            found += [f"{path.name}:{node.lineno} calls koszul_sign"
                      for node in ast.walk(tree)
                      if id(node) not in own and isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name) and node.func.id == "koszul_sign"]
    assert found == []
    # sign and koszul_sign are signed_sort on sigma's values, through the
    # helper that checks the sorted values, with no loop of their own
    tree = ast.parse((SRC / "permutations.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, callee in (("sign", "_sorted_sign"), ("koszul_sign", "_sorted_sign"),
                         ("_sorted_sign", "signed_sort")):
        body = list(ast.walk(functions[name]))
        assert not [node for node in body if isinstance(node, (ast.For, ast.While))], name
        assert callee in {node.func.id for node in body
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}, name
    # the test oracles take their signs from their own loops, not the kernel's
    for path, tree in _parsed([REPO / "tests" / "oracles.py", REPO / "tests" / "conftest.py"]):
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "hopla.permutations"
                    for alias in node.names}
        assert not imported & {"sign", "koszul_sign"}, path.name


def test_one_enumerator_of_distinct_rearrangements():
    # `arrangements` is the only combinatorial recursion in the package (the
    # other walks a JSON report); the unshuffle table reads its unshuffles
    # off it and has no loop of its own
    recursive = []
    for path, tree in _parsed(sorted(SRC.glob("*.py"))):
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = {node.func.id for node in ast.walk(fn)
                         if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
                if fn.name in calls:
                    recursive.append(f"{path.name}:{fn.name}")
    assert recursive == ["cli.py:_json_text", "permutations.py:arrangements"]
    tree = ast.parse((SRC / "permutations.py").read_text(encoding="utf-8"))
    table = next(node for node in tree.body if getattr(node, "name", None) == "_unshuffles_cached")
    body = list(ast.walk(table))
    assert not [node for node in body if isinstance(node, (ast.For, ast.While, ast.FunctionDef))
                and node is not table]
    assert "arrangements" in {node.func.id for node in body
                              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    # the tests take their unshuffles from the oracle in conftest, not the kernel's
    for path, tree in _parsed(sorted((REPO / "tests").glob("*.py"))):
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "hopla.permutations"
                    for alias in node.names}
        assert not imported & {"sh", "_unshuffles_cached"}, path.name


def _names(tree):
    """Every name a module defines, reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_one_symmetrization_kernel_over_term_streams():
    # the orbit sum is `fold` on a term stream, then `expand`; the residuals
    # hand the fold their insertion terms and never symmetrize an operation
    found = [f"{path.name}:{node.lineno} defines {node.name}"
             for path, tree in _parsed(sorted(SRC.glob("*.py")))
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name in ("orbit_representatives", "acted_slots")]
    assert found == []
    names = set(_names(ast.parse((SRC / "equations.py").read_text(encoding="utf-8"))))
    assert {"fold", "expand"} <= names
    assert not names & {"symmetrize_terms", "precompose_symmetrized"}, names


def _compares_with_rho2(tree):
    """Lines of the comparisons that read `rho2` or `RHO2`: the kill and
    swap rules compare a letter's parity with the action."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and {"rho2", "RHO2"} & set(_names(node))]


def test_one_kill_rule():
    # which letters kill an orbit when repeated (odd under rho1, even under
    # rho2) is decided in permutations.py alone; the insertion streams read
    # it as data, a killing table passed by _insert_fold, since graded.py
    # cannot import permutations.py
    assert _compares_with_rho2(ast.parse("def f(odd, x, rho2):\n    return odd[x] != rho2\n"))
    assert _compares_with_rho2(ast.parse("def f(variant):\n    return variant == RHO2\n"))
    assert not _compares_with_rho2(ast.parse("def f(table, x):\n    return table[x]\n"))
    found = [f"{path.name}:{line}" for path, tree in _parsed(sorted(SRC.glob("*.py")))
             if path.name != "permutations.py" for line in _compares_with_rho2(tree)]
    assert found == []
    modules = {path.name: tree for path, tree in _parsed(sorted(SRC.glob("*.py")))}
    assert not [node for node in ast.walk(modules["graded.py"])
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.endswith("permutations")]
    functions = {(name, node.name): node for name, tree in modules.items()
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "kills" in [arg.arg for arg in functions["graded.py", "insertion_terms"].args.args]
    callers = sorted(key for key, node in functions.items()
                     if key[1] != "killing_letters" and "killing_letters" in set(_names(node)))
    assert callers == [("equations.py", "_insert_fold")], callers


def _operation_sums(function):
    """Lines of the function's `+=` / `-=`, and of its binary `+` / `-` with
    an operand that is a call's result, directly or through a name bound to
    one, or a parameter: sums of operations, not of arities or signs."""
    operands = {arg.arg for arg in function.args.args} | {
        target.id for node in ast.walk(function)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        for target in node.targets if isinstance(target, ast.Name)}
    return [node.lineno for node in ast.walk(function)
            if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub))
            or isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and any(isinstance(side, ast.Call)
                    or isinstance(side, ast.Name) and side.id in operands
                    for side in (node.left, node.right))]


def test_operation_sum_pattern():
    def flagged(body):
        source = "def circle_bracket(f, g, check_symmetry=True):\n" + body
        return bool(_operation_sums(ast.parse(source).body[0]))

    two_products = ("    m, n = f.arity - 1, g.arity - 1\n"
                    "    fg = circle_product(f, g, check_symmetry)\n"
                    "    gf = circle_product(g, f, check_symmetry)\n"
                    "    return fg - gf.scaled((-1) ** (m * n))\n")
    assert flagged(two_products)
    assert flagged("    return f + g\n")
    assert flagged("    acc = f\n    acc -= g\n    return acc\n")
    assert flagged("    return circle_product(f, g) - circle_product(g, f)\n")
    assert not flagged("    m, n = f.arity - 1, g.arity - 1\n"
                       "    return m + n + 1, -(-1) ** (m * n)\n")


def test_circle_bracket_is_one_fold():
    # the bracket folds the insertions of both products once and expands
    # once; a second product or operation arithmetic on the two fails here
    tree = ast.parse((SRC / "equations.py").read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == "circle_bracket"]
    calls = collections.Counter(node.func.id for node in ast.walk(function)
                                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name))
    assert calls["_insert_fold"] == 1 and calls["expand"] == 1, calls
    assert not set(calls) & {"circle_product", "linear_sum"}, calls
    assert "scaled" not in set(_names(function))
    assert _operation_sums(function) == []


def test_one_orbit_expansion():
    # the arrangements of an orbit are written into an operation in one
    # place, the expand step of the orbit kernel, and the coalgebra maps
    # alpha and gamma, which send words to combinations of words, have the
    # other; the unshuffle table reads each unshuffle off an arrangement of
    # block labels; a second copy of the orbit loop fails here
    sites = []
    for path, tree in _parsed(sorted(SRC.glob("*.py"))):
        for top in tree.body:
            name = getattr(top, "name", "module")
            if name == "arrangements":
                continue   # its own recursion
            sites += [f"{path.name}:{name}" for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and (isinstance(node.func, ast.Name) and node.func.id == "arrangements"
                           or isinstance(node.func, ast.Attribute)
                           and node.func.attr == "arrangements")]
    assert sorted(sites) == ["coalgebra.py:_orbit_sum", "permutations.py:_unshuffles_cached",
                             "permutations.py:expand"]
    # the fold applies |Stab| once per distinct acted head and keeps orbit values,
    # so nothing that reads a Folded sum counts a stabilizer again
    tree = ast.parse((SRC / "permutations.py").read_text(encoding="utf-8"))
    readers = [node for node in tree.body if getattr(node, "name", None) in ("Folded", "expand")]
    assert len(readers) == 2
    assert [node.name for node in readers if "stabilizer_order" in set(_names(node))] == []


# Operation.evaluate, the public read of one value, is called by no verb:
# only the benchmark's witness re-evaluation (perfbench/checks.py) calls it,
# to show that a printed witness reproduces its printed value.  Likewise
# drivers.nary_operation: nary-embed reads the operation off the family
# after docio.require_nary, and the benchmark's witness checks read an
# n-ary document's operation through it
EXTRA_ROOTS = {"evaluate", "nary_operation"}


def _unreached(modules, extra=EXTRA_ROOTS):
    """Top-level functions and methods of the parsed modules that nothing reaches
    from `cli.main`, the names `__init__.py` exports, code that runs on
    import, or the extra roots.  A function reaches every function or method
    whose name it reads; a method is reached by its name only, not through
    its class, apart from dunder methods, which the language calls."""
    defs, loose, roots = collections.defaultdict(list), [], {"main"} | set(extra)
    for path, tree in modules:
        if path.name == "__init__.py":
            roots |= {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                      for alias in node.names}
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[top.name].append((f"{path.stem}.{top.name}", top))
                loose += top.decorator_list
            elif isinstance(top, ast.ClassDef):
                loose += top.decorator_list + top.bases
                for item in top.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        loose.append(item)
                    elif item.name.startswith("__") and item.name.endswith("__"):
                        loose.append(item)
                    else:
                        defs[item.name].append((f"{path.stem}.{top.name}.{item.name}", item))
                        loose += item.decorator_list
            elif not isinstance(top, (ast.Import, ast.ImportFrom)):
                loose.append(top)
    for node in loose:
        roots |= set(_names(node))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [found for _, fn in defs.get(name, ()) for found in _names(fn)]
    return sorted(label for name, found in defs.items() if name not in reached
                  for label, _ in found)


def test_every_function_is_reached_from_a_verb_or_an_export():
    # src/ carries what a verb runs or the package exports; helpers only the
    # tests need live in tests/
    modules = list(_parsed(sorted(SRC.glob("*.py"))))
    assert _unreached(modules) == []
    # each extra root is one that nothing else reaches
    assert all(_unreached(modules, EXTRA_ROOTS - {name}) for name in EXTRA_ROOTS)
    source = ("def main():\n    helper()\n"
              "def helper():\n    return Thing().used()\n"
              "def orphan():\n    return Thing().unused()\n"
              "class Thing:\n    def __init__(self):\n        self.x = 1\n"
              "    def used(self):\n        return self.x\n"
              "    def unused(self):\n        return 0\n")
    assert _unreached([(Path("module.py"), ast.parse(source))]) == [
        "module.Thing.unused", "module.orphan"]


def test_coderivation_law_goes_through_one_coproduct_generator():
    # comultiply, beta and the law's weight-1 check share one generator of
    # the coproduct terms of a given left weight, the only caller of the
    # cached unshuffles; the coderivation components never call it (they
    # walk the operation's entries), so the law checks them against an
    # independent route; the law never forms a whole coproduct, and the
    # per-kind term generators, the front insertion helper and the full
    # law's right-hand side are gone
    tree = ast.parse((SRC / "coalgebra.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    generators = [name for name, fn in functions.items()
                  if any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(fn))
                  and "coproduct" in name]
    assert generators == ["coproduct_terms"]
    calls = {node.func.id for node in ast.walk(functions["check_coderivation"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "coproduct_terms" in calls and "comultiply" not in calls
    for name in ("comultiply", "coalgebra_map", "_components"):
        calls = {node.func.id for node in ast.walk(functions[name])
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert ("coproduct_terms" in calls) == (name != "_components"), name
    uses = {id(node): node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_signed_unshuffles"}
    inside = {id(node) for node in ast.walk(functions["coproduct_terms"])}
    assert uses and [line for key, line in uses.items() if key not in inside] == []
    assert [path.name for path, module in _parsed(sorted(SRC.glob("*.py")))
            if path.name != "coalgebra.py" and "_signed_unshuffles" in set(_names(module))] == []
    gone = {"_coderivation_rhs", "_wedge_coproduct_terms", "_perm_coproduct_terms",
            "_apply_to_front", "_component"}
    found = [f"{path.name}:{node.lineno} {name}"
             for path, tree in _parsed(sorted(SRC.glob("*.py")))
             for node in ast.walk(tree)
             for name in ([node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                          else [node.id] if isinstance(node, ast.Name)
                          else [node.attr] if isinstance(node, ast.Attribute) else [])
             if name in gone]
    assert found == []


def test_coalgebra_words_are_flat_orbit_representatives():
    # every coalgebra word is one flat tuple, a Perm word head + (t,): one
    # word generator, weights read as len(word), and one unshuffle call,
    # shared by the wedge and Perm coproducts
    found = [f"{path.name}:{node.lineno} defines {node.name}"
             for path, tree in _parsed(sorted(SRC.glob("*.py")))
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name in ("word_weight", "tensor_words", "wedge_words", "perm_words")]
    assert found == []
    tree = ast.parse((SRC / "coalgebra.py").read_text(encoding="utf-8"))
    calls = [(function.name, node.lineno) for function in tree.body
             if isinstance(function, ast.FunctionDef)
             for node in ast.walk(function)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "_signed_unshuffles"]
    assert [name for name, _ in calls] == ["coproduct_terms"], calls


def _callers(tree, callee):
    """The innermost function around each call of `callee` by name."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == callee:
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(tree, None)
    return found


def test_the_orbit_kernel_alone_decides_canonical_words():
    # wedge_normalize, on signed_sort and stabilizer_order, gives every
    # word's sorted form, sign and vanishing: the canonical-head rule is
    # gone, the components builder's merge of two sorted factors is the one
    # other sort in coalgebra.py, the builder keeps no memo of it, and
    # block_representatives counts arrangements through stabilizer_order
    assert [path.name for path, tree in _parsed(sorted(SRC.glob("*.py")))
            if "_canonical_head" in set(_names(tree))] == []
    tree = ast.parse((SRC / "coalgebra.py").read_text(encoding="utf-8"))
    assert sorted(_callers(tree, "signed_sort")) == ["merged", "wedge_normalize"]
    # the orbit sums read |Stab| from wedge_normalize, not from a second pass
    assert sorted(_callers(tree, "stabilizer_order")) == ["coalgebra_words", "wedge_normalize"]
    (components,) = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_components"]
    memos = [node.lineno for node in ast.walk(components)
             if isinstance(node, ast.Name) and node.id in ("lru_cache", "cache", "dict")
             or isinstance(node, ast.Attribute) and node.attr == "setdefault"
             or isinstance(node, ast.Dict) and not node.keys]
    assert memos == []
    tree = ast.parse((SRC / "permutations.py").read_text(encoding="utf-8"))
    assert "block_representatives" in _callers(tree, "stabilizer_order")
    (block,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "block_representatives"]
    assert not [node for node in ast.walk(block) if isinstance(node, ast.AugAssign)]


def test_square_cogenerator_part_reads_only_the_components():
    # pi o D o D is summed from the (n, l) and (l, 1) components, never from
    # the whole square of a word, and the whole-square route is gone from
    # the package (it stays in tests/oracles.py)
    found = [f"{path.name} {name}" for path, tree in _parsed(sorted(SRC.glob("*.py")))
             for name in _names(tree)
             if name in ("squares", "first_nonzero_square", "_squares")]
    assert found == []
    tree = ast.parse((SRC / "coalgebra.py").read_text(encoding="utf-8"))
    (function,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                   and node.name == "square_cogenerator_fold"]
    names = set(_names(function))
    assert "components" in names
    assert not names & {"square_word", "apply_word", "expand"}, names


def test_coderive_reads_the_square_verdict_from_its_fold():
    # run_coderive decides each cogenerator line and picks its witness from
    # the Folded sum; it never expands the square into a whole operation
    tree = ast.parse((SRC / "drivers.py").read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == "run_coderive"]
    calls = {node.func.id for node in ast.walk(function)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "square_cogenerator_fold" in calls, calls
    names = set(_names(function))
    assert not names & {"square_cogenerator_component", "expand", "op"}, names


def test_document_writer_stays_off_the_pure_python_encoder():
    # CPython serves json's `indent` only from its pure-Python encoder, so
    # docio writes the indented layout itself and json encodes only strings
    tree = ast.parse((SRC / "docio.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
             and node.func.attr in ("dump", "dumps")]
    assert calls
    found = [f"docio.py:{node.lineno}" for node in calls
             if any(kw.arg in ("indent", None) for kw in node.keywords)]
    assert found == []


def test_one_document_parser_and_one_writer():
    # json.loads runs once, in docio.parse_document, and no second parse or
    # serialize function sits beside the two docio defines
    loads, defined = [], []
    for path, tree in _parsed(sorted(SRC.glob("*.py"))):
        loads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _is_json_loads(node.func)]
        defined += [f"{path.name}:{node.name}" for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith(("parse_document", "serialize_document"))]
    assert sorted(defined) == ["docio.py:parse_document", "docio.py:serialize_document"]
    tree = ast.parse((SRC / "docio.py").read_text(encoding="utf-8"))
    (parse,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "parse_document"]
    inside = [f"docio.py:{node.lineno}" for node in ast.walk(parse)
              if isinstance(node, ast.Call) and _is_json_loads(node.func)]
    assert len(inside) == 1 and loads == inside, loads


def _is_json_loads(func):
    return (isinstance(func, ast.Name) and func.id == "loads"
            or isinstance(func, ast.Attribute) and func.attr == "loads"
            and isinstance(func.value, ast.Name) and func.value.id == "json")


def test_one_residual_path():
    # an n-ary operation is checked as the one-operation unhat family it is:
    # run_check runs `residual` for every document, under the flavor's
    # action, and no second insertion list or n-ary wrapper is left
    found = [f"{path.name}:{node.lineno} defines {node.name}"
             for path, tree in _parsed(sorted(SRC.glob("*.py")))
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name in ("nary_insertions", "check_nary", "symmetrize_terms")]
    assert found == []
    tree = ast.parse((SRC / "drivers.py").read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == "run_check"]
    calls = {node.func.id for node in ast.walk(function)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "residual" in calls and not calls & {"nary_residual", "check_nary"}, calls
    assert "RHO2" not in set(_names(function))


def test_one_commutator_path():
    # every commutator functor is `functors.commutator`: run_derive calls it
    # once, the n-ary pair on the one-operation family, and suspension is
    # one signed shift; no second symmetrization, action or precondition
    # is left in functors.py
    removed = {"nary_commutator_prelie", "nary_commutator_lie", "suspended_space",
               "desuspended_space"}
    found = []
    for path, tree in _parsed(sorted(SRC.glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in removed:
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name in removed]
    assert found == []
    tree = ast.parse((SRC / "drivers.py").read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == "run_derive"]
    calls = [node.func.id for node in ast.walk(function)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls.count("commutator") == 1, calls
    assert not set(_names(function)) & {"RHO2", "MODE_PARTIAL"}
    tree = ast.parse((SRC / "functors.py").read_text(encoding="utf-8"))
    assert not set(_names(tree)) & {"RHO2", "require_symmetry"}
    callers = [top.name for top in tree.body if isinstance(top, ast.FunctionDef)
               and "precompose_symmetrized" in {node.func.id for node in ast.walk(top)
                                                 if isinstance(node, ast.Call)
                                                 and isinstance(node.func, ast.Name)}]
    assert callers == ["commutator"], callers


def test_one_reading_of_an_nary_document():
    # the parser owns the n-ary rules, so an accepted n-ary document is its
    # own one-operation family: drivers neither rebuilds nor re-files it, and
    # each commutator functor names one commutator of functors.commutator
    from hopla.drivers import COMMUTATOR_FUNCTORS
    from hopla.equations import COMMUTATORS

    texts = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    for refusal in ("n-ary documents require a degree-0 basis",
                    "an n-ary document must have operations only at arity"):
        assert [name for name, text in texts.items()
                for _ in range(text.count(refusal))] == ["docio.py"], refusal
    conversions = set(_names(ast.parse(texts["drivers.py"]))) & {"nary_family", "_nary_document"}
    assert conversions == set(), conversions
    assert set(COMMUTATOR_FUNCTORS.values()) <= set(COMMUTATORS), COMMUTATOR_FUNCTORS


def _docstrings(tree):
    """The docstring nodes of a module and of its functions and classes."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def test_the_paper_dictionary_is_written_once():
    # equations.KINDS and equations.COMMUTATORS hold each kind's mode,
    # coalgebra and declared types and each commutator's kinds and mode;
    # no other module spells a type name in code or keys a dict by the
    # kinds or the commutators (drivers.COMMUTATOR_FUNCTORS is keyed by the
    # CLI's functor names)
    types = {"a_infinity", "pl_infinity", "l_infinity", "assoc_n", "prelie_n", "lie_n"}
    kinds = {"ASSOC", "PRELIE", "LIE", "TENSOR", "WEDGE", "PERM"}
    keys = {"assoc", "prelie", "lie", "tensor", "wedge", "perm", "alpha", "beta", "gamma"}
    spelled, keyed = set(), []
    for path, tree in _parsed(sorted(SRC.glob("*.py"))):
        docstrings = _docstrings(tree)
        spelled |= {path.name for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in types
                    and id(node) not in docstrings}
        keyed += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Dict) and any(
                      isinstance(key, ast.Name) and key.id in kinds
                      or isinstance(key, ast.Constant) and key.value in keys
                      for key in node.keys)]
    assert spelled == {"equations.py"}, spelled
    tree = ast.parse((SRC / "equations.py").read_text(encoding="utf-8"))
    tables = [target.id for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Dict) for target in node.targets]
    assert tables == ["KINDS", "COMMUTATORS"], tables
    assert len(keyed) == 2 and all(at.startswith("equations.py:") for at in keyed), keyed
    gone = {"COMMUTATOR_MODES", "COMMUTATOR_PRECONDITIONS", "COMMUTATOR_IMAGE_TYPES"}
    assert not {name for _, tree in _parsed(sorted(SRC.glob("*.py")))
                for name in _names(tree)} & gone
    # coalgebra_map has one orbit-sum branch, for alpha and gamma, beside
    # beta's coproduct branch
    tree = ast.parse((SRC / "coalgebra.py").read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == "coalgebra_map"]
    calls = [node.func.id for node in ast.walk(function)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls.count("_orbit_sum") == 1 and calls.count("coproduct_terms") == 1, calls
    assert not [node for node in ast.walk(function)
                if isinstance(node, ast.Constant) and node.value in keys]
    modules = list(_parsed(sorted(SRC.glob("*.py"))))
    # no other module lists the kinds, the coalgebras or the commutators:
    # the CLI's choices and selftest's loops read KINDS, COALGEBRAS and
    # COMMUTATORS
    listed = [f"{path.name}:{node.lineno}" for path, tree in modules for node in ast.walk(tree)
              if isinstance(node, (ast.List, ast.Tuple)) and any(
                  isinstance(elt, ast.Name) and elt.id in kinds
                  or isinstance(elt, ast.Constant) and elt.value in keys for elt in node.elts)]
    assert listed and all(at.startswith("equations.py:") for at in listed), listed
    # the n-ary equation names are KINDS' fourth column, and NARY_KINDS reads
    # them back: the partially associative name is spelled once and read in
    # the table alone
    trees = {path.name: tree for path, tree in modules}
    (row,) = [node for node in trees["equations.py"].body if isinstance(node, ast.Assign)
              and [target.id for target in node.targets] == ["KINDS"]]
    in_row = {id(node) for node in ast.walk(row)}
    reads = [(path.name, id(node) in in_row) for path, tree in modules for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "PARTIALLY_ASSOCIATIVE"
             and isinstance(node.ctx, ast.Load)]
    assert reads == [("equations.py", True)], reads
    assert [path.name for path, tree in modules for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == "partially_associative"] \
        == ["equations.py"]
    assert not [f"{path.name}:{alias.name}" for path, tree in modules for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names
                if alias.name == "PARTIALLY_ASSOCIATIVE"]
    # each refusal of a name is written once, in the function that reads it
    refusals = {message: [f"{path.name[:-3]}.{getattr(top, 'name', top.lineno)}"
                          for path, tree in modules for top in tree.body for node in ast.walk(top)
                          if isinstance(node, ast.Constant) and isinstance(node.value, str)
                          and message in node.value]
                for message in ("unknown coalgebra kind", "unknown action variant")}
    assert refusals == {"unknown coalgebra kind": ["coalgebra._mode"],
                        "unknown action variant": ["permutations._is_rho2"]}, refusals
    # a report's clock is Report's: no verb reads the time itself
    tree = ast.parse((SRC / "drivers.py").read_text(encoding="utf-8"))
    clocks = [top.name for top in tree.body for node in ast.walk(top)
              if isinstance(node, ast.Attribute) and node.attr == "monotonic"]
    assert clocks and set(clocks) == {"Report"}, clocks


def test_selftest_walks_and_fold_lines_are_written_once():
    # verify walks canonical words through _first_failing_word and arities
    # through _first_failing_arity; drivers turns a Folded sum into a report
    # line in Report.add_fold alone
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def callers(callee):
        return sorted(name for name, function in functions.items()
                      for node in ast.walk(function) if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name) and node.func.id == callee)

    assert callers("coalgebra_words") == ["_first_failing_word"]
    assert callers("_first_failing_word") == [
        "coalgebra_map_law_witness", "coassociativity_witness",
        "coderivation_correspondence_witness", "factorization_witness", "section_witness"]
    assert callers("_first_failing_arity") == ["commutator_pipeline_witness"] * 4
    loops = [node for node in ast.walk(functions["commutator_pipeline_witness"])
             if isinstance(node, (ast.For, ast.comprehension))]
    assert loops == []
    tree = ast.parse((SRC / "drivers.py").read_text(encoding="utf-8"))
    readers = [f"{scope.name}" for scope in ast.walk(tree)
               if isinstance(scope, ast.FunctionDef) for node in ast.walk(scope)
               if isinstance(node, ast.Attribute)
               and node.attr in ("vanishes", "first_nonzero_entry")]
    assert readers == ["add_fold", "add_fold"], readers
    # an operation and a Folded sum read their witness through graded.first_entry
    witnesses = sorted(f"{path.name}:{scope.name}"
                       for path, tree in _parsed(sorted(SRC.glob("*.py")))
                       for scope in tree.body if isinstance(scope, ast.ClassDef)
                       for method in scope.body if isinstance(method, ast.FunctionDef)
                       and method.name == "first_nonzero_entry" for node in ast.walk(method)
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "id", "") == "first_entry")
    assert witnesses == ["graded.py:Operation", "permutations.py:Folded"], witnesses


def test_each_precondition_has_one_owner():
    # the symmetry precondition is walked once (permutations.symmetry_walk,
    # which require_symmetry and check's symmetry lines read), the n-ary
    # rules are written once (docio.require_nary, which the parser and
    # nary-embed apply) and drivers refuses work above a limit through one
    # helper
    texts = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    trees = {name: ast.parse(text) for name, text in texts.items()}
    callers = [f"{name[:-3]}.{top.name}" for name, tree in trees.items() for top in tree.body
               if isinstance(top, ast.FunctionDef) for node in ast.walk(top)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "failing_symmetry_generator"]
    assert callers == ["permutations.symmetry_walk"], callers
    gone = {"NARY_DECLARED", "_symmetry_check", "_require_check_work", "_require_derive_work",
            "require_nary_operations"}
    assert not {name for tree in trees.values() for name in _names(tree)} & gone
    for rule in ("is_concentrated_in_degree_zero()", "keys() - {n}"):
        assert [name for name, text in texts.items() if name != "graded.py"
                for _ in range(text.count(rule))] == ["docio.py"], rule
    assert texts["drivers.py"].count(", above the limit of") == 1
    functions = {top.name: top for top in trees["drivers.py"].body
                 if isinstance(top, ast.FunctionDef)}
    assert "require_nary" in set(_names(functions["run_derive"]))
    assert "NARY_TYPES" not in texts["drivers.py"]


def _is_parity_rule(node):
    """A comparison with `(... + <x>.degree) % 2`: the rule that an output
    has the parity of its inputs plus the operation's degree."""
    return isinstance(node, ast.Compare) and any(
        isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mod)
        and isinstance(side.right, ast.Constant) and side.right.value == 2
        and isinstance(side.left, ast.BinOp) and isinstance(side.left.op, ast.Add)
        and any(isinstance(sub, ast.Attribute) and sub.attr == "degree"
                for sub in ast.walk(side.left))
        for side in [node.left, *node.comparators])


def test_one_collapse_precondition():
    # the collapsed residual's precondition has one owner: equations writes
    # the parity rule once, and residual checks it and the symmetry through
    # one helper; the n-ary residual, the two-route check and run_check
    # reach it through residual or that helper, with no copy of either half
    assert _is_parity_rule(ast.parse(
        "odd[out] != (sum(odd[x] for x in word) + op.degree) % 2").body[0].value)
    assert not _is_parity_rule(ast.parse("D.degree % 2 != 0").body[0].value)
    rules, functions = [], {}
    for path, tree in _parsed(sorted(SRC.glob("*.py"))):
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                functions[path.stem, top.name] = top
                rules += [f"{path.stem}.{top.name}" for node in ast.walk(top)
                          if _is_parity_rule(node)]
    assert rules == ["equations.require_parity"], rules
    assert [name for module, name in functions
            if module == "drivers" and "parity" in name] == []

    def calls(module, name):
        return {node.func.id for node in ast.walk(functions[module, name])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}

    for name in ("nary_residual", "check_prelie_n_two_ways"):
        assert "require_symmetry" not in calls("equations", name), name
    assert "require_collapsible" in calls("equations", "residual")
    assert calls("equations", "require_collapsible") >= {"require_parity", "require_symmetry"}
    assert {"require_parity", "require_collapsible"} <= calls("drivers", "run_check")
    assert "require_symmetry" not in calls("drivers", "run_check")


def _compares_a_kind(test):
    """True when the condition compares a kind: a name `kind` or `name`, a
    `.kind` attribute or a kind constant, inside a comparison."""
    kinds = {"kind", "name", "ASSOC", "PRELIE", "LIE", "TENSOR", "WEDGE", "PERM"}
    return any(isinstance(node, ast.Compare)
               and any(isinstance(sub, ast.Name) and sub.id in kinds
                       or isinstance(sub, ast.Attribute) and sub.attr == "kind"
                       for sub in ast.walk(node))
               for node in ast.walk(test))


def test_residual_engine_reads_only_the_mode():
    # the mode (MODE_PARTIAL, MODE_FULL or None) is the one name of a
    # symmetry: the residual engine derives its collapsed positions, blocks
    # and factorials from acted_count(mode, .), require_symmetry takes the
    # mode, and no caller guards it by a kind or converts a kind to a flag
    assert _compares_a_kind(ast.parse("if kind != TENSOR:\n    pass").body[0].test)
    assert _compares_a_kind(ast.parse("c and name == 'beta'").body[0].value)
    assert not _compares_a_kind(ast.parse("check_symmetry").body[0].value)
    functions, guarded = {}, []
    for path, tree in _parsed(sorted(SRC.glob("*.py"))):
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                functions[path.stem, top.name] = top
        guarded += [f"{path.name}:{call.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.If) and _compares_a_kind(node.test)
                    for branch in node.body + node.orelse for call in ast.walk(branch)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "require_symmetry"]
    assert guarded == []
    for name in ("_positions", "_insertions", "_coefficient", "residual"):
        assert not set(_names(functions["equations", name])) & {"ASSOC", "PRELIE", "LIE"}, name
    params = [arg.arg for arg in functions["permutations", "require_symmetry"].args.args]
    assert "mode" in params and "full" not in params, params
    assert not [node for node in ast.walk(functions["drivers", "run_derive"])
                if isinstance(node, ast.Constant) and node.value == "beta"]
    # report labels, the SymmetryError text and --symmetrize print the mode
    from hopla.permutations import MODE_FULL, MODE_PARTIAL
    assert (MODE_FULL, MODE_PARTIAL) == ("full", "partial")


def test_every_mutant_snippet_occurs_once():
    # tests/mutants.py mutates each site by exact text, so a snippet must
    # name one place in src/hopla, in its module, and none may be missing
    from mutants import MUTANTS

    texts = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert [name for name, text in texts.items() for _ in range(text.count(mutant.snippet))] \
            == [mutant.file], mutant.name
        assert mutant.replacement != mutant.snippet, mutant.name
        assert all((REPO / path.split("::")[0]).is_file() for path in mutant.tests), mutant.name


def test_mutants_runner_refuses_an_unknown_name(capsys, monkeypatch):
    # a name that no mutant has exits 2 and is named, before any mutant
    # runs; the known names beside it are not run either, and named alone
    # they are the only ones run (no pytest starts: `run` is replaced)
    import mutants

    ran = []
    monkeypatch.setattr(mutants, "run", lambda mutant: ran.append(mutant.name) or True)
    assert mutants.main(["tensor-law-sign", "no-such-mutant", "also-missing"]) == 2
    assert ran == []
    err = capsys.readouterr().err
    assert "also-missing, no-such-mutant" in err and "tensor-law-sign" not in err
    assert mutants.main(["tensor-law-zero-filter", "tensor-law-sign"]) == 0
    assert ran == ["tensor-law-sign", "tensor-law-zero-filter"]
    assert "2 of 2 killed" in capsys.readouterr().out


def _module_reads(tree):
    """(module, attribute) for every hopla attribute that a benchmark file
    reads through the namespace `h` (or `self.h`) of hopla modules, directly
    or through a local alias such as `eq = h.equations`, per function."""
    def module_of(node, aliases):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id == "h"
                or isinstance(node.value, ast.Attribute) and node.value.attr == "h"
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "self"):
            return node.attr
        return None

    reads = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        aliases = {}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    aliases.update({name.id: module for name, value in pairs
                                    if isinstance(name, ast.Name)
                                    and (module := module_of(value, {})) is not None})
        reads |= {(module, node.attr) for node in ast.walk(function)
                  if isinstance(node, ast.Attribute)
                  and (module := module_of(node.value, aliases)) is not None}
    return reads


# run in a fresh interpreter: installs the benchmark's tracer on a fresh
# import of every hopla module and prints what does not resolve or restore
TRACER_PROBE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
modules = {name: importlib.import_module("hopla." + name) for name in sys.argv[3:]}
problems = []
for module, attr in ([(m, a) for m, a, _ in tracer.SPANS] + list(tracer.COUNTERS)
                     + [tuple(read) for read in json.loads(sys.argv[2])]):
    owner = modules.get(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    if owner is None:
        problems.append(f"{module}.{attr} does not resolve")
holders = list(modules.values()) + [value for mod in modules.values()
                                    for value in vars(mod).values() if isinstance(value, type)]
before = [(holder, dict(vars(holder))) for holder in holders]
probe = tracer.Tracer()
probe.install()
replaced = len(probe._restore)
probe.uninstall()
problems += [f"{getattr(holder, '__name__', holder)}.{key} is not restored"
             for holder, names in before for key, value in names.items()
             if vars(holder).get(key) is not value]
print(json.dumps({"problems": problems, "replaced": replaced}))
"""


def test_benchmark_tracer_and_witness_checks_bind_existing_names():
    # perfbench/tracer.py wraps hopla functions by name for `--trace 1`, and
    # perfbench/checks.py re-evaluates printed witnesses through hopla names;
    # a name that a simplification removes would break the benchmark, not
    # the package, so it is checked here against the benchmark files as they are
    bench = REPO / "perfbench"
    tree = ast.parse((bench / "checks.py").read_text(encoding="utf-8"))
    reads = _module_reads(tree)
    assert {("drivers", "nary_operation"), ("permutations", "failing_symmetry_generator"),
            ("equations", "residual"), ("docio", "parse_document")} <= reads, reads
    assert _module_reads(ast.parse(
        "def f(self):\n    p, x = self.h.permutations, 1\n    return p.RHO1, x.y\n"
        "def g(h, p):\n    return h.docio.FORMAT, p.RHO2\n")) == {
        ("permutations", "RHO1"), ("docio", "FORMAT")}
    modules = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, "-c", TRACER_PROBE, str(bench),
                             json.dumps(sorted(reads)), *modules],
                            env=env, capture_output=True, text=True, check=True)
    report = json.loads(result.stdout)
    assert report["problems"] == [], report["problems"]
    assert report["replaced"] >= len(modules), report

