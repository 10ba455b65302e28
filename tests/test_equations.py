import itertools
from collections import Counter

import pytest

from conftest import (E11, E12, associative_family, commutator_bracket, family_scale,
                      family_sum, matrix_bracket, prelie_residual_shuffle_form, random_table)
from oracles import nary_residual_by_positions
from hopla import drivers, equations, permutations
from hopla.docio import AlgebraDocument
from hopla.drivers import run_check
from hopla.equations import (ASSOC, LIE, PARTIALLY_ASSOCIATIVE, PRELIE,
                             EquationFlavor, check_prelie_n_two_ways, circle_bracket,
                             circle_product, nary_family, nary_residual, residual,
                             residual_insertions)
from hopla.errors import (ArityError, ConventionError, GradingError, LemmaViolationError,
                         SymmetryError)
from hopla.graded import (HAT, UNHAT, GradedSpace, LinearCombination, Operation,
                          OperationFamily, family_degree, insertion_term_count)
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, RHO2, action_variant,
                                failing_symmetry_generator, precompose_symmetrized)
from hopla.verify import random_operation, random_unhat_family


def test_residual_of_empty_family(flat2):
    fam = OperationFamily(UNHAT, flat2, 4, {})
    for kind in (ASSOC, PRELIE, LIE):
        for n in range(1, 5):
            assert residual(fam, EquationFlavor(kind, UNHAT), n).vanishes()


def test_assoc_residual_is_associator(kt2):
    sp, mu = kt2
    fam = associative_family(sp, mu)
    res = residual(fam, EquationFlavor(ASSOC, UNHAT), 3)
    assert res.vanishes()
    # and the arity-3 residual is literally (xy)z - x(yz)
    from hopla.graded import compose_insert
    associator = compose_insert(mu, mu, 0) - compose_insert(mu, mu, 1)
    assert res.op == associator


def test_lie_residual_jacobi_against_matrix_oracle(corner):
    sp, mu = corner
    bracket = commutator_bracket(sp, mu)
    fam = OperationFamily(UNHAT, sp, 3, {2: bracket})
    assert residual(fam, EquationFlavor(LIE, UNHAT), 3).vanishes()
    # matrix oracle: the Jacobi identity for [a,b] on span{E11, E12}
    basis = (E11, E12)
    for x, y, z in itertools.product(basis, repeat=3):
        j = tuple(p + q + r for p, q, r in zip(
            matrix_bracket(matrix_bracket(x, y), z),
            matrix_bracket(matrix_bracket(y, z), x),
            matrix_bracket(matrix_bracket(z, x), y)))
        assert j == (0, 0, 0, 0)


def test_residual_convention_mismatch(kt2):
    sp, mu = kt2
    fam = associative_family(sp, mu)
    with pytest.raises(ConventionError):
        residual(fam, EquationFlavor(ASSOC, HAT), 2)


def test_residual_symmetry_precondition_names_offender(kt2):
    sp, mu = kt2
    fam = associative_family(sp, mu)
    with pytest.raises(SymmetryError) as err:
        residual(fam, EquationFlavor(LIE, UNHAT), 3)
    assert err.value.arity == 2
    assert err.value.transposition == (1, 2)
    # bypass flag skips the check
    residual(fam, EquationFlavor(LIE, UNHAT), 3, check_symmetry=False)


def test_prelie_residual_matches_shuffle_expansion(graded2, rng):
    # the element-level unshuffle form agrees with the composition form
    # for partially symmetric families, in both conventions
    for _ in range(5):
        fam = random_unhat_family(rng, graded2, (1, 2, 3), symmetrize="partial")
        from hopla.functors import suspend_family
        hat = suspend_family(fam)
        for n in range(1, 5):
            assert residual(fam, EquationFlavor(PRELIE, UNHAT), n).op \
                == prelie_residual_shuffle_form(fam, n)
            assert residual(hat, EquationFlavor(PRELIE, HAT), n).op \
                == prelie_residual_shuffle_form(hat, n)


def test_circle_product_with_identity_doubles(flat2):
    ident = Operation(flat2, 1, 0, {(i,): LinearCombination({i: 1}) for i in range(2)})
    f = precompose_symmetrized(
        Operation(flat2, 2, 0, {(0, 1): LinearCombination({1: 3})}), RHO2, MODE_PARTIAL)
    assert circle_product(f, ident) == f.scaled(2)


def test_circle_product_arities(flat2, rng):
    f = precompose_symmetrized(random_operation(rng, flat2, 3, 0), RHO2, MODE_PARTIAL)
    g = precompose_symmetrized(random_operation(rng, flat2, 2, 0), RHO2, MODE_PARTIAL)
    fg = circle_product(f, g)
    assert fg.arity == 4
    assert failing_symmetry_generator(fg, RHO2, full=False) is None


def test_circle_product_of_associative_prelie_vanishes(corner):
    sp, mu = corner
    assert circle_product(mu, mu).is_zero()
    assert nary_residual(mu, PRELIE).vanishes()


def test_circle_product_requires_degree_zero(graded2, rng):
    op = random_operation(rng, graded2, 2, 0)
    with pytest.raises(GradingError):
        circle_product(op, op, check_symmetry=False)


def test_circle_product_symmetry_precondition(kt2):
    sp, mu = kt2  # not antisymmetric
    ident = Operation(sp, 1, 0, {(i,): LinearCombination({i: 1}) for i in range(2)})
    # arity-2 factors have one symmetrized slot, so mu fails
    with pytest.raises(SymmetryError):
        circle_product(Operation(sp, 3, 0, {(0, 0, 0): LinearCombination({1: 1})}), ident)


def test_circle_bracket_squares(flat2, rng):
    f = precompose_symmetrized(random_operation(rng, flat2, 2, 0), RHO2, MODE_PARTIAL)
    assert circle_bracket(f, f) == circle_product(f, f).scaled(2)
    g = precompose_symmetrized(random_operation(rng, flat2, 3, 0), RHO2, MODE_PARTIAL)
    assert circle_bracket(g, g).is_zero()  # mn even forces cancellation


def test_circle_bracket_graded_antisymmetry(flat2, rng):
    for _ in range(6):
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2, 3])
        f = precompose_symmetrized(random_operation(rng, flat2, m, 0), RHO2, MODE_PARTIAL)
        g = precompose_symmetrized(random_operation(rng, flat2, n, 0), RHO2, MODE_PARTIAL)
        sign = (-1) ** ((f.arity - 1) * (g.arity - 1))
        assert circle_bracket(f, g) == circle_bracket(g, f).scaled(-sign)


def test_check_nary_zero_operation(flat2):
    zero = Operation(flat2, 3, 0)
    for kind in (PARTIALLY_ASSOCIATIVE, PRELIE, LIE):
        res = nary_residual(zero, kind)
        assert res.vanishes() and res.arity == 5


def test_a_residual_is_its_folded_sum(kt2):
    # one symmetrized-sum type: the residual is the `Folded` sum itself, its
    # operation expanded once and kept
    import hopla
    sp, mu = kt2
    res = residual(associative_family(sp, mu), EquationFlavor(ASSOC, UNHAT), 3)
    assert isinstance(res, hopla.Folded) and not hasattr(hopla, "Residual")
    assert res.arity == 3 and res.op is res.op and res.vanishes() == res.op.is_zero()


def test_check_nary_associative_examples(kt2, corner):
    for sp, mu in (kt2, corner):
        assert nary_residual(mu, PARTIALLY_ASSOCIATIVE).vanishes()
    sp, mu = kt2
    assert nary_residual(mu, PRELIE).vanishes()  # commutative associative products are pre-Lie


def test_check_nary_lie_example(corner):
    sp, mu = corner
    assert nary_residual(commutator_bracket(sp, mu), LIE).vanishes()


def test_check_prelie_two_ways(flat2, corner, rng):
    assert check_prelie_n_two_ways(Operation(flat2, 2, 0))
    sp, mu = corner
    assert check_prelie_n_two_ways(mu)
    # random non-pre-Lie inputs come out false through both routes
    hits = 0
    for _ in range(10):
        cand = precompose_symmetrized(
            random_operation(rng, flat2, 2, 0, density=0.8), RHO2, MODE_PARTIAL)
        if cand.is_zero():
            continue
        verdict = check_prelie_n_two_ways(cand)
        # both library routes share one kernel; the per-position oracle is
        # the independent route
        assert verdict == nary_residual_by_positions(cand, PRELIE).is_zero()
        if not verdict:
            hits += 1
    assert hits > 0


def test_lemma_operation_level_equality(flat2, rng):
    # the per-position pre-Lie residual and mu o mu agree as operations,
    # not just in vanishing
    for n in (2, 3):
        for _ in range(6):
            mu = precompose_symmetrized(
                random_operation(rng, flat2, n, 0, density=0.6), RHO2, MODE_PARTIAL)
            assert nary_residual_by_positions(mu, PRELIE) \
                == circle_product(mu, mu, check_symmetry=False)


def test_flavor_degeneration_at_binary(flat2, rng):
    # a single binary operation: the arity-3 prelie/unhat residual equals
    # the pre-Lie 2-algebra residual
    for _ in range(6):
        mu = precompose_symmetrized(random_operation(rng, flat2, 2, 0), RHO2, MODE_PARTIAL)
        fam = OperationFamily(UNHAT, flat2, 3, {2: mu} if not mu.is_zero() else {})
        assert residual(fam, EquationFlavor(PRELIE, UNHAT), 3, check_symmetry=False).op \
            == nary_residual(mu, PRELIE, check_symmetry=False).op


def test_residual_is_quadratic_polarization(graded2, rng):
    # R(a+b) + R(a-b) = 2 R(a) + 2 R(b) at every arity
    flavor = EquationFlavor(PRELIE, UNHAT)
    for _ in range(3):
        a = random_unhat_family(rng, graded2, (1, 2), symmetrize="partial")
        b = random_unhat_family(rng, graded2, (1, 2), symmetrize="partial")
        for n in range(1, 4):
            lhs = residual(family_sum(a, b), flavor, n, False).op \
                + residual(family_sum(a, family_scale(b, -1)), flavor, n, False).op
            rhs = (residual(a, flavor, n, False).op
                   + residual(b, flavor, n, False).op).scaled(2)
            assert lhs == rhs


def test_antisymmetrized_associative_is_lie(kt2, corner):
    for sp, mu in (kt2, corner):
        bracket = precompose_symmetrized(mu, RHO2, MODE_FULL)
        fam = OperationFamily(UNHAT, sp, 3, {2: bracket} if not bracket.is_zero() else {})
        assert residual(fam, EquationFlavor(LIE, UNHAT), 3).vanishes()


def test_graded_jacobi_leibniz_form(flat2, rng):
    from hopla.verify import graded_jacobi_witness
    for _ in range(6):
        f, g, h = (precompose_symmetrized(
            random_operation(rng, flat2, rng.choice([1, 2, 3]), 0), RHO2, MODE_PARTIAL)
            for _ in range(3))
        assert graded_jacobi_witness(f, g, h) is None


def test_insertion_passes_per_arity_pair(monkeypatch, flat2, rng):
    # The collapsed form makes at most two insertions per arity pair for
    # pre-Lie and exactly one for Lie; one insertion per position is a
    # regression even when every value stays right.  The insertion terms go
    # to the orbit kernel's fold as one lazy stream, in one call, and no
    # operation is symmetrized again afterwards.
    passes = Counter()
    real = equations.insertion_terms
    real_kernel = equations.fold
    real_precompose = permutations.precompose_symmetrized

    def counting(outer, inner, position, scale=1, kills=None):
        passes[outer.arity, inner.arity] += 1
        return real(outer, inner, position, scale, kills)

    def counting_kernel(space, arity, degree, terms, denominator, variant, mode):
        assert iter(terms) is terms, type(terms)   # a stream, not a table
        passes["kernel"] += 1
        return real_kernel(space, arity, degree, terms, denominator, variant, mode)

    def counting_precompose(op, variant, mode):
        passes["precompose"] += 1
        return real_precompose(op, variant, mode)

    monkeypatch.setattr(equations, "insertion_terms", counting)
    monkeypatch.setattr(equations, "fold", counting_kernel)
    for module in (equations, permutations):
        monkeypatch.setattr(module, "precompose_symmetrized", counting_precompose,
                            raising=False)
    per_pair = {ASSOC: lambda i: i, PRELIE: lambda i: min(i, 2), LIE: lambda i: 1}
    sp = GradedSpace(("x", "y", "z"), (-1, 0, 1))
    for kind, symmetrize in ((ASSOC, None), (PRELIE, "partial"), (LIE, "full")):
        fam = random_unhat_family(rng, sp, (1, 2, 3, 4), symmetrize=symmetrize, density=0.8)
        assert 4 in fam.ops
        for n in range(1, 8):
            passes.clear()
            residual(fam, EquationFlavor(kind, UNHAT), n)
            expected = Counter({(i, n + 1 - i): per_pair[kind](i)
                                for i in fam.ops if n + 1 - i in fam.ops})
            expected["kernel"] = kind != ASSOC
            assert passes == expected, (kind, n)
    nary = {PARTIALLY_ASSOCIATIVE: (None, lambda n: n), PRELIE: (MODE_PARTIAL, lambda n: 2),
            LIE: (MODE_FULL, lambda n: 1)}
    for n, (kind, (mode, count)) in itertools.product((2, 3, 4), nary.items()):
        mu = random_operation(rng, flat2, n, 0, density=0.8)
        if mode:
            mu = real_precompose(mu, RHO2, mode)
        passes.clear()
        nary_residual(mu, kind)
        # the one-operation family drops a zero mu, so nothing is inserted
        expected = Counter({(n, n): 0 if mu.is_zero() else count(n), "kernel": mode is not None})
        assert passes == expected, (kind, n)
    f, g = (real_precompose(random_operation(rng, flat2, a, 0, density=0.8), RHO2, MODE_PARTIAL)
            for a in (3, 2))
    passes.clear()
    circle_product(f, g)
    assert passes == {(3, 2): 2, "kernel": 1}


def test_insertion_term_count_is_the_streamed_count(monkeypatch, rng):
    # check's work bound counts the insertion terms from histograms before
    # any insertion; the count must be every pair the residuals' streams
    # visit, the length of each stream without the fold's killing table,
    # and so at least what they then yield, on tables with several outputs
    # per word
    streamed = Counter()
    real = equations.insertion_terms

    def counting(outer, inner, position, scale=1, kills=None):
        streamed["visited"] += sum(1 for _ in real(outer, inner, position, scale))
        for term in real(outer, inner, position, scale, kills):
            streamed["terms"] += 1
            yield term

    monkeypatch.setattr(equations, "insertion_terms", counting)
    bounds = []
    monkeypatch.setattr(drivers, "_require_work", lambda count, limit, what: bounds.append(count))
    sp = GradedSpace(("x", "y", "z"), (-1, 0, 1))
    nonzero = pruned = 0
    odd = sp.parities
    for convention, (kind, mode) in itertools.product(
            (HAT, UNHAT), ((ASSOC, None), (PRELIE, MODE_PARTIAL), (LIE, MODE_FULL))):
        ops = {}
        for arity in (1, 2, 3):
            degree = family_degree(convention, arity)
            table = random_table(rng, sp, arity, 0.5)
            if mode is not None:
                # run_check refuses pre-Lie and Lie outputs of another parity
                # than the inputs' plus the degree on these odd letters
                table = {word: LinearCombination(
                    (out, c) for out, c in combo
                    if odd[out] == (sum(odd[x] for x in word) + degree) % 2)
                    for word, combo in table.items()}
            op = Operation(sp, arity, degree, {w: c for w, c in table.items() if c})
            ops[arity] = op if mode is None else precompose_symmetrized(
                op, action_variant(convention), mode)
        fam = OperationFamily(convention, sp, 5, ops)
        flavor = EquationFlavor(kind, convention)
        total = 0
        for n in range(1, 6):
            streamed.clear()
            residual(fam, flavor, n)
            assert insertion_term_count(residual_insertions(fam, flavor, n)) \
                == streamed["visited"] >= streamed["terms"], (convention, kind, n)
            total += streamed["visited"]
            nonzero += streamed["terms"] > 0
            pruned += streamed["terms"] < streamed["visited"]
        # run_check counts the whole check once, before its first residual
        bounds.clear()
        streamed.clear()
        run_check(AlgebraDocument(fam), kind)
        assert bounds == [total] == [streamed["visited"]], (convention, kind)
        assert total >= streamed["terms"], (convention, kind)
    assert nonzero >= 20, nonzero
    # the fold's killing table skips terms under both actions
    assert pruned >= 4, pruned

    flat = GradedSpace(("a", "b", "c"), (0, 0, 0))
    for n, (kind, mode) in itertools.product(
            (2, 3), ((PARTIALLY_ASSOCIATIVE, None), (PRELIE, MODE_PARTIAL), (LIE, MODE_FULL))):
        mu = Operation(flat, n, 0, random_table(rng, flat, n, 0.6))
        if mode is not None:
            mu = precompose_symmetrized(mu, RHO2, mode)
        streamed.clear()
        nary_residual(mu, kind)
        assert streamed["visited"] > 0, (n, kind)
        flavor = EquationFlavor(ASSOC if kind == PARTIALLY_ASSOCIATIVE else kind, UNHAT)
        assert insertion_term_count(residual_insertions(nary_family(mu), flavor, 2 * n - 1)) \
            == streamed["visited"] >= streamed["terms"], (n, kind)


def test_representative_tables_are_built_once_per_call(monkeypatch, flat2, rng):
    # run_check builds each (operation, block) table once for its count and
    # all its residuals, and a circle call builds its own; nothing is kept
    # from one call to the next
    built = []
    real = equations.block_representatives

    def recording(op, lo, hi):
        built.append((id(op), lo, hi))
        return real(op, lo, hi)

    monkeypatch.setattr(equations, "block_representatives", recording)
    sp = GradedSpace(("x", "y", "z"), (-1, 0, 1))
    for kind, symmetrize in ((PRELIE, "partial"), (LIE, "full")):
        doc = AlgebraDocument(random_unhat_family(rng, sp, (1, 2, 3), symmetrize, 0.8))
        for _ in range(2):
            built.clear()
            run_check(doc, kind)
            assert built and len(built) == len(set(built)), (kind, built)
            # every operation of the family streams through its tables
            assert len({key[0] for key in built}) == len(doc.family.ops), kind
    f, g = (precompose_symmetrized(random_operation(rng, flat2, a, 0, density=0.8),
                                   RHO2, MODE_PARTIAL) for a in (3, 2))
    for call in (circle_product, circle_bracket):
        counts = []
        for _ in range(2):
            built.clear()
            call(f, g)
            assert len(built) == len(set(built)), (call, built)
            counts.append(len(built))
        assert counts[0] == counts[1] == (3 if call is circle_product else 4), (call, counts)


def test_insertion_term_count_survives_freed_operations():
    # a stream that makes a fresh operation per insertion and drops it after
    # the count read it, as per-call representative tables can be dropped;
    # CPython hands a freed object's id to the next one of its size, and a
    # histogram kept by id alone was then read for the wrong operation
    sp = GradedSpace(("x", "y"), (0, 0))

    def fresh(k):
        # k output terms at x: the inner histogram differs per operation
        return Operation(sp, 1, 0, {(0,): LinearCombination({0: 1})} if k else {}), \
            Operation(sp, 1, 0, {(x,): LinearCombination({0: 1}) for x in range(k)})

    sizes = (2, 1, 0, 2, 1, 0, 2)

    def stream():
        for k in sizes:
            outer, inner = fresh(k)
            yield outer, inner, 0

    assert insertion_term_count(stream()) == sum(sizes) == sum(
        insertion_term_count([(outer, inner, 0)]) for outer, inner in map(fresh, sizes))


def test_check_expands_no_orbit(monkeypatch, rng):
    # verdicts and witnesses are read off the folded residuals, so a failing
    # check writes no arrangement of any orbit
    sp = GradedSpace(("x", "y", "z"), (-1, 0, 1))
    prelie = AlgebraDocument(random_unhat_family(rng, sp, (1, 2, 3), "partial", 0.8))
    lie = AlgebraDocument(random_unhat_family(rng, sp, (1, 2, 3), "full", 0.8))
    # a skew bracket, n = 2: the arity-5 residual of a skew arity-3 operation
    # on four degree-0 letters vanishes, as no word has five distinct letters
    flat = GradedSpace(("a", "b", "c", "d"), (0, 0, 0, 0))
    mu = precompose_symmetrized(random_operation(rng, flat, 2, 0, 0.8), RHO2, MODE_FULL)
    lie_n = AlgebraDocument(OperationFamily(UNHAT, flat, 2, {2: mu}), ("lie_n", 2))
    calls = Counter()
    real = permutations.arrangements

    def counting(*args):
        calls["arrangements"] += 1
        return real(*args)

    monkeypatch.setattr(permutations, "arrangements", counting)
    for doc, kind in ((prelie, PRELIE), (lie, LIE), (lie_n, LIE)):
        report = run_check(doc, kind)
        assert any(not c.passed and c.witness["inputs"] for c in report.checks), doc
    assert calls == Counter()
    # the count does see an expansion
    assert not residual(prelie.family, EquationFlavor(PRELIE, UNHAT), 3).op.is_zero()
    assert calls["arrangements"] > 0


def _refuse_two_routes(monkeypatch):
    # e * e = e is associative, so pre-Lie; a nonzero mu o mu contradicts it
    mu = Operation(GradedSpace(("e",), (0,)), 2, 0, {(0, 0): {0: 1}})
    monkeypatch.setattr(equations, "circle_product", lambda f, g, check_symmetry: mu)
    check_prelie_n_two_ways(mu)


@pytest.mark.parametrize("refuse, error, message", [
    (lambda mp: EquationFlavor("bogus", HAT), ValueError,
     "kind must be one of ('assoc', 'prelie', 'lie'), got 'bogus'"),
    (lambda mp: EquationFlavor(ASSOC, "bogus"), ValueError,
     "convention must be 'hat' or 'unhat', got 'bogus'"),
    (lambda mp: residual(OperationFamily(UNHAT, GradedSpace(("e",), (0,)), 2),
                         EquationFlavor(ASSOC, UNHAT), 0), ArityError,
     "residual arity must be >= 1"),
    (lambda mp: nary_residual(Operation(GradedSpace(("e",), (0,)), 2, 0, {}), "bogus"),
     ValueError, "kind must be one of ('partially_associative', 'prelie', 'lie'), got 'bogus'"),
    (_refuse_two_routes, LemmaViolationError,
     "pre-Lie residual vanishing (True) disagrees with mu o mu vanishing (False) at arity 2"),
], ids=["flavor-kind", "flavor-convention", "residual-arity", "nary-kind", "two-routes"])
def test_equations_refusals_name_what_they_refuse(monkeypatch, refuse, error, message):
    with pytest.raises(error) as caught:
        refuse(monkeypatch)
    assert type(caught.value) is error and str(caught.value) == message
