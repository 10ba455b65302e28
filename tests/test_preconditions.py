"""The SymmetryError payload at every symmetry-precondition site, and the
circle calculus's other refusals.

Each case builds inputs whose first failing transposition is (2, 3), and
families whose first failing arity is neither the first nor the last
failing one; the error must name exactly what `failing_symmetry_generator`
finds, walking the arities in increasing order.
"""

import random

import pytest

from oracles import act
from hopla.coalgebra import PERM, WEDGE, extend_coderivation
from hopla.docio import AlgebraDocument
from hopla.drivers import run_check, run_derive
from hopla.equations import (LIE, PRELIE, EquationFlavor, check_prelie_n_two_ways,
                             circle_bracket, circle_product, nary_residual, residual)
from hopla.errors import ArityError, GradingError, SymmetryError
from hopla.graded import HAT, UNHAT, GradedSpace, Operation, OperationFamily, linear_sum
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, RHO1, RHO2, action_variant,
                                failing_symmetry_generator, precompose_symmetrized)
from hopla.verify import random_operation

# degree -1 (hat) and n-2 (unhat) operations both reach outputs on these
SPACES = {HAT: GradedSpace(("u", "v"), (0, 1)), UNHAT: GradedSpace(("u", "v"), (-1, 0))}
FLAT = GradedSpace(("a", "b"), (0, 0))


def first_pair_symmetric(op, variant):
    """op + op o rho_(1 2): invariant under the first transposition only."""
    tau = (2, 1) + tuple(range(3, op.arity + 1))
    moved = {}
    for word, combo in op.table.items():
        coeff, target = act(tau, op.space, word, variant)
        moved[target] = combo.scaled(coeff)
    swapped = Operation(op.space, op.arity, op.degree, moved)
    return linear_sum(op.space, op.arity, op.degree, [(op, 1), (swapped, 1)])


def op(rng, sp, arity, degree, variant, symmetry):
    """A random operation that is partially symmetric, fully symmetric,
    symmetric in its first two slots only, or not symmetric at all."""
    raw = random_operation(rng, sp, arity, degree, density=0.7)
    if symmetry == "full":
        return precompose_symmetrized(raw, variant, MODE_FULL)
    if symmetry == "partial":
        return precompose_symmetrized(raw, variant, MODE_PARTIAL)
    if symmetry == "pair":
        return first_pair_symmetric(raw, variant)
    return raw


def degree(convention, n):
    return -1 if convention == HAT else n - 2


def family(rng, convention, symmetries):
    variant = action_variant(convention)
    sp = SPACES[convention]
    ops = {n: op(rng, sp, n, degree(convention, n), variant, s) for n, s in symmetries.items()}
    return OperationFamily(convention, sp, max(ops), ops)


# Each case returns (call that must raise, {arity: op} it checks, variant, full).
def residual_prelie(rng):
    fam = family(rng, UNHAT, {2: None, 3: "partial", 4: "pair", 5: None})
    return lambda: residual(fam, EquationFlavor(PRELIE, UNHAT), 4), fam.ops, RHO2, False


def residual_lie(rng):
    fam = family(rng, HAT, {1: None, 2: "full", 3: "partial", 4: None})
    return lambda: residual(fam, EquationFlavor(LIE, HAT), 3), fam.ops, RHO1, True


def nary_prelie(rng):
    mu = op(rng, FLAT, 4, 0, RHO2, "pair")
    return lambda: nary_residual(mu, PRELIE), {4: mu}, RHO2, False


def nary_lie(rng):
    mu = op(rng, FLAT, 3, 0, RHO2, "partial")
    return lambda: nary_residual(mu, LIE), {3: mu}, RHO2, True


def circle_left(rng):
    f, g = op(rng, FLAT, 4, 0, RHO2, "pair"), op(rng, FLAT, 3, 0, RHO2, "partial")
    return lambda: circle_product(f, g), {4: f}, RHO2, False


def circle_right(rng):
    f, g = op(rng, FLAT, 3, 0, RHO2, "partial"), op(rng, FLAT, 4, 0, RHO2, "pair")
    return lambda: circle_product(f, g), {4: g}, RHO2, False


def bracket_left(rng):
    f, g = op(rng, FLAT, 4, 0, RHO2, "pair"), op(rng, FLAT, 3, 0, RHO2, "partial")
    return lambda: circle_bracket(f, g), {4: f}, RHO2, False


def bracket_right(rng):
    f, g = op(rng, FLAT, 3, 0, RHO2, "partial"), op(rng, FLAT, 4, 0, RHO2, "pair")
    return lambda: circle_bracket(f, g), {4: g}, RHO2, False


def prelie_two_ways(rng):
    mu = op(rng, FLAT, 4, 0, RHO2, "pair")
    return lambda: check_prelie_n_two_ways(mu), {4: mu}, RHO2, False


def extend_perm(rng):
    fam = family(rng, HAT, {2: None, 3: "partial", 4: "pair", 5: None})
    return lambda: extend_coderivation(fam, PERM, 2), fam.ops, RHO1, False


def extend_wedge(rng):
    fam = family(rng, HAT, {1: None, 2: "full", 3: "partial", 4: None})
    return lambda: extend_coderivation(fam, WEDGE, 2), fam.ops, RHO1, True


def nary_commutator(rng):
    p = op(rng, FLAT, 4, 0, RHO2, "pair")
    filed = Operation(FLAT, 4, degree(UNHAT, 4), p.table)
    doc = AlgebraDocument(OperationFamily(UNHAT, FLAT, 4, {4: filed}), ("prelie_n", 4))
    return lambda: run_derive(doc, "nary-commutator-lie"), {4: p}, RHO2, False


def derive_commutator_beta(rng):
    fam = family(rng, UNHAT, {2: None, 3: "partial", 4: "pair", 5: None})
    doc = AlgebraDocument(fam)
    return lambda: run_derive(doc, "commutator-beta"), fam.ops, RHO2, False


# `check --no-precondition-check` prints no symmetry lines but still refuses
def check_prelie_bypass(rng):
    fam = family(rng, UNHAT, {2: None, 3: "partial", 4: "pair", 5: None})
    doc = AlgebraDocument(fam)
    return lambda: run_check(doc, PRELIE, check_preconditions=False), fam.ops, RHO2, False


def check_lie_bypass(rng):
    fam = family(rng, HAT, {1: None, 2: "full", 3: "partial", 4: None})
    doc = AlgebraDocument(fam)
    return lambda: run_check(doc, LIE, check_preconditions=False), fam.ops, RHO1, True


def check_nary_prelie_bypass(rng):
    mu = op(rng, FLAT, 4, 0, RHO2, "pair")
    filed = Operation(FLAT, 4, degree(UNHAT, 4), mu.table)
    doc = AlgebraDocument(OperationFamily(UNHAT, FLAT, 4, {4: filed}), ("prelie_n", 4))
    return lambda: run_check(doc, PRELIE, check_preconditions=False), {4: mu}, RHO2, False


@pytest.mark.parametrize("case", [
    residual_prelie, residual_lie, nary_prelie, nary_lie, circle_left, circle_right,
    bracket_left, bracket_right, prelie_two_ways, extend_perm, extend_wedge, nary_commutator,
    derive_commutator_beta, check_prelie_bypass, check_lie_bypass, check_nary_prelie_bypass,
], ids=lambda case: case.__name__)
def test_symmetry_error_payload(case):
    call, ops, variant, full = case(random.Random(7))
    failures = [(n, failing_symmetry_generator(ops[n], variant, full)) for n in sorted(ops)]
    failures = [f for f in failures if f[1] is not None]
    assert failures, "the case must violate the precondition"
    expected = failures[0]
    # built so that a wrong transposition, arity or walk order shows
    assert expected[1] == (2, 3)
    if len(ops) > 1:
        assert expected[0] != min(ops) and len(failures) > 1
    with pytest.raises(SymmetryError) as err:
        call()
    assert (err.value.arity, err.value.transposition) == expected


@pytest.mark.parametrize("call", [circle_product, circle_bracket], ids=lambda f: f.__name__)
def test_circle_calculus_refuses_factors_on_different_spaces(call):
    rng = random.Random(11)
    f = op(rng, FLAT, 2, 0, RHO2, "partial")
    g = op(rng, GradedSpace(("a", "b", "c"), (0, 0, 0)), 2, 0, RHO2, "partial")
    for left, right in ((f, g), (g, f)):
        with pytest.raises(ArityError, match="common space"):
            call(left, right)
        with pytest.raises(ArityError, match="common space"):
            call(left, right, check_symmetry=False)


@pytest.mark.parametrize("call", [circle_product, circle_bracket], ids=lambda f: f.__name__)
def test_circle_calculus_refuses_a_graded_space(call):
    # the grading is refused before the symmetry: a non-skew factor on a
    # graded space raises GradingError whether or not symmetry is checked
    rng = random.Random(12)
    sp = GradedSpace(("u", "v"), (0, 1))
    f, g = op(rng, sp, 2, 0, RHO2, "partial"), op(rng, sp, 4, 0, RHO2, None)
    assert failing_symmetry_generator(g, RHO2, False) is not None
    for check_symmetry in (True, False):
        with pytest.raises(GradingError, match="degree 0"):
            call(f, g, check_symmetry)
