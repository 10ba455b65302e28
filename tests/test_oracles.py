"""The orbit symmetrization kernel, the sparse circle product, the
collapsed residuals and the unshuffle coderivation components against the
slow reference implementations in `oracles.py`."""

import itertools
import random

import pytest

from conftest import DEGREE_PATTERNS, pattern_space, random_table, square_component
from oracles import (circle_product_dense, coalgebra_map_by_loop, component_loop,
                     nary_residual_by_positions, precompose_symmetrized_by_loop,
                     residual_by_positions)
from hopla.coalgebra import (PERM, TENSOR, WEDGE, _component, coalgebra_map, coalgebra_words,
                             extend_coderivation, square_cogenerator_component,
                             tensor_words, wedge_normalize)
from hopla.equations import (ASSOC, LIE, PARTIALLY_ASSOCIATIVE, PRELIE, EquationFlavor,
                             circle_product, nary_residual, residual)
from hopla.graded import (HAT, UNHAT, GradedSpace, LinearCombination, Operation,
                          OperationFamily, family_degree)
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE, RHO1, RHO2,
                                action_variant, precompose_symmetrized)
from hopla.verify import random_operation


@pytest.mark.parametrize("pattern", sorted(DEGREE_PATTERNS))
def test_orbit_kernel_matches_loop_oracle(pattern):
    rng = random.Random(f"kernel-{pattern}")
    sp = pattern_space(pattern)
    for arity, op_degree, density in itertools.product((1, 2, 3, 4), (-1, 0, 1),
                                                        (0.0, 0.4, 1.0)):
        op = Operation(sp, arity, op_degree, random_table(rng, sp, arity, density))
        for mode, variant in itertools.product((MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE),
                                               (RHO1, RHO2)):
            fast = precompose_symmetrized(op, variant, mode)
            slow = precompose_symmetrized_by_loop(op, variant, mode)
            assert fast == slow, (pattern, arity, op_degree, density, mode, variant)
            assert fast.degree == op.degree


@pytest.mark.parametrize("pattern", sorted(DEGREE_PATTERNS))
def test_alpha_and_gamma_match_loop_oracle(pattern):
    # every word, sorted or not, with repeated even and repeated odd letters
    sp = pattern_space(pattern)
    for n in range(5):
        for word in tensor_words(sp, n):
            assert coalgebra_map("alpha", sp, word) == coalgebra_map_by_loop("alpha", sp, word)
            if n:
                perm_word = word[:-1], word[-1]
                assert coalgebra_map("gamma", sp, perm_word) \
                    == coalgebra_map_by_loop("gamma", sp, perm_word)


def test_orbit_kernel_rejects_unknown_mode_and_variant(graded2):
    op = Operation(graded2, 2, 0, {(0, 1): LinearCombination({0: 1})})
    with pytest.raises(ValueError):
        precompose_symmetrized(op, "rho3", MODE_FULL)
    with pytest.raises(ValueError):
        precompose_symmetrized(op, RHO1, "cyclic")


def _partially_skew(rng, sp, arity, density=0.6):
    return precompose_symmetrized(random_operation(rng, sp, arity, 0, density),
                                  RHO2, MODE_PARTIAL)


@pytest.mark.parametrize("dim", (2, 3))
def test_sparse_circle_product_matches_dense_oracle(dim):
    rng = random.Random(dim)
    sp = GradedSpace(tuple(f"e{i}" for i in range(dim)), (0,) * dim)
    for f_arity, g_arity in itertools.product((1, 2, 3), repeat=2):
        for _ in range(3):
            f = _partially_skew(rng, sp, f_arity)
            g = _partially_skew(rng, sp, g_arity)
            fast = circle_product(f, g)
            assert fast == circle_product_dense(f, g), (f_arity, g_arity)
            assert fast.degree == 0


def test_prelie_residual_is_circle_square_on_four_letters():
    # Arity 4 is the case that took minutes with whole-group loops.  Its
    # output is skew in 6 slots over 4 letters, so every orbit cancels and
    # both sides vanish; arity 3 leaves 4 skew slots and a nonzero square.
    rng = random.Random(4)
    sp = GradedSpace(("a", "b", "c", "d"), (0, 0, 0, 0))
    for arity in (3, 4):
        mu = _partially_skew(rng, sp, arity, density=0.3)
        square = circle_product(mu, mu)
        assert square.is_zero() == (arity == 4)
        assert nary_residual(mu, PRELIE).op == square


RESIDUAL_PATTERNS = {
    "(0, 1)": (0, 1),
    "(-1, 0, 1)": (-1, 0, 1),
    "two odd letters": (1, 0, 1),
    "(-1, 0, 0, 1)": (-1, 0, 0, 1),
    "two odd letters, dim 4": (1, 2, 0, 1),
}
RESIDUAL_SYMMETRY = {ASSOC: None, PRELIE: MODE_PARTIAL, LIE: MODE_FULL}


def _symmetric_family(rng, sp, convention, kind):
    """Operations at arities 1-4 with the symmetry the kind's residual needs."""
    ops = {}
    for arity in (1, 2, 3, 4):
        op = random_operation(rng, sp, arity, family_degree(convention, arity), 0.5)
        if RESIDUAL_SYMMETRY[kind] is not None:
            op = precompose_symmetrized(op, action_variant(convention), RESIDUAL_SYMMETRY[kind])
        ops[arity] = op
    return OperationFamily(convention, sp, 6, ops)


def test_collapsed_residual_matches_per_position_oracle():
    nonzero = {kind: 0 for kind in RESIDUAL_SYMMETRY}
    for pattern, degrees in RESIDUAL_PATTERNS.items():
        rng = random.Random(f"residual-{pattern}")
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        for convention, kind in itertools.product((HAT, UNHAT), RESIDUAL_SYMMETRY):
            family = _symmetric_family(rng, sp, convention, kind)
            for n in range(1, 7):
                fast = residual(family, EquationFlavor(kind, convention), n).op
                slow = residual_by_positions(family, kind, n)
                assert fast == slow, (pattern, convention, kind, n)
                assert fast.degree == slow.degree
                nonzero[kind] += not fast.is_zero()
    # the comparison must not be vacuous for any kind
    assert min(nonzero.values()) >= 20, nonzero


def test_collapsed_nary_residual_matches_per_position_oracle():
    symmetry = {PARTIALLY_ASSOCIATIVE: None, PRELIE: MODE_PARTIAL, LIE: MODE_FULL}
    nonzero = {kind: 0 for kind in symmetry}
    for dim in (2, 3, 4):
        rng = random.Random(f"nary-{dim}")
        sp = GradedSpace(tuple(f"e{i}" for i in range(dim)), (0,) * dim)
        for n, (kind, mode) in itertools.product((2, 3, 4), symmetry.items()):
            for _ in range(2):
                mu = random_operation(rng, sp, n, 0, density=0.5 if n < 4 else 0.2)
                if mode is not None:
                    mu = precompose_symmetrized(mu, RHO2, mode)
                fast = nary_residual(mu, kind).op
                assert fast == nary_residual_by_positions(mu, kind), (dim, n, kind)
                nonzero[kind] += not fast.is_zero()
    assert min(nonzero.values()) >= 3, nonzero


COALGEBRA_PATTERNS = {
    "(-1, 0)": (-1, 0),
    "(0, 1)": (0, 1),
    "two odd letters": (1, 0, 1),
    "repeated even letter": (0, 0, 1),
    "(-1, 0, 1)": (-1, 0, 1),
    "odd output past an odd letter": (1, 2, 1),
}
SYMMETRY = {TENSOR: None, WEDGE: MODE_FULL, PERM: MODE_PARTIAL}


def _hat_operation(rng, sp, arity, kind, density=0.6):
    """A degree -1 operation with the symmetry the kind's extension needs;
    redrawn a bounded number of times while the symmetrization cancels it."""
    for _ in range(10):
        op = random_operation(rng, sp, arity, -1, density)
        if SYMMETRY[kind] is not None:
            op = precompose_symmetrized(op, RHO1, SYMMETRY[kind])
        if not op.is_zero():
            break
    return op


@pytest.mark.parametrize("pattern", sorted(COALGEBRA_PATTERNS))
@pytest.mark.parametrize("kind", (TENSOR, WEDGE, PERM))
def test_unshuffle_components_match_loop_oracle(kind, pattern):
    rng = random.Random(f"component-{kind}-{pattern}")
    degrees = COALGEBRA_PATTERNS[pattern]
    sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
    cap = 5
    nonzero = 0
    for arity, _ in itertools.product((1, 2, 3, 4), range(2)):
        op = _hat_operation(rng, sp, arity, kind)
        for k in range(arity, cap + 1):
            l = k - arity + 1
            fast = _component(op, kind, k, l)
            assert fast == component_loop(op, kind, k, l), (arity, k, l)
            nonzero += bool(fast)
    assert nonzero >= 12  # the comparison must not be vacuous


def _canonical(kind, sp, word):
    if kind == TENSOR:
        return 1, word
    if kind == WEDGE:
        return wedge_normalize(sp, word)
    s, head = wedge_normalize(sp, word[:-1])
    return s, None if head is None else (head, word[-1])


def _cogenerator_by_tensor_word(D, n):
    """The weight (n -> 1) component of D o D, squaring the canonical word
    of every tensor word again."""
    squares = square_component(D, n, 1)
    table = {}
    for word in tensor_words(D.space, n):
        s, cw = _canonical(D.kind, D.space, word)
        if cw in squares:
            table[word] = LinearCombination(
                (w[1] if D.kind == PERM else w[0], c * s) for w, c in squares[cw])
    return Operation(D.space, n, 2 * D.degree, table)


@pytest.mark.parametrize("kind", (TENSOR, WEDGE, PERM))
def test_one_pass_square_matches_per_tensor_word_route(kind):
    rng = random.Random(f"square-{kind}")
    cap = 4
    # (1, 1, 0) has squares on words with two odd letters, where the wedge
    # and Perm parts carry the sign of the rearrangement
    for degrees in ((-1, 0, 1), (1, 1, 0)):
        sp = GradedSpace(("x0", "x1", "x2"), degrees)
        failing = 0
        for arities in ((1, 2), (2, 3), (1, 2, 3)):
            ops = {a: _hat_operation(rng, sp, a, kind, density=0.4) for a in arities}
            family = OperationFamily(HAT, sp, max(arities), ops)
            D = extend_coderivation(family, kind, cap)
            fresh = extend_coderivation(family, kind, cap)
            for n in range(1, cap + 1):
                comp = square_cogenerator_component(D, n)
                assert comp == _cogenerator_by_tensor_word(fresh, n), (degrees, arities, n)
                failing += not comp.is_zero()
            first = next(((w, fresh.square_word(w)) for k in range(1, cap + 1)
                          for w in coalgebra_words(kind, sp, k)
                          if not fresh.square_word(w).is_zero()), None)
            assert D.first_nonzero_square() == first
        assert failing > 0, degrees  # the comparison must not be vacuous
