"""The orbit symmetrization kernel and the sparse circle product against the
slow reference implementations in `oracles.py`."""

import itertools
import random

import pytest

from oracles import circle_product_dense, precompose_symmetrized_by_loop
from hopla.equations import PRELIE, circle_product, nary_residual
from hopla.graded import GradedSpace, LinearCombination, Operation
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE, RHO1, RHO2,
                                precompose_symmetrized)
from hopla.verify import random_operation

DEGREE_PATTERNS = {
    "all even": (0, 2, 0),
    "all odd": (1, -1, 3),
    "mixed": (0, 1, -1),
    "repeated odd letter": (1,),
    "repeated even letter": (0,),
}


def _random_table(rng, sp, arity, density):
    """Not necessarily homogeneous: the symmetrization does not need it."""
    table = {}
    for word in itertools.product(range(sp.dim), repeat=arity):
        if rng.random() < density:
            table[word] = LinearCombination(
                {rng.randrange(sp.dim): rng.choice((-2, -1, 1, 3)) for _ in range(2)})
    return table


@pytest.mark.parametrize("pattern", sorted(DEGREE_PATTERNS))
def test_orbit_kernel_matches_loop_oracle(pattern):
    rng = random.Random(f"kernel-{pattern}")
    degrees = DEGREE_PATTERNS[pattern]
    sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
    for arity, op_degree, density in itertools.product((1, 2, 3, 4), (-1, 0, 1),
                                                        (0.0, 0.4, 1.0)):
        op = Operation(sp, arity, op_degree, _random_table(rng, sp, arity, density))
        for mode, variant in itertools.product((MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE),
                                               (RHO1, RHO2)):
            fast = precompose_symmetrized(op, variant, mode)
            slow = precompose_symmetrized_by_loop(op, variant, mode)
            assert fast == slow, (pattern, arity, op_degree, density, mode, variant)
            assert fast.degree == op.degree


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
