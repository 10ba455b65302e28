import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DEGREE_PATTERNS, commutator_bracket, identity, koszul_by_inversions,
                      pattern_space, random_table, sh)
from oracles import (act, extend_fixing_last, failing_transposition_by_act, inverse,
                     koszul_sign_by_bubble, permute_word, precompose_by_loop, sign_by_cycles)
from hopla.errors import BlockError, LengthError
from hopla.graded import GradedSpace, LinearCombination, Operation
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE, RHO1, RHO2,
                                all_permutations, arrangement_count, block_representatives,
                                compose, failing_symmetry_generator, fold,
                                koszul_sign, precompose_symmetrized,
                                sign, unshuffles)

perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))))


def test_sign_examples():
    assert sign((1, 2, 3)) == 1
    assert sign((2, 1)) == -1
    assert sign((2, 3, 1)) == 1  # 3-cycle = two transpositions


def test_sign_is_homomorphism_exhaustive():
    for n in range(1, 6):
        for s in all_permutations(n):
            for t in all_permutations(n):
                assert sign(compose(s, t)) == sign(s) * sign(t)


def test_koszul_examples():
    assert koszul_sign((1, 2, 3), [5, -1, 2]) == 1
    assert koszul_sign((2, 1), [1, 1]) == -1
    assert koszul_sign((2, 3, 1), [1, 1, 0]) == -1


def test_koszul_all_even_degrees_is_trivial():
    for s in all_permutations(4):
        assert koszul_sign(s, [0, 2, -2, 4]) == 1


@settings(max_examples=300)
@given(perm_strategy, st.data())
def test_koszul_matches_inversion_pair_oracle(sigma, data):
    degrees = data.draw(st.lists(st.integers(min_value=-3, max_value=4),
                                 min_size=len(sigma), max_size=len(sigma)))
    assert koszul_sign(tuple(sigma), degrees) == koszul_by_inversions(tuple(sigma), degrees)


def test_koszul_length_mismatch():
    with pytest.raises(LengthError):
        koszul_sign((1, 2), [0])


def test_signs_match_the_loop_oracles_on_every_permutation():
    # the sorted-values kernel against the bubble decomposition, the cycle
    # walk and the inversion pairs, on every sigma in S_n for n <= 7 and
    # degree lists with negative, zero, odd and even degrees
    rng = random.Random("signs")
    for n in range(8):
        degree_lists = [[rng.randint(-3, 4) for _ in range(n)] for _ in range(3)]
        degree_lists.append([(-1, 0, 1, 2, -2, 3, 0)[i] for i in range(n)])
        for sigma in all_permutations(n):
            assert sign(sigma) == sign_by_cycles(sigma), sigma
            for degrees in degree_lists:
                eps = koszul_sign(sigma, degrees)
                assert eps == koszul_sign_by_bubble(sigma, degrees), (sigma, degrees)
                assert eps == koszul_by_inversions(sigma, degrees), (sigma, degrees)


@pytest.mark.parametrize("sigma", [(1, 1), (2, 2, 1), (0, 1), (2, 0, 1), (1, 3), (3, 1, 2, 7),
                                   (5, 3), (-1, 1), (2, -1, 1), (-5, 1, 2)])
def test_signs_refuse_a_non_permutation(sigma):
    # a repeated value, a 0, a value above n and a negative value: the sorted
    # values are not 1..n, whether or not a swap reads the value's parity
    with pytest.raises(LengthError, match="not a permutation"):
        sign(sigma)
    for degrees in ([1] * len(sigma), [0] * len(sigma)):
        with pytest.raises(LengthError, match="not a permutation"):
            koszul_sign(sigma, degrees)
    with pytest.raises(LengthError, match="degree list length"):
        koszul_sign(sigma, [1] * (len(sigma) + 1))


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_koszul_composition_law(n, data):
    degrees = data.draw(st.lists(st.integers(min_value=-2, max_value=3),
                                 min_size=n, max_size=n))
    for tau in all_permutations(n):
        permuted = [degrees[t - 1] for t in tau]
        for sigma in all_permutations(n):
            assert (koszul_sign(sigma, permuted)
                    == koszul_sign(compose(tau, sigma), degrees) * koszul_sign(tau, degrees))


def test_unshuffle_examples():
    assert unshuffles((3,)) == [(1, 2, 3)]
    assert len(unshuffles((2, 1))) == 3
    found = unshuffles((2, 1, 1))
    assert len(found) == 12
    for s in found:
        assert s[0] < s[1]
    # deterministic lexicographic order
    assert found == sorted(found)


def test_unshuffles_from_definition():
    # filter all of S_4 by the defining block inequalities
    blocks = (2, 1, 1)
    direct = []
    for s in all_permutations(4):
        if s[0] < s[1]:
            direct.append(s)
    assert sorted(direct) == unshuffles(blocks)


def test_unshuffle_block_errors():
    with pytest.raises(BlockError):
        unshuffles((2, 0))
    with pytest.raises(BlockError):
        unshuffles(())


def test_unshuffle_partition_counting():
    import math
    for n in range(2, 7):
        for i in range(1, n):
            assert len(unshuffles((i, n - i))) * math.factorial(i) * math.factorial(n - i) \
                == math.factorial(n)


def test_sh_tolerates_degenerate_blocks():
    # the test oracle's tolerance, which the oracles' boundary sums rely on
    assert sh(0, 1, 0) == ((1,),)
    assert sh(2, 1, -1) == ()
    assert sh(0, 0) == ((),)


def test_unshuffles_match_the_oracle_on_every_composition():
    # every composition of n <= 7 into positive blocks, against the oracle
    # that chooses each block's values in turn
    for n in range(1, 8):
        for k in range(n):
            for cuts in itertools.combinations(range(1, n), k):
                bounds = (0, *cuts, n)
                blocks = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
                assert unshuffles(blocks) == list(sh(*blocks)), blocks


def test_act_examples(flat2):
    s = (2, 1)
    assert act((1, 2), flat2, (0, 1), RHO1) == (1, (0, 1))
    assert act(s, flat2, (0, 1), RHO1) == (1, (1, 0))
    assert act(s, flat2, (0, 1), RHO2) == (-1, (1, 0))
    odd = GradedSpace(("x", "y"), (1, 1))
    assert act(s, odd, (0, 1), RHO1) == (-1, (1, 0))


def test_act_length_mismatch(flat2):
    with pytest.raises(LengthError):
        act((1, 2, 3), flat2, (0, 1), RHO1)


def test_action_composes_as_right_action(graded2):
    # acting by sigma then tau equals acting by compose(sigma, tau)
    for n in (2, 3, 4):
        for word in itertools.product(range(2), repeat=n):
            for s in all_permutations(n):
                for t in all_permutations(n):
                    for variant in (RHO1, RHO2):
                        c1, w1 = act(s, graded2, word, variant)
                        c2, w2 = act(t, graded2, w1, variant)
                        c, w = act(compose(s, t), graded2, word, variant)
                        assert (c1 * c2, w2) == (c, w)


def test_precompose_mode_trivial_at_arity_one(graded2, rng):
    from hopla.verify import random_operation
    op = random_operation(rng, graded2, 1, -1, density=0.9)
    for mode in (MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE):
        assert precompose_symmetrized(op, RHO1, mode) == op


def test_precompose_full_rho2_is_signed_sum(flat2):
    mu = Operation(flat2, 2, 0, {(0, 1): LinearCombination({0: 1})})
    anti = precompose_symmetrized(mu, RHO2, MODE_FULL)
    # result(x, y) = mu(x, y) - mu(y, x)
    assert anti.evaluate((0, 1)) == LinearCombination({0: 1})
    assert anti.evaluate((1, 0)) == LinearCombination({0: -1})


def test_full_equals_shuffle_after_partial(graded2, rng):
    # the coset decomposition S_n = Sh(n-1,1) * S_{n-1}, term by term
    from hopla.verify import random_operation
    for _ in range(6):
        op = random_operation(rng, graded2, 3, 1, density=0.8)
        both = precompose_symmetrized(precompose_symmetrized(op, RHO1, MODE_PARTIAL),
                                      RHO1, MODE_SHUFFLE)
        assert both == precompose_symmetrized(op, RHO1, MODE_FULL)
    assert len(all_permutations(3)) == len(sh(2, 1)) * len(all_permutations(2))


def test_check_partial_symmetry_b_form(flat2):
    # lambda(x,y,z) = B(x,y) z: invariant under rho2 iff B is antisymmetric
    sym = {}
    anti = {}
    for x, y, z in itertools.product(range(2), repeat=3):
        b_sym = 1 if x == y else 2
        sym[(x, y, z)] = LinearCombination({z: b_sym})
        b_anti = {(0, 1): 1, (1, 0): -1}.get((x, y), 0)
        if b_anti:
            anti[(x, y, z)] = LinearCombination({z: b_anti})
    assert failing_symmetry_generator(Operation(flat2, 3, 0, sym), RHO2, full=False) is not None
    assert failing_symmetry_generator(Operation(flat2, 3, 0, anti), RHO2, full=False) is None


def test_check_partial_symmetry_det_form(flat2):
    # w(x,y,z) = det(x,y) z on a 2-dim space
    table = {}
    for x, y, z in itertools.product(range(2), repeat=3):
        det = {(0, 1): 1, (1, 0): -1}.get((x, y), 0)
        if det:
            table[(x, y, z)] = LinearCombination({z: det})
    assert failing_symmetry_generator(Operation(flat2, 3, 0, table), RHO2, full=False) is None


def test_check_full_symmetry_examples(flat2, kt2, corner):
    sp, mu = corner
    bracket = commutator_bracket(sp, mu)
    assert failing_symmetry_generator(bracket, RHO2, full=True) is None
    spk, muk = kt2
    assert failing_symmetry_generator(muk, RHO2, full=True) is not None
    assert failing_symmetry_generator(Operation(flat2, 1, 0, {}), RHO2, full=True) is None


def test_arity_one_and_two_partial_symmetry_vacuous(flat2):
    op1 = Operation(flat2, 1, 0, {(0,): LinearCombination({1: 1})})
    op2 = Operation(flat2, 2, 0, {(0, 1): LinearCombination({1: 1})})
    assert failing_symmetry_generator(op1, RHO2, full=False) is None
    assert failing_symmetry_generator(op2, RHO2, full=False) is None


def test_generator_check_equals_exhaustive():
    # adjacent transpositions decide the same as quantifying over all of
    # S_n or S_{n-1}, n <= 4, and the first failing one is the one a walk
    # with whole permutations finds
    for pattern, variant, full in itertools.product(sorted(DEGREE_PATTERNS), (RHO1, RHO2),
                                                    (False, True)):
        rng = random.Random(f"generators-{pattern}-{variant}-{full}")
        sp = pattern_space(pattern)
        for n in (1, 2, 3, 4):
            group = (all_permutations(n) if full
                     else [extend_fixing_last(s, n) for s in all_permutations(n - 1)])
            for op in symmetry_cases(rng, sp, n, variant):
                found = failing_symmetry_generator(op, variant, full)
                assert found == failing_transposition_by_act(op, variant, full)
                exhaustive = all(precompose_by_loop(op, [s], variant) == op for s in group)
                assert (found is None) == exhaustive, (pattern, variant, full, n)


def symmetry_cases(rng, sp, n, variant):
    """Random operations without symmetry, symmetric in the first two slots
    only, with full or partial symmetry under either action, with full
    symmetry broken at one word, with one word of a transposed pair removed
    (once the word whose swapped letters are in order, once its partner),
    and with a word whose first two letters repeat one that the swap acts
    on by -1."""
    raw = Operation(sp, n, 0, random_table(rng, sp, n, 0.5))
    yield raw
    if n >= 2:
        yield precompose_by_loop(raw, [identity(n), (2, 1) + identity(n)[2:]], variant)
    for v, mode in itertools.product((RHO1, RHO2), (MODE_FULL, MODE_PARTIAL)):
        yield precompose_symmetrized(raw, v, mode)
    symmetric = precompose_symmetrized(raw, variant, MODE_FULL)
    word = tuple(rng.randrange(sp.dim) for _ in range(n))
    table = dict(symmetric.table)
    table[word] = symmetric.evaluate(word) + LinearCombination({0: 1})
    yield Operation(sp, n, 0, table)
    # the first transposition sees a stored word without its stored partner
    ordered = [word for word in symmetric.table if n >= 2 and word[0] < word[1]]
    if ordered:
        word = rng.choice(ordered)
        for removed in (word, (word[1], word[0]) + word[2:]):
            yield Operation(sp, n, 0, {w: combo for w, combo in symmetric.table.items()
                                       if w != removed})
    killing = [x for x, odd in enumerate(sp.parities) if odd != (variant == RHO2)]
    if n >= 2 and killing:
        x = rng.choice(killing)
        word = (x, x) + tuple(rng.randrange(sp.dim) for _ in range(n - 2))
        table = dict(symmetric.table)
        table[word] = LinearCombination({0: 1})
        yield Operation(sp, n, 0, table)


def test_arrangement_count_bounds_what_the_kernel_writes():
    # the entries of every orbit a stored word meets, each orbit once, none
    # when its stabilizer acts by -1: exact unless an orbit's sum cancels
    rng = random.Random("arrangement-count")
    killed = orbits = 0
    for pattern in sorted(DEGREE_PATTERNS):
        sp = pattern_space(pattern)
        for arity, variant, mode in itertools.product((1, 2, 3, 4), (RHO1, RHO2),
                                                      (MODE_FULL, MODE_PARTIAL)):
            op = Operation(sp, arity, 0, random_table(rng, sp, arity, 0.6))
            written = len(precompose_symmetrized(op, variant, mode).table)
            assert arrangement_count(op, variant, mode) >= written
            for word, combo in op.table.items():
                single = Operation(sp, arity, 0, {word: combo})
                count = arrangement_count(single, variant, mode)
                assert count == len(precompose_symmetrized(single, variant, mode).table), \
                    (pattern, word, variant, mode)
                killed += count == 0
                # the whole orbit stored, each word with the same value
                whole = precompose_symmetrized(single, variant, mode)
                if len(whole.table) > 1:
                    orbits += 1
                    same = Operation(sp, arity, 0, dict.fromkeys(whole.table, combo))
                    assert arrangement_count(same, variant, mode) == count
    assert killed >= 20 and orbits >= 20, (killed, orbits)


@pytest.mark.parametrize("pattern", sorted(DEGREE_PATTERNS))
def test_block_representatives_weigh_each_sorted_block_by_its_arrangements(pattern):
    # the entries whose block is sorted, each times the number of distinct
    # arrangements of its block; the other slots are left as they are
    rng = random.Random(f"block-{pattern}")
    sp = pattern_space(pattern)
    kept = 0
    for arity, (lo, hi) in itertools.product(
            (2, 3, 4), ((0, 2), (1, 3), (0, 3), (0, 4), (1, 4))):
        if hi > arity:
            continue
        op = Operation(sp, arity, 0, random_table(rng, sp, arity, 0.7))
        reps = block_representatives(op, lo, hi)
        assert (reps.arity, reps.degree, reps.space) == (op.arity, op.degree, op.space)
        assert reps.table == {
            word: combo.scaled(len(set(itertools.permutations(word[lo:hi]))))
            for word, combo in op.table.items() if list(word[lo:hi]) == sorted(word[lo:hi])}
        kept += len(reps.table)
    assert kept >= 5
    # a block of at most one slot is the operation itself
    op = Operation(sp, 2, 0, random_table(rng, sp, 2, 0.7))
    assert all(block_representatives(op, lo, hi) is op for lo, hi in ((0, 1), (1, 2), (1, 1)))


def test_rho2_equals_signed_permutation_on_even_degrees():
    sp = GradedSpace(("p", "q"), (2, 0))
    for s in all_permutations(3):
        for word in itertools.product(range(2), repeat=3):
            coeff, moved = act(s, sp, word, RHO2)
            assert coeff == sign(s)
            assert moved == permute_word(s, word)


def test_inverse_and_identity():
    for s in all_permutations(4):
        assert compose(s, inverse(s)) == identity(4)
        assert compose(inverse(s), s) == identity(4)


def _fold_with(variant):
    return fold(GradedSpace(("a",), (0,)), 2, 0, iter(()), 1, variant, MODE_FULL)


@pytest.mark.parametrize("refuse, error, message", [
    (lambda: compose((1, 2), (1,)), LengthError,
     "cannot compose permutations of different lengths"),
    (lambda: _fold_with("rho3"), ValueError, "unknown action variant 'rho3'"),
    (lambda: failing_symmetry_generator(
        Operation(GradedSpace(("a",), (0,)), 2, 0, {}), "rho3", False), ValueError,
     "unknown action variant 'rho3'"),
], ids=["compose-lengths", "fold-variant", "symmetry-variant"])
def test_permutation_refusals_name_what_they_refuse(refuse, error, message):
    with pytest.raises(error) as caught:
        refuse()
    assert type(caught.value) is error and str(caught.value) == message
