"""The orbit symmetrization kernel, on operations and on term streams, the
sparse circle product and bracket, the collapsed residuals, the unshuffle
coderivation components, the coderivation law's weight-1 check and the
integer-numerator coderivation against the slow reference implementations
in `oracles.py`."""

import collections
import functools
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DEGREE_PATTERNS, RATIONAL_COEFFICIENTS, apply_word, flat_component,
                      flat_word, pattern_space, random_table, square_component, truncated,
                      with_entry)
from oracles import (block_representatives_by_fractions, check_coderivation_by_fractions,
                     circle_bracket_by_insertions, circle_bracket_by_products,
                     circle_product_by_insertions, circle_product_dense, coalgebra_map_by_loop,
                     coderivation_law_by_coproducts, component_by_fractions, component_loop,
                     compose_insert_by_evaluation, coproduct_terms_by_pairs,
                     denominator_by_fractions, expand_unreduced, first_nonzero_square,
                     fold_by_words, fold_insertions,
                     nary_residual_by_positions, numerators_by_fractions, pair_words,
                     precompose_symmetrized_by_loop, residual_by_insertions,
                     residual_by_positions, residual_by_relation,
                     square_cogenerator_by_fractions)
from hopla.coalgebra import (PERM, TENSOR, WEDGE, Coderivation, _components, check_coderivation,
                             coalgebra_map, coalgebra_words, coproduct_terms, extend_coderivation,
                             square_cogenerator_component, wedge_normalize)
from hopla.equations import (ASSOC, LIE, PARTIALLY_ASSOCIATIVE, PRELIE, EquationFlavor,
                             _circle_insertions, circle_bracket, circle_product, nary_family,
                             nary_residual, residual, residual_insertions)
from hopla.graded import (HAT, UNHAT, GradedSpace, LinearCombination, Operation,
                          OperationFamily, compose_insert, family_degree, insertion_terms, over)
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE, RHO1, RHO2, acted_count,
                                action_variant, block_representatives, expand, fold,
                                killing_letters, precompose_symmetrized, stabilizer_order)
from hopla import equations, permutations
from hopla.docio import AlgebraDocument
from hopla.drivers import _residual_witness, run_coderive
from hopla.errors import ArityError
from hopla.functors import nary_embed, suspend_family, suspend_operation
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


LARGE = 10007 * 10009   # the large coprime pair in RATIONAL_COEFFICIENTS


@pytest.mark.parametrize("pattern", sorted(DEGREE_PATTERNS))
def test_orbit_kernel_matches_loop_oracle_on_rational_tables(pattern):
    # the kernel sums integer numerators over the table's common denominator
    rng = random.Random(f"rational-kernel-{pattern}")
    sp = pattern_space(pattern)
    rational = large = 0
    for arity, op_degree, density in itertools.product((1, 2, 3, 4), (-1, 0, 1), (0.4, 1.0)):
        op = Operation(sp, arity, op_degree,
                       random_table(rng, sp, arity, density, RATIONAL_COEFFICIENTS))
        rational += denominator_by_fractions(op) > 1
        large += denominator_by_fractions(op) % LARGE == 0
        for mode, variant in itertools.product((MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE),
                                               (RHO1, RHO2)):
            assert precompose_symmetrized(op, variant, mode) \
                == precompose_symmetrized_by_loop(op, variant, mode), \
                (pattern, arity, op_degree, density, mode, variant)
    # a one-letter table has one coefficient per arity, so only one of the
    # two large denominators
    assert rational >= 12 and (large >= 3 or sp.dim == 1), (rational, large)


def _term_stream(rng, sp, arity, table, den):
    """(word, output letter, integer numerator) terms over den that sum to
    table.  Each coefficient is split in three: two terms in one early run
    and one in a late run that comes in reverse order, so a word's terms
    arrive in runs that are not consecutive.  Words absent from the table
    get a term early and its negation late, so they cancel to zero.
    Returns the terms and the number of cancelling words."""
    early, late = [], []
    for word, combo in table.items():
        for letter, c in combo:
            total = c * den
            assert total.denominator == 1
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            early += [(word, letter, a), (word, letter, b)]
            late.append((word, letter, total.numerator - a - b))
    absent = [w for w in itertools.product(range(sp.dim), repeat=arity) if w not in table]
    cancelling = rng.sample(absent, min(3, len(absent)))
    for word in cancelling:
        k, letter = rng.randint(1, 5), rng.randrange(sp.dim)
        early.append((word, letter, k))
        late.append((word, letter, -k))
    return early + late[::-1], len(cancelling)


@pytest.mark.parametrize("pattern", sorted(DEGREE_PATTERNS))
def test_stream_kernel_matches_loop_oracle_on_the_summed_table(pattern):
    # the full and partial kernel, expand of fold, takes the terms in any
    # order over a common denominator that need not be the table's own, as
    # the residuals stream them; the shuffle mode runs on the summed table
    rng = random.Random(f"stream-kernel-{pattern}")
    sp = pattern_space(pattern)
    split = cancelled = nonzero = 0
    for arity, density in itertools.product((1, 2, 3, 4), (0.4, 0.8)):
        table = random_table(rng, sp, arity, density, RATIONAL_COEFFICIENTS)
        op = Operation(sp, arity, 0, table)
        den = 2 * denominator_by_fractions(op)
        terms, cancelling = _term_stream(rng, sp, arity, op.table, den)
        split += len(op.table) > 1
        cancelled += cancelling
        for mode, variant in itertools.product((MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE),
                                               (RHO1, RHO2)):
            if mode == MODE_SHUFFLE:
                fast = precompose_symmetrized(op, variant, mode)
            else:
                # the fold holds each orbit's value at its representative
                folded = fold(sp, arity, 0, iter(terms), den, variant, mode)
                fast = expand(folded)
                for rep, numerators in folded.table.items():
                    assert over(numerators, folded.denominator) == folded.op.evaluate(rep), \
                        (pattern, arity, density, mode, variant, rep)
            assert fast == precompose_symmetrized_by_loop(op, variant, mode), \
                (pattern, arity, density, mode, variant)
            assert fast.degree == 0
            nonzero += not fast.is_zero()
    # a one-letter space has one word per arity: nothing to interleave or cancel
    assert nonzero >= 12, nonzero
    assert sp.dim == 1 or split >= 4 and cancelled >= 12, (split, cancelled)


# a space per action with no letter that kills an orbit when repeated
# (even letters under rho1, odd under rho2) and one with both kinds
FOLD_SPACES = {(RHO1, False): (0, 2, 0), (RHO2, False): (1, -1, 3),
               (RHO1, True): (0, 1, -1), (RHO2, True): (0, 1, -1)}


@st.composite
def head_streams(draw, variant, killing):
    """A fold's arguments: (word, output letter, numerator) terms whose
    words share a few acted heads, some of them rearrangements of one
    another, with varied tails in the partial mode, over a denominator."""
    degrees = FOLD_SPACES[variant, killing]
    sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
    mode = draw(st.sampled_from((MODE_FULL, MODE_PARTIAL)))
    arity = draw(st.integers(1, 4))
    acted = acted_count(mode, arity)
    letters = st.integers(0, sp.dim - 1)
    bases = draw(st.lists(st.lists(letters, min_size=acted, max_size=acted),
                          min_size=1, max_size=2))
    heads = [tuple(head) for base in bases
             for head in draw(st.lists(st.permutations(base), min_size=1, max_size=3))]
    tails = draw(st.lists(st.tuples(*[letters] * (arity - acted)), min_size=1, max_size=3))
    terms = draw(st.lists(st.tuples(st.sampled_from(heads), st.sampled_from(tails), letters,
                                    st.integers(-3, 3)), min_size=1, max_size=24))
    terms = [(head + tail, out, c) for head, tail, out, c in terms]
    return sp, arity, terms, draw(st.sampled_from((1, 6))), mode


def _ordered(table):
    """A table's entries with the order of its words and of their letters."""
    return [(word, list(sums.items())) for word, sums in table.items()]


@pytest.mark.parametrize("variant", (RHO1, RHO2))
@pytest.mark.parametrize("killing", (False, True))
@settings(max_examples=60)
@given(st.data())
def test_fold_per_head_matches_the_per_word_fold(variant, killing, data):
    # the move memoized per acted head gives the table of the move
    # memoized per word, in the same order, over the same denominator
    sp, arity, terms, den, mode = data.draw(head_streams(variant, killing))
    fast = fold(sp, arity, 0, iter(terms), den, variant, mode)
    slow = fold_by_words(sp, arity, 0, iter(terms), den, variant, mode)
    assert _ordered(fast.table) == _ordered(slow.table)
    assert (fast.denominator, fast.acted) == (slow.denominator, slow.acted)


def test_fold_sorts_each_distinct_acted_head_once(monkeypatch):
    # one signed_sort per distinct acted head per fold call, however many
    # words, tails and runs share it
    sorted_heads = []
    real_sort = permutations.signed_sort

    def counting_sort(letters, odd, rho2):
        sorted_heads.append(tuple(letters))
        return real_sort(letters, odd, rho2)

    monkeypatch.setattr(permutations, "signed_sort", counting_sort)
    rng = random.Random("fold-sorts")
    shared = 0
    for (variant, killing), mode, arity in itertools.product(
            FOLD_SPACES, (MODE_FULL, MODE_PARTIAL), (2, 3, 4)):
        sp = GradedSpace(("x0", "x1", "x2"), FOLD_SPACES[variant, killing])
        acted = acted_count(mode, arity)
        words = [tuple(rng.randrange(3) for _ in range(arity)) for _ in range(12)]
        words += [word[:acted] + tuple(rng.randrange(3) for _ in word[acted:])
                  for word in words]
        terms = [(word, rng.randrange(3), rng.choice((-2, 1, 3)))
                 for word in rng.sample(words, len(words)) for _ in range(2)]
        sorted_heads.clear()
        fold(sp, arity, 0, iter(terms), 1, variant, mode)
        heads = [word[:acted] for word, _, _ in terms]
        assert sorted_heads == list(dict.fromkeys(heads)), (variant, killing, mode, arity)
        shared += len(set(heads)) < len({word for word, _, _ in terms})
    assert shared >= 10, shared


def test_expand_reduces_on_the_representatives():
    # expand divides the representatives' numerators and the denominator
    # by their gcd before writing the arrangements: the operation of the
    # unreduced expansion reduced whole, entry for entry and in order, and
    # one value dict per orbit and sign
    rng = random.Random("expand-gcd")
    reduced = 0
    for pattern, variant, mode, arity in itertools.product(
            sorted(DEGREE_PATTERNS), (RHO1, RHO2), (MODE_FULL, MODE_PARTIAL), (1, 2, 3, 4)):
        sp = pattern_space(pattern)
        for g, den in ((2, 4), (3, 6), (6, 12), (5, 7)):
            terms = [(tuple(rng.randrange(sp.dim) for _ in range(arity)), rng.randrange(sp.dim),
                      g * rng.choice((-2, -1, 1, 3))) for _ in range(10)]
            folded = fold(sp, arity, 0, iter(terms), den, variant, mode)
            fast, slow = expand(folded), expand_unreduced(folded)
            assert _ordered(fast.numerators) == _ordered(slow.numerators), (pattern, mode, g)
            assert fast.denominator == slow.denominator
            reduced += fast.denominator < den
            assert len({id(sums) for sums in fast.numerators.values()}) <= 2 * len(folded.table)
    assert reduced >= 100, reduced


def test_compose_insert_matches_fraction_definition():
    rng = random.Random("compose-insert")
    nonzero = large = 0
    for degrees, coefficients in itertools.product(((0, 1), (1, 1, 0), (-1, 0, 1)),
                                                   ((-2, -1, 1, 3), RATIONAL_COEFFICIENTS)):
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        for (a, b), (da, db) in itertools.product(itertools.product((1, 2, 3), repeat=2),
                                                  ((0, 1), (1, 1), (-1, 0))):
            outer = Operation(sp, a, da, random_table(rng, sp, a, 0.6, coefficients))
            inner = Operation(sp, b, db, random_table(rng, sp, b, 0.6, coefficients))
            large += denominator_by_fractions(outer) * denominator_by_fractions(inner) % LARGE == 0
            for position in range(a):
                fast = compose_insert(outer, inner, position)
                assert fast == compose_insert_by_evaluation(outer, inner, position), \
                    (degrees, a, b, da, db, position)
                assert fast.degree == da + db
                nonzero += not fast.is_zero()
    assert nonzero >= 100 and large >= 10, (nonzero, large)


@pytest.mark.parametrize("pattern", sorted(DEGREE_PATTERNS))
def test_alpha_and_gamma_match_loop_oracle(pattern):
    # every word, sorted or not, with repeated even and repeated odd letters
    sp = pattern_space(pattern)
    for n in range(5):
        for word in itertools.product(range(sp.dim), repeat=n):
            assert coalgebra_map("alpha", sp, word) == coalgebra_map_by_loop("alpha", sp, word)
            assert coalgebra_map("beta", sp, word) \
                == flat_component(coalgebra_map_by_loop("beta", sp, word))
            if n:
                assert coalgebra_map("gamma", sp, word) \
                    == coalgebra_map_by_loop("gamma", sp, (word[:-1], word[-1]))


def test_orbit_kernel_rejects_unknown_mode_and_variant(graded2):
    op = Operation(graded2, 2, 0, {(0, 1): LinearCombination({0: 1})})
    with pytest.raises(ValueError):
        precompose_symmetrized(op, "rho3", MODE_FULL)
    with pytest.raises(ValueError):
        precompose_symmetrized(op, RHO1, "cyclic")


def _partially_skew(rng, sp, arity, density=0.6, **draw):
    return precompose_symmetrized(random_operation(rng, sp, arity, 0, density, **draw),
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


@pytest.mark.parametrize("dim", (2, 3))
def test_sparse_circle_product_matches_dense_oracle_on_rational_coefficients(dim):
    rng = random.Random(f"rational-circle-{dim}")
    sp = GradedSpace(tuple(f"e{i}" for i in range(dim)), (0,) * dim)
    nonzero = 0
    for f_arity, g_arity in itertools.product((1, 2, 3), repeat=2):
        for _ in range(2):
            f = _partially_skew(rng, sp, f_arity, coefficients=RATIONAL_COEFFICIENTS)
            g = _partially_skew(rng, sp, g_arity, coefficients=RATIONAL_COEFFICIENTS)
            fast = circle_product(f, g)
            assert fast == circle_product_dense(f, g), (f_arity, g_arity)
            nonzero += not fast.is_zero()
    assert nonzero >= 6


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("coefficients", ("integer", "rational"))
def test_one_fold_circle_bracket_matches_product_and_dense_oracles(dim, coefficients):
    # f and g carry different denominators (1/11 and 1/13 on top of what they
    # draw), so the bracket's common denominator is neither factor's own
    rng = random.Random(f"circle-bracket-{dim}-{coefficients}")
    sp = GradedSpace(tuple(f"e{i}" for i in range(dim)), (0,) * dim)
    draw = {"coefficients": RATIONAL_COEFFICIENTS} if coefficients == "rational" else {}
    nonzero = cancelled = 0
    for f_arity, g_arity, _ in itertools.product((1, 2, 3), (1, 2, 3), range(2)):
        f = _partially_skew(rng, sp, f_arity, **draw).scaled(Fraction(1, 11))
        g = _partially_skew(rng, sp, g_arity, **draw).scaled(Fraction(1, 13))
        if not (f.is_zero() or g.is_zero()):
            assert f.denominator != g.denominator, (f_arity, g_arity)
        bracket = circle_bracket(f, g)
        assert bracket == circle_bracket_by_products(f, g), (f_arity, g_arity)
        assert bracket == circle_bracket_by_products(f, g, circle_product_dense), (f_arity, g_arity)
        assert bracket.degree == 0
        nonzero += not bracket.is_zero()
        # mn even: g o g - g o g cancels on every orbit
        if (g_arity - 1) % 2 == 0:
            square = circle_bracket(g, g)
            assert square.is_zero() and square.degree == 0
            assert circle_bracket_by_products(g, g).is_zero()
            cancelled += not circle_product(g, g).is_zero()
    assert nonzero >= 6 and cancelled >= 1


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


def _symmetric_family(rng, sp, convention, kind, **draw):
    """Operations at arities 1-4 with the symmetry the kind's residual needs."""
    ops = {}
    for arity in (1, 2, 3, 4):
        op = random_operation(rng, sp, arity, family_degree(convention, arity), 0.5, **draw)
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


@pytest.mark.parametrize("kind", [ASSOC, PRELIE])
def test_residual_matches_the_relation_as_written(kind):
    # the A∞ and PL∞ relations term by term, with no coefficient shared with
    # equations, on families with operations at arities 1, 2 and 3: the
    # arity-3 residual sums the pairs (1, 3), (2, 2) and (3, 1) at once
    rng = random.Random(f"relation-{kind}")
    nonzero, meeting = collections.Counter(), 0
    for pattern, convention, _ in itertools.product(
            ("(0, 1)", "(-1, 0, 1)", "two odd letters"), (HAT, UNHAT), range(3)):
        degrees = RESIDUAL_PATTERNS[pattern]
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        ops = {}
        for arity in (1, 2, 3):
            op = random_operation(rng, sp, arity, family_degree(convention, arity), 0.5)
            if kind == PRELIE:
                op = precompose_symmetrized(op, action_variant(convention), MODE_PARTIAL)
            ops[arity] = op
        family = OperationFamily(convention, sp, 5, ops)
        meeting += len(family.ops) == 3
        for n in range(1, 6):
            fast = residual(family, EquationFlavor(kind, convention), n).op
            assert fast == residual_by_relation(family, kind, n), (pattern, convention, n)
            nonzero[convention, n == 3] += not fast.is_zero()
    assert meeting >= 8 and min(nonzero.values()) >= 5, (meeting, nonzero)


def test_collapsed_residual_matches_per_position_oracle_on_rational_families():
    # coefficients with denominators 2, 3, 4, 6, 10007 and 10009 on top of
    # the factorial denominators of the pre-Lie and Lie coefficients
    nonzero = {kind: 0 for kind in RESIDUAL_SYMMETRY}
    large = 0
    for pattern in ("(0, 1)", "(-1, 0, 1)", "two odd letters"):
        rng = random.Random(f"rational-residual-{pattern}")
        degrees = RESIDUAL_PATTERNS[pattern]
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        for convention, kind in itertools.product((HAT, UNHAT), RESIDUAL_SYMMETRY):
            family = _symmetric_family(rng, sp, convention, kind,
                                       coefficients=RATIONAL_COEFFICIENTS)
            large += lcm(*map(denominator_by_fractions, family.ops.values())) % LARGE == 0
            for n in range(1, 7):
                fast = residual(family, EquationFlavor(kind, convention), n).op
                assert fast == residual_by_positions(family, kind, n), \
                    (pattern, convention, kind, n)
                nonzero[kind] += not fast.is_zero()
    assert min(nonzero.values()) >= 10 and large >= 6, (nonzero, large)


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


def test_collapsed_nary_residual_matches_per_position_oracle_on_rational_coefficients():
    symmetry = {PARTIALLY_ASSOCIATIVE: None, PRELIE: MODE_PARTIAL, LIE: MODE_FULL}
    nonzero = {kind: 0 for kind in symmetry}
    for dim in (2, 3, 4):
        rng = random.Random(f"rational-nary-{dim}")
        sp = GradedSpace(tuple(f"e{i}" for i in range(dim)), (0,) * dim)
        for n, (kind, mode), _ in itertools.product((2, 3, 4), symmetry.items(), range(2)):
            mu = random_operation(rng, sp, n, 0, density=0.5 if n < 4 else 0.2,
                                  coefficients=RATIONAL_COEFFICIENTS)
            if mode is not None:
                mu = precompose_symmetrized(mu, RHO2, mode)
            fast = nary_residual(mu, kind).op
            assert fast == nary_residual_by_positions(mu, kind), (dim, n, kind)
            nonzero[kind] += not fast.is_zero()
    assert min(nonzero.values()) >= 3, nonzero


def test_folded_residual_decides_and_witnesses_like_its_expansion(monkeypatch):
    # check reads the verdict and the witness off the orbit representatives;
    # the expanded operation is the oracle, in full (Lie) and partial
    # (pre-Lie) modes, under rho1 (hat) and rho2 (unhat), on integer and
    # rational draws, and on the n-ary residuals
    draws = ((-3, -2, -1, 1, 2, 3), RATIONAL_COEFFICIENTS)
    cases = []
    for pattern in sorted(DEGREE_PATTERNS):
        rng = random.Random(f"folded-{pattern}")
        sp = pattern_space(pattern)
        for convention, kind, draw in itertools.product((HAT, UNHAT), RESIDUAL_SYMMETRY, draws):
            family = _symmetric_family(rng, sp, convention, kind, coefficients=draw)
            cases += [(sp, functools.partial(residual, family, EquationFlavor(kind, convention), n),
                       (pattern, convention, kind, draw, n)) for n in range(1, 7)]
        if sp.is_concentrated_in_degree_zero():
            symmetry = {PARTIALLY_ASSOCIATIVE: None, PRELIE: MODE_PARTIAL, LIE: MODE_FULL}
            for n, (kind, mode), draw in itertools.product((2, 3), symmetry.items(), draws):
                mu = random_operation(rng, sp, n, 0, density=0.6, coefficients=draw)
                if mode is not None:
                    mu = precompose_symmetrized(mu, RHO2, mode)
                cases.append((sp, functools.partial(nary_residual, mu, kind),
                              (pattern, n, kind, draw)))

    # a word whose orbit's stabilizer acts by -1 is dropped: by an
    # insertion stream given the fold's killing table, before the word is
    # built, or else by the fold
    killed = collections.Counter()
    real = permutations.stabilizer_order
    real_terms = equations.insertion_terms

    def counting(letters, odd, rho2):
        order = real(letters, odd, rho2)
        killed["words"] += not order
        return order

    def skipping(outer, inner, position, scale=1, kills=None):
        kept = list(real_terms(outer, inner, position, scale, kills))
        killed["skipped"] += len({word for word, *_ in real_terms(outer, inner, position, scale)}
                                 - {word for word, *_ in kept})
        return iter(kept)

    monkeypatch.setattr(permutations, "stabilizer_order", counting)
    monkeypatch.setattr(equations, "insertion_terms", skipping)
    verdicts = collections.Counter()
    for sp, compute, what in cases:
        res = compute()
        entry = res.first_nonzero_entry()
        assert res.vanishes() == res.op.is_zero(), what
        assert entry == res.op.first_nonzero_entry(), what
        assert _residual_witness(sp, entry) == _residual_witness(sp, res.op.first_nonzero_entry())
        verdicts[res.vanishes()] += 1
    # both verdicts occur, and orbits are killed by their stabilizers
    assert verdicts[True] >= 100 and verdicts[False] >= 40, verdicts
    assert killed["skipped"] + killed["words"] >= 100, killed


# odd and even letters, and a degree-0 space for the circle calculus
PRUNED_SPACES = (GradedSpace(("x", "y", "z"), (-1, 0, 1)),
                 GradedSpace(("a", "b", "c"), (0, 0, 0)))


def _drawn_operation(data, rng, sp, arity, degree, variant, mode, symmetric):
    """A random table with several outputs per word, invariant under the
    mode's signed action when `symmetric`."""
    op = Operation(sp, arity, degree, random_table(rng, sp, arity, data.draw(
        st.sampled_from((0.3, 0.7, 1.0)), label="density")))
    return precompose_symmetrized(op, variant, mode) if symmetric else op


@settings(max_examples=150)
@given(st.data())
def test_pruned_insertion_streams_are_the_terms_the_fold_keeps(data):
    # given the fold's killing table, an insertion stream is the stream
    # without it less exactly the terms the fold drops (a killing letter
    # twice in the acted slots, its stabilizer then acting by -1), term for
    # term and in order, at every position, on operands with and without
    # the symmetry; so the residuals and the circle bracket fold to the
    # tables of the unpruned streams, key order included
    sp = data.draw(st.sampled_from(PRUNED_SPACES), label="space")
    variant = data.draw(st.sampled_from((RHO1, RHO2)), label="variant")
    mode = data.draw(st.sampled_from((MODE_FULL, MODE_PARTIAL)), label="mode")
    symmetric = data.draw(st.booleans(), label="symmetric")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    i, j = (data.draw(st.integers(1, 3), label=name) for name in ("outer", "inner"))
    outer, inner = (_drawn_operation(data, rng, sp, arity, data.draw(st.integers(-1, 1)),
                                     variant, mode, symmetric) for arity in (i, j))
    odd, rho2 = sp.parities, variant == RHO2
    acted = acted_count(mode, i + j - 1)
    kills = (acted, killing_letters(sp, variant))
    scale = data.draw(st.sampled_from((1, -2, 3)), label="scale")
    for position in range(i):
        pruned = list(insertion_terms(outer, inner, position, scale, kills))
        kept = [term for term in insertion_terms(outer, inner, position, scale)
                if stabilizer_order(sorted(term[0][:acted]), odd, rho2)]
        assert pruned == kept, position

    convention = HAT if variant == RHO1 else UNHAT
    kind = LIE if mode == MODE_FULL else PRELIE
    ops = {arity: _drawn_operation(data, rng, sp, arity, family_degree(convention, arity),
                                   variant, mode, symmetric) for arity in (1, 2, 3)}
    family, flavor = OperationFamily(convention, sp, 5, ops), EquationFlavor(kind, convention)
    n = data.draw(st.integers(1, 5), label="n")
    res = residual(family, flavor, n, check_symmetry=False)
    slow = fold_insertions(sp, n, res.degree, list(residual_insertions(family, flavor, n)),
                           variant, mode)
    assert (list(res.table.items()), res.denominator) == (list(slow.table.items()),
                                                         slow.denominator)

    flat = PRUNED_SPACES[1]
    f, g = (_drawn_operation(data, rng, flat, arity, 0, RHO2, MODE_PARTIAL, symmetric)
            for arity in (i, j))
    tables = {}
    sign = -(-1) ** ((i - 1) * (j - 1))
    slow = expand(fold_insertions(flat, i + j - 1, 0, itertools.chain(
        _circle_insertions(f, g, tables), _circle_insertions(g, f, tables, sign)),
        RHO2, MODE_PARTIAL))
    fast = circle_bracket(f, g, check_symmetry=False)
    assert (list(fast.numerators.items()), fast.denominator) == (list(slow.numerators.items()),
                                                                 slow.denominator)


def _orbit_values(folded):
    """The folded sum's value at each representative, as Fractions."""
    return {rep: over(numerators, folded.denominator)
            for rep, numerators in folded.table.items()}


def _repeated(folded):
    """How many nonzero representatives repeat a letter in the acted slots,
    where the orbit's stabilizer is larger than 1."""
    return sum(len(set(rep[:folded.acted])) < folded.acted for rep in folded.table)


def test_representative_residuals_match_the_all_entries_route():
    # the pre-Lie and Lie residuals insert one representative per
    # arrangement of each operand's symmetric slots, times the number of
    # arrangements; inserting every stored entry (the oracle) folds to the
    # same representatives with the same values, under rho1 (hat) and rho2
    # (unhat), on integer and rational draws, on homogeneous tables and on
    # tables that are not.  The derivation uses only the operands'
    # symmetry; the collapse of positions, which both routes make, also
    # uses homogeneity, so the per-position oracle is compared on
    # homogeneous tables only, and `residual` refuses the others on odd
    # letters unless its precondition check is bypassed.  The assoc
    # residual, on unsymmetrized operands, runs the oracle's route without
    # a symmetrization.
    nonzero = collections.Counter()
    repeated = 0
    for pattern in sorted(DEGREE_PATTERNS):
        rng = random.Random(f"representatives-{pattern}")
        sp = pattern_space(pattern)
        for convention, kind, draw, homogeneous in itertools.product(
                (HAT, UNHAT), (ASSOC, PRELIE, LIE), ((-3, -2, -1, 1, 2, 3), RATIONAL_COEFFICIENTS),
                (True, False)):
            variant = action_variant(convention)
            ops = {}
            for arity in (1, 2, 3, 4):
                degree = family_degree(convention, arity)
                op = (random_operation(rng, sp, arity, degree, 0.5, coefficients=draw)
                      if homogeneous
                      else Operation(sp, arity, degree, random_table(rng, sp, arity, 0.5, draw)))
                ops[arity] = (op if RESIDUAL_SYMMETRY[kind] is None
                              else precompose_symmetrized(op, variant, RESIDUAL_SYMMETRY[kind]))
            family = OperationFamily(convention, sp, 6, ops)
            for n in range(1, 7):
                what = (pattern, convention, kind, draw, homogeneous, n)
                fast = residual(family, EquationFlavor(kind, convention), n,
                                check_symmetry=homogeneous)
                slow = residual_by_insertions(family, kind, n)
                assert _orbit_values(fast) == _orbit_values(slow), what
                assert fast.first_nonzero_entry() == slow.first_nonzero_entry(), what
                if homogeneous:
                    assert fast.op == residual_by_positions(family, kind, n), what
                nonzero[kind, homogeneous] += not fast.vanishes()
                repeated += _repeated(fast)
    assert min(nonzero.values()) >= 10 and repeated >= 50, (nonzero, repeated)


def test_representative_nary_residuals_match_the_all_entries_route():
    # a skew operation needs as many letters as the residual has skew
    # slots, so n = 3 runs on four and five letters
    nonzero = collections.Counter()
    for dim, n in ((2, 2), (3, 2), (4, 3), (5, 3)):
        rng = random.Random(f"representatives-nary-{dim}")
        sp = GradedSpace(tuple(f"e{i}" for i in range(dim)), (0,) * dim)
        for (kind, mode), draw in itertools.product(
                ((PRELIE, MODE_PARTIAL), (LIE, MODE_FULL)),
                ((-3, -2, -1, 1, 2, 3), RATIONAL_COEFFICIENTS)):
            mu = precompose_symmetrized(random_operation(rng, sp, n, 0, 0.6, coefficients=draw),
                                        RHO2, mode)
            fast = nary_residual(mu, kind)
            slow = residual_by_insertions(nary_family(mu), kind, 2 * n - 1)
            assert _orbit_values(fast) == _orbit_values(slow), (dim, n, kind, draw)
            assert fast.op == nary_residual_by_positions(mu, kind), (dim, n, kind, draw)
            nonzero[kind, n] += not fast.vanishes()
    assert min(nonzero.values()) >= 2, nonzero


@pytest.mark.parametrize("dim", (2, 3))
def test_representative_circle_calculus_matches_the_all_entries_route(dim):
    # arities 1-4 for both factors; the dense unshuffle sums where they are
    # small enough to evaluate on every word
    rng = random.Random(f"representatives-circle-{dim}")
    sp = GradedSpace(tuple(f"e{i}" for i in range(dim)), (0,) * dim)
    nonzero = repeated = 0
    for f_arity, g_arity, draw in itertools.product(
            (1, 2, 3, 4), (1, 2, 3, 4), ({}, {"coefficients": RATIONAL_COEFFICIENTS})):
        f = _partially_skew(rng, sp, f_arity, **draw)
        g = _partially_skew(rng, sp, g_arity, **draw).scaled(Fraction(1, 13))
        product = circle_product(f, g)
        assert product == circle_product_by_insertions(f, g), (f_arity, g_arity)
        bracket = circle_bracket(f, g)
        assert bracket == circle_bracket_by_insertions(f, g), (f_arity, g_arity)
        if dim ** (f_arity + g_arity - 1) <= 250:
            assert product == circle_product_dense(f, g), (f_arity, g_arity)
            assert bracket == circle_bracket_by_products(f, g, circle_product_dense), \
                (f_arity, g_arity)
        nonzero += not product.is_zero()
        # a skew letter repeated in the acted slots cancels, so a nonzero
        # value on a repeated letter sits in the last slot
        repeated += any(word[-1] in word[:-1] for word in product.table)
    assert nonzero >= 8 and repeated >= 5, (nonzero, repeated)


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
        built = list(_components(op, kind, cap))
        assert [k for k, _ in built] == list(range(arity, cap + 1))
        for k, comp in built:
            l = k - arity + 1
            fast = _values(comp, op.denominator)
            assert fast == flat_component(component_loop(op, kind, k, l)), (arity, k, l)
            nonzero += bool(fast)
    assert nonzero >= 12  # the comparison must not be vacuous


@pytest.mark.parametrize("pattern", sorted(DEGREE_PATTERNS))
def test_flat_words_match_pair_oracles(pattern):
    # the canonical words, in order, are the pair-spelled ones with each
    # Perm word flattened; the coproduct terms of every word (canonical or
    # not) at every left weight, i = 0 and i = n included, are the
    # pair-spelled unshuffle terms summed per split: each distinct split
    # once, its coefficient the sum of its unshuffles' signs, never 0
    sp = pattern_space(pattern)
    empty_perm_terms = 0
    merged = collections.Counter()   # splits of several unshuffles: summed, cancelled
    for kind, n in itertools.product((TENSOR, WEDGE, PERM), range(1, 6)):
        assert list(coalgebra_words(kind, sp, n)) \
            == [flat_word(w) for w in pair_words(kind, sp, n)], (kind, n)
        for word in itertools.product(range(sp.dim), repeat=n):
            spelled = (word[:-1], word[-1]) if kind == PERM else word
            for i in range(n + 1):
                flat = list(coproduct_terms(kind, sp, word, i))
                splits = [pair for pair, _ in flat]
                assert len(set(splits)) == len(splits) and all(flat_c for _, flat_c in flat), \
                    (kind, word, i)
                spelled_terms = [((flat_word(left), flat_word(right)), s) for (left, right), s
                                 in coproduct_terms_by_pairs(kind, sp, spelled, i)]
                sums = collections.defaultdict(list)
                for pair, s in spelled_terms:
                    sums[pair].append(s)
                assert dict(flat) == {pair: sum(signs) for pair, signs in sums.items()
                                      if sum(signs)}, (kind, word, i)
                merged.update("cancelled" if sum(signs) == 0 else "summed"
                              for signs in sums.values() if len(signs) > 1)
                if kind == PERM and i == n:
                    assert flat == []
                    empty_perm_terms += 1
                elif kind != PERM and i in (0, n):
                    assert flat == [(((), word) if i == 0 else (word, ()), 1)]
    assert empty_perm_terms > 0
    degrees = DEGREE_PATTERNS[pattern]
    assert merged["summed"] > 0 if any(d % 2 == 0 for d in degrees) else merged["cancelled"] > 0, \
        merged


def _values(comp, den):
    """A component kept as int numerators over den, as Fraction values."""
    return {word: LinearCombination((u, Fraction(c, den)) for u, c in image.items())
            for word, image in comp.items()}


# arity -> the coefficients drawn there: the denominators differ per arity,
# so a family's common denominator is 6, neither 1 nor any operation's own
MIXED_COEFFICIENTS = {1: (-2, -1, 1, 3),
                      2: (Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2), 1),
                      3: (Fraction(1, 3), Fraction(-2, 3), Fraction(4, 3), -1)}


def _mixed_family(rng, sp, kind, convention):
    """A family on sp with MIXED_COEFFICIENTS at arities 1-3 and the symmetry
    the kind's extension needs: drawn as a hat family, or as an unhat one
    (symmetrized under rho2) and suspended."""
    ops = {}
    for arity, coefficients in MIXED_COEFFICIENTS.items():
        degree = -1 if convention == HAT else arity - 2
        op = random_operation(rng, sp, arity, degree, 0.5, coefficients)
        if SYMMETRY[kind] is not None:
            op = precompose_symmetrized(op, action_variant(convention), SYMMETRY[kind])
        if not op.is_zero():
            ops[arity] = op
    family = OperationFamily(convention, sp, 3, ops)
    return family if convention == HAT else suspend_family(family)


@pytest.mark.parametrize("kind", (TENSOR, WEDGE, PERM))
def test_integer_coderivation_matches_fraction_oracles(kind):
    # the components, the law and the square on integer numerators over
    # the family's common denominator give the values, verdicts and
    # operations of the same sums taken in Fractions
    rng = random.Random(f"integer-coderivation-{kind}")
    mixed = law_failures = squares = 0
    for degrees, convention in itertools.product(((-1, 0), (1, 0, 1), (-1, 0, 1)), (HAT, UNHAT)):
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        for _ in range(2):
            family = _mixed_family(rng, sp, kind, convention)
            own = {op.denominator for op in family.ops.values()}
            den = lcm(*own)
            mixed += den not in own | {1}
            for cap in range(1, 6):
                D = extend_coderivation(family, kind, cap)
                assert D.denominator == den
                for (k, l), comp in D.components.items():
                    op = family.ops[k - l + 1]
                    assert _values(comp, den) \
                        == flat_component(component_by_fractions(op, kind, k, l))
                values = {}   # word -> D(word), from the Fraction components
                for a, op in family.ops.items():
                    for k in range(a, cap + 1):
                        by_fractions = component_by_fractions(op, kind, k, k - a + 1)
                        for word, image in flat_component(by_fractions).items():
                            values[word] = values.get(word, LinearCombination()) + image
                for k in range(1, cap + 1):
                    for word in coalgebra_words(kind, family.space, k):
                        image = values.get(word, LinearCombination())
                        assert apply_word(D, word) == image
                        assert D.square_word(word) == LinearCombination(
                            (w, c * cc) for u, c in image
                            for w, cc in values.get(u, LinearCombination()))
                for n in range(1, cap + 1):
                    square = square_cogenerator_component(D, n)
                    assert square == square_cogenerator_by_fractions(D, n), (degrees, cap, n)
                    squares += not square.is_zero()
                for label, _, variant in _law_variants(rng, D):
                    verdict = check_coderivation(variant)
                    assert verdict == check_coderivation_by_fractions(variant), (cap, label)
                    law_failures += not verdict
    # none of the comparisons may be vacuous
    assert mixed >= 4 and law_failures >= 10 and squares >= 10, (mixed, law_failures, squares)


def _product_cases(op, kind, k):
    """The cases the product walk of op's (k, k - a + 1) component meets,
    counted from op's entries apart from the package: pairs whose product
    repeats a letter of two factors (a multiplicity above 1), pairs dropped
    for a shared odd letter, Perm head entries (Lh | y) whose middle letter
    repeats a letter of Lh in a canonical head, and Perm tail pairs with a
    nonempty front and a canonical head."""
    sp, a = op.space, op.arity
    odd = sp.parities
    acted = a if kind == WEDGE else a - 1
    entries = [word for word in op.table if list(word[:acted]) == sorted(word[:acted])]
    cases = collections.Counter()

    def meet(*factors):
        letters = [x for factor in factors for x in factor]
        if any(odd[x] and letters.count(x) > 1 for x in letters):
            cases["dropped"] += 1
            return False
        cases["repeated"] += any(sum(x in factor for factor in factors) > 1 for x in letters)
        return True

    if kind == WEDGE:
        for entry, rest in itertools.product(entries, coalgebra_words(WEDGE, sp, k - a)):
            meet(entry, rest)
        return cases
    for entry, rest in itertools.product(entries, coalgebra_words(WEDGE, sp, k - 1 - a)
                                         if k > a else ()):
        if meet(entry[:-1], entry[-1:], rest):
            cases["middle letter"] += entry[-1] in entry[:-1]
    for entry, front in itertools.product(entries, coalgebra_words(WEDGE, sp, k - a)):
        cases["tail"] += meet(front, entry[:-1]) and bool(front)
    return cases


@pytest.mark.parametrize("kind", (WEDGE, PERM))
def test_product_walk_components_match_the_split_oracle(kind):
    # the wedge and Perm components pair each entry of the operation whose
    # acted slots are sorted with each canonical rest; on every degree
    # pattern, hat families and suspended unhat ones, arities drawn from
    # 1-4, caps 1-5, integer and rational tables, they equal the sums over
    # the distinct splits of every canonical word (`component_by_fractions`),
    # and the walk meets every case its weights tell apart
    rng = random.Random(f"product-walk-{kind}")
    cases, nonzero = collections.Counter(), 0
    for pattern, convention, coefficients, _ in itertools.product(
            sorted(DEGREE_PATTERNS), (HAT, UNHAT), ((-2, -1, 1, 3), RATIONAL_COEFFICIENTS),
            range(3)):
        sp = pattern_space(pattern)
        ops = {}
        for arity in sorted(rng.sample((1, 2, 3, 4), rng.randint(1, 4))):
            degree = -1 if convention == HAT else arity - 2
            op = precompose_symmetrized(random_operation(rng, sp, arity, degree, 0.7, coefficients),
                                        action_variant(convention), SYMMETRY[kind])
            if not op.is_zero():
                ops[arity] = op
        family = OperationFamily(convention, sp, 4, ops)
        family = family if convention == HAT else suspend_family(family)
        expected = {}
        for a, op in family.ops.items():
            for k in range(a, 6):
                expected[(k, k - a + 1)] = flat_component(component_by_fractions(op, kind, k,
                                                                                 k - a + 1))
                cases.update(_product_cases(op, kind, k))
        for cap in range(1, 6):
            D = extend_coderivation(family, kind, cap)
            assert {key: _values(comp, D.denominator) for key, comp in D.components.items()} \
                == {key: comp for key, comp in expected.items() if key[0] <= cap and comp}, \
                (pattern, convention, cap)
            nonzero += len(D.components)
    assert nonzero >= 250 and cases["repeated"] and cases["dropped"], (nonzero, cases)
    assert kind == WEDGE or cases["middle letter"] and cases["tail"], cases


def _canonical(kind, sp, word):
    if kind == TENSOR:
        return 1, word
    if kind == WEDGE:
        return wedge_normalize(sp, word)[:2]
    s, head, _ = wedge_normalize(sp, word[:-1])
    return s, None if head is None else head + word[-1:]


def _cogenerator_by_tensor_word(D, n):
    """The weight (n -> 1) component of D o D, squaring the canonical word
    of every tensor word again."""
    squares = square_component(D, n, 1)
    table = {}
    for word in itertools.product(range(D.space.dim), repeat=n):
        s, cw = _canonical(D.kind, D.space, word)
        if cw in squares:
            table[word] = LinearCombination((w[0], c * s) for w, c in squares[cw])
    return Operation(D.space, n, -2, table)


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
            # the cogenerator components vanish exactly when the whole square does
            assert all(square_cogenerator_component(D, n).is_zero()
                       for n in range(1, cap + 1)) == (first_nonzero_square(fresh) is None)
        assert failing > 0, degrees  # the comparison must not be vacuous


def _source_to_sink(op, sources):
    """op on source words only, with sink outputs only: the composite of two
    such operations vanishes.  The word set is closed under rearrangement
    and outputs are kept letter by letter, so symmetry and homogeneity stay."""
    table = {}
    for word, combo in op.table.items():
        if all(x in sources for x in word):
            table[word] = LinearCombination((x, c) for x, c in combo if x not in sources)
    return Operation(op.space, op.arity, op.degree, table)


SQUARE_VANISHES = "squared coderivation vanishes up to the cap"


@pytest.mark.parametrize("kind", (TENSOR, WEDGE, PERM))
def test_square_zero_verdict_matches_whole_square_oracle(kind):
    # coderive derives "vanishes up to the cap" from the cogenerator lines;
    # the oracle squares every canonical word whole
    rng = random.Random(f"square-zero-{kind}")
    cap = 4
    outcomes, two_odd = collections.Counter(), collections.Counter()
    for degrees in COALGEBRA_PATTERNS.values():
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        for trial in range(10):
            arities = rng.sample((1, 2, 3), rng.randint(1, 3))
            ops = {a: _hat_operation(rng, sp, a, kind, density=rng.choice((0.2, 0.5)))
                   for a in arities}
            if trial % 2:
                sources = set(rng.sample(range(sp.dim), sp.dim - 1))
                ops = {a: _source_to_sink(op, sources) for a, op in ops.items()}
            ops = {a: op for a, op in ops.items() if not op.is_zero()}
            if not ops:
                continue
            family = OperationFamily(HAT, sp, max(ops), ops)
            report = run_coderive(AlgebraDocument(family), kind, cap)
            (line,) = [c for c in report.checks if c.name == SQUARE_VANISHES]
            assert line.witness is None
            expected = first_nonzero_square(extend_coderivation(family, kind, cap)) is None
            assert line.passed == expected, (degrees, trial)
            outcomes[expected] += 1
            two_odd[expected] += sum(sp.parities) == 2
    # both verdicts must occur, and both on spaces with two odd letters
    assert min(outcomes[True], outcomes[False]) >= 5, outcomes
    assert min(two_odd[True], two_odd[False]) >= 3, two_odd


LAW_PATTERNS = ((0, 1), (1, 1), (-1, 0, 1), (1, 0, 1), (1, 2))


def _law_coderivations(rng, kind, sp, cap):
    """An extended family, and components built by `_components` from
    inhomogeneous operations without any symmetry."""
    ops = {a: _hat_operation(rng, sp, a, kind, density=0.5) for a in (1, 2, 3)}
    family = OperationFamily(HAT, sp, 3, {a: op for a, op in ops.items() if not op.is_zero()})
    yield "extended", extend_coderivation(family, kind, cap)
    components = {}
    for a in (1, 2, 3):
        op = Operation(sp, a, -1, random_table(rng, sp, a, 0.3))
        for k, comp in _components(op, kind, cap):
            if comp:
                components[(k, k - a + 1)] = comp
    yield "inhomogeneous", Coderivation(kind, sp, cap, components)


def _law_variants(rng, D):
    """D itself and corruptions of it, as (label, l of the changed entry,
    coderivation): one entry replaced at a random (k, l), one entry
    dropped, one numerator moved by +-1 inside a row, one image word moved
    to another word, two source rows swapped, a whole component (k, l)
    below the cap removed (for tensor, the lower table of the block
    (k + 1, l + 1)) and an explicit zero numerator added (the same map)."""
    yield "clean", None, D
    words = {k: list(coalgebra_words(D.kind, D.space, k)) for k in range(1, D.cap + 1)}
    k = rng.choice([k for k in words if words[k]])
    l = rng.choice([l for l in range(1, k + 1) if words[l]])
    word, target = rng.choice(words[k]), rng.choice(words[l])
    combo = LinearCombination({target: rng.choice((-2, -1, 1, 3))})
    yield f"corrupted at {(k, l)}", l, with_entry(D, k, l, word, combo)
    entries = [(key, w) for key, comp in D.components.items() for w in comp]
    if entries:
        key, word = rng.choice(entries)
        components = {kl: dict(comp) for kl, comp in D.components.items()}
        del components[key][word]
        yield f"dropped at {key}", key[1], Coderivation(D.kind, D.space, D.cap, components)

    def changed(key, replaced=None):
        """D with the rows of component `key` that `replaced` names (word ->
        row) replaced, or without that component when none are given."""
        components = {kl: dict(comp) for kl, comp in D.components.items()}
        if replaced is None:
            del components[key]
        else:
            components[key].update(replaced)
        return Coderivation(D.kind, D.space, D.cap, components, D.denominator)

    rows = sorted((key, w) for key, comp in D.components.items() for w, row in comp.items() if row)
    if rows:
        key, word = rng.choice(rows)
        row = dict(D.components[key][word])
        v = rng.choice(sorted(row))
        row[v] += rng.choice((-1, 1))
        yield f"numerator nudged at {key}", key[1], changed(key, {word: row})
        key, word = rng.choice(rows)
        row = dict(D.components[key][word])
        v = rng.choice(sorted(row))
        others = [u for u in words[key[1]] if u != v]
        if others:
            u = rng.choice(others)
            c = row.pop(v)
            row[u] = row.get(u, 0) + c
            yield f"image word moved at {key}", key[1], changed(key, {word: row})
    pairs = sorted(key for key, comp in D.components.items() if len(comp) >= 2)
    if pairs:
        key = rng.choice(pairs)
        comp = D.components[key]
        first, second = rng.sample(sorted(comp), 2)
        yield f"rows swapped at {key}", key[1], changed(key, {first: comp[second],
                                                              second: comp[first]})
    lower = sorted(key for key in D.components if key[0] < D.cap)
    if lower:
        key = rng.choice(lower)
        yield f"component removed at {key}", key[1], changed(key)
    blocks = sorted(key for key in D.components if key[1] >= 2) or sorted(D.components)
    if blocks:
        key = rng.choice(blocks)
        word = rng.choice(sorted(D.components[key]))
        row = D.components[key][word]
        absent = [u for u in words[key[1]] if u not in row]
        if absent:
            zero = {word: {**row, rng.choice(absent): 0}}
            yield f"explicit zero at {key}", key[1], changed(key, zero)


def test_weight_one_law_check_matches_full_law_oracle():
    # the check through the (., 1) part of the defect gives the verdict of
    # the whole law at every cap, for coderivations and for corrupted ones
    rng = random.Random("coderivation-law")
    verdicts = {True: 0, False: 0}
    per_kind = {(kind, v): 0 for kind in (TENSOR, WEDGE, PERM) for v in (True, False)}
    weight_one_changes = 0
    shapes = collections.Counter()   # (kind, shape, verdict at the full cap)
    for degrees, kind, _ in itertools.product(LAW_PATTERNS, (TENSOR, WEDGE, PERM), range(3)):
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        cap = 5 if len(degrees) == 2 else 4
        for source, D in _law_coderivations(rng, kind, sp, cap):
            clean = [coderivation_law_by_coproducts(D, c) for c in range(1, cap + 1)]
            for label, l, variant in _law_variants(rng, D):
                weight_one_changes += l == 1
                shape = label.split(" at ")[0]
                for c in range(1, cap + 1):
                    expected = coderivation_law_by_coproducts(variant, c)
                    assert check_coderivation(truncated(variant, c)) == expected, \
                        (degrees, kind, source, label, c)
                    # an explicit zero numerator leaves the map, so the verdict
                    assert shape != "explicit zero" or expected == clean[c - 1], (label, c)
                    verdicts[expected] += 1
                    per_kind[kind, expected] += 1
                shapes[kind, shape, expected] += 1
    assert min(verdicts.values()) >= 50, verdicts
    assert min(per_kind.values()) > 0, per_kind
    assert weight_one_changes >= 10
    # every corruption shape breaks the law somewhere for every kind, and
    # explicit zeros are met where the law holds
    for kind in (TENSOR, WEDGE, PERM):
        for shape in ("corrupted", "dropped", "numerator nudged", "image word moved",
                      "rows swapped", "component removed"):
            assert shapes[kind, shape, False] > 0, (kind, shape)
        assert shapes[kind, "explicit zero", True] > 0, kind


def test_check_coderivation_refuses_a_cap_below_one(graded2):
    # the law runs up to D.cap, and no coderivation has a cap below 1
    for cap in (0, -2):
        with pytest.raises(ArityError, match="at least 1"):
            check_coderivation(Coderivation(WEDGE, graded2, cap, {}))
    assert check_coderivation(Coderivation(TENSOR, graded2, 1, {}))


# arity -> what every value of an operation of that arity is divided by, so
# the operations of a family carry different denominators
PER_ARITY = {1: 1, 2: 2, 3: 3}
DRAWS = {"integer": (-3, -2, -1, 1, 2, 3), "rational": RATIONAL_COEFFICIENTS}


def _per_arity(op):
    return op.scaled(Fraction(1, PER_ARITY[op.arity]))


def _check_outputs(outputs):
    """Each (what, kernel output, Fraction oracle or None, the kernel's raw
    denominator) output is stored as the pair read off its exact values,
    its table view is the oracle's, and the map built from other raw
    denominators compares equal.  Returns how many outputs are nonzero and
    how many of those are stored over less than the raw denominator."""
    nonzero = reduced = 0
    for what, op, oracle, raw in outputs:
        assert op.numerators == numerators_by_fractions(op), what
        assert op.denominator == denominator_by_fractions(op), what
        if oracle is not None:
            assert dict(op.table) == dict(oracle.table), what
        scaled = {word: {x: 6 * c for x, c in sums.items()} for word, sums in op.numerators.items()}
        assert Operation.from_numerators(op.space, op.arity, op.degree, scaled,
                                         6 * op.denominator) == op, what
        assert Operation(op.space, op.arity, op.degree, op.table) == op, what
        if not op.is_zero():
            nonzero += 1
            reduced += op.denominator < raw
    return nonzero, reduced


def _kernel_outputs(rng, sp, coefficients):
    """(what, output, Fraction oracle or None, raw denominator) of the
    symmetrizations, the representative tables, the insertions, the
    suspension, the residuals and the square's cogenerator part, under both
    conventions, on operations whose denominators differ per arity."""
    outputs = []
    for convention in (HAT, UNHAT):
        variant = action_variant(convention)
        # tables that need not be homogeneous where no kernel asks for it
        tables = {a: _per_arity(Operation(sp, a, family_degree(convention, a),
                                          random_table(rng, sp, a, 0.6, coefficients)))
                  for a in PER_ARITY}
        for a, op in tables.items():
            for mode in (MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE):
                outputs.append(((convention, mode, a), precompose_symmetrized(op, variant, mode),
                                precompose_symmetrized_by_loop(op, variant, mode), op.denominator))
            for lo, hi in ((0, a), (1, a), (0, a - 1)):
                outputs.append(((convention, "block", a, lo, hi), block_representatives(op, lo, hi),
                                block_representatives_by_fractions(op, lo, hi), op.denominator))
            outputs.append(((convention, "suspended", a), suspend_operation(op), None,
                            op.denominator))
            for inner, position in itertools.product(tables.values(), range(a)):
                outputs.append(((convention, "insert", a, inner.arity, position),
                                compose_insert(op, inner, position),
                                compose_insert_by_evaluation(op, inner, position),
                                op.denominator * inner.denominator))
        ops = {a: _per_arity(random_operation(rng, sp, a, family_degree(convention, a), 0.6,
                                              coefficients)) for a in PER_ARITY}
        for kind in (ASSOC, PRELIE, LIE):
            symmetric = {a: op if kind == ASSOC
                         else precompose_symmetrized(op, variant, RESIDUAL_SYMMETRY[kind])
                         for a, op in ops.items()}
            family = OperationFamily(convention, sp, 5, symmetric)
            for n in range(1, 6):
                folded = residual(family, EquationFlavor(kind, convention), n)
                outputs.append(((convention, kind, n), folded.op,
                                residual_by_positions(family, kind, n), folded.denominator))
    for kind in (TENSOR, WEDGE, PERM):
        ops = {a: _per_arity(_hat_operation(rng, sp, a, kind)) for a in PER_ARITY}
        D = extend_coderivation(OperationFamily(HAT, sp, 3, ops), kind, 3)
        outputs += [((kind, "square", n), square_cogenerator_component(D, n),
                     square_cogenerator_by_fractions(D, n), D.denominator ** 2)
                    for n in range(1, 4)]
    return outputs


@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_kernel_outputs_are_stored_normalized(draw):
    nonzero, reduced = {}, 0
    for pattern in sorted(DEGREE_PATTERNS):
        rng = random.Random(f"normalized-{pattern}-{draw}")
        nonzero[pattern], count = _check_outputs(
            _kernel_outputs(rng, pattern_space(pattern), DRAWS[draw]))
        reduced += count
    # normalization divides some outputs; integer draws divide fewer
    assert min(nonzero.values()) >= 20 and reduced >= 20, (nonzero, reduced)


def test_circle_and_nary_outputs_are_stored_normalized():
    sp = GradedSpace(("e0", "e1", "e2"), (0, 0, 0))
    outputs = []
    for draw, coefficients in sorted(DRAWS.items()):
        rng = random.Random(f"normalized-circle-{draw}")
        ops = {a: _per_arity(_partially_skew(rng, sp, a, coefficients=coefficients))
               for a in PER_ARITY}
        for f, g in itertools.product(ops.values(), repeat=2):
            raw = f.denominator * g.denominator
            outputs.append(((draw, f.arity, g.arity, "product"), circle_product(f, g),
                            circle_product_dense(f, g), raw))
            outputs.append(((draw, f.arity, g.arity, "bracket"), circle_bracket(f, g),
                            circle_bracket_by_products(f, g, circle_product_dense), raw))
        for n, mu in ops.items():
            for kind in (PARTIALLY_ASSOCIATIVE, PRELIE):
                folded = nary_residual(mu, kind)
                outputs.append(((draw, n, kind), folded.op, nary_residual_by_positions(mu, kind),
                                folded.denominator))
            outputs.append(((draw, n, "embedded"), nary_embed(mu).ops[n], None,
                            mu.denominator))
            outputs.append(((draw, n, "degree"), mu.with_degree(n - 2), mu, mu.denominator))
    nonzero, reduced = _check_outputs(outputs)
    assert nonzero >= 40 and reduced >= 5, (nonzero, reduced)


def test_equal_maps_compare_equal_from_any_raw_denominator():
    sp = GradedSpace(("x0", "x1"), (0, 0))
    half = Operation(sp, 2, 0, {(0, 1): {0: Fraction(1, 2)}})
    assert (half.numerators, half.denominator) == ({(0, 1): {0: 1}}, 2)
    two_quarters = Operation.from_numerators(sp, 2, 0, {(0, 1): {0: 2}}, 4)
    assert (two_quarters.numerators, two_quarters.denominator) == ({(0, 1): {0: 1}}, 2)
    assert two_quarters == half == Operation(sp, 2, 0, {(0, 1): {0: Fraction(2, 4)}})
    assert Operation(sp, 2, 0, half.table) == half
    assert two_quarters != Operation.from_numerators(sp, 2, 0, {(0, 1): {0: 2}}, 3)
    # the two arrangements of a block of two distinct letters cancel the 1/2
    block = block_representatives(half, 0, 2)
    assert (block.numerators, block.denominator) == ({(0, 1): {0: 1}}, 1)
    assert block == block_representatives_by_fractions(half, 0, 2) \
        == Operation(sp, 2, 0, {(0, 1): {0: 1}})
    # an empty table is stored over 1, whatever the raw denominator
    empty = Operation.from_numerators(sp, 2, 0, {}, 6)
    assert (empty.numerators, empty.denominator) == ({}, 1) and empty == Operation(sp, 2, 0)
    # with_degree keeps the map and changes only the degree
    lifted = half.with_degree(3)
    assert lifted == half and lifted.degree == 3 and half.degree == 0
