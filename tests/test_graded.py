import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import map_keys, poly_mod_t2_product
from oracles import sums_by_loop, table_by_groups
from hopla.errors import ArityError, BasisIndexError, ConventionError, PositionError
from hopla.graded import (HAT, UNHAT, GradedSpace, LinearCombination, Operation,
                          OperationFamily, check_homogeneous, compose_insert, family_degree,
                          insertion_terms, space, word_degree)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(rationals, rationals, rationals)
def test_scalar_arithmetic_is_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


def test_word_degree_examples():
    zz = space(("e1", 0), ("e2", 0))
    assert word_degree(zz, (0, 1)) == 0
    ff = space(("f", 1),)
    assert word_degree(ff, (0, 0)) == 2
    mixed = space(("e", 0), ("f", 1), ("g", 2))
    # independent per-entry accumulation
    total = 0
    for i in (0, 1, 2):
        total += mixed.degrees[i]
    assert word_degree(mixed, (0, 1, 2)) == total == 3


def test_word_degree_invalid_index():
    sp = space(("e", 0))
    with pytest.raises(BasisIndexError):
        word_degree(sp, (0, 3))


@pytest.mark.parametrize("word", [(0, 2), (-1, 0)])
def test_operation_rejects_letters_outside_the_basis(word):
    sp = space(("e", 0), ("f", 0))
    with pytest.raises(BasisIndexError, match="out of range"):
        Operation(sp, 2, 0, {word: LinearCombination({0: 1})})


@pytest.mark.parametrize("letter", [2, 5, -1])
def test_operation_rejects_output_letters_outside_the_basis(letter):
    # an output letter is checked like an input letter, so no later reader
    # (homogeneity, the document writer) meets an index it cannot resolve
    sp = GradedSpace(("a", "b"), (0, 0))
    with pytest.raises(BasisIndexError, match="out of range"):
        Operation(sp, 1, 0, {(0,): {letter: 1}})
    assert Operation(sp, 1, 0, {(0,): {1: 1}}).evaluate((0,)) == LinearCombination({1: 1})


def test_space_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        GradedSpace(("x", "x"), (0, 0))


def test_evaluate_zero_operation(flat2):
    zero = Operation(flat2, 2, 0)
    assert zero.evaluate((0, 1)).is_zero()


def test_evaluate_against_polynomial_oracle(kt2):
    sp, mu = kt2
    # basis index 0 <-> 1, index 1 <-> t; oracle multiplies (a0 + a1 t) pairs
    for w in itertools.product(range(2), repeat=2):
        p = tuple(1 if i == w[0] else 0 for i in range(2))
        q = tuple(1 if i == w[1] else 0 for i in range(2))
        expected = poly_mod_t2_product(p, q)
        got = mu.evaluate(w)
        assert [got[i] for i in range(2)] == [Fraction(x) for x in expected]
    assert mu.evaluate((1, 1)).is_zero()
    assert mu.evaluate((0, 1)) == LinearCombination({1: 1})
    # `over` makes the values of the integer table, and of a folded sum's
    # witness, Fractions
    from hopla.permutations import RHO1, Folded
    folded = Folded(sp, 2, 0, mu.numerators, mu.denominator, RHO1, None)
    assert {type(c) for value in (mu.evaluate((0, 0)), folded.first_nonzero_entry()[1])
            for _, c in value} == {Fraction}


def test_evaluate_arity_mismatch(kt2):
    sp, mu = kt2
    with pytest.raises(ArityError):
        mu.evaluate((0, 1, 0))


def test_compose_insert_identity_is_neutral(kt2):
    sp, mu = kt2
    ident = Operation(sp, 1, 0, {(i,): LinearCombination({i: 1}) for i in range(sp.dim)})
    for m in (0, 1):
        assert compose_insert(mu, ident, m) == mu


def test_compose_insert_associativity_oracle(kt2):
    sp, mu = kt2
    left = compose_insert(mu, mu, 0)
    right = compose_insert(mu, mu, 1)
    assert left == right
    # independent check: (xy)z over the polynomial oracle
    for w in itertools.product(range(2), repeat=3):
        vecs = [tuple(1 if i == x else 0 for i in range(2)) for x in w]
        xy_z = poly_mod_t2_product(poly_mod_t2_product(vecs[0], vecs[1]), vecs[2])
        got = left.evaluate(w)
        assert [got[i] for i in range(2)] == [Fraction(v) for v in xy_z]


def test_compose_insert_koszul_sign_of_tensor_rule():
    # outer and inner both of degree -1; moving inner past the degree-1
    # first letter flips the sign relative to naive substitution
    sp = space(("a", 1), ("b", 0), ("c", 2))
    outer = Operation(sp, 2, -1, {(0, 0): LinearCombination({0: 1})})
    inner = Operation(sp, 1, -1, {(2,): LinearCombination({0: 1})})
    at_front = compose_insert(outer, inner, 0)
    assert at_front.evaluate((2, 0)) == LinearCombination({0: 1})
    past_a = compose_insert(outer, inner, 1)
    assert past_a.evaluate((0, 2)) == LinearCombination({0: -1})
    assert check_homogeneous(at_front) and check_homogeneous(past_a)


def test_compose_insert_position_error(kt2):
    sp, mu = kt2
    with pytest.raises(PositionError):
        compose_insert(mu, mu, 2)


def test_degree_additivity_and_homogeneity(graded2, rng):
    from hopla.verify import random_operation
    for _ in range(10):
        f = random_operation(rng, graded2, 2, -1)
        g = random_operation(rng, graded2, 2, 0)
        assert check_homogeneous(f) and check_homogeneous(g)
        for m in (0, 1):
            comp = compose_insert(f, g, m)
            assert comp.degree == f.degree + g.degree
            assert check_homogeneous(comp)


def test_check_homogeneous_examples(flat2):
    assert check_homogeneous(Operation(flat2, 2, 5))
    good = Operation(flat2, 2, 0, {(0, 0): LinearCombination({0: 1})})
    assert check_homogeneous(good)
    bad = Operation(flat2, 2, 1, {(0, 0): LinearCombination({0: 1})})
    assert not check_homogeneous(bad)


def test_insertion_coherence_koszul_interchange(rng):
    # inserting g and h into disjoint slots of f commutes up to (-1)^(|g||h|)
    from hopla.verify import random_operation
    sp = GradedSpace(("u", "v"), (0, 1))
    for _ in range(12):
        f = random_operation(rng, sp, 3, rng.choice([-1, 0, 1]), density=0.7)
        g = random_operation(rng, sp, rng.choice([1, 2]), rng.choice([-1, 0, 1]), density=0.7)
        h = random_operation(rng, sp, rng.choice([1, 2]), rng.choice([-1, 0, 1]), density=0.7)
        p, q = 0, 2
        first = compose_insert(compose_insert(f, g, p), h, q + g.arity - 1)
        second = compose_insert(compose_insert(f, h, q), g, p)
        sign = -1 if (g.degree % 2) and (h.degree % 2) else 1
        assert first == second.scaled(sign)


def test_linear_combination_drops_zeros():
    c = LinearCombination({("w",): Fraction(1, 2)})
    d = c + c.scaled(-1)
    assert d.is_zero() and len(d) == 0
    assert LinearCombination({("w",): 0}).is_zero()
    # pair iterables: a repeated key that cancels, a first coefficient of 0
    assert LinearCombination([("a", 1), ("b", 2), ("a", -1)]) == LinearCombination({"b": 2})
    assert LinearCombination([("a", Fraction(1, 3)), ("a", Fraction(-1, 3))]).is_zero()
    zero_first = LinearCombination([("a", 0), ("a", Fraction(2, 5))])
    assert zero_first.terms == {"a": Fraction(2, 5)}
    back = LinearCombination([("a", 1), ("a", -1), ("a", 3)])
    assert back.terms == {"a": Fraction(3)}
    # floats convert exactly, and an int added to a converted float sums to a Fraction
    mixed = LinearCombination([("a", 0.5), ("b", 3), ("b", 0.25), ("c", -0.75), ("c", 0.75)])
    assert mixed.terms == {"a": Fraction(1, 2), "b": Fraction(13, 4)}
    assert all(type(c) is Fraction for _, c in mixed)
    assert LinearCombination({"a": 0.1})["a"] == Fraction(0.1)


def test_linear_combination_sums_ints_exactly():
    # int coefficients are summed as ints, past 2^64 and to zero, and each
    # surviving sum stays an int; Fraction sums stay Fractions
    big = 2 ** 64
    combo = LinearCombination([("a", big), ("b", 3), ("a", big), ("c", big + 1),
                               ("b", -3), ("c", -big), ("a", 1)])
    assert combo.terms == {"a": Fraction(2 * big + 1), "c": Fraction(1)}
    assert [type(c) for _, c in combo] == [int, int]
    assert [type(c) for _, c in LinearCombination([("a", Fraction(1, 3)), ("b", Fraction(1, 2)),
                                                   ("a", Fraction(2, 3))])] == [Fraction, Fraction]
    assert LinearCombination([("a", 2 ** 53), ("a", 1)])["a"] == Fraction(2 ** 53 + 1)
    assert LinearCombination([("a", big), ("a", -big)]).is_zero()
    assert LinearCombination({"a": 0, "b": -big}).terms == {"b": Fraction(-big)}
    # ints mixed with Fractions, in either order
    assert LinearCombination([("a", 1), ("a", Fraction(1, 3))]).terms == {"a": Fraction(4, 3)}
    assert LinearCombination([("a", Fraction(1, 3)), ("a", 1)]).terms == {"a": Fraction(4, 3)}
    assert LinearCombination([("a", Fraction(1, 2)), ("a", 1), ("a", Fraction(-3, 2))]).is_zero()
    # floats still convert exactly on entry, before any sum
    mixed = LinearCombination([("a", 0.1), ("a", 1), ("b", 2), ("b", 0.5), ("c", 1.0)])
    assert mixed.terms == {"a": Fraction(0.1) + 1, "b": Fraction(5, 2), "c": Fraction(1)}
    assert all(type(c) is Fraction for _, c in mixed)
    assert type(LinearCombination([("a", True)])["a"]) is Fraction


def test_int_combinations_stay_int_under_scaled_and_subtraction():
    # the coefficient rule of the constructor: an int factor and an int
    # difference keep an int combination integer, as `+` does
    a, b = LinearCombination({1: 2, 2: 3}), LinearCombination({1: 1, 3: -4})
    for combo, expected in ((a - b, {1: 1, 2: 3, 3: 4}), (a + b, {1: 3, 2: 3, 3: -4}),
                            (a.scaled(2), {1: 4, 2: 6}), (a.scaled(-3), {1: -6, 2: -9}),
                            (b - b, {})):
        assert combo.terms == expected
        assert all(type(c) is int for _, c in combo), combo.terms
    assert a.scaled(0).is_zero()
    # a Fraction or a float factor gives Fractions, the float converted exactly
    for factor, expected in ((Fraction(1, 2), {1: 1, 2: Fraction(3, 2)}),
                             (0.5, {1: 1, 2: Fraction(3, 2)}), (Fraction(4), {1: 8, 2: 12}),
                             (0.1, {1: 2 * Fraction(0.1), 2: 3 * Fraction(0.1)})):
        scaled = a.scaled(factor)
        assert scaled.terms == expected
        assert all(type(c) is Fraction for _, c in scaled), (factor, scaled.terms)


def test_scaled_by_one_and_minus_one():
    # keyed by the output letters of a three-letter space, which the
    # Operation constructor checks
    letters = space(("x", 0), ("y", 0), ("z", 0))
    combo = LinearCombination({0: Fraction(1, 3), 1: -2, 2: Fraction(7, 10009)})
    for one in (1, Fraction(1), 1.0):
        assert combo.scaled(one) is combo
    for minus_one in (-1, Fraction(-1), -1.0):
        negated = combo.scaled(minus_one)
        assert negated == LinearCombination({k: -c for k, c in combo})
        assert negated == combo.scaled(Fraction(-2)).scaled(Fraction(1, 2))
        # an int factor keeps the int value an int; a Fraction or a float
        # factor makes every value a Fraction
        kinds = [Fraction, int if minus_one.__class__ is int else Fraction, Fraction]
        assert [type(c) for _, c in negated] == kinds
    assert (combo + combo.scaled(-1)).is_zero()
    # the shared result of scaled(1) is never changed by later operations
    same = combo.scaled(1)
    before = dict(same.terms)
    results = [same + combo, same - combo, same.scaled(-1), same.scaled(3),
               map_keys(same, str), LinearCombination(same.terms),
               Operation(letters, 1, 0, {(0,): same}).scaled(-1)]
    assert same.terms == before and combo.terms == before
    assert results[1].is_zero() and results[0] == combo.scaled(2)
    op = Operation(letters, 1, 0, {(0,): combo})
    stored = {word: dict(sums) for word, sums in op.numerators.items()}
    for one in (1, Fraction(1), 1.0):
        assert op.scaled(one) is op
    for negated in (op.scaled(-1), -op):
        assert negated is not op and negated.numerators is not op.numerators
        assert negated.table[(0,)] == combo.scaled(-1) and op.table[(0,)] == combo
    assert op.numerators == stored
    assert (op + op.scaled(-1)).is_zero() and op.scaled(-1).scaled(-1) == op


def test_table_from_terms_groups_per_word_and_drops_zero_words():
    from hopla.graded import table_from_terms
    terms = [((0, 1), 0, 1), ((1, 0), 1, Fraction(1, 2)), ((0, 1), 0, -1),
             ((1, 0), 0, 2), ((0, 1), 1, 0), ((1, 0), 1, 0.5)]
    assert table_from_terms(terms) == {(1, 0): {0: 2, 1: 1}}
    assert table_from_terms([]) == {}
    # integer numerators stay ints
    numerators = table_from_terms([((0,), 1, 3), ((1,), 0, 2), ((0,), 1, -3), ((1,), 0, 2)])
    assert numerators == {(1,): {0: 4}} and type(numerators[(1,)][0]) is int


@st.composite
def term_streams(draw):
    """A (word, output letter, coefficient) stream on 1-4 words and 1-3
    letters, coefficients in -2..2 (0 included), all ints or all Fractions
    over one denominator, and that denominator (None for ints).  Half the
    streams follow their head with its negation, so every word of the head
    cancels, and then with a tail that brings some of them back."""
    words = draw(st.lists(st.sampled_from(list(itertools.product(range(2), repeat=2))),
                          min_size=1, max_size=4, unique=True))
    letters = draw(st.integers(1, 3))
    den = draw(st.sampled_from((None, 1, 3)))
    coefficients = st.integers(-2, 2)
    if den is not None:
        coefficients = coefficients.map(lambda n: Fraction(n, den))
    term = st.tuples(st.sampled_from(words), st.integers(0, letters - 1), coefficients)
    head, tail = draw(st.lists(term, max_size=12)), draw(st.lists(term, max_size=6))
    undo = [(word, letter, -c) for word, letter, c in head] if draw(st.booleans()) else []
    return head + undo + tail, den


@given(term_streams())
def test_table_from_terms_matches_the_grouped_oracle(drawn):
    # the one-pass sum against the per-word groups summed by sum_by_key:
    # the same words and letters in the same order at both levels, no zero
    # kept, and ints summed as ints, Fractions as Fractions
    from hopla.graded import table_from_terms
    terms, den = drawn
    table = table_from_terms(iter(terms))
    assert ([(word, list(sums.items())) for word, sums in table.items()]
            == [(word, list(sums.items())) for word, sums in table_by_groups(terms).items()])
    kind = int if den is None else Fraction
    assert all(type(c) is kind and c for sums in table.values() for c in sums.values())


@st.composite
def pair_streams(draw):
    """(key, coefficient) streams of ints, 2^64 among them, or of Fractions
    over one denominator, and that denominator (None for ints).  Half the
    streams follow their head with its negation, so every key of the head
    cancels, and then with a tail that brings some of them back."""
    den = draw(st.sampled_from((None, 1, 3)))
    coefficients = st.integers(-2, 2) | st.sampled_from((2 ** 64, -2 ** 64))
    if den is not None:
        coefficients = coefficients.map(lambda n: Fraction(n, den))
    pair = st.tuples(st.sampled_from("abcd"), coefficients)
    head, tail = draw(st.lists(pair, max_size=12)), draw(st.lists(pair, max_size=6))
    undo = [(key, -c) for key, c in head] if draw(st.booleans()) else []
    return head + undo + tail, den


@given(pair_streams())
def test_sum_by_key_adds_as_given(drawn):
    # the one-pass sum against a plain loop per key: the same sums, no zero
    # kept, and ints summed as ints, Fractions as Fractions
    from hopla.graded import sum_by_key
    pairs, den = drawn
    sums = sum_by_key(iter(pairs))
    assert sums == sums_by_loop(pairs)
    kind = int if den is None else Fraction
    assert all(type(c) is kind and c for c in sums.values())


def test_operation_family_degree_validation(flat2):
    from hopla.errors import ConventionError
    from hopla.graded import HAT, OperationFamily
    op = Operation(flat2, 2, 0, {(0, 0): LinearCombination({0: 1})})
    with pytest.raises(ConventionError):
        OperationFamily(HAT, flat2, 2, {2: op})


def _refusals():
    sp, other = GradedSpace(("a", "b"), (0, 0)), GradedSpace(("c",), (0,))
    op = Operation(sp, 2, 0, {(0, 1): {0: 1}})
    elsewhere = Operation(other, 2, 0, {(0, 0): {0: 1}})
    return [
        ("space-lengths", lambda: GradedSpace(("a",), (0, 1)), ValueError,
         "labels and degrees differ in length"),
        ("space-label", lambda: sp.index("z"), BasisIndexError, "unknown basis label 'z'"),
        ("operation-arity", lambda: Operation(sp, 0, 0, {}), ArityError,
         "arity must be >= 1, got 0"),
        ("table-word", lambda: Operation(sp, 2, 0, {(0,): {0: 1}}), ArityError,
         "table word (0,) has length 1, arity is 2"),
        ("evaluate-word", lambda: op.evaluate((0,)), ArityError, "word length 1 != arity 2"),
        ("add-spaces", lambda: op + elsewhere, ArityError,
         "cannot add operations on different spaces or arities"),
        ("insertion-spaces", lambda: list(insertion_terms(op, elsewhere, 0)), ArityError,
         "an insertion requires operations on the same space"),
        ("family-degree", lambda: family_degree("bogus", 2), ValueError,
         "unknown convention 'bogus'"),
        ("family-convention", lambda: OperationFamily("bogus", sp, 2), ValueError,
         "convention must be 'hat' or 'unhat', got 'bogus'"),
        ("family-cap", lambda: OperationFamily(UNHAT, sp, 0), ArityError,
         "max_arity must be >= 1"),
        ("family-arity", lambda: OperationFamily(UNHAT, sp, 1, {2: op}), ArityError,
         "arity 2 outside 1..1"),
        ("family-space", lambda: OperationFamily(UNHAT, sp, 2, {2: elsewhere}), ArityError,
         "operation at arity 2 lives on a different space"),
        ("family-filed", lambda: OperationFamily(UNHAT, sp, 3, {3: op}), ArityError,
         "operation of arity 2 filed under 3"),
        ("family-degree-at-arity", lambda: OperationFamily(HAT, sp, 2, {2: op}),
         ConventionError, "hat family requires degree -1 at arity 2, got 0"),
    ]


@pytest.mark.parametrize("index", range(len(_refusals())),
                         ids=[name for name, *_ in _refusals()])
def test_graded_refusals_name_what_they_refuse(index):
    _, refuse, error, message = _refusals()[index]
    with pytest.raises(error) as caught:
        refuse()
    assert type(caught.value) is error and str(caught.value) == message
