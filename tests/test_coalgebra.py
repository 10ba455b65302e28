import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import perm_square_two_sum_form, square_component, with_entry
from hopla.coalgebra import (PERM, TENSOR, WEDGE, check_coderivation,
                             coalgebra_map, coalgebra_words, comultiply,
                             extend_coderivation, perm_words, project_pi,
                             square_cogenerator_component, wedge_normalize,
                             wedge_words, word_count)
from hopla.equations import ASSOC, PRELIE, EquationFlavor, residual
from hopla.errors import ConventionError, KindError, SymmetryError
from hopla.functors import suspend_family
from hopla.graded import (HAT, UNHAT, GradedSpace, LinearCombination, Operation,
                          OperationFamily)
from hopla.permutations import RHO1, koszul_sign
from hopla.verify import (coassociativity_witness, coalgebra_map_law_witness,
                          factorization_witness, random_unhat_family,
                          section_witness)


def test_wedge_normalize_idempotent_and_signs(graded2):
    s, w = wedge_normalize(graded2, (1, 0))
    assert (s, w) == (1, (0, 1))  # 0*1 degree product even
    s2, w2 = wedge_normalize(graded2, w)
    assert (s2, w2) == (1, w)
    odd = GradedSpace(("x", "y"), (1, 1))
    s3, w3 = wedge_normalize(odd, (1, 0))
    assert (s3, w3) == (-1, (0, 1))
    assert wedge_normalize(odd, (0, 0)) == (0, None)
    even = GradedSpace(("p",), (2,))
    assert wedge_normalize(even, (0, 0)) == (1, (0, 0))


def test_wedge_normalize_sign_matches_koszul(graded2):
    # sorting permutation sign agrees with the Koszul sign machinery
    odd3 = GradedSpace(("x", "y", "z"), (1, 1, 1))
    for word in itertools.permutations(range(3)):
        s, w = wedge_normalize(odd3, word)
        sigma = tuple(w.index(x) + 1 for x in word)
        # eps defined by sorted = eps * permuted-back
        assert s == koszul_sign(sigma, [1, 1, 1])


@given(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=3, max_size=3), st.data())
def test_wedge_normalize_equivariant_under_permutation(degrees, data):
    # permuting the letters changes the canonical sign by exactly the
    # Koszul sign of the permutation (or both sides are the zero word)
    sp = GradedSpace(("x", "y", "z"), tuple(degrees))
    letters = data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=3, max_size=3))
    sigma = tuple(data.draw(st.permutations([1, 2, 3])))
    s0, w0 = wedge_normalize(sp, letters)
    permuted = [letters[i - 1] for i in sigma]
    s1, w1 = wedge_normalize(sp, permuted)
    if w0 is None:
        assert w1 is None
    else:
        eps = koszul_sign(sigma, [sp.degree(x) for x in letters])
        assert (w1, s1) == (w0, s0 * eps)


def test_comultiply_weight_one_is_zero(graded2):
    assert comultiply(TENSOR, graded2, (0,)).is_zero()
    assert comultiply(WEDGE, graded2, (1,)).is_zero()
    assert comultiply(PERM, graded2, ((), 0)).is_zero()


def test_comultiply_tensor_pair(graded2):
    got = comultiply(TENSOR, graded2, (0, 1))
    assert got == LinearCombination({((0,), (1,)): 1})


def test_comultiply_wedge_pair(flat2):
    got = comultiply(WEDGE, flat2, (0, 1))
    assert got == LinearCombination({((0,), (1,)): 1, ((1,), (0,)): 1})


def test_comultiply_perm_keeps_tail(graded2):
    got = comultiply(PERM, graded2, ((0, 1), 0))
    for (left, right), _ in got:
        assert right[1] == 0


def test_coassociativity_all_kinds(graded2):
    for kind in (TENSOR, WEDGE, PERM):
        assert coassociativity_witness(kind, graded2, 4) is None


def test_coalgebra_map_weight_one_is_identity(graded2):
    for name in ("alpha", "beta"):
        elt = coalgebra_map(name, graded2, (1,))
        key = (1,) if name == "alpha" else ((), 1)
        assert elt == LinearCombination({key: 1})
    elt = coalgebra_map("gamma", graded2, ((), 1))
    assert elt == LinearCombination({(1,): 1})


def test_alpha_on_pair(flat2):
    elt = coalgebra_map("alpha", flat2, (0, 1))
    assert elt == LinearCombination({(0, 1): 1, (1, 0): 1})


def test_gamma_beta_equals_alpha_all_degree_assignments():
    for degs in itertools.product((0, 1, 2), repeat=3):
        sp = GradedSpace(("x", "y", "z"), degs)
        word = (0, 1, 2)
        via = {}
        for (head, tail), c in coalgebra_map("beta", sp, word):
            for w, cc in coalgebra_map("gamma", sp, (head, tail)):
                via[w] = via.get(w, Fraction(0)) + c * cc
        via = {k: v for k, v in via.items() if v}
        direct = dict(coalgebra_map("alpha", sp, word).terms)
        assert via == direct


def test_map_laws(graded2):
    for name in ("alpha", "beta", "gamma"):
        assert coalgebra_map_law_witness(name, graded2, 4) is None


def test_factorization_and_section(graded2):
    assert factorization_witness(graded2, 5) is None
    assert section_witness(graded2, 5) is None


def test_project_pi_examples(graded2):
    one = project_pi(graded2, (1,))
    assert one == LinearCombination({(1,): 1})
    # pi(alpha(x ^ y)) = x ^ y for degrees (0, 0) and (1, 1)
    for degs in ((0, 0), (1, 1)):
        sp = GradedSpace(("x", "y"), degs)
        acc = LinearCombination()
        for w, c in coalgebra_map("alpha", sp, (0, 1)):
            acc = acc + project_pi(sp, w).scaled(c)
        assert acc == LinearCombination({(0, 1): 1})
    odd = GradedSpace(("x",), (1,))
    assert project_pi(odd, (0, 0)).is_zero()


def test_extend_requires_hat(kt2):
    sp, mu = kt2
    fam = OperationFamily(UNHAT, sp, 3, {2: mu})
    with pytest.raises(ConventionError):
        extend_coderivation(fam, TENSOR, 3)


def test_extend_requires_symmetry(kt2):
    sp, mu = kt2
    hat = suspend_family(OperationFamily(UNHAT, sp, 3, {2: mu}))
    with pytest.raises(SymmetryError):
        extend_coderivation(hat, WEDGE, 3)  # kt2 product is not symmetric enough


def test_extend_requires_homogeneity():
    # mu(u, u) = u has output degree 0 on inputs of degree 0, not degree -1;
    # the wedge and Perm unshuffle sums rely on the degree
    sp = GradedSpace(("u", "v"), (0, 1))
    mu = Operation(sp, 2, -1, {(0, 0): LinearCombination({0: 1})})
    fam = OperationFamily(HAT, sp, 3, {2: mu})
    for kind in (WEDGE, PERM):
        with pytest.raises(ConventionError, match="arity-2 operation"):
            extend_coderivation(fam, kind, 3)
    assert extend_coderivation(fam, TENSOR, 3).component(2, 1)


def test_differential_extension_on_tensor_words():
    # single arity-1 map: the (k,k) components alternate signs by the
    # degree of what the map moves past
    sp = GradedSpace(("u", "v"), (0, 1))
    d = Operation(sp, 1, -1, {(1,): LinearCombination({0: 1})})
    fam = OperationFamily(HAT, sp, 3, {1: d})
    D = extend_coderivation(fam, TENSOR, 3)
    # D(v (x) v) = d(v) (x) v + (-1)^{|v|} v (x) d(v)
    got = D.apply_word((1, 1))
    assert got == LinearCombination({(0, 1): 1, (1, 0): -1})


def test_cogenerator_component_is_the_operation(graded2, rng):
    fam = random_unhat_family(rng, graded2, (1, 2, 3), symmetrize="partial")
    hat = suspend_family(fam)
    D = extend_coderivation(hat, PERM, 4)
    for n in hat.arities():
        comp = D.component(n, 1)
        op = hat.ops[n]
        for head, tail in perm_words(hat.space, n):
            word = head + (tail,)
            expected = op.evaluate(word)
            got = comp.get((head, tail), LinearCombination())
            assert got.map_keys(lambda w: w[1]) == expected
    # tensor: the (n,1) component is the operation on the nose
    Dt = extend_coderivation(hat, TENSOR, 4)
    for n in hat.arities():
        comp = Dt.component(n, 1)
        assert {w: c.map_keys(lambda u: u[0]) for w, c in comp.items()} == hat.ops[n].table
    # wedge: on canonical words, for a fully symmetric family
    full = suspend_family(random_unhat_family(rng, graded2, (1, 2), symmetrize="full"))
    Dw = extend_coderivation(full, WEDGE, 3)
    for n in full.arities():
        comp = Dw.component(n, 1)
        op = full.ops[n]
        for word in wedge_words(full.space, n):
            got = comp.get(word, LinearCombination())
            assert got.map_keys(lambda u: u[0]) == op.evaluate(word)


def test_perm_component_matches_unshuffle_display(graded2):
    # family with a single symmetric binary operation; component (3, 2)
    sp = GradedSpace(("u", "v"), (1, 2))
    mu = Operation(sp, 2, -1, {(0, 0): LinearCombination({0: 1})})
    # (u, u): eps swap = -1... build instead a rho1-symmetric table
    from hopla.permutations import failing_symmetry_generator
    assert failing_symmetry_generator(mu, RHO1, full=False) is None
    fam = OperationFamily(HAT, sp, 3, {2: mu})
    D = extend_coderivation(fam, PERM, 3)
    from hopla.permutations import sh
    comp = D.component(3, 2)
    for head, tail in perm_words(sp, 3):
        degs = [sp.degree(x) for x in head]
        expected = {}
        for s in sh(1, 1):  # Sh(k-l, 1, l-2) with k=3, l=2
            eps = koszul_sign(s, degs)
            mapped = [head[t - 1] for t in s]
            for mid, c in mu.evaluate(tuple(mapped[:2])):
                key = ((mid,), tail)
                expected[key] = expected.get(key, Fraction(0)) + eps * c
        for s in sh(1, 1):  # Sh(l-1, k-l)
            eps = koszul_sign(s, degs)
            mapped = [head[t - 1] for t in s]
            sign = -1 if sp.degree(mapped[0]) % 2 else 1
            for mid, c in mu.evaluate((mapped[1], tail)):
                key = ((mapped[0],), mid)
                expected[key] = expected.get(key, Fraction(0)) + eps * sign * c
        expected = {k: v for k, v in expected.items() if v}
        got = comp.get((head, tail), LinearCombination())
        assert dict(got.terms) == expected


def test_check_coderivation_zero_and_extended(graded2, rng):
    from hopla.coalgebra import Coderivation
    zero = Coderivation(TENSOR, graded2, 3, -1, {})
    assert check_coderivation(zero)
    fam = random_unhat_family(rng, graded2, (1, 2, 3), symmetrize="partial")
    hat = suspend_family(fam)
    assert check_coderivation(extend_coderivation(hat, PERM, 4))
    assert check_coderivation(extend_coderivation(hat, TENSOR, 4))
    full = random_unhat_family(rng, graded2, (1, 2), symmetrize="full")
    assert check_coderivation(extend_coderivation(suspend_family(full), WEDGE, 4))
    # random homogeneous families on dims 2 and 3, every kind, caps 4 to 6;
    # the symmetry is the one each extension requires
    symmetry = {TENSOR: None, WEDGE: "full", PERM: "partial"}
    for degrees, kind, cap in itertools.product(((0, 1), (1, 1), (0, 1, 2), (1, 0, 1)),
                                                (TENSOR, WEDGE, PERM), (4, 5, 6)):
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        fam = random_unhat_family(rng, sp, (1, 2, 3), symmetrize=symmetry[kind], density=0.6)
        D = extend_coderivation(suspend_family(fam), kind, cap)
        assert check_coderivation(D), (degrees, kind, cap)


def test_corrupted_coderivation_fails_the_law(graded2, rng):
    fam = random_unhat_family(rng, graded2, (1, 2), symmetrize="partial")
    hat = suspend_family(fam)
    D = extend_coderivation(hat, PERM, 3)
    word = next(iter(coalgebra_words(PERM, hat.space, 3)))
    bad = with_entry(D, 3, 2, word, LinearCombination({((0,), 0): Fraction(7)}))
    assert not check_coderivation(bad)


def test_square_zero_for_square_zero_differential():
    sp = GradedSpace(("u", "v"), (0, 1))
    d = Operation(sp, 1, -1, {(1,): LinearCombination({0: 1})})
    fam = OperationFamily(HAT, sp, 4, {1: d})
    for kind in (TENSOR, WEDGE, PERM):
        D = extend_coderivation(fam, kind, 4)
        assert D.first_nonzero_square() is None
        for n in range(1, 5):
            assert square_cogenerator_component(D, n).is_zero()


def test_tensor_square_of_dga_family_vanishes(dga):
    hat = suspend_family(dga)
    D = extend_coderivation(hat, TENSOR, 4)
    for n in range(1, 5):
        assert square_cogenerator_component(D, n).is_zero()
    assert D.first_nonzero_square() is None


def test_tensor_square_equals_assoc_residual(graded2, rng):
    fam = random_unhat_family(rng, graded2, (1, 2, 3), symmetrize=None)
    hat = suspend_family(fam)
    D = extend_coderivation(hat, TENSOR, 4)
    for n in range(1, 5):
        assert square_cogenerator_component(D, n) \
            == residual(hat, EquationFlavor(ASSOC, HAT), n).op


def test_perm_square_equals_prelie_residual(graded2, rng):
    nonzero = 0
    for _ in range(4):
        fam = random_unhat_family(rng, graded2, (1, 2, 3), symmetrize="partial")
        hat = suspend_family(fam)
        D = extend_coderivation(hat, PERM, 4)
        for n in range(1, 5):
            q = residual(hat, EquationFlavor(PRELIE, HAT), n, check_symmetry=False).op
            assert square_cogenerator_component(D, n) == q
            nonzero += 0 if q.is_zero() else 1
    assert nonzero > 0  # the comparison must not be vacuous


def test_perm_square_components_match_two_sum_form(graded2, rng):
    fam = random_unhat_family(rng, graded2, (1, 2, 3), symmetrize="partial")
    hat = suspend_family(fam)
    cap = 5
    D = extend_coderivation(hat, PERM, cap)
    for k in range(1, cap + 1):
        for n in range(1, k + 1):
            q = residual(hat, EquationFlavor(PRELIE, HAT), n, check_symmetry=False).op
            got = square_component(D, k, k - n + 1)
            for head, tail in perm_words(hat.space, k):
                expected = perm_square_two_sum_form(hat.space, q, head, tail)
                actual = dict(got.get((head, tail), LinearCombination()).terms)
                assert actual == expected


def test_square_zero_iff_residuals_vanish(graded2, rng):
    # non-satisfying instances have nonzero squares; nilpotent ones vanish
    fam = random_unhat_family(rng, graded2, (2, 3), symmetrize="partial")
    hat = suspend_family(fam)
    D = extend_coderivation(hat, PERM, 4)
    residuals_vanish = all(
        residual(hat, EquationFlavor(PRELIE, HAT), n, check_symmetry=False).vanishes()
        for n in range(1, 5))
    assert (D.first_nonzero_square() is None) == residuals_vanish

    from hopla.drivers import generate_random
    doc = generate_random(3, [0, 1], [2, 3], 0.7, seed=5, symmetrize="partial",
                          nilpotent=True)
    hat2 = suspend_family(doc.family)
    D2 = extend_coderivation(hat2, PERM, 4)
    assert D2.first_nonzero_square() is None


def test_kind_errors(graded2):
    with pytest.raises(KindError):
        comultiply("spam", graded2, (0,))
    with pytest.raises(KindError):
        coalgebra_map("delta", graded2, (0,))


def test_word_count_matches_enumeration():
    # closed form against the enumeration, on spaces with only even, only
    # odd and mixed letters, including the empty wedge weights of odd spaces
    for degrees in ((0,), (1,), (0, 1), (1, -1), (1, 1, 1), (0, 2, 1), (2, 1, 0, -1)):
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        for kind in (TENSOR, WEDGE, PERM):
            total = 0
            for cap in range(1, 7):
                total += len(list(coalgebra_words(kind, sp, cap)))
                assert word_count(kind, sp, cap) == total, (degrees, kind, cap)
    with pytest.raises(KindError):
        word_count("spam", GradedSpace(("x",), (0,)), 2)


def test_wedge_words_exclude_odd_repeats(graded2):
    words = list(wedge_words(graded2, 2))
    assert (1, 1) not in words
    assert (0, 0) in words and (0, 1) in words
