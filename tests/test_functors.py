import itertools
import random
from fractions import Fraction

import pytest

from conftest import associative_family, commutator_bracket, matrix_product_document
from hopla.coalgebra import (PERM, TENSOR, WEDGE, coalgebra_map, coalgebra_words,
                             extend_coderivation)
from hopla.docio import AlgebraDocument
from hopla.drivers import run_check, run_derive
from hopla.equations import (ASSOC, LIE, PARTIALLY_ASSOCIATIVE, PRELIE,
                             EquationFlavor, nary_family, nary_residual, residual)
from hopla.errors import ConventionError, GradingError, SymmetryError
from hopla.functors import (commutator, desuspend_family, nary_embed, suspend_family,
                            suspend_operation, suspension_sign)
from hopla.graded import (HAT, UNHAT, GradedSpace, LinearCombination, Operation,
                          OperationFamily, check_homogeneous)
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, RHO1, RHO2,
                                failing_symmetry_generator, precompose_symmetrized)
from hopla.verify import (commutator_pipeline_witness, random_operation,
                          random_unhat_family, sign_transfer_witness,
                          suspension_square_witness, coderivation_correspondence_witness)


def test_suspension_sign_values():
    assert suspension_sign(2, [0, 0]) == 1
    assert suspension_sign(2, [1, 0]) == -1
    assert suspension_sign(2, [0, 1]) == 1
    assert suspension_sign(1, [0]) == -1  # odd case, empty exponent sum
    assert suspension_sign(1, [3]) == -1
    assert suspension_sign(3, [0, 1, 0]) == 1  # -(-1)^{|x_2|}


def test_suspend_family_shifts_degrees_and_signs(kt2):
    sp, mu = kt2
    fam = associative_family(sp, mu)
    hat = suspend_family(fam)
    assert hat.convention == HAT
    assert hat.space.degrees == (1, 1)
    # n = 2 with all base degrees 0: sign +1
    assert hat.ops[2].table == mu.table
    assert check_homogeneous(hat.ops[2])


def test_suspend_unary_flips_sign(graded2):
    d = Operation(graded2, 1, -1, {(1,): LinearCombination({0: 1})})
    fam = OperationFamily(UNHAT, graded2, 2, {1: d})
    hat = suspend_family(fam)
    assert hat.ops[1].evaluate((1,)) == LinearCombination({0: -1})


def test_round_trip_is_identity(graded2, rng, dga):
    for _ in range(6):
        fam = random_unhat_family(rng, graded2, (1, 2, 3, 4), symmetrize=None)
        assert desuspend_family(suspend_family(fam)) == fam
    # negative degrees exercise the parity formula too
    assert desuspend_family(suspend_family(dga)) == dga


def test_desuspend_applies_matching_sign():
    # binary entry on base degrees (1, 0): both directions use sign -1
    sp = GradedSpace(("x", "y"), (1, 0))
    mu = Operation(sp, 2, 0, {(0, 1): LinearCombination({0: 1})})
    fam = OperationFamily(UNHAT, sp, 2, {2: mu})
    hat = suspend_family(fam)
    assert hat.ops[2].evaluate((0, 1)) == LinearCombination({0: -1})
    back = desuspend_family(hat)
    assert back.ops[2].evaluate((0, 1)) == LinearCombination({0: 1})


def test_convention_guards(kt2):
    sp, mu = kt2
    fam = associative_family(sp, mu)
    with pytest.raises(ConventionError):
        desuspend_family(fam)
    with pytest.raises(ConventionError):
        suspend_family(suspend_family(fam))


def test_suspension_intertwines_residuals(graded2, rng):
    # hat residual of the suspended family = minus the suspended unhat
    # residual, for all three flavors
    nontrivial = 0
    for _ in range(4):
        fam = random_unhat_family(rng, graded2, (1, 2, 3), symmetrize="partial")
        full = random_unhat_family(rng, graded2, (1, 2), symmetrize="full")
        hat, hatfull = suspend_family(fam), suspend_family(full)
        for n in range(1, 5):
            for kind, f, h in ((ASSOC, fam, hat), (PRELIE, fam, hat), (LIE, full, hatfull)):
                r_unhat = residual(f, EquationFlavor(kind, UNHAT), n, check_symmetry=False).op
                r_hat = residual(h, EquationFlavor(kind, HAT), n, check_symmetry=False).op
                assert r_hat == -suspend_operation(r_unhat)
                nontrivial += 0 if r_hat.is_zero() else 1
    assert nontrivial > 0


def test_sign_transfer_lemma_exhaustive():
    # both parities, every sigma, every degree assignment from {0,1,2}
    for n in range(2, 7):
        for degs in itertools.product((0, 1, 2), repeat=n - 1):
            assert sign_transfer_witness(n, list(degs)) is None


def test_symmetry_transfer(graded2, rng):
    # partial symmetry under rho2 before suspension iff under rho1 after
    for _ in range(8):
        op = random_operation(rng, graded2, 3, 1, density=0.5)
        fam = OperationFamily(UNHAT, graded2, 3, {3: op} if not op.is_zero() else {})
        hat = suspend_family(fam)
        if 3 not in fam.ops:
            continue
        assert (failing_symmetry_generator(fam.ops[3], RHO2, full=False) is None) \
            == (failing_symmetry_generator(hat.ops[3], RHO1, full=False) is None)
        sym = precompose_symmetrized(op, RHO2, MODE_PARTIAL)
        fam2 = OperationFamily(UNHAT, graded2, 3, {3: sym} if not sym.is_zero() else {})
        hat2 = suspend_family(fam2)
        if 3 in fam2.ops:
            assert failing_symmetry_generator(hat2.ops[3], RHO1, full=False) is None


def test_commutator_arity_one_is_identity(graded2, rng):
    d = random_operation(rng, graded2, 1, -2, density=0.9)
    fam = OperationFamily(UNHAT, graded2, 1, {1: d} if not d.is_zero() else {})
    for name in ("alpha", "beta", "gamma"):
        assert commutator(fam, name) == fam


def test_commutator_binary_examples(corner):
    sp, mu = corner
    fam = associative_family(sp, mu)
    gamma = commutator(fam, "gamma")
    assert gamma.ops[2] == mu  # S_1 is trivial
    beta = commutator(fam, "beta")
    assert beta.ops[2] == commutator_bracket(sp, mu)


def test_beta_after_gamma_is_alpha(graded2, rng):
    for conv in (UNHAT, HAT):
        for _ in range(4):
            fam = random_unhat_family(rng, graded2, (1, 2, 3, 4), symmetrize=None)
            if conv == HAT:
                fam = suspend_family(fam)
            assert commutator(commutator(fam, "gamma"), "beta") == commutator(fam, "alpha")


def test_commutator_theorem_on_samples(kt2, corner, dga):
    sp, mu = kt2
    assert commutator_pipeline_witness(associative_family(sp, mu), 4) is None
    sp, mu = corner
    assert commutator_pipeline_witness(associative_family(sp, mu), 4) is None
    assert commutator_pipeline_witness(dga, 4) is None
    # trivial family
    trivial = OperationFamily(UNHAT, sp, 4, {})
    assert commutator_pipeline_witness(trivial, 4) is None
    # hat side
    assert commutator_pipeline_witness(suspend_family(dga), 4) is None


def test_commutator_suspension_square(kt2, dga, rng, graded2):
    sp, mu = kt2
    assert suspension_square_witness(associative_family(sp, mu), "gamma") is None
    assert suspension_square_witness(dga, "gamma") is None
    for name in ("alpha", "beta", "gamma"):
        fam = random_unhat_family(rng, graded2, (1, 2, 3, 4), symmetrize=None)
        assert suspension_square_witness(fam, name) is None


def test_nary_embed_binary_is_flat(corner):
    sp, mu = corner
    emb = nary_embed(mu)
    assert emb.space == sp
    assert emb.ops[2] == mu


def test_nary_embed_ternary_structure(flat2):
    mu = Operation(flat2, 3, 0, {(0, 0, 0): LinearCombination({1: 1})})
    emb = nary_embed(mu)
    assert emb.space.degrees == (0, 0, 1, 1, 2, 2)
    op = emb.ops[3]
    assert check_homogeneous(op)
    # all inputs in the degree-0 copy land in the degree-1 copy
    assert op.evaluate((0, 0, 0)) == LinearCombination({3: 1})
    # one degree-1 input lands in the degree-2 copy
    assert op.evaluate((2, 0, 0)) == LinearCombination({5: 1})
    # total degree 2 evaluates to zero
    assert op.evaluate((2, 2, 0)).is_zero()
    assert op.evaluate((4, 0, 0)).is_zero()


def test_nary_embed_requires_degree_zero(graded2):
    mu = Operation(graded2, 2, 0, {})
    with pytest.raises(GradingError):
        nary_embed(mu)


def test_nary_commutator_prelie_binary_is_identity(corner):
    sp, mu = corner
    p = commutator(nary_family(mu), "gamma").operation(2)
    assert p == mu
    assert nary_residual(p, PRELIE).vanishes()


def test_nary_commutator_zero(flat2):
    zero = Operation(flat2, 3, 0)
    assert commutator(nary_family(zero), "gamma").operation(3).is_zero()
    assert commutator(nary_family(zero), "beta").operation(3).is_zero()


def test_nary_commutator_lie_binary(corner):
    sp, mu = corner
    lie = commutator(nary_family(mu), "beta").operation(2)  # arity 2: p(x,y) - p(y,x)
    assert lie == commutator_bracket(sp, mu)
    assert nary_residual(lie, LIE).vanishes()
    # [a, b] = b in the corner algebra
    assert lie.evaluate((0, 1)) == LinearCombination({1: 1})


def test_nary_commutator_lie_requires_symmetry(kt2):
    sp, mu = kt2
    bad = Operation(sp, 3, 0, {(0, 0, 0): LinearCombination({1: 1})})
    doc = AlgebraDocument(OperationFamily(UNHAT, sp, 3, {3: bad.with_degree(1)}),
                          ("prelie_n", 3))
    with pytest.raises(SymmetryError):
        run_derive(doc, "nary-commutator-lie")


def test_full_antisymmetrization_proportionality(flat2, rng):
    import math
    for n in (2, 3, 4):
        for _ in range(4):
            p = precompose_symmetrized(random_operation(rng, flat2, n, 0),
                                       RHO2, MODE_PARTIAL)
            full = precompose_symmetrized(p, RHO2, MODE_FULL)
            assert full == commutator(nary_family(p), "beta").operation(n).scaled(
                math.factorial(n - 1))


def test_partially_associative_to_prelie_to_lie_chain(flat2, rng):
    # Corollary chain on nilpotent instances: outputs absorb everything
    table = {(0, 0, 0): LinearCombination({1: 2})}
    mu = Operation(flat2, 3, 0, table)
    assert nary_residual(mu, PARTIALLY_ASSOCIATIVE).vanishes()
    p = commutator(nary_family(mu), "gamma").operation(3)
    assert nary_residual(p, PRELIE).vanishes()
    lie = commutator(nary_family(p), "beta").operation(3)
    assert nary_residual(lie, LIE).vanishes()


@pytest.mark.parametrize("m", [2, 3])
def test_matrix_products_run_the_nary_chain(m):
    # the paper's n-ary corollary on instances that are not nilpotent: at
    # n = 4 the four composites of the matrix product all equal the
    # seven-fold product with the alternating signs (-1)^(3i), so they
    # cancel in pairs; gamma's image is pre-Lie and beta's image of that is
    # Lie.  On M_2 the Lie image is the standard polynomial s_4, which
    # vanishes by Amitsur-Levitzki; on M_3 it does not.  Verdicts and zeros
    # only: a lie_n witness value is not asserted
    doc = matrix_product_document(m, 4)
    assert len(doc.family.operation(4).table) == m ** 5
    prelie = run_derive(doc, "nary-commutator-prelie")
    lie = run_derive(prelie, "nary-commutator-lie")
    assert (prelie.declared_type, lie.declared_type) == (("prelie_n", 4), ("lie_n", 4))
    for document, flavor in ((doc, ASSOC), (prelie, PRELIE), (lie, LIE)):
        report = run_check(document, flavor)
        assert report.checks and report.passed, (m, flavor, report.to_text())
    assert not prelie.family.operation(4).is_zero()
    assert lie.family.operation(4).is_zero() == (m == 2)
    # at n = 3 the three composites all carry the sign +, and do not cancel
    report = run_check(matrix_product_document(m, 3), ASSOC)
    assert report.checks and not report.passed, report.to_text()


def test_coderivation_correspondence_random(graded2, rng):
    for _ in range(3):
        fam = random_unhat_family(rng, graded2, (1, 2, 3), symmetrize="partial")
        assert coderivation_correspondence_witness(fam, 4, 4) is None


def _apply_coderivation(D, combo):
    """D of a combination of canonical words, in Fractions."""
    return LinearCombination((w, c * Fraction(cc, D.denominator))
                             for u, c in combo for w, cc in D.image(u).items())


def _apply_map(name, space, combo):
    return LinearCombination((w, c * cc) for u, c in combo
                             for w, cc in coalgebra_map(name, space, u))


def test_functors_intertwine_the_coderivations_they_induce():
    # the commutators as coalgebra maps: gamma o D_P(gamma mu) = D_T(mu) o gamma,
    # alpha o D_W(alpha mu) = D_T(mu) o alpha and beta o D_W(beta nu) = D_P(nu) o beta
    # for nu = gamma mu.  The left sides expand each image through the
    # coproduct path (`extend_coderivation`) of a family symmetrized by the
    # fold/expand path (`commutator`); the right sides use mu or nu as given.
    # The families are drawn with integer coefficients, and again with each
    # arity scaled by its own non-integer factor, so that the coderivations
    # carry a common denominator above 1
    cap = 4
    for scales in ({1: 1, 2: 1, 3: 1}, {1: Fraction(1, 2), 2: Fraction(-2, 3), 3: Fraction(3, 4)}):
        words = nonzero = 0
        denominators = set()
        for degrees, seed in itertools.product(((0, 1), (0, 0), (1, 1), (-1, 0, 1)), range(4)):
            sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
            drawn = suspend_family(random_unhat_family(random.Random(seed), sp, (1, 2, 3),
                                                       symmetrize=None))
            mu = OperationFamily(drawn.convention, drawn.space, drawn.max_arity,
                                 {n: op.scaled(scales[n]) for n, op in drawn.ops.items()})
            nu = commutator(mu, "gamma")
            D_T, D_P = extend_coderivation(mu, TENSOR, cap), extend_coderivation(nu, PERM, cap)
            identities = (("gamma", PERM, D_P, D_T),
                          ("alpha", WEDGE,
                           extend_coderivation(commutator(mu, "alpha"), WEDGE, cap), D_T),
                          ("beta", WEDGE,
                           extend_coderivation(commutator(nu, "beta"), WEDGE, cap), D_P))
            for name, kind, source, target in identities:
                denominators |= {source.denominator, target.denominator}
                for k in range(1, cap + 1):
                    for word in coalgebra_words(kind, mu.space, k):
                        word_combo = LinearCombination({word: 1})
                        lhs = _apply_map(name, mu.space, _apply_coderivation(source, word_combo))
                        rhs = _apply_coderivation(target, _apply_map(name, mu.space, word_combo))
                        assert lhs == rhs, (scales, degrees, seed, name, word)
                        words += 1
                        nonzero += not lhs.is_zero()
        assert nonzero >= 300, (scales, words, nonzero)
        assert (max(denominators) > 1) == (scales[2] != 1), denominators


def test_commutator_refuses_an_unknown_name_and_lists_the_three():
    family = OperationFamily(UNHAT, GradedSpace(("e",), (0,)), 2)
    with pytest.raises(ValueError) as caught:
        commutator(family, "delta")
    assert type(caught.value) is ValueError
    assert str(caught.value) == "commutator name must be one of ['alpha', 'beta', 'gamma']"
