import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (LIE_COEFFICIENT_XFAIL, RATIONAL_COEFFICIENTS, apply_word, benchmark_inputs,
                      component, flat_component, map_keys, perm_square_two_sum_form, random_table,
                      sh, square_component, truncated, with_entry)
from oracles import (coderivation_law_by_coproducts, component_by_fractions, first_nonzero_square,
                     lie_residual_by_unshuffles)
from hopla import coalgebra
from hopla.coalgebra import (PERM, TENSOR, WEDGE, Coderivation, _components, block_count,
                             check_coderivation, coalgebra_map, coalgebra_words,
                             comultiply, extend_coderivation, project_pi,
                             square_cogenerator_component, square_cogenerator_fold,
                             wedge_normalize, word_count)
from hopla.docio import parse_document
from hopla.drivers import _residual_witness, run_coderive
from hopla.equations import ASSOC, LIE, PRELIE, EquationFlavor, residual
from hopla.errors import ArityError, ConventionError, KindError, SymmetryError
from hopla.functors import commutator, suspend_family
from hopla.graded import (HAT, UNHAT, GradedSpace, LinearCombination, Operation,
                          OperationFamily, over)
from hopla.permutations import RHO1, koszul_sign
from hopla.verify import (coassociativity_witness, coalgebra_map_law_witness,
                          factorization_witness, random_operation, random_unhat_family,
                          section_witness)


def test_wedge_normalize_idempotent_and_signs(graded2):
    s, w, _ = wedge_normalize(graded2, (1, 0))
    assert (s, w) == (1, (0, 1))  # 0*1 degree product even
    s2, w2, _ = wedge_normalize(graded2, w)
    assert (s2, w2) == (1, w)
    odd = GradedSpace(("x", "y"), (1, 1))
    s3, w3, _ = wedge_normalize(odd, (1, 0))
    assert (s3, w3) == (-1, (0, 1))
    assert wedge_normalize(odd, (0, 0)) == (0, None, 0)
    even = GradedSpace(("p",), (2,))
    assert wedge_normalize(even, (0, 0)) == (1, (0, 0), 2)
    assert wedge_normalize(even, (0, 0, 0)) == (1, (0, 0, 0), 6)
    assert wedge_normalize(graded2, (1, 0, 0)) == (1, (0, 0, 1), 2)
    assert wedge_normalize(graded2, (1, 0, 1)) == (0, None, 0)


def test_wedge_normalize_sign_matches_koszul(graded2):
    # sorting permutation sign agrees with the Koszul sign machinery
    odd3 = GradedSpace(("x", "y", "z"), (1, 1, 1))
    for word in itertools.permutations(range(3)):
        s, w, _ = wedge_normalize(odd3, word)
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
    s0, w0, _ = wedge_normalize(sp, letters)
    permuted = [letters[i - 1] for i in sigma]
    s1, w1, _ = wedge_normalize(sp, permuted)
    if w0 is None:
        assert w1 is None
    else:
        eps = koszul_sign(sigma, [sp.degree(x) for x in letters])
        assert (w1, s1) == (w0, s0 * eps)


def test_comultiply_weight_one_is_zero(graded2):
    assert comultiply(TENSOR, graded2, (0,)).is_zero()
    assert comultiply(WEDGE, graded2, (1,)).is_zero()
    assert comultiply(PERM, graded2, (0,)).is_zero()


def test_comultiply_tensor_pair(graded2):
    got = comultiply(TENSOR, graded2, (0, 1))
    assert got == LinearCombination({((0,), (1,)): 1})


def test_comultiply_wedge_pair(flat2):
    got = comultiply(WEDGE, flat2, (0, 1))
    assert got == LinearCombination({((0,), (1,)): 1, ((1,), (0,)): 1})


def test_comultiply_perm_keeps_tail(graded2):
    got = comultiply(PERM, graded2, (0, 1, 0))
    for (left, right), _ in got:
        assert right[-1] == 0


def test_coassociativity_all_kinds(graded2):
    for kind in (TENSOR, WEDGE, PERM):
        assert coassociativity_witness(kind, graded2, 4) is None


def test_coalgebra_map_weight_one_is_identity(graded2):
    for name in ("alpha", "beta"):
        elt = coalgebra_map(name, graded2, (1,))
        assert elt == LinearCombination({(1,): 1})
    elt = coalgebra_map("gamma", graded2, (1,))
    assert elt == LinearCombination({(1,): 1})


def test_alpha_on_pair(flat2):
    elt = coalgebra_map("alpha", flat2, (0, 1))
    assert elt == LinearCombination({(0, 1): 1, (1, 0): 1})


def test_gamma_beta_equals_alpha_all_degree_assignments():
    for degs in itertools.product((0, 1, 2), repeat=3):
        sp = GradedSpace(("x", "y", "z"), degs)
        word = (0, 1, 2)
        via = {}
        for perm_word, c in coalgebra_map("beta", sp, word):
            for w, cc in coalgebra_map("gamma", sp, perm_word):
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
    # mu(u, u) = u has output degree 0 on inputs of degree 0, not degree -1,
    # and so has d(x) = y; every kind moves an operation past letters with
    # the sign of a degree -1 map
    sp = GradedSpace(("u", "v"), (0, 1))
    mu = Operation(sp, 2, -1, {(0, 0): LinearCombination({0: 1})})
    even = GradedSpace(("x", "y"), (0, 0))
    d = Operation(even, 1, -1, {(0,): LinearCombination({1: 1})})
    for fam, arity in ((OperationFamily(HAT, sp, 3, {2: mu}), 2),
                       (OperationFamily(HAT, even, 2, {1: d}), 1)):
        for kind in (TENSOR, WEDGE, PERM):
            with pytest.raises(ConventionError, match=f"arity-{arity} operation"):
                extend_coderivation(fam, kind, 3)
    # why tensor needs it too: the tensor sum for d obeys the coderivation
    # law, but it has degree 0 on every word, so it is even and D o D is no
    # coderivation: D(D(xx)) = 2 yy while every cogenerator component of
    # D o D vanishes, and the derived square-zero line would pass wrongly
    D = Coderivation(TENSOR, even, 2, {(k, k): comp for k, comp in _components(d, TENSOR, 2)})
    assert check_coderivation(D)
    assert all(square_cogenerator_component(D, n).table == {} for n in (1, 2))
    assert first_nonzero_square(D) == ((0, 0), LinearCombination({(1, 1): 2}))


def test_differential_extension_on_tensor_words():
    # single arity-1 map: the (k,k) components alternate signs by the
    # degree of what the map moves past
    sp = GradedSpace(("u", "v"), (0, 1))
    d = Operation(sp, 1, -1, {(1,): LinearCombination({0: 1})})
    fam = OperationFamily(HAT, sp, 3, {1: d})
    D = extend_coderivation(fam, TENSOR, 3)
    # D(v (x) v) = d(v) (x) v + (-1)^{|v|} v (x) d(v)
    got = apply_word(D, (1, 1))
    assert got == LinearCombination({(0, 1): 1, (1, 0): -1})


def test_cogenerator_component_is_the_operation(graded2, rng):
    fam = random_unhat_family(rng, graded2, (1, 2, 3), symmetrize="partial")
    hat = suspend_family(fam)
    D = extend_coderivation(hat, PERM, 4)
    for n in hat.arities():
        comp = component(D, n, 1)
        op = hat.ops[n]
        for word in coalgebra_words(PERM, hat.space, n):
            expected = op.evaluate(word)
            got = comp.get(word, LinearCombination())
            assert map_keys(got, lambda w: w[0]) == expected
    # tensor: the (n,1) component is the operation on the nose
    Dt = extend_coderivation(hat, TENSOR, 4)
    for n in hat.arities():
        comp = component(Dt, n, 1)
        assert {w: map_keys(c, lambda u: u[0]) for w, c in comp.items()} == hat.ops[n].table
    # wedge: on canonical words, for a fully symmetric family
    full = suspend_family(random_unhat_family(rng, graded2, (1, 2), symmetrize="full"))
    Dw = extend_coderivation(full, WEDGE, 3)
    for n in full.arities():
        comp = component(Dw, n, 1)
        op = full.ops[n]
        for word in coalgebra_words(WEDGE, full.space, n):
            got = comp.get(word, LinearCombination())
            assert map_keys(got, lambda u: u[0]) == op.evaluate(word)


def test_perm_component_matches_unshuffle_display(graded2):
    # family with a single symmetric binary operation; component (3, 2)
    sp = GradedSpace(("u", "v"), (1, 2))
    mu = Operation(sp, 2, -1, {(0, 0): LinearCombination({0: 1})})
    # (u, u): eps swap = -1... build instead a rho1-symmetric table
    from hopla.permutations import failing_symmetry_generator
    assert failing_symmetry_generator(mu, RHO1, full=False) is None
    fam = OperationFamily(HAT, sp, 3, {2: mu})
    D = extend_coderivation(fam, PERM, 3)
    comp = component(D, 3, 2)
    for word in coalgebra_words(PERM, sp, 3):
        head, tail = word[:-1], word[-1]
        degs = [sp.degree(x) for x in head]
        expected = {}
        for s in sh(1, 1):  # Sh(k-l, 1, l-2) with k=3, l=2
            eps = koszul_sign(s, degs)
            mapped = [head[t - 1] for t in s]
            for mid, c in mu.evaluate(tuple(mapped[:2])):
                key = (mid, tail)
                expected[key] = expected.get(key, Fraction(0)) + eps * c
        for s in sh(1, 1):  # Sh(l-1, k-l)
            eps = koszul_sign(s, degs)
            mapped = [head[t - 1] for t in s]
            sign = -1 if sp.degree(mapped[0]) % 2 else 1
            for mid, c in mu.evaluate((mapped[1], tail)):
                key = (mapped[0], mid)
                expected[key] = expected.get(key, Fraction(0)) + eps * sign * c
        expected = {k: v for k, v in expected.items() if v}
        got = comp.get(word, LinearCombination())
        assert dict(got.terms) == expected


def test_check_coderivation_zero_and_extended(graded2, rng):
    from hopla.coalgebra import Coderivation
    zero = Coderivation(TENSOR, graded2, 3, {})
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
    bad = with_entry(D, 3, 2, word, LinearCombination({(0, 0): Fraction(7)}))
    assert not check_coderivation(bad)


def test_square_zero_for_square_zero_differential():
    sp = GradedSpace(("u", "v"), (0, 1))
    d = Operation(sp, 1, -1, {(1,): LinearCombination({0: 1})})
    fam = OperationFamily(HAT, sp, 4, {1: d})
    for kind in (TENSOR, WEDGE, PERM):
        D = extend_coderivation(fam, kind, 4)
        assert first_nonzero_square(D) is None
        for n in range(1, 5):
            assert square_cogenerator_component(D, n).is_zero()


def test_square_cogenerator_component_refuses_weights_outside_the_cap(flat2, rng):
    # beyond the cap D has no components, so its square there is unknown,
    # not zero: at cap 2 weight 3 read as the zero operation
    fam = random_unhat_family(rng, flat2, (1, 2), symmetrize="partial")
    hat = suspend_family(fam)
    D = extend_coderivation(hat, PERM, 3)
    assert not square_cogenerator_component(D, 3).is_zero()
    truncated = extend_coderivation(hat, PERM, 2)
    for n in (0, -1, 3, 33):
        with pytest.raises(ArityError, match=r"weight in 1\.\.2"):
            square_cogenerator_component(truncated, n)
    assert square_cogenerator_component(truncated, 2) == square_cogenerator_component(D, 2)


def test_tensor_square_of_dga_family_vanishes(dga):
    hat = suspend_family(dga)
    D = extend_coderivation(hat, TENSOR, 4)
    for n in range(1, 5):
        assert square_cogenerator_component(D, n).is_zero()
    assert first_nonzero_square(D) is None


def test_tensor_square_equals_assoc_residual(graded2, rng):
    fam = random_unhat_family(rng, graded2, (1, 2, 3), symmetrize=None)
    hat = suspend_family(fam)
    D = extend_coderivation(hat, TENSOR, 4)
    for n in range(1, 5):
        assert square_cogenerator_component(D, n) \
            == residual(hat, EquationFlavor(ASSOC, HAT), n).op


@LIE_COEFFICIENT_XFAIL
def test_wedge_square_equals_lie_residual():
    # the L∞ image of a dga through alpha, where the differential and the
    # bracket meet in the arity-2 residual: the wedge square is its Lie
    # residual, at weight 2 too
    path = Path(__file__).parent / "fixtures" / "graded_dga_m2.json"
    dga = parse_document(path.read_text(encoding="utf-8")).family
    hat = suspend_family(commutator(dga, "alpha"))
    D = extend_coderivation(hat, WEDGE, 3)
    for n in range(1, 4):
        assert square_cogenerator_component(D, n) \
            == residual(hat, EquationFlavor(LIE, HAT), n).op, n


def _lie_oracle_cases():
    """(case, hat family, {n: Lada-Markl's L∞ relation at arity n}) on dense
    random fully symmetric unhat families, suspended: three letters of
    degrees drawn from {-1, 0, 1}, arities 1-3, n = 1..4."""
    rng = random.Random("lada-markl:0")
    for trial in range(12):
        sp = GradedSpace(("a", "b", "c"), tuple(rng.choice((-1, 0, 1)) for _ in range(3)))
        hat = suspend_family(random_unhat_family(rng, sp, (1, 2, 3), "full", density=0.9))
        yield (trial, sp.degrees), hat, {n: lie_residual_by_unshuffles(hat, n)
                                         for n in range(1, 5)}


def test_wedge_square_is_the_lada_markl_lie_relation():
    # the independent route to the L∞ relation: the wedge coderivation's
    # square, component (n -> 1), is the unshuffle sum as Lada and Markl
    # write it, on families where arities meet
    nonzero = 0
    for case, hat, oracles in _lie_oracle_cases():
        D = extend_coderivation(hat, WEDGE, 4)
        for n, oracle in oracles.items():
            assert square_cogenerator_fold(D, n).op == oracle, (case, n)
            nonzero += not oracle.is_zero()
    assert nonzero >= 20, nonzero  # the comparison must not be vacuous


@LIE_COEFFICIENT_XFAIL
def test_lie_residual_is_the_lada_markl_lie_relation():
    nonzero = 0
    for case, hat, oracles in _lie_oracle_cases():
        for n, oracle in oracles.items():
            assert residual(hat, EquationFlavor(LIE, HAT), n).op == oracle, (case, n)
            nonzero += not oracle.is_zero()
    assert nonzero >= 20, nonzero


# the hat residual flavor whose equation each coalgebra's square decides
SQUARE_FLAVOR = {TENSOR: ASSOC, PERM: PRELIE, WEDGE: LIE}


@pytest.mark.parametrize("kind", [TENSOR, PERM, pytest.param(WEDGE, marks=LIE_COEFFICIENT_XFAIL)])
def test_coderive_square_lines_are_the_residual_on_the_benchmark_documents(kind, tmp_path):
    # the two routes to one equation on the documents the coderive workload
    # runs: each "cogenerator component at weight n" line of run_coderive
    # has the verdict and the witness of the hat residual of the suspended
    # family at arity n
    flavor, compared = EquationFlavor(SQUARE_FLAVOR[kind], HAT), 0
    for seed in (1, 5):
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir()
        for job in benchmark_inputs("coderive", seed, workdir).jobs:
            _, path, _, job_kind, _, cap, _ = job.argv
            if job_kind != kind:
                continue
            doc = parse_document(Path(path).read_bytes())
            lines = {check.name: check for check in run_coderive(doc, kind, int(cap)).checks}
            hat = doc.family if doc.convention == HAT else suspend_family(doc.family)
            for n in range(1, int(cap) + 1):
                line = lines[f"squared coderivation, cogenerator component at weight {n}"]
                res = residual(hat, flavor, n)
                assert (line.passed, line.witness) == (
                    res.vanishes(), _residual_witness(hat.space, res.first_nonzero_entry())), \
                    (seed, job.name, n)
                compared += 1
    assert compared > 0


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
            for word in coalgebra_words(PERM, hat.space, k):
                expected = flat_component(
                    perm_square_two_sum_form(hat.space, q, word[:-1], word[-1]))
                actual = dict(got.get(word, LinearCombination()).terms)
                assert actual == expected


def test_square_zero_iff_residuals_vanish(graded2, rng):
    # non-satisfying instances have nonzero squares; nilpotent ones vanish
    fam = random_unhat_family(rng, graded2, (2, 3), symmetrize="partial")
    hat = suspend_family(fam)
    D = extend_coderivation(hat, PERM, 4)
    residuals_vanish = all(
        residual(hat, EquationFlavor(PRELIE, HAT), n, check_symmetry=False).vanishes()
        for n in range(1, 5))
    assert (first_nonzero_square(D) is None) == residuals_vanish

    from hopla.drivers import generate_random
    doc = generate_random(3, [0, 1], [2, 3], 0.7, seed=5, symmetrize="partial",
                          nilpotent=True)
    hat2 = suspend_family(doc.family)
    D2 = extend_coderivation(hat2, PERM, 4)
    assert first_nonzero_square(D2) is None


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


def _blocks_by_enumeration(kind, sp, cap, arities):
    """The insertion positions or unshuffles that `block_count` counts,
    enumerated word by word."""
    total = 0
    for k, a in itertools.product(range(1, cap + 1), arities):
        if a > k:
            continue
        for word in coalgebra_words(kind, sp, k):
            if kind == TENSOR:
                total += len(range(k - a + 1))
            elif kind == WEDGE:
                total += len(sh(a, k - a))
            else:
                total += len(sh(a - 1, 1, k - 1 - a)) + len(sh(k - a, a - 1))
    return total


def test_block_count_matches_enumeration():
    for degrees in ((0,), (1,), (0, 1), (1, 1, 1), (2, 1, 0, -1)):
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        for kind, cap in itertools.product((TENSOR, WEDGE, PERM), range(1, 6)):
            for arities in ((), (1,), (2,), (1, 2, 3), (5,), (2, 4, 6)):
                assert block_count(kind, sp, cap, arities) \
                    == _blocks_by_enumeration(kind, sp, cap, arities), (degrees, kind, cap, arities)


def test_wedge_words_exclude_odd_repeats(graded2):
    words = list(coalgebra_words(WEDGE, graded2, 2))
    assert (1, 1) not in words
    assert (0, 0) in words and (0, 1) in words


# ---------------------------------------------------------------------------
# the tensor kernels: components by insertion, the law keyed by words
# ---------------------------------------------------------------------------

def _tensor_families(rng):
    """Hat families of random degree -1 operations at arities 1-3, on three
    degree patterns of dims 2 and 3."""
    for degrees in ((0, 1), (1, 1), (-1, 0, 1)):
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        ops = {a: random_operation(rng, sp, a, -1, 0.6) for a in (1, 2, 3)}
        yield OperationFamily(HAT, sp, 3, {a: op for a, op in ops.items() if not op.is_zero()})


def test_tensor_kernels_make_no_coproduct_terms(monkeypatch, rng):
    # tensor components sum insertions and the tensor law keys its cuts by
    # words, so neither goes through the coproduct generator; the wrapper
    # does count the wedge law's calls
    calls = Counter()
    real = coalgebra.coproduct_terms

    def counting(kind, *args):
        calls[kind] += 1
        return real(kind, *args)

    monkeypatch.setattr(coalgebra, "coproduct_terms", counting)
    for family in _tensor_families(rng):
        D = extend_coderivation(family, TENSOR, 4)
        assert D.components
        word = next(iter(D.components[(3, 2)]))
        bad = with_entry(D, 3, 2, word, LinearCombination({word[:2]: Fraction(1)}))
        assert check_coderivation(D) and not check_coderivation(bad)
    assert calls == Counter()
    assert check_coderivation(Coderivation(WEDGE, GradedSpace(("x",), (0,)), 2, {}))
    assert calls[WEDGE] > 0


def test_wedge_and_perm_components_make_no_coproduct_terms(monkeypatch, rng):
    # the wedge and Perm components walk the operation's entries, so the
    # extension makes no coproduct_terms call; the law line still cuts its
    # words through it, a route independent of the components it checks
    calls = Counter()
    real = coalgebra.coproduct_terms

    def counting(kind, *args):
        calls[kind] += 1
        return real(kind, *args)

    monkeypatch.setattr(coalgebra, "coproduct_terms", counting)
    symmetry = {WEDGE: "full", PERM: "partial"}
    for degrees, kind in itertools.product(((0, 1), (0, 1, 2), (1, 0, 1)), (WEDGE, PERM)):
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        family = suspend_family(random_unhat_family(rng, sp, (1, 2, 3),
                                                    symmetrize=symmetry[kind], density=0.6))
        D = extend_coderivation(family, kind, 5)
        assert D.components and calls == Counter(), (degrees, kind)
        assert check_coderivation(D) and calls[kind] > 0, (degrees, kind)
        calls.clear()


def test_extension_builds_each_operation_in_one_pass(monkeypatch, rng):
    # extend_coderivation asks the builder once per nonzero operation, not
    # once per weight; the builder yields every weight from the operation's
    # arity to the cap (none when the arity lies above it), and the
    # extension keeps exactly its nonempty tables
    calls = Counter()
    builder = coalgebra._components

    def counting(op, kind, cap, scale=1):
        calls[op.arity] += 1
        return builder(op, kind, cap, scale)

    monkeypatch.setattr(coalgebra, "_components", counting)
    symmetry = {TENSOR: None, WEDGE: "full", PERM: "partial"}
    sp = GradedSpace(("x0", "x1", "x2"), (-1, 0, 1))
    for kind, cap in itertools.product((TENSOR, WEDGE, PERM), (1, 2, 4)):
        family = suspend_family(random_unhat_family(rng, sp, (1, 2, 3),
                                                    symmetrize=symmetry[kind], density=0.6))
        D = extend_coderivation(family, kind, cap)
        assert calls == Counter(dict.fromkeys(family.arities(), 1)), (kind, cap)
        calls.clear()
        built = {(k, k - a + 1): comp for a, op in family.ops.items()
                 for k, comp in builder(op, kind, cap, D.denominator // op.denominator)}
        assert sorted(key[0] for key in built) == sorted(
            k for a in family.arities() for k in range(a, cap + 1)), (kind, cap)
        assert D.components == {key: comp for key, comp in built.items() if comp}, (kind, cap)
        assert cap < 4 or D.components, kind


def test_boundary_splits_read_the_unshuffle_tables_of_their_positive_blocks(monkeypatch):
    # the coproduct's signed unshuffles drop the zero blocks of a boundary
    # split, so the split reads the table of its positive blocks, the
    # blocks `unshuffles` accepts, and (i, 0) shares the table of (i,)
    seen = []
    table = coalgebra._unshuffles_cached
    monkeypatch.setattr(coalgebra, "_unshuffles_cached",
                        lambda blocks: seen.append(blocks) or table(blocks))
    coalgebra._signed_unshuffles.cache_clear()
    sp = GradedSpace(("a", "b", "c"), (0, 1, 0))
    try:
        for kind, n in itertools.product((WEDGE, PERM), range(1, 5)):
            for word in coalgebra_words(kind, sp, n):
                for i in range(n + 1):
                    list(coalgebra.coproduct_terms(kind, sp, word, i))
    finally:
        coalgebra._signed_unshuffles.cache_clear()
    assert (2,) in seen and all(b > 0 for blocks in seen for b in blocks), sorted(set(seen))


def _tensor_values(op, cap):
    """The builder's tensor components of op, weight by weight up to the
    cap, as exact values; it yields every weight from op's arity."""
    values = {k: {word: over(image, op.denominator) for word, image in comp.items()}
              for k, comp in _components(op, TENSOR, cap)}
    assert list(values) == list(range(op.arity, cap + 1))
    return values


def test_tensor_component_matches_fraction_oracle_on_edge_tables(rng):
    sp = GradedSpace(("a", "b"), (0, 1))
    # mu(a, b) = a and mu(b, b) = -b: on (a, b, b) the insertions at
    # positions 0 and 1 both give (a, b), with the sign (-1)^|a| = 1, and cancel
    cancel = Operation(sp, 2, -1, {(0, 1): LinearCombination({0: 1}),
                                   (1, 1): LinearCombination({1: -1})})
    values = _tensor_values(cancel, 3)[3]
    assert (0, 1, 1) not in values and values == component_by_fractions(cancel, TENSOR, 3, 2)
    assert check_coderivation(extend_coderivation(OperationFamily(HAT, sp, 2, {2: cancel}),
                                                  TENSOR, 5))
    # an arity-1 operation (l = k), and inhomogeneous tables with rational values
    wide = GradedSpace(("x", "y", "z"), (-1, 0, 1))
    ops = [Operation(sp, 1, -1, {(1,): LinearCombination({0: Fraction(-3, 2)})}),
           Operation(wide, 1, 0, random_table(rng, wide, 1, 1.0, RATIONAL_COEFFICIENTS))]
    ops += [Operation(wide, a, -1, random_table(rng, wide, a, 0.5, RATIONAL_COEFFICIENTS))
            for a in (2, 3)]
    for op in [cancel] + ops:
        for k, values in _tensor_values(op, 5).items():
            assert values == component_by_fractions(op, TENSOR, k, k - op.arity + 1), (op, k)


def test_coderivation_refuses_a_cap_below_one_and_keys_outside_the_triangle():
    # a (1, 2) entry is one `image` never reads, so the weight-1 law check
    # and the whole-law oracle disagreed on it; such keys are refused now
    sp = GradedSpace(("a", "b"), (0, 1))
    for cap, components in ((3, {(1, 2): {(0,): {(0, 1): 1}}}), (3, {(4, 1): {}}),
                            (3, {(2, 0): {}}), (3, {(0, 0): {}}), (0, {}), (-1, {})):
        with pytest.raises(ArityError):
            Coderivation(TENSOR, sp, cap, components)
    for cap in (1, 3):
        D = Coderivation(TENSOR, sp, cap, {(1, 1): {(1,): {(0,): 1}}})
        assert check_coderivation(D) == coderivation_law_by_coproducts(D)
    assert not hasattr(D, "degree")


def test_coderivation_refuses_what_it_has_no_answer_for():
    # an unknown kind failed later with a KeyError, a denominator of 0 read
    # every square as 0, and a square asked beyond the cap or on a word
    # that is not canonical read as 0 too; each is refused up front now
    sp = GradedSpace(("a", "b"), (0, 1))
    with pytest.raises(KindError):
        Coderivation("bogus", sp, 2, {})
    for denominator in (0, -1, Fraction(1, 2), 1.0):
        with pytest.raises(ValueError):
            Coderivation(PERM, sp, 2, {}, denominator)
    # a Perm D of cap 3 whose square at (a, b | a) is 1 (b,)
    D = Coderivation(PERM, sp, 3, {(3, 2): {(0, 1, 0): {(0, 0): 1}}, (2, 1): {(0, 0): {(1,): 1}}})
    assert D.square_word((0, 1, 0)) == LinearCombination({(1,): 1})
    for word in ((), (0, 1, 0, 0)):
        with pytest.raises(ArityError):
            D.square_word(word)
    for word in ((1, 0, 0), (1, 1, 0), (0, 2), (0, -1)):
        with pytest.raises(KindError):
            D.square_word(word)
    # the refusal follows the rule coalgebra_words applies, for every kind
    for kind in (TENSOR, WEDGE, PERM):
        D = Coderivation(kind, sp, 3, {})
        for k in range(1, 4):
            canonical = set(coalgebra_words(kind, sp, k))
            for word in itertools.product(range(sp.dim), repeat=k):
                if word in canonical:
                    assert D.square_word(word).is_zero(), (kind, word)
                else:
                    with pytest.raises(KindError):
                        D.square_word(word)


@pytest.mark.parametrize("kind, cap, components", [
    # source words (5,) and (1, 0): a letter outside the space, an unsorted
    # head whose odd letter comes first
    (WEDGE, 2, {(1, 1): {(5,): {(0,): 1}}, (2, 1): {(1, 0): {(7,): 3}}}),
    # a canonical source word with an image letter outside the space
    (TENSOR, 2, {(2, 1): {(0, 0): {(5,): 1}}}),
    # the unsorted Perm head (1, 0 | 0)
    (PERM, 3, {(3, 1): {(1, 0, 0): {(0,): 1}}}),
    # a canonical wedge source word with an image letter outside the space
    (WEDGE, 2, {(2, 1): {(0, 1): {(5,): 1}}}),
    # a tensor block whose words are not canonical, with only explicit
    # zero numerators: it matches the empty block once they are dropped
    (TENSOR, 2, {(2, 2): {(0, 5): {(0, 0): 0}, (0, 0): {(7, 0): 0}}}),
    # a (2, 1) table whose source word has one letter
    (TENSOR, 2, {(2, 1): {(0,): {(1,): 1}}}),
    # a (2, 1) source word with a letter outside the space, and the (3, 2)
    # block the law builds from it: both sides of the block carry the word
    (TENSOR, 3, {(2, 1): {(0, 5): {(1,): 1}},
                 (3, 2): {(0, 5, 0): {(1, 0): 1}, (0, 5, 1): {(1, 1): 1},
                          (0, 0, 5): {(0, 1): 1}, (1, 0, 5): {(1, 1): -1}}}),
])
def test_law_line_fails_tables_holding_words_that_are_not_canonical(kind, cap, components):
    # the walk reads canonical words only, so on these tables every defect
    # it sums vanishes and each once passed the law; a table word outside
    # the walk's words of its weight now fails it, in the law line and in
    # the whole-law oracle alike.  Tensor builds no words: it tests the
    # (k, 1) tables, then a block that matches only once its zeros are
    # dropped
    sp = GradedSpace(("a", "b"), (0, 1))
    D = Coderivation(kind, sp, cap, components)
    assert not check_coderivation(D)
    assert not coderivation_law_by_coproducts(D)


def test_tensor_law_line_builds_no_words(monkeypatch, rng):
    # the tensor law line takes canonicity from the (k, 1) tables and the
    # block equalities, so it enumerates the dim^k tensor words at no
    # weight; wedge and Perm still walk their canonical words
    calls = Counter()
    real = coalgebra.coalgebra_words

    def counting(kind, *args):
        calls[kind] += 1
        return real(kind, *args)

    families = list(itertools.islice(_tensor_families(rng), 3))
    tensors = [extend_coderivation(family, TENSOR, 4) for family in families]
    wedge = extend_coderivation(suspend_family(random_unhat_family(
        rng, GradedSpace(("a", "b"), (0, 1)), (1, 2), symmetrize="full")), WEDGE, 3)
    monkeypatch.setattr(coalgebra, "coalgebra_words", counting)
    assert all(check_coderivation(D) for D in tensors)
    assert calls == Counter()
    assert check_coderivation(wedge) and calls[WEDGE] == 3


def test_an_extended_coderivation_holds_only_its_fields(graded2, rng):
    # no cache rides along with the tables, before or after the law line
    # and the square read them
    fam = suspend_family(random_unhat_family(rng, graded2, (1, 2), symmetrize="full"))
    for kind in (TENSOR, WEDGE, PERM):
        D = extend_coderivation(fam, kind, 3)
        assert check_coderivation(D)
        D.square_word((0, 1))
        assert vars(D).keys() == {f.name for f in dataclasses.fields(D)} \
            == {"kind", "space", "cap", "components", "denominator"}


def test_tensor_law_matches_full_law_oracle_on_hand_built_coderivations(rng):
    # stray components with no cogenerator, explicit zero numerators and a
    # lone (1, 1) component, at every cap from 1
    sp = GradedSpace(("a", "b"), (0, 1))
    D = extend_coderivation(next(_tensor_families(rng)), TENSOR, 4)
    stray = Coderivation(TENSOR, sp, 4, {(3, 2): {(0, 1, 1): {(1, 0): 2}}})
    zero_stray = Coderivation(TENSOR, sp, 4, {(3, 2): {(0, 1, 1): {(1, 0): 0}}})
    components = {key: dict(comp) for key, comp in D.components.items()}
    components[(2, 1)] = {word: {(0,): 0, (1,): 0, **image}
                          for word, image in components[(2, 1)].items()}
    with_zero = Coderivation(TENSOR, D.space, 4, components, D.denominator)
    lone = Coderivation(TENSOR, sp, 3, {(1, 1): {(1,): {(0,): 1}}})
    verdicts = Counter()
    for label, coderivation in (("stray", stray), ("zero stray", zero_stray),
                                ("explicit zero", with_zero), ("lone (1, 1)", lone),
                                ("extended", D)):
        for cap in range(1, coderivation.cap + 1):
            verdict = check_coderivation(truncated(coderivation, cap))
            assert verdict == coderivation_law_by_coproducts(coderivation, cap), (label, cap)
            verdicts[verdict] += 1
    assert not check_coderivation(stray) and check_coderivation(zero_stray)
    assert not check_coderivation(truncated(lone, 2)) and check_coderivation(truncated(lone, 1))
    assert check_coderivation(with_zero) and verdicts[True] > verdicts[False] > 0
    assert any(0 in image.values() for image in with_zero.components[(2, 1)].values())


def test_tensor_insertions_walked_are_bounded_by_the_block_count():
    # the walk visits each insertion (position, prefix, entry, suffix) once:
    # (k - a + 1) dim^(k - a) per entry of mu_a, at most the block count,
    # and exactly it when every input word has an entry
    rng = random.Random("tensor-walk")
    for degrees, density in itertools.product(((0,), (0, 1), (-1, 0, 1)), (0.3, 1.0)):
        sp = GradedSpace(tuple(f"x{i}" for i in range(len(degrees))), degrees)
        letters = range(sp.dim)
        ops = {a: Operation(sp, a, -1, random_table(rng, sp, a, density)) for a in (1, 2, 3)}
        family = OperationFamily(HAT, sp, 3, {a: op for a, op in ops.items() if not op.is_zero()})
        for cap in range(1, 7):
            walked = 0
            for a, op in family.ops.items():
                built = dict(_components(op, TENSOR, cap))
                for k in range(a, cap + 1):
                    l = k - a + 1
                    insertions = [prefix + word + suffix for i in range(l)
                                  for prefix in itertools.product(letters, repeat=i)
                                  for word in op.numerators
                                  for suffix in itertools.product(letters, repeat=l - 1 - i)]
                    assert len(insertions) == l * sp.dim ** (k - a) * len(op.numerators)
                    assert set(built[k]) <= set(insertions)
                    walked += len(insertions)
            bound = block_count(TENSOR, sp, cap, family.arities())
            assert walked <= bound, (degrees, density, cap)
            if density == 1.0:
                assert walked == bound, (degrees, cap)


@pytest.mark.parametrize("refuse, message", [
    (lambda: extend_coderivation(OperationFamily(HAT, GradedSpace(("e",), (0,)), 2), "bogus", 3),
     "unknown coalgebra kind 'bogus'"),
    (lambda: coalgebra_map("delta", GradedSpace(("e",), (0,)), (0, 0)),
     "unknown coalgebra map 'delta'"),
], ids=["extend-kind", "map-name"])
def test_coalgebra_refusals_name_what_they_refuse(refuse, message):
    with pytest.raises(KindError) as caught:
        refuse()
    assert type(caught.value) is KindError and str(caught.value) == message
