"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
comparison is exact rational equality; there are no tolerances anywhere.
"""

import math
import random

import pytest

from oracles import nary_residual_by_positions
from hopla.cli import main
from hopla.coalgebra import PERM, TENSOR, WEDGE
from hopla.docio import parse_document, parse_rational
from hopla.drivers import generate_random, nary_operation, run_check
from hopla.equations import (ASSOC, LIE, PARTIALLY_ASSOCIATIVE, PRELIE,
                             EquationFlavor, circle_bracket, circle_product,
                             nary_family, nary_residual, residual)
from hopla.functors import commutator, nary_embed, suspend_family
from hopla.graded import UNHAT, GradedSpace, LinearCombination, Operation
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, RHO2, all_permutations,
                                compose, failing_symmetry_generator, koszul_sign,
                                precompose_symmetrized)
from hopla.samples import dual_numbers, nilpotent_dga, upper_corner
from hopla.verify import (coassociativity_witness, coalgebra_map_law_witness,
                          factorization_witness, random_operation,
                          random_unhat_family, section_witness,
                          sign_transfer_witness, coderivation_correspondence_witness)

FLAT2 = GradedSpace(("a", "b"), (0, 0))
GRADED2 = GradedSpace(("u", "v"), (0, 1))


def _verdict(num: int, ok: bool, description: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def test_criterion_1_sign_kernel():
    rng = random.Random(101)
    ok = True
    for n in range(1, 6):
        for _ in range(3):
            degrees = [rng.randint(-2, 3) for _ in range(n)]
            for tau in all_permutations(n):
                permuted = [degrees[t - 1] for t in tau]
                eps_tau = koszul_sign(tau, degrees)
                for sigma in all_permutations(n):
                    if koszul_sign(sigma, permuted) != \
                            koszul_sign(compose(tau, sigma), degrees) * eps_tau:
                        ok = False
    _verdict(1, ok, "Koszul composition law, exhaustive n <= 5, 3 degree samples per n")


def test_criterion_2_sign_transfer():
    rng = random.Random(202)
    ok = True
    for n in range(2, 7):
        seen = set()
        for _ in range(10):
            degrees = tuple(rng.choice((0, 1, 2)) for _ in range(n - 1))
            seen.add(degrees)
            if sign_transfer_witness(n, list(degrees)) is not None:
                ok = False
        assert len(seen) >= 3  # sampling is actually varied
    _verdict(2, ok, "degree-shift sign lemma, both parities, exhaustive sigma, n <= 6")


def test_criterion_3_coalgebra_suite():
    ok = True
    cap = 5
    for kind in (TENSOR, WEDGE, PERM):
        ok = ok and coassociativity_witness(kind, GRADED2, cap) is None
    for name in ("alpha", "beta", "gamma"):
        ok = ok and coalgebra_map_law_witness(name, GRADED2, cap) is None
    ok = ok and factorization_witness(GRADED2, cap) is None
    ok = ok and section_witness(GRADED2, cap) is None
    _verdict(3, ok, "coassociativity, coalgebra-map laws, gamma.beta=alpha, "
                    "pi.alpha=id, dim 2, weight <= 5")


def test_criterion_4_coderivation_correspondence():
    rng = random.Random(404)
    ok = True
    satisfying = nonsatisfying = 0
    families = [random_unhat_family(rng, GRADED2, (1, 2, 3), symmetrize="partial")
                for _ in range(20)]
    families += [generate_random(2, [0, 1], [2, 3], 0.8, seed=s, symmetrize="partial",
                                 nilpotent=True).family for s in (1, 2)]
    for fam in families:
        if coderivation_correspondence_witness(fam, 5, 5) is not None:
            ok = False
            continue
        vanish = all(residual(fam, EquationFlavor(PRELIE, UNHAT), n,
                              check_symmetry=False).vanishes() for n in range(1, 6))
        if vanish:
            satisfying += 1
        else:
            nonsatisfying += 1
    # an arity-1 operation gives the Perm extension's degenerate unshuffle blocks
    ok = ok and satisfying > 0 and nonsatisfying > 0 and any(1 in fam.ops for fam in families)
    _verdict(4, ok, "hat residual = minus suspended unhat residual, squared-"
                    "coderivation cogenerator component = hat residual, square-"
                    "zero equivalence; 20 random + satisfying instances, n <= 5")


def test_criterion_5_commutator_theorems():
    ok = True
    pipelines = [nary_embed(mu) for _, mu in (dual_numbers(), upper_corner())]
    pipelines.append(nilpotent_dga())

    for fam in pipelines:
        for side in (fam, suspend_family(fam)):
            flavorc = side.convention
            for n in range(1, 5):
                ok = ok and residual(side, EquationFlavor(ASSOC, flavorc), n).vanishes()
            g = commutator(side, "gamma")
            for n in range(1, 5):
                ok = ok and residual(g, EquationFlavor(PRELIE, flavorc), n).vanishes()
            b = commutator(g, "beta")
            for n in range(1, 5):
                ok = ok and residual(b, EquationFlavor(LIE, flavorc), n).vanishes()

    # the DGA really has a nonzero differential
    ok = ok and not nilpotent_dga().operation(1).is_zero()

    # (c) the commutator-suspension square, arities <= 4
    rng = random.Random(505)
    for fam in pipelines + [random_unhat_family(rng, GRADED2, (1, 2, 3, 4))
                            for _ in range(5)]:
        lhs = suspend_family(commutator(fam, "gamma"))
        rhs = commutator(suspend_family(fam), "gamma")
        ok = ok and lhs == rhs
    _verdict(5, ok, "gamma/beta pipelines on two embedded associative algebras and "
                    "a DGA (both conventions); suspension square, arities <= 4")


def _random_nary(rng, arity, density=0.6):
    return random_operation(rng, FLAT2, arity, 0, density)


def _prelie3_instance(alpha, beta, gamma, delta):
    table = {}
    for z in range(2):
        combo = LinearCombination({0: (alpha, gamma)[z], 1: (beta, delta)[z]})
        if not combo.is_zero():
            table[(0, 1, z)] = combo
            table[(1, 0, z)] = combo.scaled(-1)
    return Operation(FLAT2, 3, 0, table)


def _sink_nary3(coeff):
    # everything maps into b, words touching b map to zero: composites vanish
    return Operation(FLAT2, 3, 0, {(0, 0, 0): LinearCombination({1: coeff})})


def _embedding_verdicts(mu, kind):
    """(base verdict, embedded verdict), each = symmetry and residuals."""
    n = mu.arity
    if kind == PRELIE:
        sym = failing_symmetry_generator(mu, RHO2, full=False) is None
    elif kind == LIE:
        sym = failing_symmetry_generator(mu, RHO2, full=True) is None
    else:
        sym = True
    base = sym and nary_residual(mu, kind, check_symmetry=False).vanishes()
    fam = nary_embed(mu)
    if kind == PRELIE:
        esym = all(failing_symmetry_generator(op, RHO2, full=False) is None
                   for op in fam.ops.values())
    elif kind == LIE:
        esym = all(failing_symmetry_generator(op, RHO2, full=True) is None
                   for op in fam.ops.values())
    else:
        esym = True
    flavor = EquationFlavor(ASSOC if kind == PARTIALLY_ASSOCIATIVE else kind, UNHAT)
    eres = all(residual(fam, flavor, m, check_symmetry=False).vanishes()
               for m in range(1, 2 * n))
    return base, esym and eres


def test_criterion_6_nary_layer():
    rng = random.Random(606)
    ok = True
    true_count = false_count = 0

    satisfying = []
    # n = 2: associative products and their commutator images
    for sp, mu in (dual_numbers(), upper_corner()):
        flat_mu = Operation(FLAT2, 2, 0, dict(mu.table))
        satisfying += [(flat_mu, PARTIALLY_ASSOCIATIVE),
                       (commutator(nary_family(flat_mu), "gamma").operation(2), PRELIE),
                       (commutator(commutator(nary_family(flat_mu), "gamma"),
                                   "beta").operation(2), LIE)]
    satisfying.append((Operation(FLAT2, 2, 0,
                                 {(0, 0): LinearCombination({0: 1}),
                                  (1, 1): LinearCombination({1: 1})}),
                       PARTIALLY_ASSOCIATIVE))
    # n = 3: sink instances and genuinely nonzero pre-Lie / Lie triples
    satisfying += [(_sink_nary3(c), PARTIALLY_ASSOCIATIVE) for c in (1, 2)]
    prelie3 = [_prelie3_instance(*abcd)
               for abcd in ((-1, -1, -1, 0), (1, 0, 0, 1), (0, 1, -1, 0))]
    satisfying += [(p, PRELIE) for p in prelie3]
    satisfying += [(commutator(nary_family(p), "beta").operation(3), LIE) for p in prelie3[:2]]
    assert len(satisfying) >= 10
    assert any(not op.is_zero() and op.arity == 3 for op, _ in satisfying)

    perturbed = []
    for n in (2, 3):
        for _ in range(5):
            raw = _random_nary(rng, n)
            perturbed += [(raw, PARTIALLY_ASSOCIATIVE),
                          (precompose_symmetrized(raw, RHO2, MODE_PARTIAL), PRELIE),
                          (precompose_symmetrized(raw, RHO2, MODE_FULL), LIE)]

    for mu, kind in satisfying + perturbed:
        base, embedded = _embedding_verdicts(mu, kind)
        if base != embedded:
            ok = False
        true_count += base
        false_count += not base
    ok = ok and true_count >= 10 and false_count >= 10

    # (n-1)! full-vs-partial antisymmetrization, n <= 4
    for n in (2, 3, 4):
        for _ in range(4):
            p = precompose_symmetrized(_random_nary(rng, n), RHO2, MODE_PARTIAL)
            full = precompose_symmetrized(p, RHO2, MODE_FULL)
            shuffle = commutator(nary_family(p), "beta").operation(n)
            if full != shuffle.scaled(math.factorial(n - 1)):
                ok = False
    _verdict(6, ok, "nary_residual iff embedded residuals (both directions, 10+ "
                    "satisfying, 10+ perturbed, n in {2,3}); (n-1)! identity n <= 4")


def test_criterion_7_lemma_two_routes():
    rng = random.Random(707)
    ok = True
    nonzero = 0
    for _ in range(20):
        n = rng.choice((2, 3))
        mu = precompose_symmetrized(_random_nary(rng, n, density=0.7),
                                    RHO2, MODE_PARTIAL)
        res = nary_residual(mu, PRELIE, check_symmetry=False).op
        sq = circle_product(mu, mu, check_symmetry=False)
        # both library routes share one kernel; the per-position residual
        # is the independent route
        if res != sq or nary_residual_by_positions(mu, PRELIE) != sq:
            ok = False
        nonzero += 0 if res.is_zero() else 1
    ok = ok and nonzero > 0
    _verdict(7, ok, "pre-Lie residual equals mu o mu as operations, 20 seeded "
                    "random partially skew instances, n in {2,3}")


def test_criterion_8_graded_lie_structure():
    rng = random.Random(808)
    ok = True
    for _ in range(10):
        f, g, h = (precompose_symmetrized(_random_nary(rng, rng.choice((1, 2, 3))),
                                          RHO2, MODE_PARTIAL) for _ in range(3))
        m, n, p = f.arity - 1, g.arity - 1, h.arity - 1
        anti = circle_bracket(f, g, False) \
            == circle_bracket(g, f, False).scaled(-((-1) ** (m * n)))
        jacobi = circle_bracket(f, circle_bracket(g, h, False), False) \
            == (circle_bracket(circle_bracket(f, g, False), h, False)
                + circle_bracket(g, circle_bracket(f, h, False), False)
                .scaled((-1) ** (m * n)))
        ok = ok and anti and jacobi
    _verdict(8, ok, "graded antisymmetry and graded Jacobi for the circle "
                    "bracket, 10 seeded random triples")


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    ok = True
    nonempty = 0
    for seed in range(1, 11):
        gen = tmp_path / f"gen{seed}.json"
        beta = tmp_path / f"beta{seed}.json"
        ok = ok and main(["generate", "--dim", "4", "--degrees", "0,1",
                          "--arities", "2,3", "--sparsity", "0.6",
                          "--seed", str(seed), "--symmetrize", "partial",
                          "--nilpotent", "-o", str(gen)]) == 0
        ok = ok and main(["derive", str(gen), "--functor", "commutator-beta",
                          "-o", str(beta)]) == 0
        ok = ok and main(["check", str(beta), "--flavor", "lie"]) == 0
        nonempty += bool(parse_document(gen.read_text()).family.arities())
    ok = ok and nonempty >= 8  # the round trip must not be vacuous

    import os
    broken = os.path.join(os.path.dirname(__file__), "fixtures",
                          "dual_numbers_broken.json")
    ok = ok and main(["check", broken, "--flavor", "assoc"]) == 1
    # the printed witness is recomputable
    with open(broken) as handle:
        doc = parse_document(handle.read())
    report = run_check(doc, ASSOC)
    witness = [c for c in report.checks if not c.passed][0].witness
    n, mu = nary_operation(doc)
    res = nary_residual(mu, PARTIALLY_ASSOCIATIVE, check_symmetry=False)
    word = tuple(doc.space.index(l) for l in witness["inputs"])
    printed = {doc.space.index(t["label"]): parse_rational(t["coeff"])
               for t in witness["value"]}
    ok = ok and dict(res.op.evaluate(word).terms) == printed
    capsys.readouterr()
    _verdict(9, ok, "generate -> derive commutator-beta -> check lie exits 0 "
                    "on seeds 1..10; perturbed fixture exits 1 with a "
                    "recomputable witness")
