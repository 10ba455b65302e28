"""Every identity `selftest` runs can fail: a broken input, or a broken map
that the identity reads, makes its witness function return the witness.

Each test first checks that the identity holds on the input as given, then
breaks one thing and checks the exact witness returned, at the smallest
cap, weight or arity where the break shows."""

import json
import random
from math import factorial

import pytest

from hopla import verify
from hopla.cli import main
from hopla.coalgebra import (PERM, TENSOR, WEDGE, coalgebra_map, coproduct_terms, project_pi,
                             square_cogenerator_component)
from hopla.equations import COMMUTATORS, PARTIALLY_ASSOCIATIVE, circle_product, nary_residual
from hopla.functors import commutator
from hopla.graded import GradedSpace, LinearCombination, OperationFamily
from hopla.permutations import (MODE_PARTIAL, RHO2, koszul_sign, precompose_symmetrized,
                                unshuffles)
from hopla.samples import nilpotent_dga

FLAT3 = GradedSpace(("a", "b", "c"), (0, 0, 0))
# two odd letters, so the Koszul signs of alpha and gamma show
MIXED = GradedSpace(("u", "v", "w"), (0, 1, 1))


def _dense(seed, *arities):
    """Partially skew operations on FLAT3 with every word stored, so their
    circle products are nonzero."""
    rng = random.Random(seed)
    return [precompose_symmetrized(verify.random_operation(rng, FLAT3, a, 0, density=1.0),
                                   RHO2, MODE_PARTIAL) for a in arities]


def test_koszul_composition_fails_on_signs_read_off_the_unpermuted_degrees(monkeypatch):
    degrees = [0, 1, 1]
    assert verify.koszul_composition_witness(3, degrees) is None
    monkeypatch.setattr(verify, "koszul_sign", lambda sigma, _: koszul_sign(sigma, degrees))
    assert verify.koszul_composition_witness(3, degrees) == ((2, 1, 3), (1, 3, 2))


def test_sign_transfer_fails_without_the_parity_of_sigma(monkeypatch):
    assert verify.sign_transfer_witness(3, [0, 0]) is None
    monkeypatch.setattr(verify, "sign", lambda sigma: 1)
    assert verify.sign_transfer_witness(3, [0, 0]) == (2, 1)


def test_unshuffle_partition_fails_on_repeated_and_missing_unshuffles(monkeypatch):
    assert verify.unshuffle_partition_witness(2) is None
    monkeypatch.setattr(verify, "unshuffles", lambda blocks: unshuffles(blocks) * 2)
    assert verify.unshuffle_partition_witness(2) == (1, "duplicates")
    monkeypatch.setattr(verify, "unshuffles", lambda blocks: unshuffles(blocks)[1:])
    assert verify.unshuffle_partition_witness(2) == (1, "count")


@pytest.mark.parametrize("kind", [TENSOR, WEDGE, PERM])
def test_coassociativity_fails_on_a_coproduct_of_left_weight_one(kind, graded2, monkeypatch):
    # (Delta (x) Id) Delta is then zero and (Id (x) Delta) Delta is not,
    # first on a word of weight 3
    assert verify.coassociativity_witness(kind, graded2, 3) is None
    monkeypatch.setattr(verify, "comultiply", lambda kind, sp, word: LinearCombination(
        coproduct_terms(kind, sp, word, 1) if len(word) > 1 else ()))
    assert verify.coassociativity_witness(kind, graded2, 3) == (0, 0, 0)


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
def test_coalgebra_map_law_fails_on_a_doubled_map(name, monkeypatch):
    assert verify.coalgebra_map_law_witness(name, MIXED, 2) is None
    monkeypatch.setattr(verify, "coalgebra_map",
                        lambda name, sp, word: coalgebra_map(name, sp, word).scaled(2))
    assert verify.coalgebra_map_law_witness(name, MIXED, 2) == (0, 0)


def test_factorization_fails_when_gamma_is_the_identity(monkeypatch):
    # gamma moves nothing below weight 3, where its head has one letter
    assert verify.factorization_witness(MIXED, 3) is None
    monkeypatch.setattr(verify, "coalgebra_map", lambda name, sp, word: (
        LinearCombination({word: 1}) if name == "gamma" else coalgebra_map(name, sp, word)))
    assert verify.factorization_witness(MIXED, 3) == (0, 0, 0)


def test_section_fails_on_a_projection_without_its_factorial(monkeypatch):
    assert verify.section_witness(MIXED, 2) is None
    monkeypatch.setattr(verify, "project_pi",
                        lambda sp, word: project_pi(sp, word).scaled(factorial(len(word))))
    assert verify.section_witness(MIXED, 2) == (0, 0)


def test_coderivation_correspondence_fails_on_each_of_its_three_routes(graded2, monkeypatch):
    # a family whose hat pre-Lie residual is nonzero at arity 3 only
    family = verify.random_unhat_family(random.Random(1), graded2, (1, 2, 3))
    assert verify.coderivation_correspondence_witness(family, 4, 4) is None
    with monkeypatch.context() as patch:
        patch.setattr(verify, "suspend_operation", lambda op: op)
        assert verify.coderivation_correspondence_witness(family, 4, 4) \
            == (1, "hat residual is not minus the suspended unhat residual")
    with monkeypatch.context() as patch:
        patch.setattr(verify, "square_cogenerator_component",
                      lambda D, n: square_cogenerator_component(D, n).scaled(2))
        assert verify.coderivation_correspondence_witness(family, 4, 4) \
            == (3, "squared-coderivation component differs from the residual")
    with monkeypatch.context() as patch:
        # a square walk that visits no word reads as square-zero
        patch.setattr(verify, "coalgebra_words", lambda kind, sp, k: iter(()))
        assert verify.coderivation_correspondence_witness(family, 4, 4) \
            == (0, "square-zero disagrees with residual vanishing")


def test_commutator_pipeline_fails_when_alpha_is_gamma(monkeypatch):
    dga = nilpotent_dga()
    assert verify.commutator_pipeline_witness(dga, 4) is None
    monkeypatch.setattr(verify, "commutator", lambda family, name: commutator(
        family, "gamma" if name == "alpha" else name))
    assert verify.commutator_pipeline_witness(dga, 4) == (0, "beta o gamma differs from alpha")


def _unsigned_commutator(family, name):
    """The commutator with the unhat action whatever the convention."""
    ops = {n: precompose_symmetrized(op, RHO2, COMMUTATORS[name].mode)
           for n, op in family.ops.items()}
    return OperationFamily(family.convention, family.space, family.max_arity, ops)


def test_suspension_square_fails_on_a_commutator_blind_to_the_convention(monkeypatch):
    dga = nilpotent_dga()
    assert verify.suspension_square_witness(dga, "alpha") is None
    monkeypatch.setattr(verify, "commutator", _unsigned_commutator)
    assert verify.suspension_square_witness(dga, "alpha") == "alpha"


def test_two_routes_fail_on_the_partially_associative_residual(monkeypatch):
    (mu,) = _dense(3, 2)
    assert not circle_product(mu, mu, False).is_zero()
    assert verify.lemma_two_routes_witness(mu) is None
    monkeypatch.setattr(verify, "nary_residual", lambda mu, kind, check_symmetry: nary_residual(
        mu, PARTIALLY_ASSOCIATIVE, check_symmetry))
    assert verify.lemma_two_routes_witness(mu) == 2


def test_full_vs_shuffle_fails_on_an_operation_that_is_not_partially_skew():
    rng = random.Random(3)
    raw = verify.random_operation(rng, FLAT3, 3, 0, density=1.0)
    assert verify.full_vs_shuffle_witness(precompose_symmetrized(raw, RHO2, MODE_PARTIAL)) is None
    assert verify.full_vs_shuffle_witness(raw) == 3


def test_graded_jacobi_fails_on_the_circle_product(monkeypatch):
    f, g, h = _dense(5, 2, 2, 2)
    assert verify.graded_jacobi_witness(f, g, h) is None
    monkeypatch.setattr(verify, "circle_bracket", circle_product)
    assert verify.graded_jacobi_witness(f, g, h) == (2, 2, 2)


def test_selftest_exits_one_on_the_line_of_a_broken_map(monkeypatch, capsys):
    # project_pi is read by the section identity alone
    monkeypatch.setattr(verify, "project_pi",
                        lambda sp, word: project_pi(sp, word).scaled(factorial(len(word))))
    assert main(["selftest", "--fast", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["pi o alpha = identity"]


def test_sign_transfer_refuses_a_wrong_degree_count():
    with pytest.raises(ValueError) as caught:
        verify.sign_transfer_witness(3, [0])
    assert type(caught.value) is ValueError and str(caught.value) == "need n-1 degrees"
