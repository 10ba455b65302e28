import pytest

from conftest import LIE_COEFFICIENT_XFAIL
from instances import heisenberg_m2
from hopla.equations import ASSOC, LIE, PRELIE, EquationFlavor, residual
from hopla.functors import commutator
from hopla.graded import UNHAT, Operation, OperationFamily


def _passes(family, flavor, arities=(1, 2, 3)):
    """The arities whose unhat residual under the flavor vanishes."""
    return [n for n in arities if residual(family, EquationFlavor(flavor, UNHAT), n).op.is_zero()]


def test_m2_heisenberg_is_associative_and_its_gamma_image_pre_lie():
    # the paper's A∞ -> PL∞ functor on a dga where mu1 o mu2 and mu2 o mu1
    # meet in the arity-2 residual: d(z) = xy on each matrix unit, the
    # product with the merge sign of the odd generators
    dga = heisenberg_m2()
    assert dga.space.dim == 32 and sorted(set(dga.space.degrees)) == [-3, -2, -1, 0]
    assert {n: len(op.numerators) for n, op in dga.ops.items()} == {1: 4, 2: 216}
    assert _passes(dga, ASSOC) == [1, 2, 3]
    assert _passes(commutator(dga, "gamma"), PRELIE) == [1, 2, 3]


def test_m2_heisenberg_arities_meet():
    # a differential that is no longer a derivation of the product, d(z)
    # doubled on one matrix unit, fails the arity-2 residuals: they read
    # the differential and the product together
    dga = heisenberg_m2()
    d = dict(dga.ops[1].numerators)
    word = min(d)
    d[word] = {letter: 2 * c for letter, c in d[word].items()}
    broken = OperationFamily(UNHAT, dga.space, 3,
                             {1: Operation(dga.space, 1, -1, d), 2: dga.ops[2]})
    assert _passes(broken, ASSOC) == [1, 3]
    assert _passes(commutator(broken, "gamma"), PRELIE) == [1, 3]


@LIE_COEFFICIENT_XFAIL
@pytest.mark.parametrize("route", ["alpha", "beta of gamma"])
def test_m2_heisenberg_lie_images_are_lie(route):
    # the A∞ -> L∞ functor alpha, and beta after gamma, give L∞ algebras in
    # which arities 1 and 2 meet
    dga = heisenberg_m2()
    image = (commutator(dga, "alpha") if route == "alpha"
             else commutator(commutator(dga, "gamma"), "beta"))
    assert _passes(image, LIE) == [1, 2, 3]
