import pytest

from conftest import LIE_COEFFICIENT_XFAIL
from instances import filiform_m2, heisenberg_m2
from hopla.equations import ASSOC, LIE, PRELIE, EquationFlavor, residual
from hopla.functors import commutator, suspend_family
from hopla.graded import HAT, UNHAT, Operation, OperationFamily

# each Chevalley-Eilenberg dga tensored with M_2: its constructor, its
# dimension, its degrees and its entries per arity
INSTANCES = {
    "heisenberg": (heisenberg_m2, 32, [-3, -2, -1, 0], {1: 4, 2: 216}),
    "filiform": (filiform_m2, 64, [-4, -3, -2, -1, 0], {1: 16, 2: 648}),
}


def _passes(family, flavor, arities=(1, 2, 3)):
    """The arities whose unhat residual under the flavor vanishes."""
    return [n for n in arities if residual(family, EquationFlavor(flavor, UNHAT), n).op.is_zero()]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_m2_dga_is_associative_and_its_gamma_image_pre_lie(name):
    # the paper's A∞ -> PL∞ functor on a dga where mu1 o mu2 and mu2 o mu1
    # meet in the arity-2 residual: d by the Leibniz rule on each matrix
    # unit, the product with the merge sign of the odd generators
    build, dim, degrees, entries = INSTANCES[name]
    dga = build()
    assert dga.space.dim == dim and sorted(set(dga.space.degrees)) == degrees
    assert {n: len(op.numerators) for n, op in dga.ops.items()} == entries
    assert _passes(dga, ASSOC) == [1, 2, 3]
    image = commutator(dga, "gamma")
    assert _passes(image, PRELIE) == [1, 2, 3]
    # and under rho1, on the suspension, where the odd letters kill
    hat = suspend_family(image)
    assert [n for n in (1, 2, 3)
            if residual(hat, EquationFlavor(PRELIE, HAT), n).vanishes()] == [1, 2, 3]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_m2_dga_arities_meet(name):
    # a differential that is no longer a derivation of the product, d
    # doubled on one monomial and matrix unit, fails the arity-2
    # residuals: they read the differential and the product together
    dga = INSTANCES[name][0]()
    d = dict(dga.ops[1].numerators)
    word = min(d)
    d[word] = {letter: 2 * c for letter, c in d[word].items()}
    broken = OperationFamily(UNHAT, dga.space, 3,
                             {1: Operation(dga.space, 1, -1, d), 2: dga.ops[2]})
    assert _passes(broken, ASSOC) == [1, 3]
    assert _passes(commutator(broken, "gamma"), PRELIE) == [1, 3]


@LIE_COEFFICIENT_XFAIL
@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("route", ["alpha", "beta of gamma"])
def test_m2_dga_lie_images_are_lie(route, name):
    # the A∞ -> L∞ functor alpha, and beta after gamma, give L∞ algebras in
    # which arities 1 and 2 meet
    dga = INSTANCES[name][0]()
    image = (commutator(dga, "alpha") if route == "alpha"
             else commutator(commutator(dga, "gamma"), "beta"))
    assert _passes(image, LIE) == [1, 2, 3]
