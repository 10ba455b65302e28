"""Machine-checkable identities tying the modules together.

Each function here verifies one cross-module identity exactly and returns
None on success or a small witness describing the first failure.  The CLI
`selftest` verb and the acceptance suite are both built on these.
"""

from __future__ import annotations

import itertools
import random
from math import factorial

from .coalgebra import (PERM, WEDGE, coalgebra_map, coalgebra_words, comultiply,
                        extend_coderivation, project_pi, square_cogenerator_component)
from .equations import (ASSOC, COMMUTATORS, KINDS, LIE, PRELIE, EquationFlavor,
                        circle_bracket, circle_product, nary_residual, residual)
from .functors import commutator, suspend_family, suspend_operation
from .graded import (HAT, UNHAT, GradedSpace, LinearCombination, Operation,
                     OperationFamily)
from .permutations import (MODE_FULL, MODE_SHUFFLE, RHO2,
                           all_permutations, compose, koszul_sign,
                           precompose_symmetrized, sign, unshuffles)


def koszul_composition_witness(n: int, degrees) -> tuple | None:
    """eps(sigma; x o tau) = eps(tau*sigma; x) * eps(tau; x) for all
    sigma, tau in S_n, the right side read from eps(pi; x) tabled over S_n."""
    eps = {pi: koszul_sign(pi, degrees) for pi in all_permutations(n)}
    for tau in all_permutations(n):
        permuted = [degrees[t - 1] for t in tau]
        for sigma in all_permutations(n):
            if koszul_sign(sigma, permuted) != eps[compose(tau, sigma)] * eps[tau]:
                return tau, sigma
    return None


def sign_transfer_witness(n: int, degrees) -> tuple | None:
    """The degree-shift sign lemma, both parities, for sigma in S_{n-1}:
    the unshifted Koszul sign times sgn(sigma) and the parity correction
    equals the shifted Koszul sign with the unpermuted correction."""
    if len(degrees) != n - 1:
        raise ValueError("need n-1 degrees")
    shifted = [d + 1 for d in degrees]
    positions = range(1, n, 2) if n % 2 == 0 else range(2, n, 2)
    rhs_exp = sum(degrees[p - 1] for p in positions)
    for sigma in all_permutations(n - 1):
        lhs_exp = sum(degrees[sigma[p - 1] - 1] for p in positions)
        lhs = (-1) ** (lhs_exp % 2) * sign(sigma) * koszul_sign(sigma, degrees)
        rhs = (-1) ** (rhs_exp % 2) * koszul_sign(sigma, shifted)
        if lhs != rhs:
            return sigma
    return None


def unshuffle_partition_witness(n: int) -> tuple | None:
    """|Sh(i, n-i)| * i! * (n-i)! = n! for every split, and the unshuffles
    are pairwise distinct."""
    for i in range(1, n):
        found = unshuffles((i, n - i))
        if len(set(found)) != len(found):
            return (i, "duplicates")
        if len(found) * factorial(i) * factorial(n - i) != factorial(n):
            return (i, "count")
    return None


# ---------------------------------------------------------------------------
# coalgebra laws
# ---------------------------------------------------------------------------

def _comultiply_element(kind, space, combo: LinearCombination) -> LinearCombination:
    return LinearCombination((pair, c * cc) for word, c in combo
                             for pair, cc in comultiply(kind, space, word))


def _first_failing_word(kind: str, space: GradedSpace, cap: int, fails):
    """The first canonical `kind` word of weight 1..cap on which `fails`
    holds, in weight and then `coalgebra_words` order, or None."""
    return next((word for k in range(1, cap + 1) for word in coalgebra_words(kind, space, k)
                 if fails(word)), None)


def coassociativity_witness(kind: str, space: GradedSpace, cap: int):
    """(Delta (x) Id) Delta = (Id (x) Delta) Delta on canonical words."""
    def fails(word):
        coproduct = comultiply(kind, space, word)
        left = LinearCombination(((a1, a2, b), c * cc) for (a, b), c in coproduct
                                 for (a1, a2), cc in comultiply(kind, space, a))
        right = LinearCombination(((a, b1, b2), c * cc) for (a, b), c in coproduct
                                  for (b1, b2), cc in comultiply(kind, space, b))
        return left != right

    return _first_failing_word(kind, space, cap, fails)


def coalgebra_map_law_witness(name: str, space: GradedSpace, cap: int):
    """Delta o m = (m (x) m) o Delta for m in {alpha, beta, gamma}, a map
    from the coalgebra of the commutator's target kind to that of its
    source kind (`equations.COMMUTATORS`)."""
    source, target, _ = COMMUTATORS[name]
    domain, codomain = KINDS[target].coalgebra, KINDS[source].coalgebra

    def fails(word):
        lhs = _comultiply_element(codomain, space, coalgebra_map(name, space, word))
        rhs = LinearCombination(((wa, wb), c * ca * cb)
                                for (a, b), c in comultiply(domain, space, word)
                                for wa, ca in coalgebra_map(name, space, a)
                                for wb, cb in coalgebra_map(name, space, b))
        return lhs != rhs

    return _first_failing_word(domain, space, cap, fails)


def factorization_witness(space: GradedSpace, cap: int):
    """gamma o beta = alpha on wedge words."""
    def fails(word):
        via = LinearCombination((w, c * cc) for pair, c in coalgebra_map("beta", space, word)
                                for w, cc in coalgebra_map("gamma", space, pair))
        return via != coalgebra_map("alpha", space, word)

    return _first_failing_word(WEDGE, space, cap, fails)


def section_witness(space: GradedSpace, cap: int):
    """pi o alpha = identity on wedge words."""
    def fails(word):
        image = LinearCombination((key, c * cc) for w, c in coalgebra_map("alpha", space, word)
                                  for key, cc in project_pi(space, w))
        return image != LinearCombination({word: 1})

    return _first_failing_word(WEDGE, space, cap, fails)


# ---------------------------------------------------------------------------
# the coderivation / residual engine
# ---------------------------------------------------------------------------

def coderivation_correspondence_witness(unhat_family: OperationFamily, n_max: int, cap: int):
    """For a partially symmetric unhat family: the hat pre-Lie residual is
    minus the suspended unhat pre-Lie residual, it equals the cogenerator
    component of the squared coderivation, and the whole square D(D(w)),
    taken on every canonical word w up to the cap, vanishes exactly when
    all residuals up to the cap do."""
    hat = suspend_family(unhat_family)
    D = extend_coderivation(hat, PERM, cap)
    all_vanish = True
    for n in range(1, n_max + 1):
        unhat_res = residual(unhat_family, EquationFlavor(PRELIE, UNHAT), n).op
        hat_res = residual(hat, EquationFlavor(PRELIE, HAT), n).op
        if hat_res != -suspend_operation(unhat_res):
            return (n, "hat residual is not minus the suspended unhat residual")
        if n <= cap:
            if square_cogenerator_component(D, n) != hat_res:
                return (n, "squared-coderivation component differs from the residual")
            if not hat_res.is_zero():
                all_vanish = False
    square_zero = _first_failing_word(PERM, D.space, cap,
                                      lambda w: not D.square_word(w).is_zero()) is None
    if square_zero != all_vanish:
        return (0, "square-zero disagrees with residual vanishing")
    return None


def _first_failing_arity(family: OperationFamily, kind: str, n_max: int):
    """The first arity 1..n_max at which the family's `kind` residual, in its
    own convention, does not vanish, or None."""
    flavor = EquationFlavor(kind, family.convention)
    return next((n for n in range(1, n_max + 1) if not residual(family, flavor, n).vanishes()),
                None)


def commutator_pipeline_witness(family: OperationFamily, n_max: int):
    """From an associative-type family: gamma lands in pre-Lie, beta after
    gamma lands in Lie, and beta o gamma equals alpha arity by arity."""
    if (n := _first_failing_arity(family, ASSOC, n_max)) is not None:
        return (n, "input family is not associative-type")
    g = commutator(family, "gamma")
    if (n := _first_failing_arity(g, PRELIE, n_max)) is not None:
        return (n, "gamma image fails the pre-Lie residual")
    b = commutator(g, "beta")
    if (n := _first_failing_arity(b, LIE, n_max)) is not None:
        return (n, "beta image fails the Lie residual")
    a = commutator(family, "alpha")
    if b != a:
        return (0, "beta o gamma differs from alpha")
    if (n := _first_failing_arity(a, LIE, n_max)) is not None:
        return (n, "alpha image fails the Lie residual")
    return None


def suspension_square_witness(unhat_family: OperationFamily, name: str = "gamma"):
    """suspend o commutator = commutator o suspend, operation by operation."""
    lhs = suspend_family(commutator(unhat_family, name))
    rhs = commutator(suspend_family(unhat_family), name)
    if lhs != rhs:
        return name
    return None


def lemma_two_routes_witness(mu: Operation):
    """The pre-Lie defining residual of a partially skew mu equals mu o mu
    in the circle calculus, as operations."""
    res = nary_residual(mu, PRELIE, check_symmetry=False).op
    square = circle_product(mu, mu, check_symmetry=False)
    if res != square:
        return mu.arity
    return None


def full_vs_shuffle_witness(p: Operation):
    """Full signed symmetrization = (n-1)! times the unshuffle sum, for
    partially skew p."""
    n = p.arity
    full = precompose_symmetrized(p, RHO2, MODE_FULL)
    part = precompose_symmetrized(p, RHO2, MODE_SHUFFLE).scaled(factorial(n - 1))
    if full != part:
        return n
    return None


def graded_jacobi_witness(f: Operation, g: Operation, h: Operation):
    """[f,[g,h]] = [[f,g],h] + (-1)^{mn} [g,[f,h]] for the circle bracket,
    with m, n the reduced arities of f and g."""
    m, n = f.arity - 1, g.arity - 1
    lhs = circle_bracket(f, circle_bracket(g, h, False), False)
    rhs = (circle_bracket(circle_bracket(f, g, False), h, False)
           + circle_bracket(g, circle_bracket(f, h, False), False).scaled((-1) ** (m * n)))
    if lhs != rhs:
        return (f.arity, g.arity, h.arity)
    return None


# ---------------------------------------------------------------------------
# seeded random inputs
# ---------------------------------------------------------------------------

def random_operation(rng: random.Random, space: GradedSpace, arity: int, degree: int,
                     density: float = 0.5, coefficients=(-3, -2, -1, 1, 2, 3),
                     sources=None, sinks=None) -> Operation:
    """Deterministic sparse homogeneous operation with small coefficients.

    Each word over the source letters is kept with probability `density` and
    sent to a random sink letter of the right degree with a coefficient drawn
    from `coefficients`; sources and sinks default to the whole basis.
    """
    sources = range(space.dim) if sources is None else sources
    sinks = range(space.dim) if sinks is None else sinks
    # the sinks of each degree, in order, so a word costs O(arity)
    sinks_of_degree = {}
    for i in sinks:
        sinks_of_degree.setdefault(space.degree(i), []).append(i)
    table = {}
    for word in itertools.product(sources, repeat=arity):
        if rng.random() >= density:
            continue
        outs = sinks_of_degree.get(sum(space.degree(i) for i in word) + degree)
        if not outs:
            continue
        out = rng.choice(outs)
        table[word] = {out: rng.choice(coefficients)}
    return Operation(space, arity, degree, table)


def random_unhat_family(rng: random.Random, space: GradedSpace, arities,
                        symmetrize: str | None = "partial",
                        density: float = 0.5) -> OperationFamily:
    ops = {}
    for n in arities:
        op = random_operation(rng, space, n, n - 2, density)
        if symmetrize is not None:
            op = precompose_symmetrized(op, RHO2, symmetrize)
        if not op.is_zero():
            ops[n] = op
    return OperationFamily(UNHAT, space, max(arities), ops)
