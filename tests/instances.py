"""Honest instances, built exactly, in which several arities meet in one
residual (ROADMAP item 3).

The Chevalley-Eilenberg dga of the Heisenberg Lie algebra is the exterior
algebra on x, y, z with dz = xy.  In homological degrees the generators
sit in degree -1, a monomial x_S (S a subset of {x, y, z}, listed in that
order) in degree -|S|, and two monomials multiply with the Koszul sign of
merging their letters, which are all odd.  d is the derivation with
d(z) = xy; on any other monomial the Leibniz rule gives zero.  Tensored
with the 2 x 2 matrix units, all of degree 0, the product becomes
noncommutative: M_2 (x) Heisenberg has dim 32, with 4 entries of d and 216
of the product.
"""

from __future__ import annotations

import itertools

from hopla.graded import UNHAT, Operation, OperationFamily, space

GENERATORS = "xyz"


def _merge_sign(left: tuple, right: tuple) -> int:
    """The Koszul sign of sorting the odd letters of left + right, each
    sorted and the two disjoint: -1 to the number of pairs out of order."""
    return -1 if sum(a > b for a in left for b in right) % 2 else 1


def heisenberg_m2(max_arity: int = 3) -> OperationFamily:
    """M_2 (x) Heisenberg as an unhat family: mu1 the differential (degree
    -1), mu2 the product (degree 0), both zero at every other arity."""
    monomials = [S for n in range(len(GENERATORS) + 1)
                 for S in itertools.combinations(range(len(GENERATORS)), n)]
    units = list(itertools.product((1, 2), repeat=2))
    basis = [(S, e) for S in monomials for e in units]
    index = {b: i for i, b in enumerate(basis)}
    sp = space(*((f"{''.join(GENERATORS[g] for g in S) or '1'}E{i}{j}", -len(S))
                 for S, (i, j) in basis))
    x, y, z = range(len(GENERATORS))
    d = {(index[(z,), e],): {index[(x, y), e]: 1} for e in units}
    mu = {}
    for (S, (i, j)), (T, (k, l)) in itertools.product(basis, repeat=2):
        if j == k and not set(S) & set(T):
            mu[index[S, (i, j)], index[T, (k, l)]] = {
                index[tuple(sorted(S + T)), (i, l)]: _merge_sign(S, T)}
    return OperationFamily(UNHAT, sp, max_arity,
                           {1: Operation(sp, 1, -1, d), 2: Operation(sp, 2, 0, mu)})
