"""Honest instances, built exactly, in which several arities meet in one
residual (ROADMAP item 3).

The Chevalley-Eilenberg dga of a nilpotent Lie algebra is the exterior
algebra on its dual generators, with d given on each generator by a sum
of products of earlier ones.  In homological degrees the generators sit
in degree -1, a monomial x_S (S a subset of the generators, listed in
order) in degree -|S|, and two monomials multiply with the Koszul sign of
merging their letters, which are all odd.  d is extended to every
monomial by the Leibniz rule, d(x_S) the sum over the letters s_k of S of
(-1)^(k-1) x_{s_1..s_(k-1)} d(x_(s_k)) x_{s_(k+1)..}, each product with
the merge sign and zero when a letter repeats.  Tensored with the 2 x 2
matrix units, all of degree 0, the product becomes noncommutative.

* Heisenberg: x, y, z with dz = xy.  M_2 (x) Heisenberg has dim 32, with
  4 entries of d and 216 of the product.
* Filiform L4: x1..x4 with dx3 = x1x2 and dx4 = x1x3.  M_2 (x) filiform
  has dim 64, with 16 entries of d and 648 of the product.
"""

from __future__ import annotations

import itertools

from hopla.graded import UNHAT, Operation, OperationFamily, space


def _merge_sign(left: tuple, right: tuple) -> int:
    """The Koszul sign of sorting the odd letters of left + right, each
    sorted and the two disjoint: -1 to the number of pairs out of order."""
    return -1 if sum(a > b for a in left for b in right) % 2 else 1


def _multiply(left: tuple, right: tuple):
    """(sign, monomial) of left * right, or None when a letter repeats."""
    if set(left) & set(right):
        return None
    return _merge_sign(left, right), tuple(sorted(left + right))


def _differential(monomial: tuple, differentials: dict) -> dict:
    """d of a monomial, {monomial: coefficient}, by the Leibniz rule from
    `differentials`, {generator: {monomial: coefficient}}."""
    image = {}
    for k, g in enumerate(monomial):
        before, after = monomial[:k], monomial[k + 1:]
        for term, c in differentials.get(g, {}).items():
            first = _multiply(before, term)
            if first is None:
                continue
            second = _multiply(first[1], after)
            if second is None:
                continue
            sign = (-1) ** k * first[0] * second[0]
            image[second[1]] = image.get(second[1], 0) + sign * c
    return {m: c for m, c in image.items() if c}


def chevalley_eilenberg_m2(generators: tuple, differentials: dict,
                           max_arity: int = 3) -> OperationFamily:
    """M_2 (x) the Chevalley-Eilenberg dga on the named generators as an
    unhat family: mu1 the differential (degree -1), mu2 the product
    (degree 0), both zero at every other arity.  `differentials` maps a
    generator's index to d of it, {sorted tuple of indices: coefficient}."""
    monomials = [S for n in range(len(generators) + 1)
                 for S in itertools.combinations(range(len(generators)), n)]
    units = list(itertools.product((1, 2), repeat=2))
    basis = [(S, e) for S in monomials for e in units]
    index = {b: i for i, b in enumerate(basis)}
    sp = space(*((f"{''.join(generators[g] for g in S) or '1'}E{i}{j}", -len(S))
                 for S, (i, j) in basis))
    d = {}
    for S in monomials:
        image = _differential(S, differentials)
        if image:
            for e in units:
                d[index[S, e],] = {index[T, e]: c for T, c in image.items()}
    mu = {}
    for (S, (i, j)), (T, (k, l)) in itertools.product(basis, repeat=2):
        product = _multiply(S, T)
        if j == k and product is not None:
            sign, ST = product
            mu[index[S, (i, j)], index[T, (k, l)]] = {index[ST, (i, l)]: sign}
    return OperationFamily(UNHAT, sp, max_arity,
                           {1: Operation(sp, 1, -1, d), 2: Operation(sp, 2, 0, mu)})


def heisenberg_m2(max_arity: int = 3) -> OperationFamily:
    """M_2 (x) Heisenberg: generators x, y, z with dz = xy."""
    return chevalley_eilenberg_m2(("x", "y", "z"), {2: {(0, 1): 1}}, max_arity)


def filiform_m2(max_arity: int = 3) -> OperationFamily:
    """M_2 (x) filiform L4: generators x1..x4 with dx3 = x1x2 and dx4 = x1x3."""
    return chevalley_eilenberg_m2(("x1", "x2", "x3", "x4"),
                                  {2: {(0, 1): 1}, 3: {(0, 2): 1}}, max_arity)
