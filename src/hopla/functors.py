"""Degree-shift and commutator functors between the algebra flavors.

Suspension mediates the two degree conventions: an arity-n map of degree
n-2 on V corresponds to an arity-n map of degree -1 on the shifted space sV
(degrees raised by one) via a parity-dependent sign:

    n even:   hat(s x_1, ..., s x_n) =  (-1)^(|x_1|+|x_3|+...+|x_{n-1}|) s unhat(x_1, ..., x_n)
    n odd:    hat(s x_1, ..., s x_n) = -(-1)^(|x_2|+|x_4|+...+|x_{n-1}|) s unhat(x_1, ..., x_n)

with |x_i| taken in the unshifted space.  The leading minus for odd arities
belongs to the bijection and is applied in both directions, so the round
trip is the identity.  Both directions are one shift of the degrees, by +1
to suspend and by -1 to desuspend.

The commutators are (partial) symmetrizations applied arity-wise, each
over the mode `equations.COMMUTATORS` gives it: alpha sums over the whole
symmetric group, beta over the (n-1,1)-unshuffles, gamma over the group of
the first n-1 slots; hat families symmetrize with the Koszul action, unhat
families with the signed Koszul action.  They send a structure of the
commutator's source kind to one of its target kind: homotopy associative
to homotopy pre-Lie (gamma), homotopy pre-Lie to homotopy Lie (beta), and
homotopy associative to homotopy Lie (alpha), with gamma then beta
matching alpha term by term.  An n-ary
operation mu is the one-operation family `nary_family(mu)`, so its pre-Lie
and Lie commutators are gamma and beta of that family.
"""

from __future__ import annotations

from .equations import COMMUTATORS, nary_family
from .errors import ConventionError
from .graded import HAT, UNHAT, GradedSpace, Operation, OperationFamily
from .permutations import action_variant, precompose_symmetrized


def _shifted(space: GradedSpace, by: int) -> GradedSpace:
    return GradedSpace(space.labels, tuple(d + by for d in space.degrees))


def suspension_sign(arity: int, base_degrees) -> int:
    """Sign of the degree-shift bijection on one input word; `base_degrees`
    are the degrees before shifting."""
    if arity % 2 == 0:
        s = sum(base_degrees[p] for p in range(0, arity, 2))
        return -1 if s % 2 else 1
    s = sum(base_degrees[p] for p in range(1, arity, 2))
    return 1 if s % 2 else -1


def _shift_operation(op: Operation, by: int) -> Operation:
    """op moved to the space with degrees raised by `by`, 1 to suspend or -1
    to desuspend: each word's sign is read on the unshifted degrees (op's
    own when suspending, the target's when desuspending), and the degree
    drops by `by` per extra input."""
    target = _shifted(op.space, by)
    degrees = (op.space if by == 1 else target).degrees
    table = {}
    for word, sums in op.numerators.items():
        sign = suspension_sign(op.arity, [degrees[i] for i in word])
        table[word] = sums if sign == 1 else {x: -c for x, c in sums.items()}
    return Operation.from_numerators(target, op.arity, op.degree - by * (op.arity - 1),
                                     table, op.denominator)


def suspend_family(family: OperationFamily) -> OperationFamily:
    """unhat family on V  ->  hat family on sV."""
    if family.convention != UNHAT:
        raise ConventionError("suspend_family expects an unhat family")
    ops = {n: _shift_operation(op, 1) for n, op in family.ops.items()}
    return OperationFamily(HAT, _shifted(family.space, 1), family.max_arity, ops)


def desuspend_family(family: OperationFamily) -> OperationFamily:
    """hat family on W  ->  unhat family on the downshifted space."""
    if family.convention != HAT:
        raise ConventionError("desuspend_family expects a hat family")
    ops = {n: _shift_operation(op, -1) for n, op in family.ops.items()}
    return OperationFamily(UNHAT, _shifted(family.space, -1), family.max_arity, ops)


def suspend_operation(op: Operation) -> Operation:
    """Shift a single arity-n map of any degree d to degree d - n + 1 on sV.

    Used to compare residuals across the two conventions: residuals are not
    family members but still transport along the same sign rule.
    """
    return _shift_operation(op, 1)


def commutator(family: OperationFamily, name: str) -> OperationFamily:
    """Apply one of the three symmetrization functors arity-wise, summing
    over its mode in `equations.COMMUTATORS`.

    No precondition is verified here (the theorems are of the form "if the
    input satisfies X the output satisfies Y"); the CLI layer checks input
    symmetry by default.
    """
    if name not in COMMUTATORS:
        raise ValueError(f"commutator name must be one of {sorted(COMMUTATORS)}")
    mode = COMMUTATORS[name].mode
    variant = action_variant(family.convention)
    ops = {n: precompose_symmetrized(op, variant, mode)
           for n, op in family.ops.items()}
    return OperationFamily(family.convention, family.space, family.max_arity, ops)


# ---------------------------------------------------------------------------
# n-ary algebras as one-operation homotopy families
# ---------------------------------------------------------------------------

def nary_embed(mu: Operation) -> OperationFamily:
    """Embed an n-ary operation on a degree-0 space as an unhat family with
    a single arity-n operation of degree n-2, capped at 2n-1, the arity of
    its defining equation.

    The carrier has three copies of the base space, in degrees 0, n-2 and
    2n-4, basis vector i of the carrier standing for base vector i % dim.
    The embedded operation returns mu of those base vectors on input
    words of total degree 0 (landing in the degree n-2 copy) or total
    degree n-2 (landing in the degree 2n-4 copy), and zero otherwise.  For
    n = 2 all three copies coincide and the family is `nary_family(mu)`.
    """
    base, n = mu.space, mu.arity
    base.require_degree_zero("nary_embed")
    if n == 2:
        return nary_family(mu)
    dim = base.dim

    copies = (0, n - 2, 2 * n - 4)
    labels = tuple(f"{lbl}@{d}" for d in copies for lbl in base.labels)
    degrees = tuple(d for d in copies for _ in range(dim))
    carrier = GradedSpace(labels, degrees)

    def in_copy(copy: int, base_index: int) -> int:
        return copy * dim + base_index

    # every input word lands on n + 1 distinct carrier words, and no two
    # input words share one, so no entries need summing
    table = {}
    for word, sums in mu.numerators.items():
        zero_word = tuple(in_copy(0, i) for i in word)
        table[zero_word] = {in_copy(1, i): c for i, c in sums.items()}
        image = {in_copy(2, i): c for i, c in sums.items()}
        for p in range(n):
            mixed = tuple(in_copy(1 if q == p else 0, i) for q, i in enumerate(word))
            table[mixed] = image
    op = Operation.from_numerators(carrier, n, n - 2, table, mu.denominator)
    return OperationFamily(UNHAT, carrier, 2 * n - 1, {n: op})
