"""Structure-equation residuals and the circle-product calculus.

Six residual flavors: {assoc, prelie, lie} x {hat, unhat}.  The arity-n
residual of a family {mu_k} is

    sum_{i+j=n+1} sum_{m=0}^{i-1} c(i,j,m) * mu_i o (I_m (x) mu_j (x) I_{i-m-1}) o P

where the coefficient c and the symmetrizing precomposition P depend on the
flavor; the factorials are 1/((i-1)! acted_count(mode, j)!) under a mode:

    assoc / hat     c = 1                                   P = id
    prelie / hat    c = 1/((i-1)!(j-1)!)                    P = rho1 summed over S_{n-1} on the first n-1 slots
    lie / hat       c = 1/((i-1)!j!)                        P = rho1 summed over S_n
    assoc / unhat   c = (-1)^(j(i-m-1)+m)                   P = id
    prelie / unhat  c = (-1)^(j(i-m-1)+m)/((i-1)!(j-1)!)    P = rho2 summed over S_{n-1} on the first n-1 slots
    lie / unhat     c = (-1)^(j(i-m-1)+m)/((i-1)!j!)        P = rho2 summed over S_n

The lie rows are not yet Lada-Markl's sum: that needs 1/(i!j!), so where
only one pair (i, j) meets at an arity a lie witness value is i times too
large, and where pairs with different i meet a lie verdict can be wrong
(ROADMAP item 1; `coderive --kind wedge` is the independent route).

Each kind's mode, its cofree coalgebra, its declared types and the name
of its n-ary equation, and each commutator's source kind, target kind and
mode, are the paper's dictionary, written once in the tables `KINDS` and
`COMMUTATORS` below.  `NARY_KINDS` reads the equation names back to their
kinds, and `COALGEBRAS` lists the coalgebras in the order the CLI offers
them (tensor, wedge, perm; the table's order is tensor, perm, wedge).

A family satisfies the corresponding axioms iff all residuals vanish.  The
prelie and lie residuals are computed in a collapsed form (below) that is
this sum only if every output of each mu_k has the parity of its inputs
plus mu_k's degree and each mu_k is invariant under the matching signed
action; `require_collapsible` checks both, parity first, unless bypassed.

What is computed is the Nijenhuis-Richardson form of that sum.  For a
symmetric family, P makes each position 0..a-1, a = acted_count(mode, i),
whose inserted block stays inside the acted slots, contribute what
position 0 does, so per arity pair (i, j) only these insertions are made:

    a > 0             position 0 with a*c(i,j,0), outer block (1, a)
    m = a..i-1        position m with c(i,j,m), outer block (0, a)

The same symmetry makes every arrangement of an operand's symmetric
slots inside the acted ones contribute to P what the sorted arrangement
does, so each insertion streams, on the outer block above and the inner
block (0, acted_count(mode, j)), only the entries whose block is sorted,
each times the number of its distinct arrangements
(`permutations.block_representatives`).  P's |Stab| completes the weight
of a pair of representatives, for lie i * prod_x C(r_x, a_x)
(docs/conventions.md).  Each such table is built once per call, in a memo
the caller owns (`tables`).

All insertions of one arity stream their terms, as integer numerators
over one common denominator per call, straight into P, which sums them
once (`_insert_fold`).  P is the orbit kernel's first step,
`permutations.fold`: a residual is that `Folded` sum, its orbit values at
their representatives, which is all a verdict or a witness reads, and
`permutations.expand` writes the whole operation only when `.op` is
read.  The circle product is `expand` of the fold.  The circle bracket
f o g - (-1)^(mn) g o f is `expand` of one fold too: both products share
the arity and P, and P is linear, so their insertions stream into one
call with the second product's scaled by -(-1)^(mn).  Without the
precondition the collapsed form is not the sum above, which is why
`residual` and `check` refuse such families.

An n-ary operation mu on a degree-0 space is the one-operation unhat
family {n: mu} (`nary_family`), and its defining equation is that
family's residual at arity 2n-1 (`nary_residual`); there is no second
residual path.

The number of terms the insertions visit is known before any insertion
is made (`graded.insertion_term_count` over `residual_insertions`), an
upper bound on what they stream: an insertion into a fold skips the
terms whose orbit the fold kills (`_insert_fold`).  `check` refuses work
above a limit on that count.

Everything here decides vanishing by exhaustive evaluation on basis words;
residuals are exact, there is no tolerance anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import factorial, lcm

from .errors import ArityError, ConventionError, LemmaViolationError
from .graded import (HAT, UNHAT, GradedSpace, Operation, OperationFamily, insertion_terms,
                     table_from_terms)
from .permutations import (MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE, RHO2, Folded, acted_count,
                           action_variant, block_representatives, expand, fold,
                           killing_letters, require_symmetry)

ASSOC = "assoc"
PRELIE = "prelie"
LIE = "lie"

PARTIALLY_ASSOCIATIVE = "partially_associative"

TENSOR = "tensor"
WEDGE = "wedge"
PERM = "perm"

# a kind's row: the symmetrization P of its residual (None, partial or full),
# the cofree coalgebra whose square-zero degree -1 coderivations are its
# homotopy structures, the declared types of its documents, (homotopy, n-ary),
# and the name of its n-ary equation as `check` prints it
Kind = namedtuple("Kind", "mode coalgebra types equation")
# a commutator's row: the kind it takes, the kind it gives and the
# symmetrization it sums over
Commutator = namedtuple("Commutator", "source target mode")

# The paper's dictionary, written once: A-infinity => PL-infinity =>
# L-infinity and partially associative n => pre-Lie n => n-Lie admissible.
# Every other reading of a kind's mode, coalgebra, types or n-ary equation,
# and of a commutator's kinds or sum, reads these two tables.
KINDS = {ASSOC: Kind(None, TENSOR, ("a_infinity", "assoc_n"), PARTIALLY_ASSOCIATIVE),
         PRELIE: Kind(MODE_PARTIAL, PERM, ("pl_infinity", "prelie_n"), PRELIE),
         LIE: Kind(MODE_FULL, WEDGE, ("l_infinity", "lie_n"), LIE)}
COMMUTATORS = {"alpha": Commutator(ASSOC, LIE, MODE_FULL),
               "beta": Commutator(PRELIE, LIE, MODE_SHUFFLE),
               "gamma": Commutator(ASSOC, PRELIE, MODE_PARTIAL)}
# the coalgebras in the order `coderive --kind` and selftest list them
COALGEBRAS = (TENSOR, WEDGE, PERM)
# the kind of each n-ary equation, read back off the table
NARY_KINDS = {kind.equation: name for name, kind in KINDS.items()}


@dataclass(frozen=True)
class EquationFlavor:
    kind: str
    convention: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {tuple(KINDS)}, got {self.kind!r}")
        if self.convention not in (HAT, UNHAT):
            raise ValueError(f"convention must be 'hat' or 'unhat', got {self.convention!r}")

    @property
    def variant(self) -> str:
        return action_variant(self.convention)

    @property
    def mode(self) -> str | None:
        return KINDS[self.kind].mode


def _coefficient(flavor: EquationFlavor, i: int, j: int, m: int) -> Fraction:
    c = Fraction(1)
    if flavor.convention == UNHAT and (j * (i - m - 1) + m) % 2:
        c = -c
    if flavor.mode is not None:
        c /= factorial(i - 1) * factorial(acted_count(flavor.mode, j))
    return c


def _positions(mode: str | None, i: int, coefficient) -> tuple:
    """(position, coefficient, block) of the insertions that stand for all
    i insertion positions of an arity-i outer operation, given the
    coefficient of each position; block is the (lo, hi) slots of the outer
    operation whose arrangements the insertion streams as one
    (`permutations.block_representatives`).

    With a = acted_count(mode, i), the positions 0..a-1 lie inside the
    acted slots and, provided the operations carry the mode's symmetry,
    contribute what position 0 does, so they collapse to position 0 with
    a times its coefficient; its block is the acted slots less the one the
    inner operation's output fills.  Each position a..i-1 is kept, its
    block all the acted slots.
    """
    a = acted_count(mode, i)
    collapsed = ((0, a * coefficient(0), (1, a)),) if a else ()
    return collapsed + tuple((m, coefficient(m), (0, a)) for m in range(a, i))


def require_parity(family: OperationFamily, kind: str) -> None:
    """Refuse a pre-Lie or Lie family, on a space with an odd letter, with an
    entry whose output parity is not its input parity plus its operation's
    degree (ConventionError naming the first such arity): the collapsed
    positions of `_positions` hold only for parity-homogeneous tables."""
    odd = family.space.parities
    if kind == ASSOC or not any(odd):
        return
    for n, op in sorted(family.ops.items()):
        if any(odd[out] != (sum(odd[x] for x in word) + op.degree) % 2
               for word, sums in op.numerators.items() for out in sums):
            raise ConventionError(f"the {kind} check needs outputs of the parity of the inputs "
                                  f"plus the degree; the arity-{n} operation has others")


def require_collapsible(family: OperationFamily, flavor: EquationFlavor) -> None:
    """The collapsed form's precondition for a pre-Lie or Lie family:
    `require_parity`, then invariance under the flavor's action (a
    SymmetryError names the first failing arity); assoc needs neither."""
    require_parity(family, flavor.kind)
    require_symmetry(family.ops, flavor.variant, flavor.mode, f"the {flavor.kind} residual")


def _representatives(tables: dict, op: Operation, block) -> Operation:
    """`block_representatives(op, *block)`, built once per `tables`, the
    caller's per-call memo.  Each entry keeps op, so its id cannot pass to
    another operation while the entry lives."""
    key = (id(op),) + block
    entry = tables.get(key)
    if entry is None:
        entry = tables[key] = (op, block_representatives(op, *block))
    return entry[1]


def _insertions(mode: str | None, outer: Operation, inner: Operation, coefficient, tables: dict):
    """The (outer, inner, position, coefficient) insertions that stand for
    every position of inner into outer, on the representative tables of
    both operands' symmetric blocks (see `_positions`).  The inner block is
    all of inner's acted slots: they lie inside the outer's acted slots at
    every position kept."""
    inner = _representatives(tables, inner, (0, acted_count(mode, inner.arity)))
    return [(_representatives(tables, outer, block), inner, position, c)
            for position, c, block in _positions(mode, outer.arity, coefficient)]


def _insert_fold(sp: GradedSpace, arity: int, degree: int, insertions,
                 variant: str, mode: str | None) -> Folded:
    """P(sum of coeff * outer o_position inner) over the (outer, inner,
    position, coeff) insertions, on its orbit representatives; P is
    `permutations.fold` in the given mode, or the identity when mode is
    None, where every word is its own orbit.

    Each coefficient and the denominators of its two operands fold into one
    integer multiplier over D, the call's common denominator, so every
    insertion streams integer numerators, and the chained stream goes to
    the kernel as it is; nothing is divided by D until a value is read.
    Under a mode whose action has killing letters
    (`permutations.killing_letters`), each insertion is given the fold's
    acted slots and that table, so it skips the terms the fold would drop
    before building their words; the fold's table is the same."""
    folded = [(outer, inner, position, coeff, outer.denominator * inner.denominator)
              for outer, inner, position, coeff in insertions]
    den = lcm(*(coeff.denominator * operands for *_, coeff, operands in folded))
    killing = killing_letters(sp, variant) if mode is not None else ()
    kills = (acted_count(mode, arity), killing) if any(killing) else None
    terms = chain.from_iterable(
        insertion_terms(outer, inner, position,
                        coeff.numerator * (den // (coeff.denominator * operands)), kills)
        for outer, inner, position, coeff, operands in folded)
    if mode is None:
        return Folded(sp, arity, degree, table_from_terms(terms), den, variant, None)
    return fold(sp, arity, degree, terms, den, variant, mode)


def residual_insertions(family: OperationFamily, flavor: EquationFlavor, n: int,
                        tables: dict | None = None):
    """The (outer, inner, position, coefficient) insertions of the arity-n
    residual in the collapsed form of the module docstring, on the
    representative tables of the operands.  `tables` is a memo of those
    tables that a caller computing several residuals of the family keeps
    for its call, so each is built once."""
    ops = family.ops
    tables = {} if tables is None else tables
    return chain.from_iterable(
        _insertions(flavor.mode, ops[i], ops[n + 1 - i],
                    partial(_coefficient, flavor, i, n + 1 - i), tables)
        for i in family.arities() if n + 1 - i in ops)


def residual(family: OperationFamily, flavor: EquationFlavor, n: int,
             check_symmetry: bool = True, tables: dict | None = None) -> Folded:
    """The arity-n residual of the family under the given flavor, the
    left-hand side of its n-th structure equation, kept on its orbit
    representatives (`permutations.Folded`).

    Arities missing from the family (or beyond its cap) contribute nothing.
    Pre-Lie and Lie residuals are computed in the collapsed form of the
    module docstring; `require_collapsible` refuses a family it does not
    hold for, parity first.  With `check_symmetry` False neither half is
    checked and the caller must guarantee both.  `tables` is the memo of
    `residual_insertions`.
    """
    if flavor.convention != family.convention:
        raise ConventionError(
            f"family is {family.convention} but flavor expects {flavor.convention}")
    if n < 1:
        raise ArityError("residual arity must be >= 1")
    if check_symmetry:
        require_collapsible(family, flavor)

    degree = -2 if flavor.convention == HAT else n - 3
    return _insert_fold(family.space, n, degree, residual_insertions(family, flavor, n, tables),
                        flavor.variant, flavor.mode)


# ---------------------------------------------------------------------------
# circle products on C(V,V) for plain (degree-0) spaces
# ---------------------------------------------------------------------------

def _require_circle_factors(f: Operation, g: Operation, check_symmetry: bool) -> None:
    """The circle calculus's preconditions on its left factor f and right
    factor g: one degree-0 space, and each factor skew in all slots but the
    last (unless `check_symmetry` is False)."""
    if f.space != g.space:
        raise ArityError("circle product requires a common space")
    f.space.require_degree_zero("the circle product")
    if check_symmetry:
        require_symmetry({f.arity: f}, RHO2, MODE_PARTIAL, "the circle product's left factor")
        require_symmetry({g.arity: g}, RHO2, MODE_PARTIAL, "the circle product's right factor")


def _circle_insertions(f: Operation, g: Operation, tables: dict, sign: int = 1):
    """The (outer, inner, position, coefficient) insertions of sign * f o g
    in the Nijenhuis-Richardson form of `circle_product`, on the pre-Lie
    representative tables of f and g (memo `tables`)."""
    m, n = f.arity - 1, g.arity - 1
    scale = factorial(m) * factorial(n)
    return _insertions(MODE_PARTIAL, f, g, lambda p: Fraction(sign * (-1) ** (p * n), scale),
                       tables)


def circle_product(f: Operation, g: Operation, check_symmetry: bool = True) -> Operation:
    """f o g for f in C^m(V,V), g in C^n(V,V) (arities m+1 and n+1):

    (f o g)(x_1,...,x_{m+n+1})
      =  sum over (n,1,m-1)-unshuffles sigma of
             sgn(sigma) f(g(x_{sigma(1)},...,x_{sigma(n+1)}), ..., x_{m+n+1})
      + (-1)^{mn} sum over (m,n)-unshuffles sigma of
             sgn(sigma) f(x_{sigma(1)},...,x_{sigma(m)}, g(..., x_{m+n+1})).

    The last letter always stays put.  Computed in the Nijenhuis-Richardson
    form: with P the rho2 symmetrization over the first m+n slots,

        f o g = P(f o_0 g / (n!(m-1)!) + (-1)^{mn} f o_m g / (m! n!)),

    where o_i is the insertion at position i and the first term is absent
    for m = 0: the pre-Lie collapse of sum_p (-1)^{pn} f o_p g / (m! n!).
    This equals the unshuffle sums only when f and g are skew in all slots
    but the last, which the caller must guarantee when `check_symmetry` is
    False.
    """
    _require_circle_factors(f, g, check_symmetry)
    # declared degree 0, like the space, whatever degrees f and g declare
    return expand(_insert_fold(f.space, f.arity + g.arity - 1, 0, _circle_insertions(f, g, {}),
                               RHO2, MODE_PARTIAL))


def circle_bracket(f: Operation, g: Operation, check_symmetry: bool = True) -> Operation:
    """[f,g] = f o g - (-1)^{mn} g o f, the graded Lie bracket on C(V,V).

    Both products have arity m+n+1 and are P of their insertions with the
    same P (rho2 over the first m+n slots), and P is linear, so the bracket
    is P of the insertions of f o g chained with those of g o f scaled by
    -(-1)^{mn}: one fold over one common denominator and one expansion.
    Orbits where the two products cancel are never written.  The factors
    must be skew in all slots but the last, as for `circle_product`.
    """
    _require_circle_factors(f, g, check_symmetry)
    m, n = f.arity - 1, g.arity - 1
    tables = {}
    insertions = chain(_circle_insertions(f, g, tables),
                       _circle_insertions(g, f, tables, -(-1) ** (m * n)))
    return expand(_insert_fold(f.space, m + n + 1, 0, insertions, RHO2, MODE_PARTIAL))


# ---------------------------------------------------------------------------
# n-ary algebras on plain spaces
# ---------------------------------------------------------------------------

def nary_family(mu: Operation) -> OperationFamily:
    """The n-ary operation mu on a degree-0 space as the one-operation
    unhat family it is: mu filed at arity n and degree n-2, capped at
    2n-1, the arity of its defining equation."""
    mu.space.require_degree_zero("an n-ary check")
    n = mu.arity
    return OperationFamily(UNHAT, mu.space, 2 * n - 1, {n: mu.with_degree(n - 2)})


def nary_residual(mu: Operation, kind: str, check_symmetry: bool = True) -> Folded:
    """Left-hand side of the defining equation of a (partially associative /
    pre-Lie / Lie) n-algebra, a `Folded` sum of arity 2n-1: the unhat
    residual of `nary_family(mu)` at that arity, under the flavor of the
    kind whose equation it is (`NARY_KINDS`).

    Only the pair (n, n) contributes there, with the unhat coefficient
    (-1)^(n(n-m-1)+m) = (-1)^(m(n-1)) at position m, so all three kinds
    alternate insertions with that sign; for odd n the sign is trivial, and
    for n = 2 the partially associative equation is plain associativity.

    On a degree-0 space rho2 is the plain signed action and the parity
    half holds.  With `check_symmetry` False the caller must guarantee mu's
    partial (pre-Lie) or full (Lie) skew symmetry.
    """
    if kind not in NARY_KINDS:
        raise ValueError(f"kind must be one of {tuple(NARY_KINDS)}, got {kind!r}")
    flavor = EquationFlavor(NARY_KINDS[kind], UNHAT)
    return residual(nary_family(mu), flavor, 2 * mu.arity - 1, check_symmetry=check_symmetry)


def check_prelie_n_two_ways(mu: Operation) -> bool:
    """Decide pre-Lie n-hood by both available routes and insist they agree.

    Route one is the defining residual, route two is mu o mu in the circle
    calculus; they are equal as maps, so one vanishing without the other
    means the library is internally inconsistent.
    """
    res = nary_residual(mu, PRELIE)
    square = circle_product(mu, mu, check_symmetry=False)
    if res.vanishes() != square.is_zero():
        raise LemmaViolationError(
            f"pre-Lie residual vanishing ({res.vanishes()}) disagrees with "
            f"mu o mu vanishing ({square.is_zero()}) at arity {mu.arity}")
    return res.vanishes()
