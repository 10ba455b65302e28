"""Structure-equation residuals and the circle-product calculus.

Six residual flavors: {assoc, prelie, lie} x {hat, unhat}.  The arity-n
residual of a family {mu_k} is

    sum_{i+j=n+1} sum_{m=0}^{i-1} c(i,j,m) * mu_i o (I_m (x) mu_j (x) I_{i-m-1}) o P

where the coefficient c and the symmetrizing precomposition P depend on the
flavor:

    assoc / hat     c = 1                                   P = id
    prelie / hat    c = 1/((i-1)!(j-1)!)                    P = rho1 summed over S_{n-1} on the first n-1 slots
    lie / hat       c = 1/((i-1)!j!)                        P = rho1 summed over S_n
    assoc / unhat   c = (-1)^(j(i-m-1)+m)                   P = id
    prelie / unhat  c = (-1)^(j(i-m-1)+m)/((i-1)!(j-1)!)    P = rho2 summed over S_{n-1} on the first n-1 slots
    lie / unhat     c = (-1)^(j(i-m-1)+m)/((i-1)!j!)        P = rho2 summed over S_n

A family satisfies the corresponding axioms iff all residuals vanish; for the
prelie and lie flavors this is only meaningful when each mu_k is invariant
under the matching signed action, so that symmetry is a checked precondition
(with an explicit bypass for experiments).

Everything here decides vanishing by exhaustive evaluation on basis words;
residuals are exact, there is no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ArityError, ConventionError, GradingError, LemmaViolationError, SymmetryError
from .graded import HAT, UNHAT, Operation, OperationFamily, compose_insert
from .permutations import (MODE_FULL, MODE_PARTIAL, RHO1, RHO2,
                           failing_symmetry_generator, precompose_symmetrized)

ASSOC = "assoc"
PRELIE = "prelie"
LIE = "lie"

KINDS = (ASSOC, PRELIE, LIE)


@dataclass(frozen=True)
class EquationFlavor:
    kind: str
    convention: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.convention not in (HAT, UNHAT):
            raise ValueError(f"convention must be 'hat' or 'unhat', got {self.convention!r}")

    @property
    def variant(self) -> str:
        return RHO1 if self.convention == HAT else RHO2


@dataclass(frozen=True)
class Residual:
    """Left-hand side of the n-th structure equation, as an operation."""

    n: int
    op: Operation

    def vanishes(self) -> bool:
        return self.op.is_zero()


def _coefficient(flavor: EquationFlavor, i: int, j: int, m: int) -> Fraction:
    c = Fraction(1)
    if flavor.convention == UNHAT and (j * (i - m - 1) + m) % 2:
        c = -c
    if flavor.kind == PRELIE:
        c /= factorial(i - 1) * factorial(j - 1)
    elif flavor.kind == LIE:
        c /= factorial(i - 1) * factorial(j)
    return c


def require_family_symmetry(family: OperationFamily, kind: str) -> None:
    """Raise SymmetryError naming the arity and transposition on violation."""
    if kind == ASSOC:
        return
    variant = RHO1 if family.convention == HAT else RHO2
    full = kind == LIE
    for n in family.arities():
        bad = failing_symmetry_generator(family.ops[n], variant, full=full)
        if bad is not None:
            word = "full" if full else "partial"
            raise SymmetryError(
                f"{kind} residual requires {word} symmetry; the arity-{n} operation "
                f"is not invariant under the transposition {bad}",
                arity=n, transposition=bad)


def residual(family: OperationFamily, flavor: EquationFlavor, n: int,
             check_symmetry: bool = True) -> Residual:
    """The arity-n residual of the family under the given flavor.

    Arities missing from the family (or beyond its cap) contribute nothing.
    """
    if flavor.convention != family.convention:
        raise ConventionError(
            f"family is {family.convention} but flavor expects {flavor.convention}")
    if n < 1:
        raise ArityError("residual arity must be >= 1")
    if check_symmetry:
        require_family_symmetry(family, flavor.kind)

    degree = -2 if flavor.convention == HAT else n - 3
    core = Operation.zero(family.space, n, degree)
    for i in range(1, n + 1):
        j = n + 1 - i
        if i not in family.ops or j not in family.ops:
            continue
        mu_i, mu_j = family.ops[i], family.ops[j]
        for m in range(i):
            term = compose_insert(mu_i, mu_j, m).scaled(_coefficient(flavor, i, j, m))
            core = core + term

    if flavor.kind == ASSOC or core.is_zero():
        return Residual(n, core)
    mode = MODE_PARTIAL if flavor.kind == PRELIE else MODE_FULL
    return Residual(n, precompose_symmetrized(core, flavor.variant, mode))


def all_residuals_vanish(family: OperationFamily, flavor: EquationFlavor,
                         max_arity: int | None = None, check_symmetry: bool = True) -> bool:
    cap = family.max_arity if max_arity is None else max_arity
    return all(residual(family, flavor, n, check_symmetry).vanishes()
               for n in range(1, cap + 1))


# ---------------------------------------------------------------------------
# circle products on C(V,V) for plain (degree-0) spaces
# ---------------------------------------------------------------------------

def _require_degree_zero(op: Operation) -> None:
    if not op.space.is_concentrated_in_degree_zero():
        raise GradingError("circle products are defined on spaces concentrated in degree 0")


def _require_partial(op: Operation, who: str) -> None:
    bad = failing_symmetry_generator(op, RHO2, full=False)
    if bad is not None:
        raise SymmetryError(
            f"{who} must be skew-symmetric in its first {op.arity - 1} slots; "
            f"fails at transposition {bad}", arity=op.arity, transposition=bad)


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

    where o_i is `compose_insert` at position i and the first term is absent
    for m = 0.  This equals the unshuffle sums only when f and g are skew in
    all slots but the last, which the caller must guarantee when
    `check_symmetry` is False.
    """
    if f.space != g.space:
        raise ArityError("circle product requires a common space")
    _require_degree_zero(f)
    if check_symmetry:
        _require_partial(f, "left factor")
        _require_partial(g, "right factor")
    m, n = f.arity - 1, g.arity - 1
    # declared degree 0, like the space, whatever degrees f and g declare
    core = Operation.zero(f.space, m + n + 1, 0)
    core = core + compose_insert(f, g, m).scaled(
        Fraction((-1) ** (m * n), factorial(m) * factorial(n)))
    if m:
        core = core + compose_insert(f, g, 0).scaled(Fraction(1, factorial(n) * factorial(m - 1)))
    return precompose_symmetrized(core, RHO2, MODE_PARTIAL)


def circle_bracket(f: Operation, g: Operation, check_symmetry: bool = True) -> Operation:
    """[f,g] = f o g - (-1)^{mn} g o f, the graded Lie bracket on C(V,V)."""
    m, n = f.arity - 1, g.arity - 1
    fg = circle_product(f, g, check_symmetry)
    gf = circle_product(g, f, check_symmetry)
    return fg - gf.scaled((-1) ** (m * n))


# ---------------------------------------------------------------------------
# n-ary algebras on plain spaces
# ---------------------------------------------------------------------------

PARTIALLY_ASSOCIATIVE = "partially_associative"

NARY_KINDS = (PARTIALLY_ASSOCIATIVE, PRELIE, LIE)


def nary_residual(mu: Operation, kind: str, check_symmetry: bool = True) -> Residual:
    """Left-hand side of the defining equation of a (partially associative /
    pre-Lie / Lie) n-algebra, as an operation of arity 2n-1.

    All three kinds alternate insertions with the sign (-1)^(i(n-1)); for odd
    n the sign is trivial, and for n = 2 the partially associative equation
    is plain associativity.  This is the convention under which an n-ary
    algebra and its one-operation embedding satisfy the same equations.

    The signed permutation action here is rho2 on a degree-0 space, whose
    Koszul factor is identically 1.
    """
    if kind not in NARY_KINDS:
        raise ValueError(f"kind must be one of {NARY_KINDS}, got {kind!r}")
    if not mu.space.is_concentrated_in_degree_zero():
        raise GradingError("n-ary checks are defined on spaces concentrated in degree 0")
    n = mu.arity
    if check_symmetry and kind != PARTIALLY_ASSOCIATIVE:
        full = kind == LIE
        bad = failing_symmetry_generator(mu, RHO2, full=full)
        if bad is not None:
            raise SymmetryError(
                f"{kind} n-algebra requires {'full' if full else 'partial'} skew symmetry; "
                f"fails at transposition {bad}", arity=n, transposition=bad)

    core = Operation.zero(mu.space, 2 * n - 1, mu.degree * 2)
    for i in range(n):
        term = compose_insert(mu, mu, i)
        if (i * (n - 1)) % 2:
            term = -term
        core = core + term
    if kind == PRELIE:
        core = core.scaled(Fraction(1, factorial(n - 1) ** 2))
        core = precompose_symmetrized(core, RHO2, MODE_PARTIAL)
    elif kind == LIE:
        core = core.scaled(Fraction(1, factorial(n - 1) * factorial(n)))
        core = precompose_symmetrized(core, RHO2, MODE_FULL)
    return Residual(2 * n - 1, core)


def check_nary(mu: Operation, kind: str, check_symmetry: bool = True):
    """Returns (verdict, residual)."""
    res = nary_residual(mu, kind, check_symmetry)
    return res.vanishes(), res


def check_prelie_n_two_ways(mu: Operation) -> bool:
    """Decide pre-Lie n-hood by both available routes and insist they agree.

    Route one is the defining residual, route two is mu o mu in the circle
    calculus; they are equal as maps, so one vanishing without the other
    means the library is internally inconsistent.
    """
    _require_partial(mu, "mu")
    res = nary_residual(mu, PRELIE, check_symmetry=False)
    square = circle_product(mu, mu, check_symmetry=False)
    if res.vanishes() != square.is_zero():
        raise LemmaViolationError(
            f"pre-Lie residual vanishing ({res.vanishes()}) disagrees with "
            f"mu o mu vanishing ({square.is_zero()}) at arity {mu.arity}")
    return res.vanishes()
