"""Permutations, unshuffles, Koszul signs and the two signed actions on words.

Conventions pinned here and relied on everywhere else:

* A permutation is a tuple `p` of length n with 1-based values,
  `p[i] == sigma(i+1)`.
* The Koszul sign eps(sigma; x_1,...,x_n) is defined by
  x_1 ^ ... ^ x_n  =  eps * x_{sigma(1)} ^ ... ^ x_{sigma(n)},
  each adjacent swap of letters a, b contributing (-1)^(|a||b|).
* rho1_sigma(w) = eps(sigma) * (w_{sigma(1)}, ..., w_{sigma(n)});
  rho2_sigma(w) = sgn(sigma) * eps(sigma) * (same permuted word).
* As actions on elements these compose as a right action:
  acting by sigma and then by tau equals acting by sigma*tau
  (where (sigma*tau)(i) = sigma(tau(i))).  This is exactly the order
  forced by the composition law
  eps(sigma; w o tau) = eps(tau*sigma; w) * eps(tau; w).

`action_variant` picks the action of a convention, and `_is_rho2` reads
the action a variant names; it is the one place that refuses a name that
is not an action's.

The actions are computed one adjacent swap at a time: swapping letters a
and b gives -1 exactly when `(odd[a] and odd[b]) != rho2`.  The orbit
kernel (`signed_sort`, `stabilizer_order`, `arrangements`), the
symmetrization kernel and the symmetry check `failing_symmetry_generator`
(walked over a family's arities by `symmetry_walk`, the one symmetry
precondition, which compares each transposed pair of stored words once)
all use that rule and never act by a whole permutation; so do
`koszul_sign` and `sign`, `signed_sort` on sigma's values under rho1,
or rho2 with every letter even, for the coalgebras' unshuffle signs and
the sign-law witnesses.

The symmetrization kernel has two steps, both on integer numerators over
one denominator, as operations are stored.  `fold` moves each term of a
stream to the sorted representative of its orbit, times chi of the move
and |Stab| of the orbit, sums, and drops the orbits whose stabilizer acts
by -1; the move depends only on the word's acted head, which is sorted
once per call.  The `Folded` result holds each orbit's value at its
representative, decides whether the sum vanishes and gives its smallest
nonzero word.  Which letters kill an orbit when repeated is decided here
alone: `stabilizer_order` on a sorted word, and `killing_letters` as a
table the insertion streams into a fold read, so that they skip those
terms before building them.  `expand` divides the representatives'
numerators and the denominator by their gcd and then writes every
distinct arrangement of every orbit; the only other caller of
`arrangements` here is the unshuffle table, which reads each unshuffle
off an arrangement of block labels.  `acted_count` says which slots a
mode permutes.  In the full and partial modes `precompose_symmetrized` is
`expand(fold(...))`; the residuals and the square of a coderivation are
`Folded` sums too, expanded when read.
`block_representatives` keeps one entry per arrangement class of a block
of an operand's symmetric slots, weighted by the class's size, so an
insertion stream into `fold` carries one term where it carried one per
arrangement.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import factorial
from typing import Iterable, Sequence

from .errors import BlockError, LengthError, SymmetryError
from .graded import HAT, GradedSpace, Operation, first_entry, table_from_terms

Perm = tuple  # tuple[int, ...], 1-based one-line notation

RHO1 = "rho1"
RHO2 = "rho2"

MODE_FULL = "full"          # sum over all of S_n
MODE_PARTIAL = "partial"    # sum over S_{n-1} acting on the first n-1 slots
MODE_SHUFFLE = "shuffle"    # sum over the (n-1,1)-unshuffles


def action_variant(convention: str) -> str:
    """The one place that picks the action: rho1 for hat, rho2 for unhat."""
    return RHO1 if convention == HAT else RHO2


def _is_rho2(variant: str) -> bool:
    """Whether the variant is rho2; the one refusal (ValueError) of a name
    that is not an action's."""
    if variant not in (RHO1, RHO2):
        raise ValueError(f"unknown action variant {variant!r}")
    return variant == RHO2


def acted_count(mode: str | None, arity: int) -> int:
    """The leading slots of an arity-n word that the mode permutes: n
    (full), n - 1 (partial) or none (mode None, no symmetrization)."""
    return arity if mode == MODE_FULL else arity - 1 if mode == MODE_PARTIAL else 0


def compose(sigma: Perm, tau: Perm) -> Perm:
    """(sigma*tau)(i) = sigma(tau(i))."""
    if len(sigma) != len(tau):
        raise LengthError("cannot compose permutations of different lengths")
    return tuple(sigma[t - 1] for t in tau)


def _sorted_sign(sigma: Perm, odd: list, rho2: bool) -> int:
    """chi of `signed_sort` on sigma's values, `odd` indexed by value;
    LengthError unless they sort to 1..n (a value above n fails the lookup)."""
    letters = list(sigma)
    try:
        chi = signed_sort(letters, odd, rho2)
    except IndexError:
        letters = None
    if letters != list(range(1, len(sigma) + 1)):
        raise LengthError(f"{sigma} is not a permutation of 1..{len(sigma)}")
    return chi


def sign(sigma: Perm) -> int:
    """Parity of sigma, +1 or -1: the rho2 sign of sorting its values with
    every letter even, so that every adjacent swap counts -1."""
    return _sorted_sign(sigma, [0] * (len(sigma) + 1), True)


def koszul_sign(sigma: Perm, degrees: Sequence[int]) -> int:
    """Koszul sign eps(sigma; x_1,...,x_n) for letters of the given degrees:
    the rho1 sign of sorting sigma's values, value v standing for x_v, so
    each adjacent swap of letters a, b contributes (-1)^(|a||b|)."""
    if len(sigma) != len(degrees):
        raise LengthError(f"permutation length {len(sigma)} != degree list length {len(degrees)}")
    return _sorted_sign(sigma, [0] + [d & 1 for d in degrees], False)


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple:
    return tuple(itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def _unshuffles_cached(blocks: tuple) -> tuple:
    """The unshuffles of the blocks, in lexicographic order.  An unshuffle
    is fixed by the block each value lands in, so each is a distinct
    arrangement of the block-label word 0..0 1..1 ..., its values read
    block by block (a stable sort by label); every letter is even, so each
    chi is +1."""
    labels = tuple(b for b, size in enumerate(blocks) for _ in range(size))
    read = (tuple(v + 1 for v in sorted(range(len(labels)), key=word.__getitem__))
            for _, word in arrangements(labels, [0] * len(blocks), False))
    return tuple(sorted(read))


def unshuffles(blocks: Iterable[int]) -> list:
    """All (i_1,...,i_m)-unshuffles of S_n: increasing inside each block of
    positions.  Returned in lexicographic one-line order."""
    blocks = tuple(blocks)
    if not blocks:
        raise BlockError("at least one block is required")
    if any(b <= 0 for b in blocks):
        raise BlockError(f"block sizes must be positive, got {blocks}")
    return list(_unshuffles_cached(blocks))


def signed_sort(letters: list, odd, rho2: bool) -> int:
    """Insertion-sort `letters` in place and return chi of the sorting
    permutation: the Koszul sign of every adjacent swap, times -1 per swap
    under rho2."""
    chi = 1
    for i in range(1, len(letters)):
        a = letters[i]
        j = i
        while j > 0 and letters[j - 1] > a:
            b = letters[j - 1]
            if (odd[a] and odd[b]) != rho2:
                chi = -chi
            letters[j] = b
            j -= 1
        letters[j] = a
    return chi


def stabilizer_order(letters, odd, rho2: bool) -> int:
    """|Stab| of a sorted word in S_len, or 0 when chi is not trivial on it.

    The stabilizer permutes equal letters; swapping two copies of a letter
    acts by -1 when the letter is odd under rho1 or even under rho2, and
    then every orbit sum cancels.
    """
    order = run = 1
    for j in range(1, len(letters)):
        if letters[j] != letters[j - 1]:
            run = 1
            continue
        if odd[letters[j]] != rho2:
            return 0
        run += 1
        order *= run
    return order


def killing_letters(space: GradedSpace, variant: str) -> tuple:
    """Per letter, whether a second copy of it in the acted slots kills the
    orbit: the letters `stabilizer_order` rejects when repeated, odd under
    rho1 and even under rho2."""
    rho2 = variant == RHO2
    return tuple(odd != rho2 for odd in space.parities)


def arrangements(letters: tuple, odd, rho2: bool):
    """Yield (chi(pi; letters), letters o pi) once for every distinct
    rearrangement of a sorted word, by choosing the first letter and
    recursing; moving letter j to the front passes the j letters before it."""
    if len(letters) <= 1:
        yield 1, letters
        return
    odd_before = False
    for j, a in enumerate(letters):
        if j == 0 or a != letters[j - 1]:
            head = -1 if (odd[a] and odd_before) != (rho2 and j % 2 == 1) else 1
            for chi, rest in arrangements(letters[:j] + letters[j + 1:], odd, rho2):
                yield head * chi, (a,) + rest
        odd_before ^= bool(odd[a])


class Folded:
    """A symmetrized sum kept on its orbit representatives.

    `table` maps each sorted representative r (its acted slots sorted,
    the rest as they were) to the sum's value at r, a dict of int
    numerators over `denominator` per output letter; the value at any
    other word r o pi of the orbit is chi(pi; r) times it.  Orbits on which
    chi is not trivial on Stab(r), and values that vanish, are left out, so
    the sum is zero exactly when the table is empty.  `mode` None stands
    for no symmetrization: every word is its own orbit.  `op`, the whole
    operation, is expanded when first read and then kept.
    """

    def __init__(self, space: GradedSpace, arity: int, degree: int, table: dict,
                 denominator: int, variant: str, mode: str | None):
        self.space, self.arity, self.degree, self.table = space, arity, degree, table
        self.denominator, self.variant, self.mode = denominator, variant, mode

    @property
    def acted(self) -> int:
        """The number of leading slots the symmetrization permutes."""
        return acted_count(self.mode, self.arity)

    @cached_property
    def op(self) -> Operation:
        return expand(self)

    def vanishes(self) -> bool:
        return not self.table

    def first_nonzero_entry(self):
        """Smallest input word with a nonzero value, and that value, or None;
        the same entry as `self.op.first_nonzero_entry()`.  A sorted
        representative is the smallest word of its orbit and carries
        chi = 1, so the smallest representative is the smallest word of the
        sum, and its value is the one stored there."""
        return first_entry(self.table, self.denominator)


def fold(space: GradedSpace, arity: int, degree: int, terms, denominator: int,
         variant: str, mode: str) -> Folded:
    """The full or partial symmetrization of the (word, output letter,
    integer numerator) terms over `denominator`, kept on its orbit
    representatives (see `Folded`).

    With w = r o pi for the sorted representative r of w's orbit, the sum
    S has S(r) = |Stab(r)| times the sum of chi(pi; r) c over the terms
    (w, c) of the orbit, and vanishes on the orbit when chi is not trivial
    on Stab(r).  So each term moves to r with the factor chi |Stab(r)|,
    and the moved terms are summed per representative and output letter.
    The move depends only on the word's acted head: each distinct head is
    sorted once per call, with its factor, which is 0 when its orbit's
    stabilizer acts by -1, and the representative is the sorted head
    followed by the word's other slots.  So in the partial mode the words
    that differ only in the last slot share one sort.
    """
    rho2 = _is_rho2(variant)
    if mode not in (MODE_FULL, MODE_PARTIAL):
        raise ValueError(f"unknown symmetrization mode {mode!r}")
    odd = space.parities
    acted = acted_count(mode, arity)
    moves = {}   # acted head -> (sorted head, chi |Stab|), the factor 0 when killed

    def moved():
        last = None
        for word, out, c in terms:
            if word != last:
                last = word
                key = word[:acted]
                move = moves.get(key)
                if move is None:
                    head = list(key)
                    chi = signed_sort(head, odd, rho2)
                    move = moves[key] = (tuple(head), chi * stabilizer_order(head, odd, rho2))
                sorted_head, factor = move
                rep = sorted_head + word[acted:]
            if factor:
                yield rep, out, c * factor

    return Folded(space, arity, degree, table_from_terms(moved()), denominator, variant, mode)


def block_representatives(op: Operation, lo: int, hi: int) -> Operation:
    """The representative table of op on its block of slots lo..hi-1: the
    entries whose block is sorted, each times the number of distinct
    arrangements of that block, (hi-lo)!/prod_x m_x! for m_x copies of the
    letter x, prod_x m_x! the block's `stabilizer_order` with every letter
    even, as in `sign`.  op itself when the block has at most one slot.

    For op invariant under the signed action of the permutations of the
    block, op(w o pi) = chi(pi; w) op(w).  A term streamed from w o pi
    into `fold`, with the block inside the acted slots, moves to the same
    representative as the term from w, with a factor that differs by
    chi(pi; w) as well, so the two contribute alike; and in an insertion
    the block's arrangement changes no Koszul sign, which depends only on
    the letters before the inserted operation.  So the fold of an insertion
    stream is the same when an operand is replaced by this table.  The
    pre-Lie and Lie residuals and the circle products insert these tables,
    built once per call of their callers."""
    if hi - lo <= 1:
        return op
    size, even = factorial(hi - lo), (0,) * op.space.dim
    table = {}
    for word, sums in op.numerators.items():
        block = word[lo:hi]
        if list(block) == sorted(block):
            count = size // stabilizer_order(block, even, False)
            table[word] = sums if count == 1 else {x: c * count for x, c in sums.items()}
    return Operation.from_numerators(op.space, op.arity, op.degree, table, op.denominator)


def expand(folded: Folded) -> Operation:
    """The folded sum as an operation: every distinct rearrangement of the
    acted slots of every representative, with S(r o pi) = chi(pi; r) S(r).
    The representatives' numerators and the fold's denominator are divided
    by their gcd first (`Operation.from_numerators`), which is the gcd of
    the whole expansion, so the arrangements are written already reduced.
    The orbit's numerators are shared by the rearrangements with chi = 1,
    and their negation, built when first needed, by those with chi = -1."""
    odd = folded.space.parities
    rho2 = folded.variant == RHO2
    acted = folded.acted
    reduced = Operation.from_numerators(folded.space, folded.arity, folded.degree, folded.table,
                                        folded.denominator)
    table = {}
    for rep, value in reduced.numerators.items():
        head, tail = rep[:acted], rep[acted:]
        negated = None
        for chi, arrangement in arrangements(head, odd, rho2):
            if chi == -1 and negated is None:
                negated = {x: -c for x, c in value.items()}
            table[arrangement + tail] = value if chi == 1 else negated
    return Operation.from_numerators(folded.space, folded.arity, folded.degree, table,
                                     reduced.denominator)


def arrangement_count(op: Operation, variant: str, mode: str) -> int:
    """How many entries `precompose_symmetrized(op, variant, mode)` writes
    at most in the full or partial mode, counted without folding: for each
    orbit a stored word lies in, the distinct rearrangements of its acted
    slots, acted!/|Stab|, and none when its stabilizer acts by -1.  Only an
    orbit whose sum cancels writes fewer."""
    odd = op.space.parities
    rho2 = variant == RHO2
    acted = acted_count(mode, op.arity)
    reps = {tuple(sorted(word[:acted])) + word[acted:] for word in op.numerators}
    orders = (stabilizer_order(rep[:acted], odd, rho2) for rep in reps)
    return sum(factorial(acted) // order for order in orders if order)


def precompose_symmetrized(op: Operation, variant: str, mode: str) -> Operation:
    """Sum of op o rho_sigma over the permutations the mode names:

    mode 'full': sigma over S_n (the integral w_n);
    mode 'partial': sigma over S_{n-1} acting on the first n-1 slots;
    mode 'shuffle': sigma over the (n-1,1)-unshuffles.
    The variant picks rho1 or rho2.

    The kernel runs on op's integer numerators over its denominator, and
    so does its result.  The full and partial sums S are `expand(fold(...))`:
    the fold sums each orbit's value S(r) at its sorted representative r,
    and S(r o pi) = chi(pi; r) S(r).  The shuffle mode sums the moved terms
    per word.
    """
    rho2 = _is_rho2(variant)
    space, arity = op.space, op.arity
    terms = ((word, out, c) for word, sums in op.numerators.items() for out, c in sums.items())
    if mode == MODE_SHUFFLE:
        odd = space.parities

        # the unshuffle taking slot k to the end contributes each term with
        # its word's last letter moved back to slot k, passing the letters there
        def shuffled():
            for word, out, c in terms:
                a = word[-1]
                yield word, out, c
                for k in range(arity - 2, -1, -1):
                    if (odd[a] and odd[word[k]]) != rho2:
                        c = -c
                    yield word[:k] + (a,) + word[k:-1], out, c

        return Operation.from_numerators(space, arity, op.degree, table_from_terms(shuffled()),
                                         op.denominator)
    return expand(fold(space, arity, op.degree, terms, op.denominator, variant, mode))


def failing_symmetry_generator(op: Operation, variant: str, full: bool):
    """First adjacent transposition under which op is not invariant, or None.

    `full=False` checks invariance on the first arity-1 slots only (the
    last slot rides along untouched); adjacent transpositions generate the
    whole group, so this is equivalent to checking every permutation.
    The transpositions are walked in order, and the stored words inside
    each, one comparison per transposed pair of stored words.
    """
    rho2 = _is_rho2(variant)
    odd = op.space.parities
    numerators = op.numerators
    n_acted = acted_count(MODE_FULL if full else MODE_PARTIAL, op.arity)
    # the swap tau of letters a, b is an involution, so op o rho_tau = op
    # iff op(w o tau) = chi(tau; w) op(w) for every stored word w.  A word
    # with a < b is compared with its partner; a word with a = b is its own
    # partner and fails when the swap acts by -1.  A word with a > b is
    # only counted: once every comparison holds, each word with a < b has
    # a distinct stored partner with a > b, so the pairs cover every
    # stored word exactly when the two counts agree
    for k in range(1, n_acted):
        unpaired = 0
        for word, sums in numerators.items():
            a, b = word[k - 1], word[k]
            if a > b:
                unpaired += 1
                continue
            flips = (odd[a] and odd[b]) != rho2
            if a == b:
                if flips:
                    return k, k + 1
                continue
            unpaired -= 1
            if flips:
                sums = {x: -c for x, c in sums.items()}
            if numerators.get(word[:k - 1] + (b, a) + word[k + 1:]) != sums:
                return k, k + 1
        if unpaired:
            return k, k + 1
    return None


def symmetry_walk(ops: dict, variant: str, mode: str | None):
    """The symmetry precondition of the {arity: op} mapping: yields, in
    arity order, each arity n and the first transposition under which
    ops[n] is not invariant under the mode's action, or None (see
    failing_symmetry_generator); mode None requires nothing and yields
    nothing.  `require_symmetry` stops at the first failure, `check`
    reports every arity."""
    if mode is None:
        return
    for n in sorted(ops):
        yield n, failing_symmetry_generator(ops[n], variant, full=mode == MODE_FULL)


def require_symmetry(ops: dict, variant: str, mode: str | None, what: str) -> None:
    """Raise a SymmetryError at the first failure of `symmetry_walk`,
    naming the operation's arity and its failing transposition."""
    for n, bad in symmetry_walk(ops, variant, mode):
        if bad is not None:
            raise SymmetryError(
                f"{what} requires {mode} symmetry; the arity-{n} operation is not invariant "
                f"under the transposition {bad}", arity=n, transposition=bad)
