"""Weight-truncated cofree coalgebras on a graded space and their coderivations.

Three kinds of basis words, all keyed by plain tuples:

* tensor:  a word is a tuple of basis indices;
* wedge:   a word is a nondecreasing tuple of basis indices in canonical
           form (sorting sign normalized away, words with a repeated
           odd-degree letter are zero);
* perm:    a word is a pair (head, tail) with head a canonical wedge tuple
           and tail a single basis index; its weight is len(head) + 1.

Coalgebras here are non-counital and weights start at 1: the comultiplication
of a weight-1 word is the empty sum.  Every structure is truncated at an
explicit weight cap; all identities are weight-homogeneous, so nothing is
lost per weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, Mapping

from .errors import ArityError, ConventionError, KindError
from .graded import (HAT, ONE, GradedSpace, LinearCombination, Operation,
                     OperationFamily, check_homogeneous)
from .permutations import (RHO1, arrangements, koszul_sign, require_symmetry, sh,
                           signed_sort, stabilizer_order)

TENSOR = "tensor"
WEDGE = "wedge"
PERM = "perm"

KINDS = (TENSOR, WEDGE, PERM)

SIGNS = {1: ONE, -1: -ONE}   # integer Koszul signs as shared Fractions


def wedge_normalize(space: GradedSpace, letters) -> tuple:
    """Canonical form of a wedge word: (sign, sorted tuple) or (0, None).

    The canonical word is the word's rho1 orbit representative, computed by
    the symmetrization kernel: the sign is the Koszul sign of the sorting
    permutation, and a repeated odd-degree letter (a stabilizer acting by
    -1) forces the zero word.
    """
    letters = list(letters)
    sign = signed_sort(letters, space.parities, False)
    if not stabilizer_order(letters, space.parities, False):
        return 0, None
    return sign, tuple(letters)


def word_weight(kind: str, word) -> int:
    if kind == PERM:
        return len(word[0]) + 1
    return len(word)


def tensor_words(space: GradedSpace, k: int) -> Iterator:
    return itertools.product(range(space.dim), repeat=k)


def wedge_words(space: GradedSpace, k: int) -> Iterator:
    for w in itertools.combinations_with_replacement(range(space.dim), k):
        if stabilizer_order(w, space.parities, False):
            yield w


def perm_words(space: GradedSpace, k: int) -> Iterator:
    for head in wedge_words(space, k - 1):
        for tail in range(space.dim):
            yield head, tail


def coalgebra_words(kind: str, space: GradedSpace, k: int) -> Iterator:
    if kind == TENSOR:
        return tensor_words(space, k)
    if kind == WEDGE:
        return wedge_words(space, k)
    if kind == PERM:
        return perm_words(space, k)
    raise KindError(f"unknown coalgebra kind {kind!r}")


def word_count(kind: str, space: GradedSpace, cap: int) -> int:
    """The number of canonical words of weights 1 .. cap, in closed form.

    Weight k has dim^k tensor words; its wedge words are the multisets of k
    letters with no odd letter repeated, sum over j of C(odd, j) times the
    C(even + k - j - 1, k - j) multisets of k - j even letters; its Perm
    words are a wedge head of weight k - 1 and a tail letter."""
    if kind not in KINDS:
        raise KindError(f"unknown coalgebra kind {kind!r}")
    dim = space.dim
    odd = sum(space.parities)
    even = dim - odd

    def wedge(k):
        return sum(comb(odd, j) * (comb(even + k - j - 1, k - j) if even else int(j == k))
                   for j in range(min(odd, k) + 1))

    if kind == TENSOR:
        return sum(dim ** k for k in range(1, cap + 1))
    if kind == WEDGE:
        return sum(wedge(k) for k in range(1, cap + 1))
    return sum(wedge(k - 1) for k in range(1, cap + 1)) * dim


def coproduct_terms(kind: str, space: GradedSpace, word, i: int) -> Iterator:
    """Terms ((left, right), sign) of the comultiplication of a canonical
    word whose left factor has weight i, with sign an integer +-1.

    tensor: the cut after i letters;
    wedge:  eps(sigma) (x_s(1) ... x_s(i)) (x) (x_s(i+1) ... x_s(n)) over the
            (i, n-i)-unshuffles sigma;
    perm:   eps(sigma) (x_s(1) ... x_s(i-1) | x_s(i)) (x) (x_s(i+1) ... | t)
            over the (i-1, 1, n-1-i)-unshuffles sigma of the head.

    Every factor is canonical: an unshuffle of a canonical word keeps each
    block sorted."""
    if kind == TENSOR:
        yield (word[:i], word[i:]), 1
    elif kind == WEDGE:
        parities = tuple(space.parities[x] for x in word)
        for sigma, eps in _signed_unshuffles(parities, i, len(word) - i):
            permuted = tuple(word[s - 1] for s in sigma)
            yield (permuted[:i], permuted[i:]), eps
    elif kind == PERM:
        head, tail = word
        parities = tuple(space.parities[x] for x in head)
        for sigma, eps in _signed_unshuffles(parities, i - 1, 1, len(head) - i):
            ph = tuple(head[s - 1] for s in sigma)
            yield ((ph[:i - 1], ph[i - 1]), (ph[i:], tail)), eps
    else:
        raise KindError(f"unknown coalgebra kind {kind!r}")


@lru_cache(maxsize=4096)
def _signed_unshuffles(parities: tuple, *blocks: int) -> tuple:
    """The unshuffles `sh(*blocks)`, each paired with its Koszul sign on
    letters of the given parities.  The cache is bounded because every
    new parity pattern of a long-lived process adds an entry."""
    return tuple((sigma, koszul_sign(sigma, parities)) for sigma in sh(*blocks))


def comultiply(kind: str, space: GradedSpace, word) -> LinearCombination:
    """Reduced comultiplication of a canonical word: a combination keyed by
    (left word, right word) pairs, the sum of `coproduct_terms` over the
    left weights 1 .. n-1.  Weight-1 words comultiply to zero.

    Each Koszul sign enters as a shared +-1 Fraction, so a pair met once
    costs no Fraction arithmetic."""
    if kind not in KINDS:
        raise KindError(f"unknown coalgebra kind {kind!r}")
    return LinearCombination((pair, SIGNS[s]) for i in range(1, word_weight(kind, word))
                             for pair, s in coproduct_terms(kind, space, word, i))


def coalgebra_map(name: str, space: GradedSpace, word) -> LinearCombination:
    """The maps alpha (wedge -> tensor), beta (wedge -> perm) and gamma
    (perm -> tensor).

    alpha sums eps(sigma) (x_s(1), ..., x_s(n)) over all of S_n, and gamma
    does the same to the head of (x_1 ... x_{n-1} | t) with the tail fixed.
    Both are computed per orbit: every distinct rearrangement of the word
    (or head) appears |Stab| times with the Koszul sign that relates it to
    the word, and the sum is zero when a repeated odd letter makes the
    stabilizer act by -1.  beta is the sum over the (n-1, 1)-unshuffles
    sigma of eps(sigma) (x_s(1) ... x_s(n-1) | x_s(n)).
    """
    if name == "alpha":
        return _orbit_sum(space, word, ())
    if name == "beta":
        n = len(word)
        parities = [space.parities[x] for x in word]
        return LinearCombination(
            ((tuple(word[s - 1] for s in sigma[:-1]), word[sigma[-1] - 1]),
             SIGNS[koszul_sign(sigma, parities)])
            for sigma in (sh(n - 1, 1) if n > 1 else ((1,),)))
    if name == "gamma":
        head, tail = word
        return _orbit_sum(space, head, (tail,))
    raise KindError(f"unknown coalgebra map {name!r}")


def _orbit_sum(space: GradedSpace, letters, tail: tuple) -> LinearCombination:
    """Sum of eps(sigma) (letters o sigma) + tail over sigma in S_len, from
    the sorted representative of the letters' rho1 orbit."""
    odd = space.parities
    rep = list(letters)
    chi = signed_sort(rep, odd, False)
    order = stabilizer_order(rep, odd, False)
    if not order:
        return LinearCombination()
    return LinearCombination((arrangement + tail, order if c == chi else -order)
                             for c, arrangement in arrangements(tuple(rep), odd, False))


def project_pi(space: GradedSpace, word) -> LinearCombination:
    """pi: tensor -> wedge, the weight-n canonical projection scaled by 1/n!."""
    s, canonical = wedge_normalize(space, word)
    if canonical is None:
        return LinearCombination()
    return LinearCombination.single(canonical, Fraction(s, factorial(len(word))))


# ---------------------------------------------------------------------------
# coderivations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Coderivation:
    """Weight-indexed components of a coderivation of one coalgebra kind.

    `components[(k, l)]` maps canonical weight-k words to combinations of
    weight-l words; missing pairs are zero.  The degree is carried for the
    Koszul sign in the coderivation law (all coderivations built here have
    degree -1).  The components are read-only once built: each word's image
    over all weights and each weight's squares are computed once and kept.
    """

    kind: str
    space: GradedSpace
    cap: int
    degree: int
    components: Mapping = field(default_factory=dict)

    def __post_init__(self):
        self._images = {}
        self._squares = {}

    def component(self, k: int, l: int) -> Mapping:
        return self.components.get((k, l), {})

    def apply_word(self, word) -> LinearCombination:
        image = self._images.get(word)
        if image is None:
            k = word_weight(self.kind, word)
            image = self._images[word] = LinearCombination(
                term for l in range(1, k + 1)
                for term in self.components.get((k, l), {}).get(word, ()))
        return image

    def apply_combination(self, combo: LinearCombination) -> LinearCombination:
        return LinearCombination((w, cc * c) for word, c in combo
                                 for w, cc in self.apply_word(word))

    def square_word(self, word) -> LinearCombination:
        return self.apply_combination(self.apply_word(word))

    def squares(self, k: int) -> tuple:
        """D o D on the canonical weight-k words, each squared once.

        Returns (cogenerator, first): the nonzero weight-1 parts of the
        squares as {word: combination of letters}, and the first word in
        `coalgebra_words` order with a nonzero square paired with that
        square, or None.
        """
        found = self._squares.get(k)
        if found is None:
            cogenerator, first = {}, None
            for word in coalgebra_words(self.kind, self.space, k):
                image = self.square_word(word)
                if image.is_zero():
                    continue
                if first is None:
                    first = word, image
                part = LinearCombination((w[1] if self.kind == PERM else w[0], c)
                                         for w, c in image if word_weight(self.kind, w) == 1)
                if part:
                    cogenerator[word] = part
            found = self._squares[k] = cogenerator, first
        return found

    def first_nonzero_square(self):
        """(word, D(D(word))) for the first canonical word, by weight up to
        the cap, whose square is nonzero; None when D o D vanishes there."""
        for k in range(1, self.cap + 1):
            first = self.squares(k)[1]
            if first is not None:
                return first
        return None


def extend_coderivation(family: OperationFamily, kind: str, cap: int) -> Coderivation:
    """Extend a hat-convention family to a coderivation of the chosen
    coalgebra, truncated at the weight cap.

    The (k, l) component applies mu, the arity-a operation with
    a = k - l + 1, to the canonical weight-k word x_1 ... x_k:

    * tensor: sum over positions i of I_i (x) mu (x) I, with the sign
              (-1)^(|x_1| + ... + |x_i|) of mu passing the letters before it;
    * wedge:  sum over the (a, k-a)-unshuffles sigma of
              eps(sigma) mu(x_s(1), ..., x_s(a)) ^ x_s(a+1) ^ ... ^ x_s(k);
    * perm:   on the word (x_1 ... x_{k-1} | t), the head terms
              sum over the (a-1, 1, k-1-a)-unshuffles sigma of the head of
              eps(sigma) (mu(x_s(1), ..., x_s(a)) ^ x_s(a+1) ^ ... | t),
              plus the tail term
              sum over the (l-1, k-l)-unshuffles sigma of the head of
              eps(sigma) (-1)^(|x_s(1)| + ... + |x_s(l-1)|)
                  (x_s(1) ^ ... ^ x_s(l-1) | mu(x_s(l), ..., x_s(k-1), t)).

    The output letter of mu always comes first and `wedge_normalize` gives
    the canonical word and its sign.  These sums equal the sums over all
    permutations of the word divided by each term's multiplicity because mu
    has the symmetry `require_symmetry` enforces here (full for wedge, in
    the first a-1 slots for perm) and is homogeneous of degree -1, which is
    checked here too (ConventionError otherwise).

    The (n, 1) component is exactly the arity-n operation.
    """
    if family.convention != HAT:
        raise ConventionError("coderivation extension requires a hat-convention family")
    if kind not in KINDS:
        raise KindError(f"unknown coalgebra kind {kind!r}")
    if kind != TENSOR:
        require_symmetry(family.ops, RHO1, kind == WEDGE, f"the {kind} coderivation extension")
        for n in family.arities():
            if not check_homogeneous(family.ops[n]):
                raise ConventionError(f"the {kind} coderivation extension requires homogeneous "
                                      f"operations; the arity-{n} operation is not")
    sp = family.space
    components = {}
    for k in range(1, cap + 1):
        for arity in family.arities():
            l = k - arity + 1
            if l < 1:
                continue
            comp = _component(family.ops[arity], kind, k, l)
            if comp:
                components[(k, l)] = comp
    return Coderivation(kind, sp, cap, -1, components)


def _component(op: Operation, kind: str, k: int, l: int) -> dict:
    sp = op.space
    odd = sp.parities
    table = op.table
    a = op.arity  # = k - l + 1
    if kind == TENSOR:
        words = tensor_words(sp, k)

        def terms(word):
            prefix_parity = 0
            for i in range(l):
                out = table.get(word[i:i + a])
                if out is not None:
                    for letter, c in out:
                        yield word[:i] + (letter,) + word[i + a:], -c if prefix_parity else c
                prefix_parity ^= odd[word[i]]
    elif kind == WEDGE:
        words = wedge_words(sp, k)

        def terms(word):
            return _apply_to_front(table, sp, word, a)
    else:
        words = perm_words(sp, k)

        def terms(word):
            head, tail = word
            yield from _apply_to_front(table, sp, head, a, tail)
            parities = tuple(odd[x] for x in head)
            for sigma, eps in _signed_unshuffles(parities, l - 1, k - l):
                out = table.get(tuple(head[s - 1] for s in sigma[l - 1:]) + (tail,))
                if out is None:
                    continue
                # an unshuffle of a canonical head leaves the rest canonical
                rest = tuple(head[s - 1] for s in sigma[:l - 1])
                if sum(parities[s - 1] for s in sigma[:l - 1]) % 2:
                    eps = -eps
                for letter, c in out:
                    yield (rest, letter), c if eps == 1 else -c

    comp = {}
    for word in words:
        image = LinearCombination(terms(word))
        if image:
            comp[word] = image
    return comp


def _apply_to_front(table, sp, letters, a, tail=None):
    """Yield the terms of eps(sigma) mu(x_s(1), ..., x_s(a)) ^ x_s(a+1) ^ ...
    over the (a, n-a)-unshuffles of a canonical wedge word, or the
    (a-1, 1, n-a)-unshuffles of a Perm head (none when n < a), keyed by the
    canonical result, or by (result, tail) when a Perm tail is given."""
    parities = tuple(sp.parities[x] for x in letters)
    n = len(letters)
    blocks = (a, n - a) if tail is None else (a - 1, 1, n - a)
    for sigma, eps in _signed_unshuffles(parities, *blocks):
        out = table.get(tuple(letters[s - 1] for s in sigma[:a]))
        if out is None:
            continue
        rest = tuple(letters[s - 1] for s in sigma[a:])
        for letter, c in out:
            ns, word = wedge_normalize(sp, (letter,) + rest)
            if word is not None:
                yield word if tail is None else (word, tail), c if ns == eps else -c


def check_coderivation(D: Coderivation, cap: int | None = None) -> bool:
    """Verify Delta o D = (D (x) Id + Id (x) D) o Delta on every canonical
    word of weight <= cap (default and upper bound: D.cap), with the Koszul
    sign (-1)^(|D| |left|) in the Id (x) D term.

    What is computed is the part of the law whose right factor has weight
    1, word by word.  On the left: the (l-1, 1) cuts of every image word of
    D(w) of weight l >= 2.  On the right: D(left) (x) right over the cuts of
    w with a weight-1 right, plus the signed left (x) D(right) over the cuts
    whose right weight a is the source weight of an (a, 1) component,
    through that component.

    That part holding on all weights <= cap is equivalent to the whole law
    there.  Let R = Delta o D - (D (x) Id + Id (x) D) o Delta be the defect.
    If R vanishes below weight k, coassociativity gives
    (Delta (x) Id) R(w) = (Id (x) Delta) R(w) for w of weight k, so the
    (p, q) part with q >= 2 satisfies
    (Id (x) Delta_{q-1,1}) R_{p,q}(w) = (Delta_{p,q-1} (x) Id) R_{p+q-1,1}(w),
    which is zero; Delta_{q-1,1} is injective on weight q (a bijection for
    tensor; followed by the product it is q, or q-1 for Perm, times the
    identity), so R_{p,q}(w) = 0.  Nothing here uses symmetry or
    homogeneity of D.  See docs/conventions.md, "Coderivation components".
    """
    cap = D.cap if cap is None else min(cap, D.cap)
    if cap < 1:
        raise ArityError(f"the coderivation law needs a weight cap of at least 1, got {cap}")
    kind, sp, par = D.kind, D.space, D.space.parities
    odd = D.degree % 2 != 0
    cogenerator = [(a, comp) for (a, l), comp in D.components.items() if l == 1]

    def lhs(word):
        """The (l-1, 1) cuts of D(word)."""
        for u, c in D.apply_word(word):
            l = word_weight(kind, u)
            if l >= 2:
                for pair, s in coproduct_terms(kind, sp, u, l - 1):
                    yield pair, c if s == 1 else -c

    def rhs(word, k):
        """The weight-1 right parts of (D (x) Id + Id (x) D)(Delta(word))."""
        if k > 1:
            for (left, right), s in coproduct_terms(kind, sp, word, k - 1):
                for v, c in D.apply_word(left):
                    yield (v, right), c if s == 1 else -c
        for a, comp in cogenerator:
            if a >= k:
                continue
            for (left, right), s in coproduct_terms(kind, sp, word, k - a):
                image = comp.get(right)
                if image is None:
                    continue
                letters = left[0] + (left[1],) if kind == PERM else left
                if odd and sum(par[x] for x in letters) % 2:
                    s = -s
                for v, c in image:
                    yield (left, v), c if s == 1 else -c

    for k in range(1, cap + 1):
        for word in coalgebra_words(kind, sp, k):
            if LinearCombination(lhs(word)) != LinearCombination(rhs(word, k)):
                return False
    return True


def square_cogenerator_component(D: Coderivation, n: int) -> Operation:
    """The weight (n -> 1) component of D o D, pulled back to an arity-n
    operation on tensor words through the canonical projection onto the
    coalgebra's weight-n words.

    Each canonical word's part is written to the tensor words that project
    onto it: a tensor word to itself, a wedge word (or a Perm head, the tail
    fixed) to each distinct rearrangement w, with the Koszul sign chi that
    takes w back to the canonical word."""
    odd = D.space.parities
    table = {}
    for cw, part in D.squares(n)[0].items():
        if D.kind == TENSOR:
            table[cw] = part
            continue
        head, tail = (cw, ()) if D.kind == WEDGE else (cw[0], (cw[1],))
        negated = part.scaled(-1)
        for chi, arrangement in arrangements(head, odd, False):
            table[arrangement + tail] = part if chi == 1 else negated
    return Operation(D.space, n, 2 * D.degree, table)
