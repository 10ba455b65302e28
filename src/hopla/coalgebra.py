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
from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping

from .errors import ConventionError, KindError
from .graded import (HAT, ONE, GradedSpace, LinearCombination, Operation,
                     OperationFamily, check_homogeneous, word_degree)
from .permutations import (RHO1, arrangements, koszul_sign, permute_word, require_symmetry, sh,
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


def cofree_word_degree(space: GradedSpace, kind: str, word) -> int:
    if kind == PERM:
        return word_degree(space, word[0] + (word[1],))
    return word_degree(space, word)


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


def comultiply(kind: str, space: GradedSpace, word) -> LinearCombination:
    """Reduced comultiplication of a canonical word: a combination keyed by
    (left word, right word) pairs.  Weight-1 words comultiply to zero.

    Each Koszul sign enters as a shared +-1 Fraction, so a pair met once
    costs no Fraction arithmetic."""
    if kind == TENSOR:
        return LinearCombination({(word[:i], word[i:]): ONE for i in range(1, len(word))})
    if kind == WEDGE:
        return LinearCombination(_wedge_coproduct_terms(space, word))
    if kind == PERM:
        return LinearCombination(_perm_coproduct_terms(space, word))
    raise KindError(f"unknown coalgebra kind {kind!r}")


def _wedge_coproduct_terms(space: GradedSpace, word):
    n = len(word)
    parities = [space.parities[x] for x in word]
    for i in range(1, n):
        for sigma in sh(i, n - i):
            permuted = permute_word(sigma, word)
            yield (permuted[:i], permuted[i:]), SIGNS[koszul_sign(sigma, parities)]


def _perm_coproduct_terms(space: GradedSpace, word):
    head, tail = word
    n = len(head) + 1
    parities = [space.parities[x] for x in head]
    for i in range(1, n):
        for sigma in sh(i - 1, 1, n - i - 1):
            ph = permute_word(sigma, head)
            yield ((ph[:i - 1], ph[i - 1]), (ph[i:], tail)), SIGNS[koszul_sign(sigma, parities)]


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
        blocks = sh(a, k - a)

        def terms(word):
            return _apply_to_front(table, sp, word, blocks, a)
    else:
        words = perm_words(sp, k)
        # the head blocks are empty when l = 1 (mu would need k head letters)
        head_blocks = sh(a - 1, 1, k - 1 - a)
        tail_blocks = sh(l - 1, k - l)

        def terms(word):
            head, tail = word
            yield from _apply_to_front(table, sp, head, head_blocks, a, tail)
            parities = [odd[x] for x in head]
            for sigma in tail_blocks:
                out = table.get(tuple(head[s - 1] for s in sigma[l - 1:]) + (tail,))
                if out is None:
                    continue
                # an unshuffle of a canonical head leaves the rest canonical
                rest = tuple(head[s - 1] for s in sigma[:l - 1])
                eps = koszul_sign(sigma, parities)
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


def _apply_to_front(table, sp, letters, blocks, a, tail=None):
    """Yield the terms of eps(sigma) mu(x_s(1), ..., x_s(a)) ^ x_s(a+1) ^ ...
    over the given unshuffles of a canonical wedge word, keyed by the
    canonical result, or by (result, tail) when a Perm tail is given."""
    parities = [sp.parities[x] for x in letters]
    for sigma in blocks:
        out = table.get(tuple(letters[s - 1] for s in sigma[:a]))
        if out is None:
            continue
        eps = koszul_sign(sigma, parities)
        rest = tuple(letters[s - 1] for s in sigma[a:])
        for letter, c in out:
            ns, word = wedge_normalize(sp, (letter,) + rest)
            if word is not None:
                yield word if tail is None else (word, tail), c if ns == eps else -c


def check_coderivation(D: Coderivation, cap: int | None = None) -> bool:
    """Verify Delta o D = (D (x) Id + Id (x) D) o Delta on every canonical
    word of weight <= cap, with the Koszul sign in the Id (x) D term."""
    cap = D.cap if cap is None else min(cap, D.cap)
    odd = D.degree % 2 != 0
    for k in range(1, cap + 1):
        for word in coalgebra_words(D.kind, D.space, k):
            lhs = LinearCombination((pair, c * cc) for w, c in D.apply_word(word)
                                    for pair, cc in comultiply(D.kind, D.space, w))
            if lhs != LinearCombination(_coderivation_rhs(D, word, odd)):
                return False
    return True


def _coderivation_rhs(D: Coderivation, word, odd: bool):
    """Terms of (D (x) Id + Id (x) D) o Delta on one word."""
    for (left, right), c in comultiply(D.kind, D.space, word):
        for w, cc in D.apply_word(left):
            yield (w, right), c * cc
        if odd and cofree_word_degree(D.space, D.kind, left) % 2:
            c = -c
        for w, cc in D.apply_word(right):
            yield (left, w), c * cc


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
