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
from .graded import (HAT, GradedSpace, LinearCombination, Operation,
                     OperationFamily, accumulate, finish_combination, word_degree)
from .permutations import (RHO1, all_permutations, koszul_sign, permute_word,
                           require_symmetry, sh, signed_sort, stabilizer_order)

TENSOR = "tensor"
WEDGE = "wedge"
PERM = "perm"

KINDS = (TENSOR, WEDGE, PERM)


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
        return word_degree(space, word[0]) + space.degree(word[1])
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
    (left word, right word) pairs.  Weight-1 words comultiply to zero."""
    acc = {}
    if kind == TENSOR:
        n = len(word)
        for i in range(1, n):
            accumulate(acc, (word[:i], word[i:]), Fraction(1))
    elif kind == WEDGE:
        n = len(word)
        degrees = [space.degree(x) for x in word]
        for i in range(1, n):
            for sigma in sh(i, n - i):
                eps = koszul_sign(sigma, degrees)
                permuted = permute_word(sigma, word)
                accumulate(acc, (permuted[:i], permuted[i:]), Fraction(eps))
    elif kind == PERM:
        head, tail = word
        n = len(head) + 1
        degrees = [space.degree(x) for x in head]
        for i in range(1, n):
            for sigma in sh(i - 1, 1, n - i - 1):
                eps = koszul_sign(sigma, degrees)
                ph = permute_word(sigma, head)
                left = (ph[:i - 1], ph[i - 1])
                right = (ph[i:], tail)
                accumulate(acc, (left, right), Fraction(eps))
    else:
        raise KindError(f"unknown coalgebra kind {kind!r}")
    return finish_combination(acc)


def coalgebra_map(name: str, space: GradedSpace, word) -> LinearCombination:
    """The maps alpha (wedge -> tensor, full symmetrization), beta
    (wedge -> perm, (n-1,1)-unshuffle sum) and gamma (perm -> tensor,
    head symmetrization with the tail fixed)."""
    if name == "alpha":
        n = len(word)
        degrees = [space.degree(x) for x in word]
        acc = {}
        for sigma in all_permutations(n):
            accumulate(acc, permute_word(sigma, word),
                       Fraction(koszul_sign(sigma, degrees)))
        return finish_combination(acc)
    if name == "beta":
        n = len(word)
        degrees = [space.degree(x) for x in word]
        acc = {}
        for sigma in sh(n - 1, 1) if n > 1 else ((1,),):
            permuted = permute_word(sigma, word)
            accumulate(acc, (permuted[:-1], permuted[-1]),
                       Fraction(koszul_sign(sigma, degrees)))
        return finish_combination(acc)
    if name == "gamma":
        head, tail = word
        n = len(head) + 1
        degrees = [space.degree(x) for x in head]
        acc = {}
        for sigma in all_permutations(n - 1):
            accumulate(acc, permute_word(sigma, head) + (tail,),
                       Fraction(koszul_sign(sigma, degrees)))
        return finish_combination(acc)
    raise KindError(f"unknown coalgebra map {name!r}")


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
    degree -1).
    """

    kind: str
    space: GradedSpace
    cap: int
    degree: int
    components: Mapping = field(default_factory=dict)

    def component(self, k: int, l: int) -> Mapping:
        return self.components.get((k, l), {})

    def apply_word(self, word) -> LinearCombination:
        k = word_weight(self.kind, word)
        acc = {}
        for l in range(1, k + 1):
            image = self.components.get((k, l), {}).get(word)
            if image is not None:
                for w, c in image:
                    accumulate(acc, w, c)
        return finish_combination(acc)

    def apply_combination(self, combo: LinearCombination) -> LinearCombination:
        acc = {}
        for word, c in combo:
            for w, cc in self.apply_word(word):
                accumulate(acc, w, cc * c)
        return finish_combination(acc)

    def square_word(self, word) -> LinearCombination:
        return self.apply_combination(self.apply_word(word))

    def first_nonzero_square(self):
        """(word, D(D(word))) for the first canonical word, by weight up to
        the cap, whose square is nonzero; None when D o D vanishes there."""
        for k in range(1, self.cap + 1):
            for word in coalgebra_words(self.kind, self.space, k):
                image = self.square_word(word)
                if not image.is_zero():
                    return word, image
        return None


def extend_coderivation(family: OperationFamily, kind: str, cap: int) -> Coderivation:
    """Extend a hat-convention family to a coderivation of the chosen
    coalgebra, truncated at the weight cap.

    The (k, l) component applies the arity-(k-l+1) operation:

    * tensor: sum over positions of I (x) mu (x) I with the tensor-rule sign;
    * wedge:  the same summed over the full symmetrization of the word and
              divided by (l-1)!(k-l+1)!;
    * perm:   head symmetrization (tail fixed), divided by (l-1)!(k-l)!,
              with the operation either consuming head letters or consuming
              the last k-l head letters together with the tail.

    The (n, 1) component is exactly the arity-n operation.
    """
    if family.convention != HAT:
        raise ConventionError("coderivation extension requires a hat-convention family")
    if kind not in KINDS:
        raise KindError(f"unknown coalgebra kind {kind!r}")
    if kind != TENSOR:
        require_symmetry(family.ops, RHO1, kind == WEDGE, f"the {kind} coderivation extension")
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
    a = op.arity  # = k - l + 1
    comp = {}
    if kind == TENSOR:
        for word in tensor_words(sp, k):
            acc = {}
            for i in range(l):
                out = op.evaluate(word[i:i + a])
                if out.is_zero():
                    continue
                s = -1 if word_degree(sp, word[:i]) % 2 else 1
                for letter, c in out:
                    accumulate(acc, word[:i] + (letter,) + word[i + a:], c * s)
            if acc:
                comp[word] = finish_combination(acc)
        return comp

    if kind == WEDGE:
        # The l! (not (l-1)!) is forced by the coderivation law: a fully
        # symmetric operation makes each collapsed unshuffle term appear
        # l! * a! times in the symmetrized sum.
        norm = Fraction(1, factorial(l) * factorial(a))
        for word in wedge_words(sp, k):
            degrees = [sp.degree(x) for x in word]
            acc = {}
            for sigma in all_permutations(k):
                eps = koszul_sign(sigma, degrees)
                pw = permute_word(sigma, word)
                prefix_parity = 0
                for i in range(l):
                    out = op.evaluate(pw[i:i + a])
                    if not out.is_zero():
                        s = -1 if prefix_parity else 1
                        for letter, c in out:
                            ns, nw = wedge_normalize(sp, pw[:i] + (letter,) + pw[i + a:])
                            if nw is not None:
                                accumulate(acc, nw, norm * eps * s * ns * c)
                    prefix_parity ^= sp.degree(pw[i]) % 2
            if acc:
                comp[word] = finish_combination(acc)
        return comp

    # perm
    norm = Fraction(1, factorial(l - 1) * factorial(k - l))
    for head, tail in perm_words(sp, k):
        degrees = [sp.degree(x) for x in head]
        acc = {}
        for sigma in all_permutations(k - 1):
            eps = koszul_sign(sigma, degrees)
            ph = permute_word(sigma, head)
            prefix_parity = 0
            for i in range(l - 1):
                out = op.evaluate(ph[i:i + a])
                if not out.is_zero():
                    s = -1 if prefix_parity else 1
                    for letter, c in out:
                        ns, nh = wedge_normalize(sp, ph[:i] + (letter,) + ph[i + a:])
                        if nh is not None:
                            accumulate(acc, (nh, tail), norm * eps * s * ns * c)
                prefix_parity ^= sp.degree(ph[i]) % 2
            out = op.evaluate(ph[l - 1:] + (tail,))
            if not out.is_zero():
                s = -1 if word_degree(sp, ph[:l - 1]) % 2 else 1
                ns, nh = wedge_normalize(sp, ph[:l - 1])
                for letter, c in out:
                    accumulate(acc, (nh, letter), norm * eps * s * ns * c)
        if acc:
            comp[(head, tail)] = finish_combination(acc)
    return comp


def check_coderivation(D: Coderivation, cap: int | None = None) -> bool:
    """Verify Delta o D = (D (x) Id + Id (x) D) o Delta on every canonical
    word of weight <= cap, with the Koszul sign in the Id (x) D term."""
    cap = D.cap if cap is None else min(cap, D.cap)
    odd = D.degree % 2 != 0
    for k in range(1, cap + 1):
        for word in coalgebra_words(D.kind, D.space, k):
            lhs = {}
            for w, c in D.apply_word(word):
                for pair, cc in comultiply(D.kind, D.space, w):
                    accumulate(lhs, pair, c * cc)
            rhs = {}
            for (left, right), c in comultiply(D.kind, D.space, word):
                for w, cc in D.apply_word(left):
                    accumulate(rhs, (w, right), c * cc)
                sign = -1 if odd and cofree_word_degree(D.space, D.kind, left) % 2 else 1
                for w, cc in D.apply_word(right):
                    accumulate(rhs, (left, w), c * cc * sign)
            if finish_combination(lhs) != finish_combination(rhs):
                return False
    return True


def _weight_one_letter(kind: str, word) -> int:
    return word[1] if kind == PERM else word[0]


def square_cogenerator_component(D: Coderivation, n: int) -> Operation:
    """The weight (n -> 1) component of D o D, pulled back to an arity-n
    operation on tensor words through the canonical projection onto the
    coalgebra's weight-n words."""
    sp = D.space
    table = {}
    for word in tensor_words(sp, n):
        if D.kind == TENSOR:
            s, cw = 1, word
        elif D.kind == WEDGE:
            s, cw = wedge_normalize(sp, word)
        else:
            s, head = wedge_normalize(sp, word[:-1])
            cw = None if head is None else (head, word[-1])
        if cw is None:
            continue
        acc = {}
        for w, c in D.square_word(cw):
            if word_weight(D.kind, w) == 1:
                accumulate(acc, _weight_one_letter(D.kind, w), c * s)
        if acc:
            table[word] = finish_combination(acc)
    return Operation(sp, n, 2 * D.degree, table)

