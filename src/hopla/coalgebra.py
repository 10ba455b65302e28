"""Weight-truncated cofree coalgebras on a graded space and their coderivations.

Each coalgebra is the cofree coalgebra of one kind of the paper's
dictionary (`equations.KINDS`: tensor for assoc, perm for pre-Lie, wedge
for Lie), and `TENSOR`, `WEDGE` and `PERM` are that table's names.  A
basis word of weight k is a tuple of k basis indices, the rho1 orbit
representative that the kind's symmetrization (`SYMMETRIZATION`, the mode
the table gives the coalgebra's kind) picks:

* tensor:  no symmetrization; every word is its own representative;
* wedge:   mode full; the word is sorted (the sorting sign normalized
           away), and words with a repeated odd-degree letter are zero;
* perm:    mode partial; the Perm word (x_1 ... x_{k-1} | t) is the tuple
           head + (t,), its first k - 1 letters a canonical wedge word.

`_mode` reads a coalgebra's symmetrization, and it is the one place that
refuses a name that is not a coalgebra's.

Coalgebras here are non-counital and weights start at 1: the comultiplication
of a weight-1 word is the empty sum.  Every structure is truncated at an
explicit weight cap; all identities are weight-homogeneous, so nothing is
lost per weight.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from math import comb, factorial, lcm
from operator import itemgetter
from typing import Iterator, Mapping

from .equations import COMMUTATORS, KINDS, PERM, TENSOR, WEDGE
from .errors import ArityError, ConventionError, KindError
from .graded import (HAT, GradedSpace, LinearCombination, Operation, OperationFamily,
                     check_homogeneous, over, sum_by_key, table_from_terms)
from .permutations import (MODE_SHUFFLE, RHO1, Folded, _unshuffles_cached, acted_count,
                           arrangements, koszul_sign, require_symmetry, signed_sort,
                           stabilizer_order)

# the symmetrization whose rho1 orbit representatives are a coalgebra's
# words: the mode of the kind whose coalgebra it is
SYMMETRIZATION = {kind.coalgebra: kind.mode for kind in KINDS.values()}


def wedge_normalize(space: GradedSpace, letters) -> tuple:
    """Canonical form of a wedge word: (sign, sorted tuple, |Stab|), or
    (0, None, 0).

    The canonical word is the word's rho1 orbit representative, computed by
    the symmetrization kernel: the sign is the Koszul sign of the sorting
    permutation, and a repeated odd-degree letter (a stabilizer acting by
    -1, whose order reads 0) forces the zero word.
    """
    letters = list(letters)
    sign = signed_sort(letters, space.parities, False)
    order = stabilizer_order(letters, space.parities, False)
    return (sign, tuple(letters), order) if order else (0, None, 0)


def _mode(kind: str) -> str | None:
    """The kind's `SYMMETRIZATION`; the one refusal (KindError) of a name
    that is not a coalgebra's."""
    if kind not in SYMMETRIZATION:
        raise KindError(f"unknown coalgebra kind {kind!r}")
    return SYMMETRIZATION[kind]


def _acted(kind: str, k: int) -> int:
    """The leading slots of a weight-k word that the kind's symmetrization
    acts on: none (tensor), all k (wedge) or the k - 1 of the head (perm)."""
    return acted_count(_mode(kind), k)


def coalgebra_words(kind: str, space: GradedSpace, k: int) -> Iterator:
    """The canonical words of weight k: a head of the acted slots that is
    its own `wedge_normalize` form (sorted, no odd letter repeated), then
    free letters, in lexicographic order.  The heads are drawn sorted, so
    only their stabilizers are checked."""
    acted = _acted(kind, k)
    letters = range(space.dim)
    heads = (head for head in itertools.combinations_with_replacement(letters, acted)
             if stabilizer_order(head, space.parities, False))
    return (head + free for head in heads
            for free in itertools.product(letters, repeat=k - acted))


def _weight_words(kind: str, space: GradedSpace, k: int) -> int:
    """The number of canonical words of weight k, in closed form: the
    admissible heads of the a acted slots times dim^(k - a) free letters.
    The heads are the multisets of a letters with no odd letter repeated,
    sum over j of C(odd, j) times the C(even + a - j - 1, a - j) multisets
    of a - j even letters."""
    a = _acted(kind, k)
    odd = sum(space.parities)
    even = space.dim - odd
    heads = sum(comb(odd, j) * (comb(even + a - j - 1, a - j) if even else int(j == a))
                for j in range(min(odd, a) + 1))
    return heads * space.dim ** (k - a)


def word_count(kind: str, space: GradedSpace, cap: int) -> int:
    """The number of canonical words of weights 1 .. cap, in closed form."""
    return sum(_weight_words(kind, space, k) for k in range(1, cap + 1))


def block_count(kind: str, space: GradedSpace, cap: int, arities) -> int:
    """The blocks of `coderive`'s work bound, in closed form: per canonical
    word of weight k and arity a <= k, the k - a + 1 insertion positions
    (tensor), C(k, a) (wedge) or C(k - 1, a - 1) (k - a + 1) (Perm).  For
    wedge and Perm it stands for the law line's word walk, whose cuts of
    left weight k - a unshuffle C(k, a) (wedge) or C(k - 1, a - 1) (k - a)
    (Perm) ways; the components (`_components`) walk the operations'
    entries instead.  A split given by several unshuffles is yielded once,
    so for words that repeat a letter it is an upper bound.  Tensor walks
    (k - a + 1) dim^(k - a) insertions per entry of mu_a: as many when mu_a
    is dense."""
    def per_word(k, a):
        if kind == TENSOR:
            return k - a + 1
        if kind == WEDGE:
            return comb(k, a)
        return comb(k - 1, a - 1) * (k - a + 1)

    return sum(_weight_words(kind, space, k) * per_word(k, a)
               for k in range(1, cap + 1) for a in arities if a <= k)


def coproduct_terms(kind: str, space: GradedSpace, word, i: int) -> Iterator:
    """Terms ((left, right), c) of the comultiplication of a canonical word
    whose left factor has weight i, each distinct split once, with c the
    integer sum of the Koszul signs of the unshuffles that give it:

    tensor: the cut after i letters;
    wedge:  eps(sigma) (x_s(1) ... x_s(i)) (x) (x_s(i+1) ... x_s(n)) over the
            (i, n-i)-unshuffles sigma;
    perm:   eps(sigma) (x_s(1) ... x_s(i-1) | x_s(i)) (x) (x_s(i+1) ... | t)
            over the (i-1, 1, n-1-i)-unshuffles sigma of the head.

    That is, the acted slots are unshuffled, the rest of the word is kept,
    and the result is cut after i letters.  A repeated even letter gives
    one split from several unshuffles, all of one sign, so c counts them;
    the signs of a repeated odd letter cancel, and a split whose c is zero
    is left out.  Every factor is canonical: an unshuffle of a canonical
    word keeps each block sorted.  A word that is not canonical gets the
    same sum, its factors in the word's order (beta in `coalgebra_map`
    relies on this).  Each split is read off the word by the two cached
    readers of `_signed_unshuffles`, one per factor.

    At the boundary weights, for tensor and wedge, i = n yields (w, ()) and
    i = 0 yields ((), w), with c = 1 (beta of a weight-1 word reads the
    latter); a negative block yields nothing, so a Perm word has no term at
    i = n and beta of the empty word is zero.  `comultiply` sums only over
    i = 1 .. n-1."""
    if kind == TENSOR:
        yield (word[:i], word[i:]), 1
        return
    n = len(word)
    acted = _acted(kind, n)
    blocks = (i, n - i) if kind == WEDGE else (i - 1, 1, n - 1 - i)
    head = word[:acted]
    for left, right, c in _signed_unshuffles(tuple(map(space.parities.__getitem__, head)),
                                             tuple(map({}.setdefault, head, range(acted))),
                                             n - acted, *blocks):
        yield (left(word), right(word)), c


@lru_cache(maxsize=4096)
def _signed_unshuffles(parities: tuple, pattern: tuple, tail: int, *blocks: int) -> tuple:
    """The distinct splits that the unshuffles of the nonzero blocks make of
    a word whose acted letters have the given parities and equality pattern
    (each letter's first slot), followed by `tail` free letters; a negative
    block gives none (the boundary weights of `coproduct_terms`).  A split
    is (left reader, right reader, c): c sums the Koszul signs of the
    unshuffles that make it, zero sums left out, and each reader is an
    `itemgetter` that reads its factor off the word (`_reader`), from the
    slots of the first unshuffle that makes the split.  The left factor is
    every block but the last, the right one the last block and the tail.
    The cache is bounded because every new pattern of a long-lived process
    adds an entry."""
    if min(blocks) < 0:
        return ()
    acted = len(pattern)
    cut, rest = acted - blocks[-1], tuple(range(acted, acted + tail))
    firsts, signs = {}, []
    for sigma in _unshuffles_cached(tuple(b for b in blocks if b)):
        slots = tuple(s - 1 for s in sigma)
        key = tuple(map(pattern.__getitem__, slots))
        firsts.setdefault(key, slots)
        signs.append((key, koszul_sign(sigma, parities)))
    return tuple((_reader(firsts[key][:cut]), _reader(firsts[key][cut:] + rest), c)
                 for key, c in sum_by_key(signs).items())


def _reader(slots: tuple) -> itemgetter:
    """The `itemgetter` that reads the letters at the slots as a tuple: one
    slice for a contiguous run (an empty or single slot too), else one
    index per slot."""
    start = slots[0] if slots else 0
    if slots == tuple(range(start, start + len(slots))):
        return itemgetter(slice(start, start + len(slots)))
    return itemgetter(*slots)


def comultiply(kind: str, space: GradedSpace, word) -> LinearCombination:
    """Reduced comultiplication of a canonical word: a combination keyed by
    (left word, right word) pairs, the sum of `coproduct_terms` over the
    left weights 1 .. n-1.  Weight-1 words comultiply to zero.  The Koszul
    signs are summed as ints, and the combination holds int values."""
    _mode(kind)
    return LinearCombination((pair, s) for i in range(1, len(word))
                             for pair, s in coproduct_terms(kind, space, word, i))


def coalgebra_map(name: str, space: GradedSpace, word) -> LinearCombination:
    """The maps alpha (wedge -> tensor), beta (wedge -> perm) and gamma
    (perm -> tensor): each commutator's map goes from its target kind's
    coalgebra to its source kind's (`equations.COMMUTATORS`).

    alpha sums eps(sigma) (x_s(1), ..., x_s(n)) over all of S_n, and gamma
    does the same to the head of (x_1 ... x_{n-1} | t) with t fixed: both
    sum over the slots their mode acts on, and are computed per orbit:
    every distinct rearrangement of those slots appears |Stab| times with
    the Koszul sign that relates it to the word, and the sum is zero when a
    repeated odd letter makes the stabilizer act by -1.  beta is the sum
    over the (n-1, 1)-unshuffles sigma of eps(sigma) (x_s(1) ... x_s(n-1) |
    x_s(n)): the wedge coproduct terms of left weight n - 1, the right
    factor's letter as the tail.  Every map has integer coefficients, and
    the combination holds ints.
    """
    if name not in COMMUTATORS:
        raise KindError(f"unknown coalgebra map {name!r}")
    mode = COMMUTATORS[name].mode
    if mode == MODE_SHUFFLE:
        return LinearCombination((left + right, eps) for (left, right), eps
                                 in coproduct_terms(WEDGE, space, word, len(word) - 1))
    acted = acted_count(mode, len(word))
    return _orbit_sum(space, word[:acted], word[acted:])


def _orbit_sum(space: GradedSpace, letters, tail: tuple) -> LinearCombination:
    """Sum of eps(sigma) (letters o sigma) + tail over sigma in S_len, from
    the letters' `wedge_normalize` form, the sorted representative of their
    rho1 orbit, each arrangement |Stab| times."""
    chi, rep, order = wedge_normalize(space, letters)
    if rep is None:
        return LinearCombination()
    return LinearCombination((arrangement + tail, order if c == chi else -order)
                             for c, arrangement in arrangements(rep, space.parities, False))


def project_pi(space: GradedSpace, word) -> LinearCombination:
    """pi: tensor -> wedge, the weight-n canonical projection scaled by 1/n!."""
    s, canonical, _ = wedge_normalize(space, word)
    if canonical is None:
        return LinearCombination()
    return LinearCombination({canonical: Fraction(s, factorial(len(word)))})


# ---------------------------------------------------------------------------
# coderivations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Coderivation:
    """Weight-indexed components of a coderivation of one coalgebra kind.

    `components[(k, l)]` maps canonical weight-k words to their weight-l
    images, each a dict {word: int numerator} over the one common
    `denominator`; missing pairs and words are zero.  Wedge and Perm
    components are summed over products of the operation's entries with
    canonical rests, each weighted by the unshuffles that give its split,
    tensor ones over insertions of the operation; `extend_coderivation`
    builds every weight of one operation's components from one set-up.  The
    law and the square compute on these numerators; `square_word` gives
    exact Fraction values.  The tables are all a coderivation holds.  It
    has degree -1, the sign of its law.  The constructor refuses what has
    no answer: an unknown kind (KindError), a cap below 1 or a component
    key (k, l) outside 1 <= l <= k <= cap, the keys `image` reads
    (ArityError), and a denominator that is not a positive int
    (ValueError); a table word that is not canonical fails the law line.
    """

    kind: str
    space: GradedSpace
    cap: int
    components: Mapping = field(default_factory=dict)
    denominator: int = 1

    def __post_init__(self):
        _mode(self.kind)
        if not isinstance(self.denominator, int) or self.denominator < 1:
            raise ValueError(f"a coderivation's denominator must be a positive int, "
                             f"got {self.denominator!r}")
        bad = sorted(key for key in self.components if not 1 <= key[1] <= key[0] <= self.cap)
        if self.cap < 1 or bad:
            raise ArityError(f"a coderivation needs a weight cap of at least 1 and component keys "
                             f"(k, l) with 1 <= l <= k <= cap; got cap {self.cap}, keys {bad}")

    def image(self, word) -> dict:
        """D(word) over all weights, as numerators over the denominator: the
        merge of the word's rows in the components (k, 1) .. (k, k).

        Unchecked: a word that is not canonical or whose weight lies
        outside 1 .. cap reads as zero here, where `square_word` refuses it."""
        k = len(word)
        return {w: c for l in range(1, k + 1)
                for w, c in self.components.get((k, l), {}).get(word, {}).items()}

    def square_word(self, word) -> LinearCombination:
        """D(D(word)) over all weights, for a canonical word of weight
        1 .. cap.  Any other weight raises ArityError: D has no components
        beyond the cap, so its square there is unknown, not zero.  A word
        that `coalgebra_words` does not yield (a letter outside the space,
        or acted slots that are not their own `wedge_normalize` form)
        raises KindError."""
        k = len(word)
        if not 1 <= k <= self.cap:
            raise ArityError(f"the square needs a word of weight 1..{self.cap}, got {word!r}")
        head = word[:_acted(self.kind, k)]
        if not (set(word) <= set(range(self.space.dim))
                and wedge_normalize(self.space, head)[1] == head):
            raise KindError(f"{word!r} is not a canonical {self.kind} word")
        image = self.image
        return over(sum_by_key((w, c * cc) for u, c in image(word).items()
                               for w, cc in image(u).items()), self.denominator ** 2)


def extend_coderivation(family: OperationFamily, kind: str, cap: int) -> Coderivation:
    """Extend a hat-convention family to a coderivation of the chosen
    coalgebra, truncated at the weight cap.

    The (k, l) component applies mu, the arity-a operation with
    a = k - l + 1, to the canonical weight-k word x_1 ... x_k:

    * tensor: sum over positions i of I_i (x) mu (x) I, with the sign
              (-1)^(|x_1| + ... + |x_i|) of mu passing the letters before it;
    * wedge:  the sum over the (a, k-a)-unshuffles sigma of
              eps(sigma) mu(x_s(1), ..., x_s(a)) ^ x_s(a+1) ^ ... ^ x_s(k);
    * perm:   on the word (x_1 ... x_{k-1} | t), the head terms, the sum
              over the (a-1, 1, k-1-a)-unshuffles sigma of the head of
              eps(sigma) (mu(x_s(1), ..., x_s(a)) ^ x_s(a+1) ^ ... | t)
              (none when l = 1), plus the tail terms, the sum over the
              (l-1, k-l)-unshuffles sigma of the head of
              eps(sigma) (-1)^(|x_s(1)| + ... + |x_s(l-1)|)
                  (x_s(1) ^ ... ^ x_s(l-1) | mu(x_s(l), ..., x_s(k-1), t)).

    The output letter of mu always comes first and `wedge_normalize` gives
    the canonical word and its sign.  `_components` builds every weight of
    one operation's components from one set-up, and sums each split once,
    from the product of an entry of mu with a canonical rest, weighted by
    the number of unshuffles that give it.  These sums equal the sums
    over all permutations of the word divided by each term's multiplicity
    because mu has the symmetry `require_symmetry` enforces here (full for
    wedge, in the first a-1 slots for perm).  Every
    kind moves mu past letters with the sign of a degree -1 map, so mu must
    be homogeneous of degree -1 for the result to be a coderivation; that
    is checked here for every kind (ConventionError otherwise).

    The (n, 1) component is exactly the arity-n operation.  The components
    are integer numerators over the lcm of the operations' denominators
    (docs/conventions.md, "Coderivation components").
    """
    if family.convention != HAT:
        raise ConventionError("coderivation extension requires a hat-convention family")
    require_symmetry(family.ops, RHO1, _mode(kind), f"the {kind} coderivation extension")
    for n in family.arities():
        if not check_homogeneous(family.ops[n]):
            raise ConventionError(f"the {kind} coderivation extension requires homogeneous "
                                  f"operations; the arity-{n} operation is not")
    den = lcm(*(op.denominator for op in family.ops.values()))
    components = {}
    for arity, op in family.ops.items():
        for k, comp in _components(op, kind, cap, den // op.denominator):
            if comp:
                components[(k, k - arity + 1)] = comp
    return Coderivation(kind, family.space, cap, components, den)


def _components(op: Operation, kind: str, cap: int, scale: int = 1) -> Iterator:
    """The components extending op, (k, table) for each weight k = op.arity
    .. cap in turn: the table of the (k, k - op.arity + 1) component maps
    canonical weight-k words to their images, as int numerators over
    op.denominator / scale, and is empty when no word has an image.

    Everything that does not depend on k is built once, before the first
    weight: the entries of op kept and scaled (tensor: all; wedge and Perm:
    the representative entries), and for tensor their negated copy, for
    wedge and Perm their grouping by sorted left and by B (the Perm heads
    merged with their middle letter) and the tails.

    Tensor sums insertions: per position i, prefix of i letters, entry of
    op and suffix, the word prefix + input + suffix gets prefix + (output
    letter,) + suffix with the sign (-1)^|prefix|, so only words that hold
    an entry are visited.  Wedge and Perm pair each entry of op with a
    canonical head, the only left factors a canonical word splits off, with
    each canonical rest: the product gets the entry's term times the merge
    sign and the unshuffles that give the split (docs/conventions.md).
    Every weight's terms are summed per word by `table_from_terms`."""
    sp = op.space
    odd = sp.parities
    a, wedge = op.arity, kind == WEDGE
    acted = _acted(kind, a)
    table = {word: [(letter, c * scale) for letter, c in sums.items()]
             for word, sums in op.numerators.items()
             if wedge_normalize(sp, word[:acted])[1] == word[:acted]}
    if kind == TENSOR:
        negated = {word: [(letter, -c) for letter, c in out] for word, out in table.items()}

        def terms(l):
            for i in range(l):
                suffixes = list(itertools.product(range(sp.dim), repeat=l - 1 - i))
                for prefix in itertools.product(range(sp.dim), repeat=i):
                    signed = negated if sum(odd[x] for x in prefix) % 2 else table
                    for word, out in signed.items():
                        for suffix in suffixes:
                            for letter, c in out:
                                yield prefix + word + suffix, prefix + (letter,) + suffix, c
    else:
        def merged(left, right):
            """Sorted product of canonical factors, sign times unshuffles;
            (0, None) on a shared odd letter."""
            shared = set(left).intersection(right)
            if shared and any(odd[x] for x in shared):
                return 0, None
            word = [*left, *right]
            sign = signed_sort(word, odd, False)
            for x in shared:
                sign *= comb(word.count(x), left.count(x))
            return sign, tuple(word)

        lefts, backs = defaultdict(list), defaultdict(list)   # entries by sorted left, by B
        for e, out in table.items():
            s, left = (1, e) if wedge else merged(e[:-1], e[-1:])
            if s:
                lefts[left].append((s, out))
            backs[e[:-1]].append((e[-1:], out))
        tails = [()] if wedge else [(t,) for t in range(sp.dim)]

        def terms(l):
            # mu(left) ^ rest: wedge terms, and Perm head terms copied to every tail
            width = l - 1 if wedge else l - 2   # the letters of a rest
            for rest in coalgebra_words(WEDGE, sp, width) if width >= 0 else ():
                for left, outs in lefts.items():
                    sign, word = merged(left, rest)
                    if word is not None:
                        image = [(w, ns * s * sign * c) for s, out in outs for z, c in out
                                 for ns, w, _ in (wedge_normalize(sp, (z,) + rest),) if ns]
                        for tail in tails:
                            for w, c in image:
                                yield word + tail, w + tail, c
            # the Perm tail terms (front | mu(B | t)), mu passing the front
            for front in () if wedge else coalgebra_words(WEDGE, sp, l - 1):
                parity = -1 if sum(odd[x] for x in front) % 2 else 1
                for back, outs in backs.items():
                    sign, head = merged(front, back)
                    for tail, out in outs if head is not None else ():
                        for z, c in out:
                            yield head + tail, front + (z,), parity * sign * c

    for k in range(a, cap + 1):
        yield k, table_from_terms(terms(k - a + 1))


def check_coderivation(D: Coderivation) -> bool:
    """Verify Delta o D = (D (x) Id + Id (x) D) o Delta on every canonical
    word of weight <= D.cap, with the Koszul sign (-1)^|left| of the
    degree -1 map D in the Id (x) D term.

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

    Wedge and Perm walk the canonical words and sum the left side minus the
    right per word, as integer numerators over D.denominator, from the
    components indexed once by source weight.  Tensor reads each term as the
    word left + right (|right| = 1), the inverse of Delta_{q-1,1}, and so
    splits the law into blocks (k, l), 2 <= l <= k <= cap, that the image
    weight l keys apart: D_(k,l) = D_(k-1,l-1) with the last letter carried
    along, plus the signed prefix of l - 1 letters followed by D_(k-l+1,1).
    Each block is built by `table_from_terms` (zero sums dropped) and
    compared with D_(k,l)'s nonzero entries.  A table holding a source or
    image word outside the canonical words of its weight fails too.  Wedge
    and Perm test the tables against the words they walk.  Tensor builds no
    words: it tests the (k, 1) tables letter by letter, then the blocks in
    increasing k, each built from certified tables; only a block that
    matches once D_(k,l)'s explicit zeros are dropped tests D_(k,l)'s words.
    """
    cap, kind, sp, par = D.cap, D.kind, D.space, D.space.parities
    source = {k: [] for k in range(1, cap + 1)}   # every component leaving weight k, as (l, table)
    for (k, l), comp in D.components.items():
        source[k].append((l, comp))
    cogenerator = [(a, comp) for a, row in source.items() for l, comp in row if l == 1]
    cuts = {}   # word -> its (len - 1, 1) cuts, met again as an image word

    def cut(u):
        terms = cuts.get(u)
        if terms is None:
            terms = cuts[u] = tuple(coproduct_terms(kind, sp, u, len(u) - 1))
        return terms

    def defect(word, k):
        """The weight-1 right part of R(word), as numerators: the (l-1, 1)
        cuts of D(word), minus the weight-1 right parts of
        (D (x) Id + Id (x) D)(Delta(word))."""
        for l, comp in source[k]:
            if l > 1:
                for u, c in comp.get(word, {}).items():
                    for pair, s in cut(u):
                        yield pair, s * c
        if k > 1:
            for (left, right), s in cut(word):
                for _, comp in source[k - 1]:
                    for v, c in comp.get(left, {}).items():
                        yield (v, right), -s * c
        for a, comp in cogenerator:
            if a >= k:
                continue
            for (left, right), s in coproduct_terms(kind, sp, word, k - a):
                right_image = comp.get(right)
                if right_image is None:
                    continue
                if sum(par[x] for x in left) % 2:
                    s = -s
                for v, c in right_image.items():
                    yield (left, v), -s * c

    def tensor_word(word, k):
        """Whether a tensor word is canonical: k letters, each in the space."""
        return len(word) == k and alphabet.issuperset(word)

    def tensor_block_holds(k, l):
        """Whether D_(k,l) is the block the law builds from the certified
        lower tables, its words canonical."""
        def terms():
            for w, row in D.components.get((k - 1, l - 1), {}).items():
                for x in letters:
                    for v, c in row.items():
                        yield w + x, v + x, c
            for prefix in itertools.product(range(sp.dim), repeat=l - 1):
                s = -1 if sum(par[x] for x in prefix) % 2 else 1
                for w, row in D.components.get((k - l + 1, 1), {}).items():
                    for v, c in row.items():
                        yield prefix + w, prefix + v, s * c

        expected, table = table_from_terms(terms()), D.components.get((k, l), {})
        if expected == table:
            return True
        kept = {w: nonzero for w, row in table.items()
                if (nonzero := {v: c for v, c in row.items() if c})}
        return expected == kept and all(tensor_word(w, k) and all(tensor_word(v, l) for v in row)
                                        for w, row in table.items())

    if kind == TENSOR:
        letters, alphabet = [(x,) for x in range(sp.dim)], set(range(sp.dim))
        return (all(tensor_word(w, k) and all(tensor_word(v, 1) for v in row)
                    for (k, l), comp in D.components.items() if l == 1 for w, row in comp.items())
                and all(tensor_block_holds(k, l) for k in range(2, cap + 1)
                        for l in range(2, k + 1)))
    words = {k: frozenset(coalgebra_words(kind, sp, k)) for k in range(1, cap + 1)}
    if any(sum_by_key(defect(word, k)) for k, canonical in words.items() for word in canonical):
        return False
    return all(comp.keys() <= words[k] and all(row.keys() <= words[l] for row in comp.values())
               for (k, l), comp in D.components.items())


def square_cogenerator_fold(D: Coderivation, n: int) -> Folded:
    """The weight (n -> 1) component of D o D, pulled back to an arity-n
    operation on tensor words through the canonical projection onto the
    coalgebra's weight-n words, kept on the canonical words as a
    `permutations.Folded` sum.

    It is read from the components alone: on a canonical weight-n word w it
    is the sum over l of D_(l,1)(D_(n,l)(w)), the (l, 1) component applied
    to the weight-l part of D(w).  For a coderivation D of odd degree, D o D
    vanishes up to the cap exactly when these components do for
    n = 1 .. cap (docs/conventions.md, "Coderivation components").  A weight
    outside 1 .. D.cap raises ArityError: D has no components beyond the
    cap, so its square there is unknown, not zero.

    A canonical word is the rho1 orbit representative of the tensor words
    that project onto it under the kind's `SYMMETRIZATION`: a tensor word
    is its own, a wedge word stands for its rearrangements, and a Perm word
    (head | t) for the rearrangements of its head, t fixed.  So the Folded
    sum holds each canonical word's part, the products of the components'
    numerators summed as ints over the denominator squared, and its `op`
    is the pullback."""
    if not 1 <= n <= D.cap:
        raise ArityError(f"the square's cogenerator component needs a weight in "
                         f"1..{D.cap}, got {n}")
    steps = [(D.components[(n, l)], D.components[(l, 1)]) for l in range(1, n + 1)
             if (n, l) in D.components and (l, 1) in D.components]
    table = table_from_terms((cw, z, c * cc) for image, cogenerator in steps
                             for cw, row in image.items() for u, c in row.items()
                             for (z,), cc in cogenerator.get(u, {}).items())
    return Folded(D.space, n, -2, table, D.denominator ** 2, RHO1,
                  SYMMETRIZATION[D.kind])


def square_cogenerator_component(D: Coderivation, n: int) -> Operation:
    """The pullback of `square_cogenerator_fold` as a whole arity-n
    operation on tensor words."""
    return square_cogenerator_fold(D, n).op
