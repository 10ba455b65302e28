"""Slow reference implementations that the library's fast paths replaced.

Each one is the straightforward transcription of a definition and is kept
only so that tests can compare the fast path against it:

* `koszul_sign_by_bubble` decomposes a permutation into adjacent
  transpositions by moving the largest misplaced value into place, and
  `sign_by_cycles` counts the cycles of even length, where
  `permutations.koszul_sign` and `permutations.sign` sort the values with
  `signed_sort`; the oracles below that act by whole permutations take
  their signs from these two;
* `act` applies rho1 or rho2 to a word one whole permutation at a time,
  and `precompose_by_loop` applies op o rho_sigma that way;
* `precompose_symmetrized_by_loop` sums that over every permutation of the
  group a symmetrization mode names;
* `circle_product_dense` evaluates the unshuffle definition of the circle
  product on every one of the dim^(m+n+1) input words;
* `circle_bracket_by_products` forms the circle bracket as two whole
  products subtracted as operations, where `equations.circle_bracket`
  folds both products' insertions once;
* `failing_transposition_by_act` walks the adjacent transpositions as
  whole permutations, applied with `act`, and looks up the partner of
  every stored word, where `permutations.failing_symmetry_generator`
  compares each transposed pair once;
* `fold_by_words` memoizes the move to the representative per distinct
  word, where `permutations.fold` sorts each distinct acted head once;
* `expand_unreduced` writes every arrangement of the fold's numerators
  over its denominator and reduces the whole expansion by its gcd, where
  `permutations.expand` reduces the representatives first;
* `pair_words` lists the canonical words of a coalgebra kind, a Perm word
  spelled as the pair (head, tail), by filtering every multiset head
  through `wedge_normalize`;
* `coproduct_terms_by_pairs` is the comultiplication with one branch per
  kind on pair-spelled Perm words, where `coalgebra.coproduct_terms`
  unshuffles the acted slots of a flat word;
* `coalgebra_map_by_loop` sums alpha and gamma over every permutation of
  the word or head, and beta over every letter moved to the tail, where
  `coalgebra.coalgebra_map` reads beta off the wedge coproduct;
* `component_loop` builds a coderivation component by summing the operation
  over every position of every permutation of each canonical word and
  dividing by the number of times each unshuffle term repeats;
* `residual_by_positions` and `nary_residual_by_positions` make one
  insertion per position, as the defining sums are written, and symmetrize
  their sum with the orbit kernel (itself checked against the loop above),
  with no collapse of positions;
* `residual_by_relation` evaluates the A∞ and PL∞ relations on every input
  word, one term per way the relation feeds the inputs to an inner
  operation, with signs from the Koszul oracle above and no coefficient,
  where `equations` collapses positions and divides by factorials;
* `lie_residual_by_unshuffles` evaluates the L∞ relation the same way,
  one term per (j, n - j)-unshuffle as Lada and Markl write it, where
  `equations` collapses positions and divides by factorials;
* `residual_by_insertions`, `circle_product_by_insertions` and
  `circle_bracket_by_insertions` collapse the positions as `equations`
  does, but insert every stored entry of both operands, every arrangement
  of their symmetric slots, into one fold (`fold_insertions`), where
  `equations` streams one representative per arrangement class;
* `compose_insert_by_evaluation` evaluates an insertion with Fractions on
  every input word, as its definition reads;
* `coderivation_law_by_coproducts` checks the whole coderivation law,
  Delta o D against (D (x) Id + Id (x) D) o Delta with every coproduct
  term, on every canonical word up to the cap, and refuses tables that
  hold words that are not canonical;
* `first_nonzero_square` squares every canonical word up to the cap whole,
  where `coalgebra.square_cogenerator_component` applies only the (l, 1)
  components to D(w), and `coderive` derives square-zero from those;
* `component_by_fractions`, `check_coderivation_by_fractions` and
  `square_cogenerator_by_fractions` are the coderivation component, the
  law's weight-1 check and the square's cogenerator part summed in
  Fractions, where `coalgebra` sums integer numerators over a common
  denominator;
* `denominator_by_fractions` and `numerators_by_fractions` read an
  operation's exact values and put them over the lcm of their
  denominators, where `graded.Operation` stores that normalized form;
* `sums_by_loop` adds up each key's coefficients in a plain loop over
  the whole stream, where `graded.sum_by_key` sums every key in one pass;
* `table_by_groups` groups a term stream per word and sums each group
  with `sum_by_key`, where `graded.table_from_terms` sums every word and
  letter in one pass;
* `block_representatives_by_fractions` scales the sorted-block entries of
  an operation's exact values by the block's multinomial count;
* `permute_word` applies a whole permutation to a word;
* `serialize_document_by_json_dumps` builds the document as nested dicts
  and lists and writes it with `json.dumps(indent=2)`, the layout
  `docio.serialize_document` writes directly;
* `parse_rational_by_regex` parses every coefficient with a regex, where
  `docio.parse_rational` splits at the slash and checks the digits;
* `parse_document_by_fields` reads every field through `_expect`, builds
  each word with one label test per letter and sums every word's terms
  with `sum_by_key`, where `docio.parse_document` indexes the fields and
  falls back on `_expect` only to word a defect.
"""

import collections
import functools
import itertools
import json
import re
from fractions import Fraction
from math import factorial, lcm

from conftest import apply_word, component, sh
from hopla.coalgebra import (PERM, TENSOR, WEDGE, coalgebra_words, comultiply, coproduct_terms,
                             wedge_normalize)
from hopla.docio import (DECLARED_TYPES, FORMAT, MAX_ARITY, AlgebraDocument, _expect, _integer,
                         format_rational, parse_rational)
from hopla.equations import ASSOC, LIE, PRELIE, circle_product
from hopla.errors import DocumentError, LengthError
from hopla.graded import (HAT, UNHAT, GradedSpace, LinearCombination, Operation,
                          OperationFamily, compose_insert, family_degree, insertion_terms,
                          linear_sum, sum_by_key, table_from_terms, word_degree)
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE, RHO1, RHO2, Folded,
                                acted_count, all_permutations, arrangements, expand, fold,
                                precompose_symmetrized, signed_sort, stabilizer_order)


def denominator_by_fractions(op):
    """The lcm of the denominators of op's values (1 for an integer table)."""
    return lcm(*{c.denominator for combo in op.table.values() for _, c in combo})


def numerators_by_fractions(op):
    """op's values as {word: {letter: numerator}} over
    `denominator_by_fractions(op)`."""
    den = denominator_by_fractions(op)
    return {word: {letter: c.numerator * (den // c.denominator) for letter, c in combo}
            for word, combo in op.table.items()}


def sums_by_loop(pairs):
    """The nonzero sums of the (key, coefficient) pairs by key: per key, a
    plain loop over every pair, starting from the int 0."""
    sums = {}
    for key in dict.fromkeys(key for key, _ in pairs):
        total = 0
        for other, coeff in pairs:
            if other == key:
                total += coeff
        if total:
            sums[key] = total
    return sums


def table_by_groups(terms):
    """The table of (word, output letter, coefficient) terms: one group of
    (letter, coefficient) pairs per word, each summed by `sum_by_key`, and
    the words whose sum vanishes left out."""
    groups = {}
    for word, letter, coeff in terms:
        groups.setdefault(word, []).append((letter, coeff))
    return {word: sums for word, group in groups.items() if (sums := sum_by_key(group))}


def block_representatives_by_fractions(op, lo, hi):
    """op's entries whose slots lo..hi-1 are sorted, each times the number
    of distinct arrangements of those slots, (hi-lo)!/prod_x m_x!."""
    table = {}
    for word, combo in op.table.items():
        block = word[lo:hi]
        if list(block) == sorted(block):
            count = factorial(len(block))
            for m in collections.Counter(block).values():
                count //= factorial(m)
            table[word] = combo.scaled(count)
    return Operation(op.space, op.arity, op.degree, table)


def sign_by_cycles(sigma):
    """Parity of sigma, -1 per cycle of even length."""
    sgn = 1
    seen = [False] * len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = sigma[k] - 1
            length += 1
        if length % 2 == 0:
            sgn = -sgn
    return sgn


def koszul_sign_by_bubble(sigma, degrees):
    """eps(sigma; x) from a decomposition of sigma into adjacent
    transpositions, found by repeatedly moving the largest misplaced value
    into place; every swap of letters a, b contributes (-1)^(|a||b|)."""
    if len(sigma) != len(degrees):
        raise LengthError(f"permutation length {len(sigma)} != degree list length {len(degrees)}")
    line = list(sigma)
    eps = 1
    for value in range(len(line), 0, -1):
        pos = line.index(value)
        while pos < value - 1:
            a, b = line[pos], line[pos + 1]
            if degrees[a - 1] % 2 and degrees[b - 1] % 2:
                eps = -eps
            line[pos], line[pos + 1] = b, a
            pos += 1
    return eps


def inverse(sigma):
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    return tuple(inv)


def permute_word(sigma, word):
    """The word (w_{sigma(1)}, ..., w_{sigma(n)})."""
    if len(sigma) != len(word):
        raise LengthError(f"permutation length {len(sigma)} != word length {len(word)}")
    return tuple(word[s - 1] for s in sigma)


def act(sigma, space, word, variant):
    """Apply rho1 or rho2 to a word; returns (chi(sigma; word), word o sigma)."""
    degrees = [space.degree(i) for i in word]
    coeff = koszul_sign_by_bubble(sigma, degrees)
    if variant == RHO2:
        coeff *= sign_by_cycles(sigma)
    elif variant != RHO1:
        raise ValueError(f"unknown action variant {variant!r}")
    return coeff, permute_word(sigma, word)


def extend_fixing_last(sigma, n):
    """View sigma in S_k as the element of S_n fixing the last n-k letters."""
    return tuple(sigma) + tuple(range(len(sigma) + 1, n + 1))


def mode_permutations(mode, n):
    if mode == MODE_FULL:
        return all_permutations(n)
    if mode == MODE_PARTIAL:
        return tuple(extend_fixing_last(s, n) for s in all_permutations(n - 1))
    if mode == MODE_SHUFFLE:
        return sh(n - 1, 1)
    raise ValueError(f"unknown symmetrization mode {mode!r}")


def precompose_by_loop(op, perms, variant):
    """Sum of op o rho_sigma over the given permutations, term by term."""
    terms = []
    for sigma in perms:
        inv = inverse(sigma)
        for target_word, combo in op.table.items():
            coeff, word = act(inv, op.space, target_word, variant)
            terms += ((word, out, c * coeff) for out, c in combo)
    return Operation(op.space, op.arity, op.degree, table_from_terms(terms))


def precompose_symmetrized_by_loop(op, variant, mode):
    return precompose_by_loop(op, mode_permutations(mode, op.arity), variant)


def failing_transposition_by_act(op, variant, full):
    """First (k, k+1), over the whole word or the first arity-1 slots, with
    op o rho_tau != op: the transpositions in order, the stored words inside
    each."""
    n = op.arity
    for k in range(1, n if full else n - 1):
        tau = list(range(1, n + 1))
        tau[k - 1], tau[k] = k + 1, k
        for word, combo in op.table.items():
            coeff, moved = act(tuple(tau), op.space, word, variant)
            if op.table.get(moved) != combo.scaled(coeff):
                return k, k + 1
    return None


def fold_by_words(space, arity, degree, terms, denominator, variant, mode):
    """`permutations.fold` with its move memoized per distinct word: each
    word's acted head is sorted once per word, however many words share
    that head."""
    odd = space.parities
    rho2 = variant == RHO2
    acted = acted_count(mode, arity)
    moves = {}

    def moved():
        for word, out, c in terms:
            move = moves.get(word)
            if move is None:
                head = list(word[:acted])
                chi = signed_sort(head, odd, rho2)
                move = moves[word] = (tuple(head) + word[acted:],
                                      chi * stabilizer_order(head, odd, rho2))
            rep, factor = move
            if factor:
                yield rep, out, c * factor

    return Folded(space, arity, degree, table_from_terms(moved()), denominator, variant, mode)


def expand_unreduced(folded):
    """The folded sum as an operation: every arrangement of every
    representative written with the fold's numerators over its
    denominator, and the whole expansion then reduced by its gcd in
    `Operation.from_numerators`."""
    odd = folded.space.parities
    rho2 = folded.variant == RHO2
    table = {}
    for rep, value in folded.table.items():
        head, tail = rep[:folded.acted], rep[folded.acted:]
        for chi, arrangement in arrangements(head, odd, rho2):
            table[arrangement + tail] = {x: chi * c for x, c in value.items()}
    return Operation.from_numerators(folded.space, folded.arity, folded.degree, table,
                                     folded.denominator)


SYMMETRIZATION = {PRELIE: MODE_PARTIAL, LIE: MODE_FULL}


def residual_coefficient(convention, kind, i, j, m):
    """c(i,j,m) of the `equations` module docstring."""
    c = Fraction(1)
    if convention == UNHAT and (j * (i - m - 1) + m) % 2:
        c = -c
    if kind == PRELIE:
        c /= factorial(i - 1) * factorial(j - 1)
    elif kind == LIE:
        c /= factorial(i - 1) * factorial(j)
    return c


def residual_by_positions(family, kind, n):
    """The arity-n residual of the family, as `equations` documents it:
    sum over i + j = n + 1 and every position m of
    c(i,j,m) mu_i o_m mu_j, then symmetrized."""
    ops = family.ops
    terms = []
    for i in sorted(ops):
        j = n + 1 - i
        if j not in ops:
            continue
        for m in range(i):
            terms.append((compose_insert(ops[i], ops[j], m),
                          residual_coefficient(family.convention, kind, i, j, m)))
    core = linear_sum(family.space, n, -2 if family.convention == HAT else n - 3, terms)
    if kind not in SYMMETRIZATION:
        return core
    return precompose_symmetrized(core, RHO1 if family.convention == HAT else RHO2,
                                  SYMMETRIZATION[kind])


def nary_residual_by_positions(mu, kind):
    """The n-ary residual of mu: sum over every position i of
    (-1)^(i(n-1)) mu o_i mu, scaled and symmetrized as `nary_residual`
    documents it."""
    n = mu.arity
    scale = {PRELIE: Fraction(1, factorial(n - 1) ** 2),
             LIE: Fraction(1, factorial(n - 1) * factorial(n))}.get(kind, Fraction(1))
    core = linear_sum(mu.space, 2 * n - 1, 2 * mu.degree, (
        (compose_insert(mu, mu, i), -scale if (i * (n - 1)) % 2 else scale)
        for i in range(n)))
    if kind not in SYMMETRIZATION:
        return core
    return precompose_symmetrized(core, RHO2, SYMMETRIZATION[kind])


def _relation_terms(kind, n, j):
    """(order, m) for each term of the arity-n relation with an arity-j
    inner operation: the inputs x_order[0], ..., x_order[n-1] fill the
    outer operation with the inner one at its slot m.  A∞ feeds it x_{m+1}
    .. x_{m+j} at every m; PL∞ feeds it each j-subset S of the inputs, every
    other input keeping its order: with x_n, whose output then fills the
    outer operation's last slot; without x_n, each t of S in the inner
    operation's last slot, its output in the outer operation's first."""
    i = n + 1 - j
    if kind == ASSOC:
        return [(tuple(range(n)), m) for m in range(i)]
    heads = range(n - 1)
    terms = [(tuple(x for x in heads if x not in inner) + inner + (n - 1,), i - 1)
             for inner in itertools.combinations(heads, j - 1)]
    return terms + [(tuple(x for x in inner if x != t) + (t,)
                     + tuple(x for x in heads if x not in inner) + (n - 1,), 0)
                    for inner in itertools.combinations(heads, j) for t in inner]


def residual_by_relation(family, kind, n):
    """The arity-n A∞ (assoc) or PL∞ (prelie) relation of the family,
    evaluated on every input word term by term as it is written, with no
    collapse of positions and no coefficient: a term (`_relation_terms`) of
    the outer mu_i and inner mu_j, i + j = n + 1, is mu_i(y_1 .. y_m,
    mu_j(y_{m+1} .. y_{m+j}), ..) on the rearranged inputs y, signed by the
    action's sign of the rearrangement (`koszul_sign_by_bubble`, times
    `sign_by_cycles` under unhat), Stasheff's (-1)^(m + j(i-m-1)) under
    unhat, and the Koszul sign of mu_j passing y_1 .. y_m."""
    sp, ops, unhat = family.space, family.ops, family.convention == UNHAT
    table = {}
    for word in itertools.product(range(sp.dim), repeat=n):
        degrees = [sp.degree(x) for x in word]
        terms = []
        for j in sorted(ops):
            i = n + 1 - j
            if i not in ops:
                continue
            for order, m in _relation_terms(kind, n, j):
                sigma = tuple(x + 1 for x in order)
                y = permute_word(sigma, word)
                sign = koszul_sign_by_bubble(sigma, degrees)
                if unhat:
                    sign *= sign_by_cycles(sigma) * (-1) ** (m + j * (i - m - 1))
                if ops[j].degree % 2 and sum(degrees[x] for x in order[:m]) % 2:
                    sign = -sign
                for middle, c in ops[j].evaluate(y[m:m + j]):
                    terms += ((out, sign * c * cc) for out, cc in
                              ops[i].evaluate(y[:m] + (middle,) + y[m + j:]))
        value = LinearCombination(terms)
        if value:
            table[word] = value
    return Operation(sp, n, n - 3 if unhat else -2, table)


def lie_residual_by_unshuffles(family, n):
    """The arity-n L∞ relation of a hat family as Lada and Markl write it:
    the sum over i + j = n + 1 and the (j, n - j)-unshuffles sigma of
    eps(sigma) l_i(l_j(x_s(1) .. x_s(j)), x_s(j+1) .. x_s(n)), evaluated on
    every input word, with the Koszul sign `koszul_sign_by_bubble` and no
    coefficient; the inner operation sits in the first slot, so it passes
    no letter."""
    sp, ops = family.space, family.ops
    table = {}
    for word in itertools.product(range(sp.dim), repeat=n):
        degrees = [sp.degree(x) for x in word]
        terms = []
        for j in sorted(ops):
            if n + 1 - j not in ops:
                continue
            for sigma in sh(j, n - j):
                y = permute_word(sigma, word)
                sign = koszul_sign_by_bubble(sigma, degrees)
                for middle, c in ops[j].evaluate(y[:j]):
                    terms += ((out, sign * c * cc)
                              for out, cc in ops[n + 1 - j].evaluate((middle,) + y[j:]))
        value = LinearCombination(terms)
        if value:
            table[word] = value
    return Operation(sp, n, -2, table)


def collapsed_positions(kind, i, coefficient):
    """(position, coefficient) of the insertions that stand for all i
    positions of an arity-i outer operation: position 0 with i times its
    coefficient for Lie; position 0 with i - 1 times its coefficient and
    position i - 1 for pre-Lie; every position for assoc."""
    if kind == LIE:
        return ((0, i * coefficient(0)),)
    if kind == PRELIE:
        last = ((i - 1, coefficient(i - 1)),)
        return last if i == 1 else ((0, (i - 1) * coefficient(0)),) + last
    return tuple((m, coefficient(m)) for m in range(i))


def fold_insertions(space, arity, degree, insertions, variant, mode):
    """P(sum of coeff * outer o_position inner) over the (outer, inner,
    position, coeff) insertions, every stored entry of both operands
    inserted, as integer numerators over one common denominator; P is
    `fold` in the given mode, or no symmetrization when mode is None."""
    insertions = [(outer, inner, position, coeff, outer.denominator * inner.denominator)
                  for outer, inner, position, coeff in insertions]
    den = lcm(*(coeff.denominator * operands for *_, coeff, operands in insertions))
    terms = itertools.chain.from_iterable(
        insertion_terms(outer, inner, position,
                        coeff.numerator * (den // (coeff.denominator * operands)))
        for outer, inner, position, coeff, operands in insertions)
    if mode is None:
        return Folded(space, arity, degree, table_from_terms(terms), den, variant, None)
    return fold(space, arity, degree, terms, den, variant, mode)


def residual_insertions_by_entries(family, kind, n):
    """The (outer, inner, position, coefficient) insertions of the arity-n
    residual in the collapsed form, on the whole operations."""
    ops = family.ops
    return [(ops[i], ops[n + 1 - i], m, c) for i in sorted(ops) if n + 1 - i in ops
            for m, c in collapsed_positions(kind, i, functools.partial(
                residual_coefficient, family.convention, kind, i, n + 1 - i))]


def residual_by_insertions(family, kind, n):
    """The arity-n residual of the family in the collapsed form, a
    `Folded` sum, with every stored entry of both operands inserted."""
    hat = family.convention == HAT
    return fold_insertions(family.space, n, -2 if hat else n - 3,
                           residual_insertions_by_entries(family, kind, n),
                           RHO1 if hat else RHO2, SYMMETRIZATION.get(kind))


def _circle_insertions_by_entries(f, g, sign=1):
    """The collapsed insertions of sign * f o g."""
    m, n = f.arity - 1, g.arity - 1
    scale = factorial(m) * factorial(n)
    return [(f, g, position, c) for position, c in collapsed_positions(
        PRELIE, m + 1, lambda p: Fraction(sign * (-1) ** (p * n), scale))]


def circle_product_by_insertions(f, g):
    """f o g: P of its collapsed insertions, every stored entry inserted."""
    return expand(fold_insertions(f.space, f.arity + g.arity - 1, 0,
                                  _circle_insertions_by_entries(f, g), RHO2, MODE_PARTIAL))


def circle_bracket_by_insertions(f, g):
    """[f, g]: P of the collapsed insertions of f o g and of g o f, scaled
    by -(-1)^(mn), every stored entry inserted, in one fold."""
    m, n = f.arity - 1, g.arity - 1
    insertions = (_circle_insertions_by_entries(f, g)
                  + _circle_insertions_by_entries(g, f, -(-1) ** (m * n)))
    return expand(fold_insertions(f.space, m + n + 1, 0, insertions, RHO2, MODE_PARTIAL))


def compose_insert_by_evaluation(outer, inner, position):
    """outer o (I_position (x) inner (x) I_rest) on every input word: the
    sign (-1)^(|inner| * (|x_1|+...+|x_position|)) times outer evaluated on
    the word with inner's value in place of its next inner.arity letters."""
    sp = outer.space
    j = inner.arity
    arity = outer.arity + j - 1
    table = {}
    for word in itertools.product(range(sp.dim), repeat=arity):
        head, rest = word[:position], word[position + j:]
        sign = -1 if inner.degree % 2 and word_degree(sp, head) % 2 else 1
        table[word] = LinearCombination(
            (out, sign * c_in * c_out)
            for letter, c_in in inner.evaluate(word[position:position + j])
            for out, c_out in outer.evaluate(head + (letter,) + rest))
    return Operation(sp, arity, outer.degree + inner.degree, table)


def circle_product_dense(f, g):
    """f o g from its unshuffle definition, evaluated on every input word."""
    sp = f.space
    m, n = f.arity - 1, g.arity - 1
    arity = m + n + 1
    swap_sign = -1 if (m * n) % 2 else 1

    first = [(sigma, sign_by_cycles(sigma)) for sigma in sh(n, 1, m - 1)]
    second = [(sigma, swap_sign * sign_by_cycles(sigma)) for sigma in sh(m, n)]

    table = {}
    for word in itertools.product(range(sp.dim), repeat=arity):
        slot = []
        for sigma, sgn in first:
            mapped = [word[s - 1] for s in sigma]
            inner = g.evaluate(tuple(mapped[:n + 1]))
            for mid, c_in in inner:
                outer = f.evaluate(tuple([mid] + mapped[n + 1:] + [word[-1]]))
                slot += ((out, c_in * c_out * sgn) for out, c_out in outer)
        for sigma, sgn in second:
            mapped = [word[s - 1] for s in sigma]
            inner = g.evaluate(tuple(mapped[m:] + [word[-1]]))
            for mid, c_in in inner:
                outer = f.evaluate(tuple(mapped[:m] + [mid]))
                slot += ((out, c_in * c_out * sgn) for out, c_out in outer)
        table[word] = LinearCombination(slot)
    return Operation(sp, arity, 0, table)


def circle_bracket_by_products(f, g, product=circle_product):
    """[f,g] = f o g - (-1)^(mn) g o f with both products made whole by
    `product` and subtracted as operations."""
    m, n = f.arity - 1, g.arity - 1
    return product(f, g) - product(g, f).scaled((-1) ** (m * n))


def pair_words(kind, sp, k):
    """The canonical words of weight k in `coalgebra_words` order, a Perm
    word spelled as the pair (head, tail): every word (tensor), the sorted
    words that `wedge_normalize` keeps (wedge), or such a head of weight
    k - 1 and a tail letter (perm)."""
    letters = range(sp.dim)
    if kind == TENSOR:
        return list(itertools.product(letters, repeat=k))
    sorted_words = [w for w in itertools.combinations_with_replacement(letters, k - (kind == PERM))
                    if wedge_normalize(sp, w)[1] is not None]
    if kind == WEDGE:
        return sorted_words
    return [(head, tail) for head in sorted_words for tail in letters]


def coproduct_terms_by_pairs(kind, space, word, i):
    """Terms ((left, right), sign) of the comultiplication of a word of left
    weight i, one branch per kind, a Perm word spelled (head, tail): the cut
    (tensor), the (i, n-i)-unshuffles (wedge), or the
    (i-1, 1, n-1-i)-unshuffles of the head with the tail kept (perm)."""
    if kind == TENSOR:
        yield (word[:i], word[i:]), 1
    elif kind == WEDGE:
        degrees = [space.degree(x) for x in word]
        for sigma in sh(i, len(word) - i):
            permuted = permute_word(sigma, word)
            yield (permuted[:i], permuted[i:]), koszul_sign_by_bubble(sigma, degrees)
    else:
        head, tail = word
        degrees = [space.degree(x) for x in head]
        for sigma in sh(i - 1, 1, len(head) - i):
            ph = permute_word(sigma, head)
            yield ((ph[:i - 1], ph[i - 1]), (ph[i:], tail)), koszul_sign_by_bubble(sigma, degrees)


def coalgebra_map_by_loop(name, space, word):
    """alpha of a wedge word, or gamma of a perm word (head | tail): the sum
    of eps(sigma) times the permuted word (or head, tail appended) over
    every sigma in S_n.  beta of a wedge word w_1 ... w_n: the sum over j of
    (-1)^(|w_j| (|w_j+1| + ... + |w_n|)) (w without w_j | w_j)."""
    if name == "beta":
        degrees = [space.degree(x) for x in word]
        signs = [-1 if d * sum(degrees[j + 1:]) % 2 else 1 for j, d in enumerate(degrees)]
        return LinearCombination(((word[:j] + word[j + 1:], x), signs[j])
                                 for j, x in enumerate(word))
    letters, tail = (word, ()) if name == "alpha" else (word[0], (word[1],))
    acted = (act(sigma, space, letters, RHO1) for sigma in all_permutations(len(letters)))
    return LinearCombination((moved + tail, chi) for chi, moved in acted)


def component_loop(op, kind, k, l):
    """The (k, l) coderivation component extending op (arity k - l + 1),
    from the sum over all k! (wedge) or (k-1)! (perm) permutations of each
    canonical word; as `coalgebra._components` yields it at weight k, with
    Perm words spelled as pairs."""
    sp = op.space
    a = op.arity
    comp = {}
    if kind == TENSOR:
        for word in pair_words(TENSOR, sp, k):
            acc = []
            for i in range(l):
                out = op.evaluate(word[i:i + a])
                if out.is_zero():
                    continue
                s = -1 if word_degree(sp, word[:i]) % 2 else 1
                acc += ((word[:i] + (letter,) + word[i + a:], c * s) for letter, c in out)
            _store(comp, word, acc)
        return comp

    if kind == WEDGE:
        # The l! (not (l-1)!) is forced by the coderivation law: a fully
        # symmetric operation makes each collapsed unshuffle term appear
        # l! * a! times in the symmetrized sum.
        norm = Fraction(1, factorial(l) * factorial(a))
        for word in pair_words(WEDGE, sp, k):
            degrees = [sp.degree(x) for x in word]
            acc = []
            for sigma in all_permutations(k):
                eps = koszul_sign_by_bubble(sigma, degrees)
                pw = permute_word(sigma, word)
                prefix_parity = 0
                for i in range(l):
                    out = op.evaluate(pw[i:i + a])
                    if not out.is_zero():
                        s = -1 if prefix_parity else 1
                        for letter, c in out:
                            ns, nw, _ = wedge_normalize(sp, pw[:i] + (letter,) + pw[i + a:])
                            if nw is not None:
                                acc.append((nw, norm * eps * s * ns * c))
                    prefix_parity ^= sp.degree(pw[i]) % 2
            _store(comp, word, acc)
        return comp

    # perm
    norm = Fraction(1, factorial(l - 1) * factorial(k - l))
    for head, tail in pair_words(PERM, sp, k):
        degrees = [sp.degree(x) for x in head]
        acc = []
        for sigma in all_permutations(k - 1):
            eps = koszul_sign_by_bubble(sigma, degrees)
            ph = permute_word(sigma, head)
            prefix_parity = 0
            for i in range(l - 1):
                out = op.evaluate(ph[i:i + a])
                if not out.is_zero():
                    s = -1 if prefix_parity else 1
                    for letter, c in out:
                        ns, nh, _ = wedge_normalize(sp, ph[:i] + (letter,) + ph[i + a:])
                        if nh is not None:
                            acc.append(((nh, tail), norm * eps * s * ns * c))
                prefix_parity ^= sp.degree(ph[i]) % 2
            out = op.evaluate(ph[l - 1:] + (tail,))
            if not out.is_zero():
                s = -1 if word_degree(sp, ph[:l - 1]) % 2 else 1
                ns, nh, _ = wedge_normalize(sp, ph[:l - 1])
                acc += (((nh, letter), norm * eps * s * ns * c) for letter, c in out)
        _store(comp, (head, tail), acc)
    return comp


def _store(comp, word, terms):
    """Sum the terms and keep the word's image when it is nonzero."""
    image = LinearCombination(terms)
    if image:
        comp[word] = image


def component_by_fractions(op, kind, k, l):
    """The (k, l) component extending op, summed in Fractions over
    `coproduct_terms_by_pairs`: canonical weight-k words to combinations of
    weight-l words, Perm words spelled as pairs."""
    sp = op.space
    odd = sp.parities
    table = op.table
    a = op.arity  # = k - l + 1
    if kind == TENSOR:
        def terms(word):
            prefix_parity = 0
            for i in range(l):
                out = table.get(word[i:i + a])
                if out is not None:
                    for letter, c in out:
                        yield word[:i] + (letter,) + word[i + a:], -c if prefix_parity else c
                prefix_parity ^= odd[word[i]]
    else:
        def terms(word):
            for (left, right), eps in coproduct_terms_by_pairs(kind, sp, word, a):
                tail = None
                if kind == PERM:
                    left, (right, tail) = left[0] + (left[1],), right
                out = table.get(left)
                if out is None:
                    continue
                for letter, c in out:
                    ns, w, _ = wedge_normalize(sp, (letter,) + right)
                    if w is not None:
                        yield w if tail is None else (w, tail), c if ns == eps else -c
            if kind == PERM:
                head, tail = word
                for (front, back), eps in coproduct_terms_by_pairs(WEDGE, sp, head, l - 1):
                    out = table.get(back + (tail,))
                    if out is None:
                        continue
                    if sum(odd[x] for x in front) % 2:
                        eps = -eps
                    for letter, c in out:
                        yield (front, letter), c if eps == 1 else -c

    comp = {}
    for word in pair_words(kind, sp, k):
        _store(comp, word, terms(word))
    return comp


def check_coderivation_by_fractions(D, cap=None):
    """The weight-1 part of the coderivation law, as
    `coalgebra.check_coderivation` documents it, with both sides summed in
    Fractions from the components' values."""
    cap = D.cap if cap is None else min(cap, D.cap)
    kind, sp, par = D.kind, D.space, D.space.parities
    cogenerator = [(a, component(D, a, 1)) for (a, l) in D.components if l == 1]

    def lhs(word):
        for u, c in apply_word(D, word):
            l = len(u)
            if l >= 2:
                for pair, s in coproduct_terms(kind, sp, u, l - 1):
                    yield pair, c * s

    def rhs(word, k):
        if k > 1:
            for (left, right), s in coproduct_terms(kind, sp, word, k - 1):
                for v, c in apply_word(D, left):
                    yield (v, right), c * s
        for a, comp in cogenerator:
            if a >= k:
                continue
            for (left, right), s in coproduct_terms(kind, sp, word, k - a):
                if sum(par[x] for x in left) % 2:
                    s = -s
                for v, c in comp.get(right, LinearCombination()):
                    yield (left, v), c * s

    return all(LinearCombination(lhs(word)) == LinearCombination(rhs(word, k))
               for k in range(1, cap + 1) for word in coalgebra_words(kind, sp, k))


def square_cogenerator_by_fractions(D, n):
    """The weight (n -> 1) component of D o D as
    `coalgebra.square_cogenerator_component` documents it, summed in
    Fractions from the components' values and written to every tensor word
    that projects onto a canonical word."""
    steps = [(component(D, n, l), component(D, l, 1)) for l in range(1, n + 1)]
    table = {}
    for cw in dict.fromkeys(word for image, _ in steps for word in image):
        part = LinearCombination((v[-1], c * cc) for image, cogenerator in steps
                                 for u, c in image.get(cw, ())
                                 for v, cc in cogenerator.get(u, ()))
        if not part:
            continue
        if D.kind == TENSOR:
            table[cw] = part
            continue
        head, tail = (cw, ()) if D.kind == WEDGE else (cw[:-1], cw[-1:])
        for chi, arrangement in arrangements(head, D.space.parities, False):
            table[arrangement + tail] = part.scaled(chi)
    return Operation(D.space, n, -2, table)


def coderivation_law_by_coproducts(D, cap=None):
    """Verify Delta o D = (D (x) Id + Id (x) D) o Delta on every canonical
    word of weight <= cap, with the Koszul sign of the degree -1 map D in
    the Id (x) D term.  A component of source weight <= cap whose table
    holds a source or image word that is not canonical fails: D is a map
    on the canonical words alone."""
    cap = D.cap if cap is None else min(cap, D.cap)
    words = {k: set(coalgebra_words(D.kind, D.space, k)) for k in range(1, cap + 1)}
    for (k, l), comp in D.components.items():
        if k <= cap and not all(source in words[k] and set(image) <= words[l]
                                for source, image in comp.items()):
            return False
    for k in range(1, cap + 1):
        for word in words[k]:
            lhs = LinearCombination((pair, c * cc) for w, c in apply_word(D, word)
                                    for pair, cc in comultiply(D.kind, D.space, w))
            if lhs != LinearCombination(_coderivation_rhs(D, word)):
                return False
    return True


def first_nonzero_square(D):
    """(word, D(D(word))) for the first canonical word, by weight up to the
    cap and in `coalgebra_words` order, whose whole square is nonzero; None
    when D o D vanishes there."""
    for k in range(1, D.cap + 1):
        for word in coalgebra_words(D.kind, D.space, k):
            image = D.square_word(word)
            if not image.is_zero():
                return word, image
    return None


def _coderivation_rhs(D, word):
    """Terms of (D (x) Id + Id (x) D) o Delta on one word."""
    for (left, right), c in comultiply(D.kind, D.space, word):
        for w, cc in apply_word(D, left):
            yield (w, right), c * cc
        if word_degree(D.space, left) % 2:
            c = -c
        for w, cc in apply_word(D, right):
            yield (left, w), c * cc


def serialize_document_by_json_dumps(doc):
    """The document as nested dicts and lists, written by json.dumps(indent=2)."""
    sp = doc.space
    operations = []
    for arity in doc.family.arities():
        op = doc.family.ops[arity]
        entries = []
        for word in sorted(op.table):
            combo = op.table[word]
            output = [{"label": sp.labels[out], "coeff": format_rational(c)}
                      for out, c in sorted(combo, key=lambda t: t[0])]
            entries.append({"inputs": [sp.labels[i] for i in word], "output": output})
        operations.append({"arity": arity, "entries": entries})
    raw = {
        "format": FORMAT,
        "space": {"basis": [{"label": l, "degree": d}
                            for l, d in zip(sp.labels, sp.degrees)]},
        "convention": doc.convention,
        "max_arity": doc.family.max_arity,
        "operations": operations,
    }
    if doc.declared_type is not None:
        name, n = doc.declared_type
        raw["declared_type"] = {"name": name} if n is None else {"name": name, "n": n}
    try:
        return json.dumps(raw, indent=2) + "\n"
    except ValueError as exc:  # an integer with more digits than str() converts
        raise DocumentError(f"cannot serialize: {exc}") from None


RATIONAL = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


def parse_rational_by_regex(text, path=""):
    if not isinstance(text, str):
        raise DocumentError(f"coefficient must be a 'p/q' string, got {text!r}", path)
    m = RATIONAL.match(text.strip())
    if not m:
        raise DocumentError(f"malformed rational {text!r}", path)
    try:
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError as exc:  # more digits than int() converts
        raise DocumentError(f"malformed rational: {exc}", path) from None
    if q == 0:
        raise DocumentError(f"malformed rational {text!r}: zero denominator", path)
    return Fraction(p, q)


def parse_document_by_fields(text) -> AlgebraDocument:
    """Parse and validate a document; raises DocumentError with a JSON-path
    location on any defect."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        raw = json.loads(text)
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer with too many digits
        raise DocumentError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply") from None

    fmt = _expect(raw, "format", "")
    if fmt != FORMAT:
        raise DocumentError(f"unsupported format {fmt!r} (expected {FORMAT!r})", "format")

    basis = _expect(_expect(raw, "space", ""), "basis", "space")
    if not isinstance(basis, list) or not basis:
        raise DocumentError("basis must be a non-empty list", "space.basis")
    degree_of = {}  # label -> degree, in basis order
    for idx, entry in enumerate(basis):
        path = f"space.basis[{idx}]"
        label = _expect(entry, "label", path)
        degree = _expect(entry, "degree", path)
        if not isinstance(label, str):
            raise DocumentError("label must be a string", path + ".label")
        _integer(degree, path + ".degree", "degree must be an integer")
        if label in degree_of:
            raise DocumentError(f"duplicate basis label {label!r}", path + ".label")
        degree_of[label] = degree
    sp = GradedSpace(tuple(degree_of), tuple(degree_of.values()))
    positions = sp.positions

    convention = _expect(raw, "convention", "")
    if convention not in (HAT, UNHAT):
        raise DocumentError(f"convention must be 'hat' or 'unhat', got {convention!r}", "convention")

    operations = raw.get("operations", [])
    if not isinstance(operations, list):
        raise DocumentError("operations must be a list", "operations")

    ops = {}
    seen_arities = set()
    coefficients = {}  # coefficient string -> its (numerator, denominator), each parsed once
    for oi, opdoc in enumerate(operations):
        opath = f"operations[{oi}]"
        arity = _integer(_expect(opdoc, "arity", opath), opath + ".arity",
                         "arity must be a positive integer", 1)
        if arity in seen_arities:
            raise DocumentError(f"duplicate operation at arity {arity}", opath + ".arity")
        seen_arities.add(arity)
        entries = _expect(opdoc, "entries", opath)
        if not isinstance(entries, list):
            raise DocumentError("entries must be a list", opath + ".entries")

        # an entry's defects are raised at paths relative to it, and the
        # prefix is formatted only on the way out; a word's terms are (letter, p, q)
        table = {}
        for ei, entry in enumerate(entries):
            try:
                inputs = _expect(entry, "inputs", "")
                if not isinstance(inputs, list) or len(inputs) != arity:
                    raise DocumentError(f"inputs must list exactly {arity} labels", ".inputs")
                word = tuple([positions.get(label) if isinstance(label, str) else None
                              for label in inputs])
                if None in word:
                    li = word.index(None)
                    raise DocumentError(f"unknown label {inputs[li]!r}", f".inputs[{li}]")
                if word in table:
                    raise DocumentError(f"duplicate entry for inputs {inputs}", ".inputs")
                output = _expect(entry, "output", "")
                if not isinstance(output, list):
                    raise DocumentError("output must be a list", ".output")
                terms = []
                for ti, term in enumerate(output):
                    try:
                        label = _expect(term, "label", "")
                        letter = positions.get(label) if isinstance(label, str) else None
                        if letter is None:
                            raise DocumentError(f"unknown label {label!r}", ".label")
                        text = _expect(term, "coeff", "")
                        coeff = coefficients.get(text) if text.__class__ is str else None
                        if coeff is None:
                            value = parse_rational(text, ".coeff")
                            coeff = coefficients[text] = value.numerator, value.denominator
                        terms.append((letter,) + coeff)
                    except DocumentError as exc:
                        raise exc.within(f".output[{ti}]") from None
                table[word] = terms
            except DocumentError as exc:
                raise exc.within(f"{opath}.entries[{ei}]") from None
        # one common denominator per operation; the words are checked above
        den = lcm(*{q for terms in table.values() for _, _, q in terms})
        numerators = {word: sums for word, terms in table.items()
                      if (sums := sum_by_key((x, p * (den // q)) for x, p, q in terms))}
        op = Operation.from_numerators(sp, arity, family_degree(convention, arity), numerators, den)
        if not op.is_zero():
            ops[arity] = op

    max_arity = _integer(raw.get("max_arity", max(seen_arities, default=1)), "max_arity",
                         "max_arity must be a positive integer", 1)
    if max_arity > MAX_ARITY:
        raise DocumentError(f"max_arity {max_arity} is above the limit {MAX_ARITY}", "max_arity")
    if seen_arities and max_arity < max(seen_arities):
        raise DocumentError(
            f"max_arity {max_arity} is below the largest operation arity {max(seen_arities)}",
            "max_arity")

    declared = raw.get("declared_type")
    declared_type = None
    if declared is not None:
        name = _expect(declared, "name", "declared_type")
        if name not in DECLARED_TYPES:
            raise DocumentError(f"unknown declared type {name!r}", "declared_type.name")
        n = declared.get("n")
        if name.endswith("_n"):
            _integer(n, "declared_type.n", f"declared type {name!r} requires a positive 'n'", 1)
            if n > MAX_ARITY:
                raise DocumentError(f"declared arity {n} is above the limit {MAX_ARITY}",
                                    "declared_type.n")
            if convention != UNHAT:
                raise DocumentError(f"declared type {name!r} needs the unhat convention",
                                    "convention")
            if any(degree != 0 for degree in degree_of.values()):
                raise DocumentError("n-ary documents require a degree-0 basis", "space.basis")
            if sorted(ops) not in ([], [n]):
                raise DocumentError(f"an n-ary document must have operations only at arity {n}",
                                    "operations")
        elif n is not None:
            raise DocumentError(f"declared type {name!r} takes no 'n'", "declared_type.n")
        declared_type = (name, n)

    family = OperationFamily(convention, sp, max_arity, ops)
    return AlgebraDocument(family, declared_type)
