"""Slow reference implementations that the library's fast paths replaced.

Each one is the straightforward transcription of a definition and is kept
only so that tests can compare the fast path against it:

* `act` applies rho1 or rho2 to a word one whole permutation at a time,
  and `precompose_by_loop` applies op o rho_sigma that way;
* `precompose_symmetrized_by_loop` sums that over every permutation of the
  group a symmetrization mode names;
* `circle_product_dense` evaluates the unshuffle definition of the circle
  product on every one of the dim^(m+n+1) input words;
* `failing_transposition_by_act` walks the adjacent transpositions as
  whole permutations, applied with `act`;
* `coalgebra_map_by_loop` sums alpha and gamma over every permutation of
  the word or head;
* `component_loop` builds a coderivation component by summing the operation
  over every position of every permutation of each canonical word and
  dividing by the number of times each unshuffle term repeats;
* `residual_by_positions` and `nary_residual_by_positions` make one
  insertion per position, as the defining sums are written, and symmetrize
  their sum with the orbit kernel (itself checked against the loop above),
  with no collapse of positions;
* `coderivation_law_by_coproducts` checks the whole coderivation law,
  Delta o D against (D (x) Id + Id (x) D) o Delta with every coproduct
  term, on every canonical word up to the cap.
"""

import itertools
from fractions import Fraction
from math import factorial

from hopla.coalgebra import (PERM, TENSOR, WEDGE, coalgebra_words, comultiply, perm_words,
                             tensor_words, wedge_normalize, wedge_words)
from hopla.equations import LIE, PRELIE
from hopla.graded import (HAT, UNHAT, LinearCombination, Operation, compose_insert,
                          linear_sum, table_from_terms, word_degree)
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE, RHO1, RHO2,
                                all_permutations, koszul_sign, permute_word,
                                precompose_symmetrized, sh, sign)


def inverse(sigma):
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    return tuple(inv)


def act(sigma, space, word, variant):
    """Apply rho1 or rho2 to a word; returns (chi(sigma; word), word o sigma)."""
    degrees = [space.degree(i) for i in word]
    coeff = koszul_sign(sigma, degrees)
    if variant == RHO2:
        coeff *= sign(sigma)
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


SYMMETRIZATION = {PRELIE: MODE_PARTIAL, LIE: MODE_FULL}


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
            c = Fraction(1)
            if family.convention == UNHAT and (j * (i - m - 1) + m) % 2:
                c = -c
            if kind == PRELIE:
                c /= factorial(i - 1) * factorial(j - 1)
            elif kind == LIE:
                c /= factorial(i - 1) * factorial(j)
            terms.append((compose_insert(ops[i], ops[j], m), c))
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


def circle_product_dense(f, g):
    """f o g from its unshuffle definition, evaluated on every input word."""
    sp = f.space
    m, n = f.arity - 1, g.arity - 1
    arity = m + n + 1
    swap_sign = -1 if (m * n) % 2 else 1

    first = [(sigma, sign(sigma)) for sigma in sh(n, 1, m - 1)]
    second = [(sigma, swap_sign * sign(sigma)) for sigma in sh(m, n)]

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


def coalgebra_map_by_loop(name, space, word):
    """alpha of a wedge word, or gamma of a perm word (head | tail): the sum
    of eps(sigma) times the permuted word (or head, tail appended) over
    every sigma in S_n."""
    letters, tail = (word, ()) if name == "alpha" else (word[0], (word[1],))
    acted = (act(sigma, space, letters, RHO1) for sigma in all_permutations(len(letters)))
    return LinearCombination((moved + tail, chi) for chi, moved in acted)


def component_loop(op, kind, k, l):
    """The (k, l) coderivation component extending op (arity k - l + 1),
    from the sum over all k! (wedge) or (k-1)! (perm) permutations of each
    canonical word; as `coalgebra._component` returns it."""
    sp = op.space
    a = op.arity
    comp = {}
    if kind == TENSOR:
        for word in tensor_words(sp, k):
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
        for word in wedge_words(sp, k):
            degrees = [sp.degree(x) for x in word]
            acc = []
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
                                acc.append((nw, norm * eps * s * ns * c))
                    prefix_parity ^= sp.degree(pw[i]) % 2
            _store(comp, word, acc)
        return comp

    # perm
    norm = Fraction(1, factorial(l - 1) * factorial(k - l))
    for head, tail in perm_words(sp, k):
        degrees = [sp.degree(x) for x in head]
        acc = []
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
                            acc.append(((nh, tail), norm * eps * s * ns * c))
                prefix_parity ^= sp.degree(ph[i]) % 2
            out = op.evaluate(ph[l - 1:] + (tail,))
            if not out.is_zero():
                s = -1 if word_degree(sp, ph[:l - 1]) % 2 else 1
                ns, nh = wedge_normalize(sp, ph[:l - 1])
                acc += (((nh, letter), norm * eps * s * ns * c) for letter, c in out)
        _store(comp, (head, tail), acc)
    return comp


def _store(comp, word, terms):
    """Sum the terms and keep the word's image when it is nonzero."""
    image = LinearCombination(terms)
    if image:
        comp[word] = image


def coderivation_law_by_coproducts(D, cap=None):
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


def cofree_word_degree(space, kind, word):
    if kind == PERM:
        return word_degree(space, word[0] + (word[1],))
    return word_degree(space, word)


def _coderivation_rhs(D, word, odd):
    """Terms of (D (x) Id + Id (x) D) o Delta on one word."""
    for (left, right), c in comultiply(D.kind, D.space, word):
        for w, cc in D.apply_word(left):
            yield (w, right), c * cc
        if odd and cofree_word_degree(D.space, D.kind, left) % 2:
            c = -c
        for w, cc in D.apply_word(right):
            yield (left, w), c * cc
