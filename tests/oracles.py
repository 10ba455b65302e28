"""Slow reference implementations that the library's fast paths replaced.

Each one is the straightforward transcription of a definition and is kept
only so that tests can compare the fast path against it:

* `precompose_by_loop` applies op o rho_sigma one permutation at a time;
* `precompose_symmetrized_by_loop` sums that over every permutation of the
  group a symmetrization mode names;
* `circle_product_dense` evaluates the unshuffle definition of the circle
  product on every one of the dim^(m+n+1) input words.
"""

import itertools

from hopla.graded import Operation, accumulate, finish_combination
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, MODE_SHUFFLE, RHO1, RHO2,
                                all_permutations, inverse, koszul_sign,
                                permute_word, sh, sign)


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
    sp = op.space
    acc = {}
    for sigma in perms:
        inv = inverse(sigma)
        for target_word, combo in op.table.items():
            word = permute_word(inv, target_word)
            degrees = [sp.degree(i) for i in word]
            coeff = koszul_sign(sigma, degrees)
            if variant == RHO2:
                coeff *= sign(sigma)
            elif variant != RHO1:
                raise ValueError(f"unknown action variant {variant!r}")
            slot = acc.setdefault(word, {})
            for out, c in combo:
                accumulate(slot, out, c * coeff)
    table = {w: finish_combination(d) for w, d in acc.items()}
    return Operation(sp, op.arity, op.degree, table)


def precompose_symmetrized_by_loop(op, variant, mode):
    return precompose_by_loop(op, mode_permutations(mode, op.arity), variant)


def circle_product_dense(f, g):
    """f o g from its unshuffle definition, evaluated on every input word."""
    sp = f.space
    m, n = f.arity - 1, g.arity - 1
    arity = m + n + 1
    swap_sign = -1 if (m * n) % 2 else 1

    first = [(sigma, sign(sigma)) for sigma in sh(n, 1, m - 1)]
    second = [(sigma, swap_sign * sign(sigma)) for sigma in sh(m, n)]

    acc = {}
    for word in itertools.product(range(sp.dim), repeat=arity):
        slot = {}
        for sigma, sgn in first:
            mapped = [word[s - 1] for s in sigma]
            inner = g.evaluate(tuple(mapped[:n + 1]))
            for mid, c_in in inner:
                outer = f.evaluate(tuple([mid] + mapped[n + 1:] + [word[-1]]))
                for out, c_out in outer:
                    accumulate(slot, out, c_in * c_out * sgn)
        for sigma, sgn in second:
            mapped = [word[s - 1] for s in sigma]
            inner = g.evaluate(tuple(mapped[m:] + [word[-1]]))
            for mid, c_in in inner:
                outer = f.evaluate(tuple(mapped[:m] + [mid]))
                for out, c_out in outer:
                    accumulate(slot, out, c_in * c_out * sgn)
        if slot:
            acc[word] = finish_combination(slot)
    return Operation(sp, arity, 0, acc)
