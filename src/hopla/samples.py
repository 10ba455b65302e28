"""Small concrete algebras that `selftest` runs its pipelines on."""

from __future__ import annotations

from .graded import UNHAT, Operation, OperationFamily, space


def dual_numbers() -> tuple:
    """K[t]/(t^2) in degree 0: unit e, nilpotent t."""
    sp = space(("e", 0), ("t", 0))
    e, t = 0, 1
    mu = Operation(sp, 2, 0, {
        (e, e): {e: 1},
        (e, t): {t: 1},
        (t, e): {t: 1},
    })
    return sp, mu


def upper_corner() -> tuple:
    """The associative span of the matrix units E11, E12: a*a = a, a*b = b,
    b*a = b*b = 0.  Noncommutative, so its commutator [a,b] = b is nonzero."""
    sp = space(("a", 0), ("b", 0))
    a, b = 0, 1
    mu = Operation(sp, 2, 0, {
        (a, a): {a: 1},
        (a, b): {b: 1},
    })
    return sp, mu


def nilpotent_dga() -> OperationFamily:
    """A 3-dimensional unital associative algebra with a nonzero square-zero
    differential of degree -1, packaged as an unhat family:

        basis e (degree 0, unit), t (degree 0), s (degree -1)
        d(t) = s, all other differentials zero
        t*t = t*s = s*t = s*s = 0

    The Leibniz rule holds: d(e*t) = d(t) = s = d(e)t + e d(t).
    """
    sp = space(("e", 0), ("t", 0), ("s", -1))
    e, t, s = 0, 1, 2
    d = Operation(sp, 1, -1, {(t,): {s: 1}})
    mu = Operation(sp, 2, 0, {
        (e, e): {e: 1},
        (e, t): {t: 1},
        (t, e): {t: 1},
        (e, s): {s: 1},
        (s, e): {s: 1},
    })
    return OperationFamily(UNHAT, sp, 4, {1: d, 2: mu})
