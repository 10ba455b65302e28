"""Every witness a report prints re-evaluates to its printed value."""

import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import with_entry
from oracles import first_nonzero_square
from hopla import drivers
from hopla.coalgebra import (PERM, TENSOR, WEDGE, extend_coderivation,
                             square_cogenerator_component)
from hopla.docio import format_rational
from hopla.drivers import generate_random, nary_operation, run_check, run_coderive
from hopla.equations import ASSOC, LIE, PRELIE, EquationFlavor, nary_residual, residual
from hopla.errors import DocumentError
from hopla.functors import suspend_family
from hopla.graded import HAT, UNHAT, GradedSpace, LinearCombination, OperationFamily
from hopla.permutations import RHO1, action_variant, failing_symmetry_generator

SYMMETRY = re.compile(r"(full|partial) symmetry at arity (\d+)$")
RESIDUAL = re.compile(r"(\w+)/(\w+) residual at arity (\d+)$")
NARY_RESIDUAL = re.compile(r"(\w+) residual at arity \d+$")
COMPONENT = re.compile(r"squared coderivation, cogenerator component at weight (\d+)$")
SQUARE = "squared coderivation vanishes up to the cap"
CAP = 3


def hat_family(doc):
    return suspend_family(doc.family) if doc.convention == UNHAT else doc.family


def printed(op, witness):
    """What evaluating op on the witness's inputs prints."""
    sp = op.space
    value = op.evaluate(tuple(sp.index(label) for label in witness["inputs"]))
    return [{"label": sp.labels[out], "coeff": format_rational(c)}
            for out, c in sorted(value, key=lambda t: t[0])]


def re_evaluates(doc, coderive_kind, name, witness) -> bool:
    m = SYMMETRY.match(name)
    if m:
        # the family `check` runs, an n-ary document's included
        n, family = int(m.group(2)), doc.family
        bad = failing_symmetry_generator(family.ops[n], action_variant(family.convention),
                                         full=m.group(1) == "full")
        return witness["arity"] == n and bad == tuple(witness["transposition"])
    if name == "symmetry precondition":
        op = hat_family(doc).ops[witness["arity"]]
        bad = failing_symmetry_generator(op, RHO1, full=coderive_kind == WEDGE)
        return bad == tuple(witness["transposition"])
    m = RESIDUAL.match(name)
    if m:
        flavor = EquationFlavor(m.group(1), m.group(2))
        res = residual(doc.family, flavor, int(m.group(3)), check_symmetry=False)
        return printed(res.op, witness) == witness["value"]
    m = NARY_RESIDUAL.match(name)
    if m and doc.nary_arity is not None:
        res = nary_residual(nary_operation(doc)[1], m.group(1), check_symmetry=False)
        return printed(res.op, witness) == witness["value"]
    assert name != SQUARE, "the whole-square line is derived and carries no witness"
    m = COMPONENT.match(name)
    assert m, f"no rule to re-evaluate {name!r}"
    D = extend_coderivation(hat_family(doc), coderive_kind, CAP)
    return printed(square_cogenerator_component(D, int(m.group(1))), witness) \
        == witness["value"]


@settings(max_examples=20)
@given(seed=st.integers(0, 10_000), dim=st.integers(2, 3),
       degrees=st.sampled_from([(0,), (0, 1), (-1, 0, 1)]),
       arities=st.sets(st.integers(1, 3), min_size=1),
       convention=st.sampled_from([HAT, UNHAT]),
       symmetrize=st.sampled_from(["none", "partial", "full"]))
def test_printed_witnesses_re_evaluate(seed, dim, degrees, arities, convention, symmetrize):
    try:
        doc = generate_random(dim, degrees, arities, 0.6, seed, convention=convention,
                              symmetrize=symmetrize)
    except DocumentError:   # degrees that reach no output letter: nothing to report
        return
    reports = [(run_check(doc, kind), None) for kind in (ASSOC, PRELIE, LIE)]
    reports += [(run_coderive(doc, kind, CAP), kind) for kind in (TENSOR, WEDGE, PERM)]
    for report, coderive_kind in reports:
        for check in report.checks:
            if check.passed:
                continue
            if check.witness is None:
                # only the whole-square line may fail without a witness: it
                # defers to a failing cogenerator component
                assert check.name == SQUARE
                assert any(COMPONENT.match(c.name) and not c.passed for c in report.checks)
                continue
            assert re_evaluates(doc, coderive_kind, check.name, check.witness), check.line()


def test_corrupted_coderivation_fails_the_law_line(monkeypatch):
    # A corrupted coderivation whose square vanishes on cogenerators but not
    # on the words (0, 1) and (0, 0, 1).  It is not a coderivation, so the
    # derived whole-square line passes; the law line is what refuses it.
    sp = GradedSpace(("u", "v"), (0, 0))
    doc = drivers.AlgebraDocument(OperationFamily(HAT, sp, 3, {}))
    word = (0, 1)
    real = drivers.extend_coderivation

    def corrupted(family, kind, cap):
        D = real(family, kind, cap)
        for w in ((0, 0, 1), word):
            D = with_entry(D, len(w), len(w), w, LinearCombination({w: 1}))
        return D

    monkeypatch.setattr(drivers, "extend_coderivation", corrupted)
    report = run_coderive(doc, WEDGE, 3)
    (failed,) = [c for c in report.checks if not c.passed]
    assert failed.name == "coderivation law up to the cap"
    assert failed.witness is None
    (square,) = [c for c in report.checks if c.name == SQUARE]
    assert square.passed and square.witness is None
    assert first_nonzero_square(corrupted(doc.family, WEDGE, 3)) \
        == (word, LinearCombination({word: Fraction(1)}))
