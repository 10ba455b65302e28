"""The document writer and the coefficient parser against the slow
reference implementations in `oracles.py`: `json.dumps(indent=2)` over the
document as nested dicts, and the regex-only rational parser.  Generated
documents carry integer coefficients; the derived ones are rational and
multi-term."""

import gc
import itertools
from fractions import Fraction

import pytest

from conftest import derived_documents
from oracles import parse_rational_by_regex, serialize_document_by_json_dumps
from hopla.docio import AlgebraDocument, parse_document, parse_rational, serialize_document
from hopla.drivers import generate_random
from hopla.errors import DocumentError
from hopla.graded import HAT, UNHAT, GradedSpace, Operation, OperationFamily, family_degree

TOO_LONG = "9" * 5000  # beyond Python's 4,300-digit int/str conversion limit


def _same_bytes(doc):
    text = serialize_document(doc)
    assert text == serialize_document_by_json_dumps(doc)
    return text


def test_writer_matches_json_dumps_on_generated_documents():
    # each shape twice: once with every arity up to the top one, once with
    # the top arity alone
    cases = itertools.product(range(1, 6), (1, 2, 3, 4), (HAT, UNHAT),
                              ("none", "partial", "full"), (False, True))
    count = 0
    for k, (dim, top, convention, symmetrize, alone) in enumerate(cases):
        arities = [top] if alone else range(1, top + 1)
        try:
            doc = generate_random(dim, [-1, 0, 1, 2], arities, 0.7, seed=k,
                                  convention=convention, symmetrize=symmetrize)
        except DocumentError as exc:   # degrees that reach no output letter
            assert "reaches an output letter" in str(exc)
            continue
        text = _same_bytes(doc)
        assert parse_document(text).family == doc.family
        count += 1
    assert count >= 200


def test_writer_matches_json_dumps_on_derived_documents():
    functors = set()
    for seed in range(3):
        for functor, doc in derived_documents(seed):
            text = _same_bytes(doc)
            assert parse_document(text) == doc, functor
            ops = doc.family.ops.values()
            if (any(op.denominator > 1 for op in ops)
                    and any(len(sums) > 1 for op in ops for sums in op.numerators.values())):
                functors.add(functor)
    # every functor wrote some rational document with a multi-term output
    assert functors == {"commutator-alpha", "commutator-beta", "commutator-gamma", "suspend",
                        "desuspend", "nary-embed", "nary-commutator-prelie",
                        "nary-commutator-lie"}


def _family(labels, degrees, convention=UNHAT, tables=None, max_arity=3):
    sp = GradedSpace(tuple(labels), tuple(degrees))
    ops = {arity: Operation(sp, arity, family_degree(convention, arity), table)
           for arity, table in (tables or {}).items()}
    return OperationFamily(convention, sp, max_arity, ops)


# labels that json.dumps must escape: a quote, a backslash, non-ASCII
# letters, a tab and a control character, and the empty label
EDGE_LABELS = ['q"uote', "back\\slash", "ünï€", "tab\there\x01", ""]


# every table below is homogeneous: unhat arity 2 has degree 0 and arity 3
# degree 1, and hat arity 1 has degree -1
@pytest.mark.parametrize("doc", [
    AlgebraDocument(_family(["e"], [0])),
    AlgebraDocument(_family(["e"], [0], tables={2: {}})),
    AlgebraDocument(_family(["e", "t"], [0, 0], tables={2: {(0, 0): {1: 1}}}),
                    ("assoc_n", 2)),
    AlgebraDocument(_family(["e", "t"], [0, 0], tables={2: {(0, 0): {1: 1}}}),
                    ("a_infinity", None)),
    AlgebraDocument(_family(EDGE_LABELS, [0, 0, 0, 1, -1], tables={
        2: {(0, 1): {2: Fraction(-3, 7), 0: 5}, (4, 3): {2: -1}, (3, 4): {1: Fraction(1, 2)}},
        3: {(3, 4, 4): {0: 2}, (0, 0, 4): {2: -4}}})),
    AlgebraDocument(_family(["x", "y"], [-3, -2], convention=HAT,
                            tables={1: {(1,): {0: Fraction(-5, 2)}}}, max_arity=1),
                    ("l_infinity", None)),
    AlgebraDocument(_family([], [])),
    # the same (letter, numerator) terms, in several words each, over the
    # denominators 2 and 3: a term is formatted once per operation, not
    # once per document
    AlgebraDocument(_family(["x", "w", "y", "z"], [0, 0, 1, 1], tables={
        2: {(0, 2): {2: Fraction(1, 2), 3: Fraction(1, 2)}, (2, 1): {2: Fraction(1, 2)},
            (1, 3): {2: Fraction(1, 2), 3: -1}, (1, 2): {3: Fraction(1, 2)}},
        3: {(0, 0, 0): {2: Fraction(1, 3), 3: Fraction(1, 3)}, (1, 1, 1): {2: Fraction(1, 3)},
            (0, 1, 0): {2: Fraction(2, 3), 3: -1}, (1, 0, 0): {3: Fraction(1, 3)}}})),
], ids=["no-operations", "empty-table", "declared-with-n", "declared-without-n",
        "escaped-labels-rational-coefficients", "negative-degrees", "empty-basis",
        "shared-terms-over-two-denominators"])
def test_writer_matches_json_dumps_on_edge_cases(doc):
    text = _same_bytes(doc)
    if doc.space.dim:
        assert parse_document(text) == doc


@pytest.mark.parametrize("writer", [serialize_document, serialize_document_by_json_dumps])
def test_writer_refuses_a_degree_too_long_to_print(writer):
    doc = AlgebraDocument(_family(["e"], [10 ** 4300]))  # 4,301 digits
    with pytest.raises(DocumentError, match="cannot serialize"):
        writer(doc)


def test_writer_leaves_no_reference_cycles():
    doc = generate_random(3, [0, 1], [2, 3], 0.7, seed=7, symmetrize="partial")
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            serialize_document(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _outcome(parse, text):
    try:
        return parse(text, ".coeff")
    except DocumentError as exc:
        return exc.message, exc.path


@pytest.mark.parametrize("text", [
    "0", "-0", "-", "٣", "-٣", "²", "+3", "1_0", " 4 ", "4\n", "3/-6", "1/0", "",
    "12", "-12", "7/2", " -7/-2\t", "1/2/3", "1/", "/2", "--3", "3 /4", "-/-", 5,
    pytest.param(TOO_LONG, id="long"),
    pytest.param("-" + TOO_LONG, id="long-negative"),
    pytest.param(TOO_LONG + "/7", id="long-numerator"),
])
def test_parse_rational_matches_the_regex_parser(text):
    fast, slow = _outcome(parse_rational, text), _outcome(parse_rational_by_regex, text)
    assert fast == slow
    assert fast.__class__ is slow.__class__
