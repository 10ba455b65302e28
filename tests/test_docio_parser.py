"""The document parser against `oracles.parse_document_by_fields` on
structurally mutated documents.  Both must accept the same documents, equal
and written to the same bytes, or refuse them with the same message at the
same JSON path."""

import copy
import json
import random
from fractions import Fraction

from conftest import derived_documents
from oracles import parse_document_by_fields, serialize_document_by_json_dumps
from hopla.docio import parse_document, serialize_document
from hopla.drivers import generate_random
from hopla.errors import DocumentError
from hopla.graded import HAT, UNHAT

TOO_LONG = "9" * 5000  # beyond Python's 4,300-digit int/str conversion limit

# what a mutation puts in a field: every JSON type, booleans and integers at
# the edges, labels and coefficients of the right and of the wrong shape
VALUES = [None, True, False, 0, 1, -1, 2, 3, 2 ** 70, 1.5, "", "x0", "a", "1", "1/2",
          [], {}, ["x0"], {"label": "x0"}, [["x0"]]]
LABELS = ["zz", "", 0, 1, None, True, 1.5, [], {}, ["x0"], {"label": "x0"}]
COEFFICIENTS = [1, 0, -1, 1.5, None, True, False, "0", "-0", "0/7", "1/0", "--1", "1/",
                "/2", " 2 ", "٣", "1/-3", "+1", "3/6", "1_0", "2/4", "-5/10", "7",
                TOO_LONG, "-" + TOO_LONG, "1/" + TOO_LONG, TOO_LONG[:4000], ["1"], {"p": 1}]
MUTANTS = 2000
DECLARED = [None, {"name": "assoc_n", "n": 2}, {"name": "prelie_n", "n": True},
            {"name": "lie_n"}, {"name": "a_infinity", "n": 2}, {"name": "l_infinity"},
            {"name": "nope"}, {"n": 2}, {"name": "assoc_n", "n": 33}, {"name": 3}]


def _base_documents():
    """Generated documents of both conventions, and derived ones."""
    shapes = [(2, [1, 2], UNHAT, "none"), (3, [2], UNHAT, "partial"),
              (2, [1, 2, 3], HAT, "full"), (3, [1, 2], HAT, "none")]
    for k, (dim, arities, convention, symmetrize) in enumerate(shapes):
        yield generate_random(dim, [-1, 0, 1], arities, 0.8, seed=k, convention=convention,
                              symmetrize=symmetrize)
    for _, doc in derived_documents(0):
        yield doc


def _slots(raw):
    """Every (container, key, parent key) below raw."""
    slots, stack = [], [(raw, None)]
    while stack:
        node, parent = stack.pop()
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            slots.append((node, key, parent))
            if isinstance(value, (dict, list)):
                stack.append((value, key))
    return slots


def _negated(text):
    try:
        return str(-Fraction(text))
    except (ValueError, ZeroDivisionError):  # a malformed one
        return "-" + text


def _mutate(rng, raw):
    """One structural defect, or a change the format allows, in place."""
    slots = _slots(raw)
    entries = [(node[key], ei) for node, key, _ in slots
               if key == "entries" and isinstance(node[key], list)
               for ei in range(len(node[key]))]
    labels = [s for s in slots if s[1] == "label" or s[2] == "inputs"]
    coeffs = [s for s in slots if s[1] == "coeff"]
    outputs = [s for s in slots if s[1] == "output" and isinstance(s[0][s[1]], list)
               and s[0][s[1]]]
    kind = rng.choice(["drop", "duplicate", "remove", "retype", "label", "coeff", "cancel",
                       "same word", "arity", "boolean", "declared"])
    if kind == "drop":
        fields = [s for s in slots if isinstance(s[0], dict)]
        if fields:
            node, key, _ = rng.choice(fields)
            del node[key]
    elif kind in ("duplicate", "remove"):
        items = [s for s in slots if isinstance(s[0], list)]
        if items:
            node, key, _ = rng.choice(items)
            if kind == "duplicate":
                node.insert(key, copy.deepcopy(node[key]))
            else:
                del node[key]
    elif kind == "retype":
        node, key, _ = rng.choice(slots)
        node[key] = copy.deepcopy(rng.choice(VALUES))
    elif kind == "label" and labels:
        known = [node[key] for node, key, _ in labels if isinstance(node[key], str)]
        node, key, _ = rng.choice(labels)
        node[key] = copy.deepcopy(rng.choice(LABELS + known))
    elif kind == "coeff" and coeffs:
        node, key, _ = rng.choice(coeffs)
        node[key] = copy.deepcopy(rng.choice(COEFFICIENTS))
    elif kind == "cancel" and outputs:
        # the same output letter twice, with coefficients that cancel or add
        node, key, _ = rng.choice(outputs)
        term = rng.choice(node[key])
        if isinstance(term, dict) and isinstance(term.get("coeff"), str):
            twin = dict(term)
            if rng.random() < 0.7:
                twin["coeff"] = _negated(term["coeff"])
            node[key].insert(rng.randrange(len(node[key]) + 1), twin)
    elif kind == "same word" and len(entries) > 1:
        (first, i), (second, j) = rng.sample(entries, 2)
        if isinstance(first[i], dict) and isinstance(second[j], dict) and "inputs" in second[j]:
            first[i]["inputs"] = copy.deepcopy(second[j]["inputs"])
    elif kind == "arity":
        arities = [s for s in slots if s[1] == "arity"]
        inputs = [s for s in slots if s[1] == "inputs" and isinstance(s[0][s[1]], list)]
        if arities and rng.random() < 0.5:
            node, key, _ = rng.choice(arities)
            node[key] = rng.choice([0, -1, 1, 2, 3, 4, 33]) + (rng.random() < 0.5)
        elif inputs:
            node, key, _ = rng.choice(inputs)
            word = node[key]
            if word and rng.random() < 0.5:
                word.pop(rng.randrange(len(word)))
            else:
                label = copy.deepcopy(rng.choice(word or ["x0"]))
                word.insert(rng.randrange(len(word) + 1), label)
    elif kind == "boolean":
        ints = [s for s in slots if s[1] in ("arity", "degree", "max_arity", "n")]
        if ints:
            node, key, _ = rng.choice(ints)
            node[key] = rng.choice([True, False])
        else:
            raw["max_arity"] = True
    elif kind == "declared":
        value = copy.deepcopy(rng.choice(DECLARED))
        if value is None:
            raw.pop("declared_type", None)
        else:
            raw["declared_type"] = value
        if rng.random() < 0.5:
            raw["max_arity"] = rng.choice([1, 2, 3, 5, 32, 33])


def _outcome(parse, text):
    try:
        doc = parse(text)
    except DocumentError as exc:
        return "refused", exc.message, exc.path
    try:
        written = serialize_document(doc)
    except DocumentError as exc:  # a coefficient too long to print once scaled
        written = exc.message
    return "accepted", doc, written


def test_parser_matches_the_field_by_field_parser_on_mutated_documents():
    rng = random.Random("docio-mutations")
    bases = [serialize_document(doc) for doc in _base_documents()]
    outcomes = {"accepted": 0, "refused": 0}
    messages = set()
    for k in range(MUTANTS):
        raw = json.loads(bases[k % len(bases)])
        for _ in range(rng.choice((1, 1, 2, 3))):
            _mutate(rng, raw)
        text = json.dumps(raw)
        fast, slow = _outcome(parse_document, text), _outcome(parse_document_by_fields, text)
        assert fast == slow, (k, text[:2000])
        outcomes[fast[0]] += 1
        if fast[0] == "refused":
            messages.add(" ".join(fast[1].split()[:2]))
        elif isinstance(fast[2], str) and fast[2].startswith("{"):
            assert fast[2] == serialize_document_by_json_dumps(slow[1])
    # both outcomes are common, and the refusals span the format's defects
    assert min(outcomes.values()) > MUTANTS // 10, outcomes
    assert len(messages) > 15, sorted(messages)
