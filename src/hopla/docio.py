"""The JSON algebra-description format.

A document carries a basis with degrees, a degree-convention tag, and the
structure constants of a family of operations.  Coefficients travel as
"p/q" strings so exactness survives the wire; JSON numbers are rejected.

    {
      "format": "hopla-algebra/1",
      "space": {"basis": [{"label": "e", "degree": 0}, ...]},
      "convention": "unhat",
      "max_arity": 3,
      "declared_type": {"name": "assoc_n", "n": 2},        // optional
      "operations": [
        {"arity": 2,
         "entries": [
           {"inputs": ["e", "t"],
            "output": [{"label": "t", "coeff": "1"}]}
         ]}
      ]
    }

The declared types are the kinds' types in the paper's dictionary,
`equations.KINDS`: a homotopy type (`a_infinity`, `pl_infinity`,
`l_infinity`) and an n-ary type per kind (`NARY_TYPES`).

`parse_document` is the one reader, and it validates as it reads: every
defect raises a `DocumentError` located at its JSON path, such as
`operations[0].entries[3].output[1].coeff`.  A missing field or a value that
is no object is worded by `_expect`, a non-integer or out-of-range integer by
`_integer`, and a bad coefficient by `parse_rational`.  A document with a
declared n-ary type must be the unhat family of its one operation, on a
degree-0 basis with nonzero operations only at arity n (`require_nary`,
which `nary-embed` applies too).  Fields are read by indexing, and those
helpers run only to word a defect; each distinct coefficient string is
parsed once, and a word with one output term is put over the operation's
common denominator without a sum.

`serialize_document` writes one fixed layout: the fields in the order
format, space, convention, max_arity, operations, declared_type; entries
sorted by input word and output terms by basis index; a two-space indent,
byte for byte what `json.dumps(indent=2)` gives, with strings ASCII-escaped.
So parse o serialize is the identity on canonicalized documents and derived
documents diff cleanly.  The layout is written directly and only the
strings go through `json.dumps`, whose C encoder serves no `indent`.  Each
label is formatted once, with the line break in front of it, and each
distinct (letter, numerator) output term once per operation: its coefficient
is the numerator over that operation's denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .equations import KINDS
from .errors import DocumentError
from .graded import (HAT, UNHAT, GradedSpace, Operation, OperationFamily, family_degree,
                     sum_by_key)

FORMAT = "hopla-algebra/1"

# The largest `max_arity` (and declared n-ary arity) a document may carry,
# and the largest `--max-arity`.  `check` computes a residual at every arity
# up to the cap, and residuals above twice the largest operation arity
# vanish identically, so a larger cap only adds work; a dense operation of
# arity 32 already has 2^32 table words on two letters.
MAX_ARITY = 32

# the declared types of an n-ary document, each with its arity n, and every
# declared type: the kinds' types in `equations.KINDS`
NARY_TYPES = tuple(kind.types[1] for kind in KINDS.values())
DECLARED_TYPES = (*(kind.types[0] for kind in KINDS.values()), *NARY_TYPES)

def parse_rational(text, path: str = "") -> Fraction:
    if not isinstance(text, str):
        raise DocumentError(f"coefficient must be a 'p/q' string, got {text!r}", path)
    # "p" or "p/q", each an optional '-' and decimal digits (Unicode Nd)
    p, slash, q = text.strip().partition("/")
    if not (p.removeprefix("-").isdecimal()
            and (not slash or q.removeprefix("-").isdecimal())):
        raise DocumentError(f"malformed rational {text!r}", path)
    try:
        if not slash:
            return Fraction(int(p))
        p, q = int(p), int(q)
    except ValueError as exc:  # more digits than int() converts
        raise DocumentError(f"malformed rational: {exc}", path) from None
    if q == 0:
        raise DocumentError(f"malformed rational {text!r}: zero denominator", path)
    return Fraction(p, q)


def format_rational(value: Fraction) -> str:
    return _format(value.numerator, value.denominator)


def _format(p: int, q: int) -> str:
    """"p" or "p/q" for the reduced fraction p/q, q > 0."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError as exc:  # more digits than str() converts
        raise DocumentError(f"coefficient too long to print: {exc}") from None


@dataclass
class AlgebraDocument:
    family: OperationFamily
    declared_type: tuple | None = None  # (name, n or None)

    @property
    def space(self) -> GradedSpace:
        return self.family.space

    @property
    def convention(self) -> str:
        return self.family.convention

    @property
    def nary_arity(self) -> int | None:
        """The declared n-ary arity n, or None when no n-ary type is declared."""
        declared = self.declared_type
        return declared[1] if declared and declared[0] in NARY_TYPES else None


def _expect(mapping, key, path):
    if not isinstance(mapping, dict):
        raise DocumentError("expected an object", path)
    if key not in mapping:
        raise DocumentError(f"missing field {key!r}", path)
    return mapping[key]


def _integer(value, path: str, message: str, minimum=None) -> int:
    """value, when it is a JSON integer of at least `minimum`; a
    DocumentError at `path` otherwise.  JSON booleans are not integers,
    though Python's bool is an int."""
    if value.__class__ is not int or (minimum is not None and value < minimum):
        raise DocumentError(message, path)
    return value


def parse_document(text) -> AlgebraDocument:
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
        # prefix is formatted only on the way out.  A field is read by
        # indexing; where that fails, _expect words the defect.  A word's
        # terms are (letter, (p, q)), and dens collects every q
        table = {}
        dens = set()
        for ei, entry in enumerate(entries):
            try:
                try:
                    inputs = entry["inputs"]
                except (KeyError, TypeError):
                    inputs = _expect(entry, "inputs", "")
                if not isinstance(inputs, list) or len(inputs) != arity:
                    raise DocumentError(f"inputs must list exactly {arity} labels", ".inputs")
                try:
                    # from a list: tuple() of a map over-allocates, which adds to peak RSS
                    word = tuple([positions[label] for label in inputs])
                except (KeyError, TypeError):  # an unknown label, or a list or object
                    li = [positions.get(label) if isinstance(label, str) else None
                          for label in inputs].index(None)
                    raise DocumentError(f"unknown label {inputs[li]!r}",
                                        f".inputs[{li}]") from None
                if word in table:
                    raise DocumentError(f"duplicate entry for inputs {inputs}", ".inputs")
                try:
                    output = entry["output"]
                except KeyError:
                    output = _expect(entry, "output", "")
                if not isinstance(output, list):
                    raise DocumentError("output must be a list", ".output")
                terms = []
                for ti, term in enumerate(output):
                    try:
                        try:
                            letter = positions[term["label"]]
                        except (KeyError, TypeError):
                            label = _expect(term, "label", "")
                            raise DocumentError(f"unknown label {label!r}", ".label") from None
                        try:
                            coeff = coefficients[term["coeff"]]
                        except (KeyError, TypeError):  # a new, a missing or a malformed one
                            text = _expect(term, "coeff", "")
                            value = parse_rational(text, ".coeff")
                            coeff = coefficients[text] = value.numerator, value.denominator
                        dens.add(coeff[1])
                        terms.append((letter, coeff))
                    except DocumentError as exc:
                        raise exc.within(f".output[{ti}]") from None
                table[word] = terms
            except DocumentError as exc:
                raise exc.within(f"{opath}.entries[{ei}]") from None
        # one common denominator per operation; a one-term word needs no sum
        den = lcm(*dens)
        numerators = {}
        for word, terms in table.items():
            if len(terms) == 1:
                ((x, (p, q)),) = terms
                if p:
                    numerators[word] = {x: p * (den // q)}
            elif sums := sum_by_key((x, p * (den // q)) for x, (p, q) in terms):
                numerators[word] = sums
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
        if name in NARY_TYPES:
            _integer(n, "declared_type.n", f"declared type {name!r} requires a positive 'n'", 1)
            if n > MAX_ARITY:
                raise DocumentError(f"declared arity {n} is above the limit {MAX_ARITY}",
                                    "declared_type.n")
        elif n is not None:
            raise DocumentError(f"declared type {name!r} takes no 'n'", "declared_type.n")
        declared_type = (name, n)

    doc = AlgebraDocument(OperationFamily(convention, sp, max_arity, ops), declared_type)
    if doc.nary_arity is not None:
        # an n-ary document is its own one-operation unhat family
        if convention != UNHAT:
            raise DocumentError(f"declared type {name!r} needs the unhat convention",
                                "convention")
        require_nary(doc.family, doc.nary_arity)
    return doc


def require_nary(family: OperationFamily, n: int) -> None:
    """The n-ary rules on a family read as its one operation at arity n: a
    degree-0 basis, and nonzero operations only at arity n.  The parser
    applies them to a document that declares an n-ary type, and
    `nary-embed` to every document it embeds."""
    if not family.space.is_concentrated_in_degree_zero():
        raise DocumentError("n-ary documents require a degree-0 basis", "space.basis")
    if family.ops.keys() - {n}:
        raise DocumentError(f"an n-ary document must have operations only at arity {n}",
                            "operations")


def _newline(depth: int) -> str:
    """A line break and `depth` two-space indents, as json.dumps(indent=2)
    starts each item `depth` levels deep."""
    return "\n" + "  " * depth


def _block(items, depth: int) -> str:
    """A JSON list of already-encoded items that sit `depth` levels deep."""
    if not items:
        return "[]"
    pad = _newline(depth)
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def serialize_document(doc: AlgebraDocument) -> str:
    # objects are written inline, one field per line at nK, K levels deep
    n1, n2, n3, n4, n5, n6, n7 = map(_newline, range(1, 8))
    sp = doc.space
    try:
        labels = [json.dumps(label) for label in sp.labels]
        basis = [f'{{{n4}"label": {label},{n4}"degree": {degree}{n3}}}'
                 for label, degree in zip(labels, sp.degrees)]
        # an inputs list's items, each label after the line break that starts it
        inputs = [n6 + label for label in labels]
        # an entry is head, its inputs, middle, its output terms, tail
        head, middle, tail = f'{{{n5}"inputs": [', f'{n5}],{n5}"output": [', f'{n5}]{n4}}}'
        operations = []
        for arity in doc.family.arities():
            table, den = doc.family.ops[arity].numerators, doc.family.ops[arity].denominator
            # each distinct (letter, numerator) term as an output item, formatted
            # once; its coefficient is the numerator over this operation's den
            terms = {(out, c): f'{n6}{{{n7}"label": {labels[out]},{n7}"coeff": '
                               f'"{_format(c // g, den // g)}"{n6}}}'
                     for out, c in {term for sums in table.values() for term in sums.items()}
                     for g in (gcd(c, den),)}
            entries = [f'{head}{",".join([inputs[i] for i in word])}{middle}'
                       f'{",".join([terms[t] for t in sorted(sums.items())])}{tail}'
                       for word, sums in sorted(table.items())]
            operations.append(f'{{{n3}"arity": {arity},{n3}"entries": {_block(entries, 4)}{n2}}}')
        declared = ""
        if doc.declared_type is not None:
            name, n = doc.declared_type
            n_field = "" if n is None else f',{n2}"n": {n}'
            declared = f',{n1}"declared_type": {{{n2}"name": {json.dumps(name)}{n_field}{n1}}}'
        return (f'{{{n1}"format": {json.dumps(FORMAT)},'
                f'{n1}"space": {{{n2}"basis": {_block(basis, 3)}{n1}}},'
                f'{n1}"convention": {json.dumps(doc.convention)},'
                f'{n1}"max_arity": {doc.family.max_arity},'
                f'{n1}"operations": {_block(operations, 2)}{declared}\n}}\n')
    except ValueError as exc:  # an integer with more digits than str() converts
        raise DocumentError(f"cannot serialize: {exc}") from None
