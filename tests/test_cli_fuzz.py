"""Every verb that reads a document, run on structurally mutated documents.

Valid documents are mutated field by field: a field is dropped, duplicated
(a repeated key or list item) or retyped; an integer becomes huge,
negative, boolean or a float; a label becomes unknown; a word's length or
an operation's arity stops matching the other; a value is buried in deep
nesting; or a byte that is not UTF-8 is spliced into the text.  Each
mutated document then goes through `check` in every flavor, `derive` with
every functor (each written document read back by `check --flavor assoc`)
and `coderive` in every kind at a small weight cap.  The run must end in
exit 0, 1 or 2 with no exception escaping `cli.main`; a refusal (exit 2) is
one stderr line, `input error: ` and the refused field or argument, and
nothing else; every witness `check --json` prints re-evaluates to its
printed value; and whatever `derive` writes parses and serializes back to
the same bytes.
"""

import contextlib
import io
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hopla.cli import main
from hopla.coalgebra import PERM, TENSOR, WEDGE
from hopla.docio import AlgebraDocument, parse_document, serialize_document
from hopla.drivers import generate_random
from hopla.equations import ASSOC, LIE, PRELIE
from hopla.graded import HAT, UNHAT, GradedSpace, OperationFamily, family_degree
from hopla.verify import random_operation
from test_witnesses import re_evaluates

FUNCTORS = ("suspend", "desuspend", "commutator-alpha", "commutator-beta", "commutator-gamma",
            "nary-embed", "nary-commutator-prelie", "nary-commutator-lie")


def _nary_document(name, n, convention, seed):
    flat = GradedSpace(("e0", "e1"), (0, 0))
    mu = random_operation(random.Random(seed), flat, n, 0, 0.6)
    family = OperationFamily(convention, flat, 2 * n - 1,
                             {n: mu.with_degree(family_degree(convention, n))})
    return AlgebraDocument(family, (name, n))


def _flat_document(arities, seed):
    """An undeclared unhat document on a degree-0 basis with operations at
    several arities, which `nary-embed --n` refuses at `operations`."""
    flat = GradedSpace(("e0", "e1"), (0, 0))
    rng = random.Random(seed)
    ops = {n: random_operation(rng, flat, n, 0, 0.6).with_degree(n - 2) for n in arities}
    return AlgebraDocument(OperationFamily(UNHAT, flat, max(arities), ops), None)


def _homotopy_document(declared, **options):
    doc = generate_random(2, (0, 1), (1, 2, 3), 0.6, **options)
    return AlgebraDocument(doc.family, declared)


# small valid documents of every shape the verbs tell apart
BASES = tuple(json.loads(serialize_document(doc)) for doc in (
    _homotopy_document(None, seed=1, symmetrize="partial"),
    _homotopy_document(("a_infinity", None), seed=2, convention=HAT),
    _homotopy_document(("pl_infinity", None), seed=3, symmetrize="full", nilpotent=True),
    _nary_document("assoc_n", 3, UNHAT, 4),
    _nary_document("prelie_n", 2, HAT, 5),   # refused at `convention` by every verb
    _nary_document("prelie_n", 2, UNHAT, 7),
    _nary_document("lie_n", 3, UNHAT, 6),
    _flat_document((2, 3), 8),
    # `generate --dim 2 --arities 2 --seed 1`: `nary-embed --n 16` (or 3)
    # refuses it at `operations`, where it used to embed zero and drop arity 2
    generate_random(2, (0,), (2,), 0.5, seed=1),
))


class Pairs(list):
    """A JSON object written from (key, value) pairs, so a key may repeat."""


class Deep:
    """A value inside `depth` one-item lists."""

    def __init__(self, depth, value):
        self.depth, self.value = depth, value


class Raw(str):
    """JSON text written as it is: an integer with more digits than Python
    converts cannot be built as an int first."""


def _text(value) -> str:
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, Deep):   # iterative: the depth may exceed the recursion limit
        return "[" * value.depth + _text(value.value) + "]" * value.depth
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v)}" for k, v in value) + "}"
    if isinstance(value, dict):
        return _text(Pairs(value.items()))
    if isinstance(value, list):
        return "[" + ", ".join(_text(v) for v in value) + "]"
    return json.dumps(value)


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(item, path + (key,))


def _replace(value, path, new):
    """A copy of value with the node at `path` replaced by new(node)."""
    if not path:
        return new(value)
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replace(value[path[0]], path[1:], new)
    return copy


def _drop(owner, key):
    if isinstance(owner, list):
        return owner[:key] + owner[key + 1:]
    return {k: v for k, v in owner.items() if k != key}


def _duplicate(owner, key):
    if isinstance(owner, list):
        return owner[:key + 1] + owner[key:]
    return Pairs([*owner.items(), (key, owner[key])])


def _off_by(value, step):
    """One input more or fewer in a word; an arity moved off its words."""
    if isinstance(value, list):
        return value[:-1] if step < 0 else value + value[:1]
    return value + step if value.__class__ is int else value


RETYPED = ("x", "", [], {}, None, True, 1.5, 0, [1], {"label": "e0"})
INTEGERS = (10 ** 30, -(10 ** 30), Raw("9" * 4400), -1, 0, 1, 2, 3, 33, True, False, 2.0, 0.5)
LABELS = ("zz", "", "e0", "x0", "e@0", "a\nb")
NOT_UTF8 = (b"\xff", b"\xc3\x28", b"\xed\xa0\x80")
KINDS = ("drop", "duplicate", "retype", "integer", "label", "arity", "nest", "bytes")


@st.composite
def mutated(draw):
    """The bytes of a base document after one or two mutations."""
    doc, splice = draw(st.sampled_from(BASES)), None
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(doc))
        path, _ = draw(st.sampled_from(nodes))
        kind = draw(st.sampled_from(KINDS))
        if kind in ("drop", "duplicate") and path:
            edit = _drop if kind == "drop" else _duplicate
            doc = _replace(doc, path[:-1], lambda owner: edit(owner, path[-1]))
            if isinstance(doc, Pairs):
                break   # a repeated key at the root leaves no paths to walk
        elif kind in ("integer", "label", "arity"):
            wanted = {"integer": lambda p, v: v.__class__ is int,
                      "label": lambda p, v: isinstance(v, str),
                      "arity": lambda p, v: p and p[-1] in ("inputs", "arity")}[kind]
            target = draw(st.sampled_from([p for p, v in nodes if wanted(p, v)] or [path]))
            if kind == "arity":
                step = draw(st.sampled_from((-1, 1)))
                doc = _replace(doc, target, lambda v: _off_by(v, step))
            else:
                value = draw(st.sampled_from(INTEGERS if kind == "integer" else LABELS))
                doc = _replace(doc, target, lambda _: value)
        elif kind == "nest":
            depth = draw(st.sampled_from((1, 40, 3000)))
            doc = _replace(doc, path, lambda v: Deep(depth, v))
            break   # a Deep node has no paths to walk
        elif kind == "bytes":
            splice = draw(st.floats(0, 1)), draw(st.sampled_from(NOT_UTF8))
        else:
            value = draw(st.sampled_from(RETYPED))
            doc = _replace(doc, path, lambda _: value)
    data = _text(doc).encode()
    if splice is not None:
        at = int(splice[0] * len(data))
        data = data[:at] + splice[1] + data[at:]
    return data


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit(code, out, err, argv):
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert err.startswith("input error: "), (argv, err)
        assert out == "", argv


@settings(max_examples=250, derandomize=True, deadline=None)
@given(data=mutated(), cap=st.integers(1, 3), n=st.sampled_from((None, 2, 3, 16)))
def test_every_verb_survives_mutated_documents(tmp_path_factory, data, cap, n):
    folder = tmp_path_factory.mktemp("fuzz")
    source, written = folder / "doc.json", folder / "out.json"
    source.write_bytes(data)
    for flavor in (ASSOC, PRELIE, LIE):
        argv = ["check", str(source), "--flavor", flavor, "--json"]
        code, out, err = _run(argv)
        _assert_exit(code, out, err, argv)
        if code != 2:
            doc = parse_document(data)
            for check in json.loads(out)["checks"]:
                if not check["passed"]:
                    assert re_evaluates(doc, None, check["name"], check["witness"]), (argv, check)
    for kind in (TENSOR, WEDGE, PERM):
        argv = ["coderive", str(source), "--kind", kind, "--weight-cap", str(cap)]
        _assert_exit(*_run(argv), argv)
    for functor in FUNCTORS:
        argv = ["derive", str(source), "--functor", functor, "-o", str(written)]
        if functor == "nary-embed" and n is not None:
            argv += ["--n", str(n)]
        code, out, err = _run(argv)
        _assert_exit(code, out, err, argv)
        assert out == ""
        # a document is written exactly when derive succeeds
        assert written.exists() == (code == 0), argv
        if code == 0:
            text = written.read_text(encoding="utf-8")
            assert serialize_document(parse_document(text)) == text, argv
            check = ["check", str(written), "--flavor", ASSOC]
            code, out, err = _run(check)
            assert code in (0, 1), (argv, err)
            written.unlink()
