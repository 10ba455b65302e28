"""`--json` reports are written with the bytes `json.dumps(indent=2)` writes."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopla.cli import _json_text, main
from hopla.docio import AlgebraDocument, serialize_document
from hopla.graded import HAT, UNHAT, GradedSpace, Operation, OperationFamily
from hopla.permutations import MODE_FULL, MODE_PARTIAL, RHO2, precompose_symmetrized
from hopla.verify import random_operation

FIXTURES = Path(__file__).parent / "fixtures"
STRINGS = st.text() | st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "é ß 中", " 😀", "\ud800"])
FLOATS = st.floats() | st.sampled_from([1e-05, -0.0, 0.1, 1e16, 2.5e-308, 1.7976931348623157e308,
                                        float("nan"), float("inf"), float("-inf")])
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | STRINGS
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(JSON_VALUES)
def test_json_text_writes_the_bytes_of_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", [{"k": 1j}]],
                         ids=["set", "object", "bytes", "complex"])
def test_json_text_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _json_text(value)


def _documents(tmp_path):
    """Paths of documents whose reports carry passing and failing residual
    lines, failing symmetry lines, n-ary lines and coderive's symmetry
    precondition."""
    rng = random.Random("json-reports")
    sp = GradedSpace(("x0", "x1", "x2"), (0, 1, 0))
    unsymmetric = OperationFamily(UNHAT, sp, 3, {a: random_operation(rng, sp, a, a - 2, 0.6)
                                                 for a in (2, 3)})
    symmetric = OperationFamily(UNHAT, sp, 3, {
        a: precompose_symmetrized(op, RHO2, MODE_PARTIAL) for a, op in unsymmetric.ops.items()})
    hat = OperationFamily(HAT, sp, 3, {a: random_operation(rng, sp, a, -1, 0.6)
                                       for a in (1, 2)})
    mu = precompose_symmetrized(random_operation(rng, sp, 3, 0, 0.7), RHO2, MODE_FULL)
    nary = OperationFamily(UNHAT, sp, 3, {3: Operation(sp, 3, 1, mu.table)})
    yield str(FIXTURES / "dual_numbers.json")
    yield str(FIXTURES / "dual_numbers_broken.json")
    docs = [(unsymmetric, None), (symmetric, None), (hat, None), (nary, ("lie_n", 3)),
            (nary, ("assoc_n", 3))]
    for n, (family, declared) in enumerate(docs):
        path = tmp_path / f"doc{n}.json"
        path.write_text(serialize_document(AlgebraDocument(family, declared)))
        yield str(path)


def test_every_json_report_is_written_as_json_dumps_writes_it(tmp_path, capsys):
    # the CLI's bytes are json.dumps(indent=2)'s for the values they carry,
    # over every verb with a --json report
    seen = dict.fromkeys(("pass", "fail", "witness", "symmetry", "nary", "precondition",
                          "selftest", "refused"), 0)
    runs = [["selftest", "--fast", "--json"]]
    for path in _documents(tmp_path):
        runs += [["check", path, "--flavor", flavor, "--json"]
                 for flavor in ("assoc", "prelie", "lie")]
        runs += [["coderive", path, "--kind", kind, "--weight-cap", "3", "--json"]
                 for kind in ("tensor", "wedge", "perm")]
    for argv in runs:
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 2:
            assert "error" in err, argv
            seen["refused"] += 1
            continue
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n", argv
        checks = report["checks"]
        seen["pass"] += any(c["passed"] for c in checks)
        seen["fail"] += any(not c["passed"] for c in checks)
        seen["witness"] += any(c["witness"] and "inputs" in c["witness"] for c in checks)
        seen["symmetry"] += any(c["witness"] and "transposition" in c["witness"] for c in checks)
        # a family's residual lines name the convention ("lie/unhat"), an
        # n-ary document's do not
        seen["nary"] += any("residual" in c["name"] and "/" not in c["name"] for c in checks)
        seen["precondition"] += any(c["name"] == "symmetry precondition" for c in checks)
        seen["selftest"] += argv[0] == "selftest"
    assert all(seen.values()) and seen["refused"] < len(runs) // 2, seen
