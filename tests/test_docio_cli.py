import argparse
import itertools
import json
import os
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (DEGREE_PATTERNS, LIE_COEFFICIENT_XFAIL, benchmark_inputs, identity,
                      matrix_product_document)
from oracles import (failing_transposition_by_act, nary_residual_by_positions,
                     precompose_by_loop, residual_by_insertions, residual_by_positions,
                     residual_insertions_by_entries)
from hopla import cli, drivers
from hopla.cli import main
from hopla.docio import (DECLARED_TYPES, MAX_ARITY, AlgebraDocument, parse_document,
                         parse_rational, serialize_document)
from hopla.coalgebra import PERM, TENSOR, WEDGE, word_count
from hopla.drivers import (COMMUTATOR_FUNCTORS, MAX_CHECK_TERMS, MAX_CODERIVE_WORK,
                           MAX_DERIVE_ENTRIES, MAX_GENERATE_WORDS, _residual_witness,
                           generate_random, nary_operation, run_check, run_derive,
                           run_selftest)
from hopla.equations import (ASSOC, KINDS, LIE, PARTIALLY_ASSOCIATIVE, PRELIE, EquationFlavor,
                             residual, residual_insertions)
from hopla.errors import ConventionError, DocumentError
from hopla.graded import (HAT, UNHAT, GradedSpace, LinearCombination, Operation,
                          OperationFamily, check_homogeneous, family_degree,
                          insertion_term_count)
from hopla.permutations import (MODE_FULL, MODE_PARTIAL, RHO2, action_variant,
                                failing_symmetry_generator, precompose_symmetrized)
from hopla.samples import dual_numbers
from hopla.verify import random_operation

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOOD = os.path.join(FIXTURES, "dual_numbers.json")
BROKEN = os.path.join(FIXTURES, "dual_numbers_broken.json")
# unhat M_2 with E12 in degree -1 and E21 in degree +1, mu2 the matrix
# product and mu1 the graded commutator with E12: a dga whose composites do
# not vanish one by one, so pairs of arities meet in its residuals
GRADED_DGA = os.path.join(FIXTURES, "graded_dga_m2.json")


def minimal_doc(**overrides):
    raw = {
        "format": "hopla-algebra/1",
        "space": {"basis": [{"label": "e", "degree": 0}]},
        "convention": "unhat",
        "operations": [],
    }
    raw.update(overrides)
    return json.dumps(raw)


def test_parse_minimal_document():
    doc = parse_document(minimal_doc())
    assert doc.family.arities() == []
    assert doc.space.labels == ("e",)


def test_parse_rational_values():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("4/-6") == Fraction(-2, 3)
    with pytest.raises(DocumentError):
        parse_rational("1/0")
    with pytest.raises(DocumentError):
        parse_rational("0.5")
    with pytest.raises(DocumentError):
        parse_rational("")


def test_parse_rejects_unknown_label():
    raw = minimal_doc(operations=[{"arity": 1, "entries": [
        {"inputs": ["zz"], "output": []}]}])
    with pytest.raises(DocumentError) as err:
        parse_document(raw)
    assert "inputs" in err.value.path


FIRST_ENTRY = {"inputs": ["e", "e"], "output": [{"label": "e", "coeff": "1"}]}


@pytest.mark.parametrize("entry, path, message", [
    ({"inputs": ["e", "zz"], "output": []}, "operations[1].entries[1].inputs[1]",
     "unknown label 'zz'"),
    ({"inputs": ["e", ["e"]], "output": []}, "operations[1].entries[1].inputs[1]",
     "unknown label ['e']"),
    ({"inputs": ["e"], "output": []}, "operations[1].entries[1].inputs",
     "inputs must list exactly 2 labels"),
    ({"inputs": ["e", "e"], "output": []}, "operations[1].entries[1].inputs",
     "duplicate entry for inputs ['e', 'e']"),
    ({"inputs": ["e", "t"], "output": {"label": "e"}}, "operations[1].entries[1].output",
     "output must be a list"),
    ({"inputs": ["e", "t"], "output": [{"label": "e", "coeff": "1"}, {"label": "zz"}]},
     "operations[1].entries[1].output[1].label", "unknown label 'zz'"),
    ({"inputs": ["e", "t"], "output": [{"label": "e", "coeff": "1/0"}]},
     "operations[1].entries[1].output[0].coeff", "malformed rational '1/0': zero denominator"),
    ({"inputs": ["e", "t"], "output": [{"label": "e", "coeff": 1}]},
     "operations[1].entries[1].output[0].coeff", "coefficient must be a 'p/q' string, got 1"),
    ({"inputs": ["e", "t"], "output": [{"label": "e"}]},
     "operations[1].entries[1].output[0]", "missing field 'coeff'"),
    ({"output": []}, "operations[1].entries[1]", "missing field 'inputs'"),
    ({"inputs": ["e", "t"]}, "operations[1].entries[1]", "missing field 'output'"),
    ("e", "operations[1].entries[1]", "expected an object"),
])
def test_parse_pins_the_path_of_every_entry_error(entry, path, message):
    # the second entry of the second operation, so both indices show
    raw = minimal_doc(
        space={"basis": [{"label": "e", "degree": 0}, {"label": "t", "degree": 0}]},
        operations=[{"arity": 1, "entries": []},
                    {"arity": 2, "entries": [FIRST_ENTRY, entry]}])
    with pytest.raises(DocumentError) as err:
        parse_document(raw)
    assert err.value.path == path
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("bad, message", [
    ("1/0", "malformed rational '1/0': zero denominator"),
    ("1.5", "malformed rational '1.5'"),
    (["1"], "coefficient must be a 'p/q' string, got ['1']"),
])
def test_parse_refuses_a_malformed_coefficient_after_valid_repeats(bad, message):
    # each distinct coefficient string is parsed once per document; a bad
    # coefficient that follows repeats of other, valid strings is still
    # refused, at its own path, and an unhashable one is no exception
    basis = {"basis": [{"label": "e", "degree": 0}, {"label": "t", "degree": 0}]}
    repeats = [{"inputs": [a, b], "output": [{"label": "e", "coeff": "-1/2"},
                                             {"label": "t", "coeff": "3"}]}
               for a, b in (("e", "e"), ("e", "t"), ("t", "e"))]
    valid = parse_document(minimal_doc(space=basis, operations=[
        {"arity": 2, "entries": repeats}]))
    assert {w: dict(c) for w, c in valid.family.ops[2].table.items()} == {
        w: {0: Fraction(-1, 2), 1: Fraction(3)} for w in ((0, 0), (0, 1), (1, 0))}
    last = {"inputs": ["t", "t"], "output": [{"label": "t", "coeff": "3"},
                                             {"label": "e", "coeff": bad}]}
    with pytest.raises(DocumentError) as err:
        parse_document(minimal_doc(space=basis, operations=[
            {"arity": 2, "entries": repeats + [last]}]))
    path = "operations[0].entries[3].output[1].coeff"
    assert err.value.path == path
    assert str(err.value) == f"{path}: {message}"


def test_parse_rejects_duplicate_entry():
    raw = minimal_doc(operations=[{"arity": 1, "entries": [
        {"inputs": ["e"], "output": [{"label": "e", "coeff": "1"}]},
        {"inputs": ["e"], "output": [{"label": "e", "coeff": "2"}]}]}])
    with pytest.raises(DocumentError) as err:
        parse_document(raw)
    assert "duplicate" in str(err.value)


def test_parse_rejects_version_mismatch():
    with pytest.raises(DocumentError):
        parse_document(minimal_doc(format="hopla-algebra/99"))


def test_parse_rejects_float_coefficient():
    raw = minimal_doc(operations=[{"arity": 1, "entries": [
        {"inputs": ["e"], "output": [{"label": "e", "coeff": 0.5}]}]}])
    with pytest.raises(DocumentError):
        parse_document(raw)


def test_serialize_parse_round_trip():
    with open(GOOD) as handle:
        text = handle.read()
    doc = parse_document(text)
    assert serialize_document(doc) == text
    doc2 = parse_document(serialize_document(doc))
    assert doc2.family == doc.family
    assert doc2.declared_type == doc.declared_type


def test_run_check_passes_on_fixture():
    with open(GOOD) as handle:
        doc = parse_document(handle.read())
    report = run_check(doc, ASSOC)
    assert report.passed


def test_run_check_empty_family_passes():
    doc = parse_document(minimal_doc(max_arity=3))
    for kind in (ASSOC, PRELIE, LIE):
        assert run_check(doc, kind).passed


def test_run_check_witness_is_reproducible():
    with open(BROKEN) as handle:
        doc = parse_document(handle.read())
    report = run_check(doc, ASSOC)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    witness = failed[0].witness
    # re-run the printed inputs through the residual by hand
    from hopla.equations import nary_residual
    n, mu = nary_operation(doc)
    res = nary_residual(mu, "partially_associative", check_symmetry=False)
    word = tuple(doc.space.index(l) for l in witness["inputs"])
    value = res.op.evaluate(word)
    printed = {doc.space.index(t["label"]): parse_rational(t["coeff"])
               for t in witness["value"]}
    assert dict(value.terms) == printed


def test_run_derive_beta_then_lie_check(corner):
    sp, mu = corner
    doc = AlgebraDocument(OperationFamily(UNHAT, sp, 3, {2: mu}), ("prelie_n", 2))
    derived = run_derive(doc, "nary-commutator-lie")
    assert derived.declared_type == ("lie_n", 2)
    report = run_check(derived, LIE)
    assert report.passed


def test_run_derive_commutator_beta_homotopy(graded2, rng):
    from hopla.verify import random_unhat_family
    fam = random_unhat_family(rng, graded2, (1, 2), symmetrize="partial")
    doc = AlgebraDocument(fam)
    derived = run_derive(doc, "commutator-beta")
    from hopla.functors import commutator
    assert derived.family == commutator(fam, "beta")


def test_run_derive_nary_embed_zero(flat2):
    doc = AlgebraDocument(OperationFamily(UNHAT, flat2, 3, {}), ("prelie_n", 3))
    derived = run_derive(doc, "nary-embed")
    assert derived.space.dim == 6
    assert derived.family.arities() == []
    assert derived.declared_type == ("pl_infinity", None)


def test_generate_is_deterministic():
    a = generate_random(3, [0, 1], [2, 3], 0.5, seed=42, symmetrize="partial")
    b = generate_random(3, [0, 1], [2, 3], 0.5, seed=42, symmetrize="partial")
    assert serialize_document(a) == serialize_document(b)
    c = generate_random(3, [0, 1], [2, 3], 0.5, seed=43, symmetrize="partial")
    assert serialize_document(a) != serialize_document(c)


def test_generate_symmetrize_partial():
    doc = generate_random(3, [0, 1], [2, 3], 0.7, seed=7, symmetrize="partial")
    for op in doc.family.ops.values():
        assert failing_symmetry_generator(op, RHO2, full=False) is None


def test_generate_sparsity_zero_is_empty():
    doc = generate_random(3, [0], [2], 0.0, seed=1)
    assert doc.family.arities() == []


def test_cli_check_exit_codes(capsys):
    assert main(["check", GOOD, "--flavor", "assoc"]) == 0
    assert main(["check", BROKEN, "--flavor", "assoc"]) == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_cli_check_json_output(capsys):
    assert main(["check", GOOD, "--flavor", "assoc", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


def test_cli_max_arity_caps_homotopy_checks(tmp_path, capsys):
    gen = tmp_path / "g.json"
    assert main(["generate", "--dim", "3", "--degrees", "0,1", "--arities", "2",
                 "--sparsity", "0.8", "--seed", "4", "--symmetrize", "partial",
                 "--nilpotent", "-o", str(gen)]) == 0
    assert main(["check", str(gen), "--flavor", "prelie", "--max-arity", "2",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    residual_lines = [c for c in payload["checks"] if "residual" in c["name"]]
    assert len(residual_lines) == 2


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad), "--flavor", "assoc"]) == 2
    assert main(["check", str(tmp_path / "missing.json"), "--flavor", "assoc"]) == 2


FUNCTORS = ("suspend", "desuspend", "commutator-alpha", "commutator-beta", "commutator-gamma",
            "nary-embed", "nary-commutator-prelie", "nary-commutator-lie")
TOO_LONG = "9" * 5000  # beyond Python's 4,300-digit int/str conversion limit


@pytest.mark.parametrize("content", [
    b"\xff\xfe not utf-8",
    minimal_doc().replace('"degree": 0', '"degree": ' + TOO_LONG).encode(),
    minimal_doc(max_arity=1).replace('"max_arity": 1', '"max_arity": ' + TOO_LONG).encode(),
    minimal_doc(operations=[{"arity": 1, "entries": [
        {"inputs": ["e"], "output": [{"label": "e", "coeff": TOO_LONG + "/7"}]}]}]).encode(),
    b"[" * 100_000,
], ids=["not-utf8", "long-degree", "long-max-arity", "long-coefficient", "deeply-nested"])
def test_cli_unreadable_document_is_input_error(tmp_path, capsys, content):
    # every verb that reads a document refuses it the same way
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    for verb, flag, choices in (("check", "--flavor", (ASSOC, PRELIE, LIE)),
                                ("derive", "--functor", FUNCTORS),
                                ("coderive", "--kind", (TENSOR, WEDGE, PERM))):
        for choice in choices:
            argv = [verb, str(path), flag, choice]
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert "input error" in err and "Traceback" not in err and out == "", argv


@pytest.mark.parametrize("coeff", [TOO_LONG, "-" + TOO_LONG], ids=["positive", "negative"])
def test_plain_integer_coefficient_too_long_is_located(tmp_path, capsys, coeff):
    text = minimal_doc(operations=[{"arity": 1, "entries": [
        {"inputs": ["e"], "output": [{"label": "e", "coeff": coeff}]}]}])
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert err.value.path == "operations[0].entries[0].output[0].coeff"
    assert err.value.message.startswith("malformed rational: ")
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["check", str(path), "--flavor", "assoc"]) == 2
    assert "input error: operations[0].entries[0].output[0].coeff" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["generate", "--dim", "2", "--seed", "1"],
    ["derive", GOOD, "--functor", "nary-embed"],
], ids=["generate", "derive"])
def test_cli_output_into_missing_directory_is_input_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.json"
    assert main(argv + ["-o", str(out)]) == 2
    assert "input error: cannot write" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("flag", ["--degrees", "--arities"])
def test_cli_generate_rejects_non_integer_lists(flag, capsys):
    assert main(["generate", "--dim", "2", "--seed", "1", flag, "a"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--dim", "1", "--arities", str(MAX_ARITY + 1)], f"above the limit {MAX_ARITY}"),
    (["--dim", "2", "--arities", str(MAX_ARITY)], f"more than {MAX_GENERATE_WORDS:,} words"),
    (["--dim", "11", "--arities", "2,5"], f"more than {MAX_GENERATE_WORDS:,} words"),
    (["--dim", "10" + "0" * 4000, "--arities", "2"], f"more than {MAX_GENERATE_WORDS:,} words"),
    (["--dim", "2", "--sparsity", "nan"], "sparsity must lie in [0, 1], got nan"),
    (["--dim", "2", "--sparsity=-0.5"], "sparsity must lie in [0, 1], got -0.5"),
    (["--dim", "2", "--sparsity", "1.5"], "sparsity must lie in [0, 1], got 1.5"),
], ids=["arity", "words-at-arity-32", "words", "huge-dim", "nan", "negative", "above-one"])
def test_cli_generate_refuses_unbounded_or_meaningless_requests(tmp_path, capsys, argv,
                                                                message):
    out = tmp_path / "gen.json"
    start = time.monotonic()
    assert main(["generate", "--seed", "1", "-o", str(out)] + argv) == 2
    assert time.monotonic() - start < 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["generate", "--seed", "1", "--dim", "0"], "dim"),
    (["generate", "--seed", "1", "--dim", "2", "--degrees=,"], "degree"),
    (["generate", "--seed", "1", "--dim", "2", "--arities", "0"], "arities"),
], ids=["dim", "degrees", "arities"])
def test_cli_generate_refuses_empty_or_nonpositive_sizes(argv, named, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
    assert named in captured.err, captured.err
    assert captured.out == ""


def test_cli_refuses_operations_that_are_not_a_list(tmp_path, capsys):
    source = tmp_path / "doc.json"
    source.write_text(minimal_doc(operations={"arity": 2}))
    for argv in (["check", str(source), "--flavor", ASSOC],
                 ["derive", str(source), "--functor", "suspend"],
                 ["coderive", str(source), "--kind", PERM]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "input error: operations: operations must be a list\n", argv
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["derive", GOOD, "--functor", "nary-commutator-prelie"],
    ["generate", "--dim", "3", "--degrees", "0,1", "--arities", "1,2", "--seed", "4"],
], ids=["derive", "generate"])
def test_cli_writes_to_stdout_the_bytes_it_writes_to_a_file(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_cli_generate_refuses_degrees_that_reach_no_output_letter(tmp_path, capsys):
    # every hat operation has degree -1, so degree-0 letters reach no output:
    # the document used to be written with no operation, and `check` passed it
    out = tmp_path / "gen.json"
    assert main(["generate", "--dim", "3", "--degrees", "0", "--arities", "1,2,3",
                 "--convention", "hat", "--seed", "4", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "arity 1, 2, 3" in err and "the degrees [0]" in err and not out.exists()
    # a draw that sparsity empties is no refusal
    assert main(["generate", "--dim", "3", "--degrees=-1,0", "--arities", "1,2,3",
                 "--convention", "hat", "--seed", "4", "--sparsity", "0", "-o", str(out)]) == 0
    assert parse_document(out.read_text()).family.ops == {}


def test_cli_generate_at_the_word_limit_costs_o_of_arity_per_word(tmp_path, capsys):
    # one letter per word: each kept word used to scan all 100,000 sinks for
    # one of its degree minus 1 (about 5e9 lookups, hours), and reading the
    # basis back compared each label with all earlier ones (2 min)
    out = tmp_path / "gen.json"
    start = time.monotonic()
    assert main(["generate", "--seed", "1", "--dim", "100000", "--arities", "1",
                 "--degrees=-1,0", "-o", str(out)]) == 0
    doc = parse_document(out.read_text())
    assert doc.space.dim == 100_000 and doc.family.ops
    assert time.monotonic() - start < 5
    # with degree 0 alone no letter of degree -1 is an output: refused at once
    start = time.monotonic()
    assert main(["generate", "--seed", "1", "--dim", "100000", "--arities", "1",
                 "-o", str(tmp_path / "none.json")]) == 2
    assert time.monotonic() - start < 1
    assert "reaches an output letter" in capsys.readouterr().err


def test_generate_word_limit_is_inclusive():
    # 10^5 words at arity 5 is exactly the limit; nilpotent counts only the
    # source half of the basis (degree 3 is the output of five degree-0
    # letters under the unhat arity-5 degree 3)
    assert 10 ** 5 == MAX_GENERATE_WORDS
    generate_random(10, [0, 3], [5], 0.0, seed=1)
    generate_random(20, [0, 3], [5], 0.0, seed=1, nilpotent=True)
    with pytest.raises(DocumentError, match="more than"):
        generate_random(11, [0, 3], [5], 0.0, seed=1)


@pytest.mark.parametrize("n", ["3", "1", "0", "-1"])
def test_cli_nary_embed_rejects_n_other_than_declared(n, tmp_path, capsys):
    # GOOD declares assoc_n with n = 2
    out = tmp_path / "emb.json"
    assert main(["derive", GOOD, "--functor", "nary-embed", "--n", n, "-o", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_nary_embed_names_n_below_one(n, tmp_path, capsys):
    # the refusal used to come from the Operation constructor and name no argument
    gen, out = tmp_path / "gen.json", tmp_path / "emb.json"
    assert main(["generate", "--dim", "3", "--degrees", "0", "--arities", "2,3", "--seed", "1",
                 "-o", str(gen)]) == 0
    capsys.readouterr()
    assert main(["derive", str(gen), "--functor", "nary-embed", "--n", n, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and f"--n of at least 1, got {n}" in err
    assert not out.exists()


# mu(e,e) = c t and mu(t,e) = c e with c of 3,000 digits: the associator's
# witness coefficient c^2 has more digits than str() converts
SQUARED_TOO_LONG = minimal_doc(
    space={"basis": [{"label": "e", "degree": 0}, {"label": "t", "degree": 0}]},
    max_arity=3, operations=[{"arity": 2, "entries": [
        {"inputs": ["e", "e"], "output": [{"label": "t", "coeff": "1" + "0" * 3000}]},
        {"inputs": ["t", "e"], "output": [{"label": "e", "coeff": "1" + "0" * 3000}]}]}])
# a degree of 4,300 nines parses, but its suspension has 4,301 digits
SUSPENDS_TOO_LONG = minimal_doc().replace('"degree": 0', '"degree": ' + "9" * 4300)


@pytest.mark.parametrize("text, argv", [
    (SQUARED_TOO_LONG, ["check", "--flavor", "assoc"]),
    (SUSPENDS_TOO_LONG, ["derive", "--functor", "suspend"]),
], ids=["witness-coefficient", "suspended-degree"])
def test_cli_unprintable_output_is_input_error(tmp_path, capsys, text, argv):
    path = tmp_path / "big.json"
    path.write_text(text)
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_internal_value_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "run_check", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["check", GOOD, "--flavor", "assoc"])


@pytest.mark.parametrize("argv", [
    ["coderive", GOOD, "--kind", "perm", "--weight-cap", "0"],
    ["coderive", GOOD, "--kind", "wedge", "--weight-cap", "-3"],
    ["check", GOOD, "--flavor", "assoc", "--max-arity", "0"],
    ["check", GOOD, "--flavor", "lie", "--max-arity", "-1"],
])
def test_cli_rejects_caps_below_one(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err
    assert "ALL PASS" not in captured.out


def test_cli_check_bypass_still_refuses_families_without_symmetry(tmp_path, capsys):
    # pre-Lie and Lie residuals are computed in a form that needs the
    # symmetry, so --no-precondition-check drops the report lines but not
    # the requirement; the associative check has none and still runs
    doc = generate_random(3, [0, 1], [1, 2, 3], 0.6, seed=5)
    variant = action_variant(doc.convention)
    assert failing_symmetry_generator(doc.family.ops[3], variant, full=False) is not None
    path = tmp_path / "plain.json"
    path.write_text(serialize_document(doc))
    for flavor in (PRELIE, LIE):
        full = flavor == LIE
        arity, bad = next((n, failing_symmetry_generator(doc.family.ops[n], variant, full))
                          for n in doc.family.arities()
                          if failing_symmetry_generator(doc.family.ops[n], variant, full))
        assert main(["check", str(path), "--flavor", flavor, "--no-precondition-check"]) == 2
        err = capsys.readouterr().err
        assert f"arity-{arity} operation" in err and f"transposition {bad}" in err, err
    assert main(["check", str(path), "--flavor", ASSOC, "--no-precondition-check",
                 "--json"]) in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["checks"]) == doc.family.max_arity


def _symmetric_family(rng, sp, convention, kind, output):
    """A family at arities 1-3 with the symmetry the kind's check needs;
    each drawn entry sends its word to output(word, degree), or is dropped
    when that is None."""
    ops = {}
    for arity in (1, 2, 3):
        degree = family_degree(convention, arity)
        table = {}
        for word in itertools.product(range(sp.dim), repeat=arity):
            letter = output(word, degree) if rng.random() < 0.6 else None
            if letter is not None:
                table[word] = LinearCombination({letter: rng.choice((-2, -1, 1, 3))})
        op = precompose_symmetrized(Operation(sp, arity, degree, table),
                                    action_variant(convention),
                                    MODE_FULL if kind == LIE else MODE_PARTIAL)
        if not op.is_zero():
            ops[arity] = op
    return OperationFamily(convention, sp, 5, ops)


def _parity_mismatches(family):
    """The arities whose operation has an entry with an output parity other
    than its input parity plus its degree."""
    odd = family.space.parities
    return [n for n, op in sorted(family.ops.items())
            if any(odd[out] != (sum(odd[x] for x in word) + op.degree) % 2
                   for word, combo in op.table.items() for out, _ in combo)]


def _parity_refusal_draws():
    """(convention, kind, family) for 12 families with the symmetry their
    kind needs, on a basis with odd letters, each entry sent to a letter of
    any parity."""
    rng = random.Random("parity-refusal")
    sp = GradedSpace(("x0", "x1", "x2"), (0, 1, -1))
    for convention, kind, _ in itertools.product((HAT, UNHAT), (PRELIE, LIE), range(3)):
        yield convention, kind, _symmetric_family(rng, sp, convention, kind,
                                                  lambda word, degree: rng.randrange(sp.dim))


def test_cli_check_refuses_parity_inhomogeneous_families_with_odd_letters(tmp_path, capsys):
    # the collapsed insertion positions hold only when every output has the
    # parity of its inputs plus the degree; on odd letters other tables get
    # residuals unlike the per-position oracle, so check refuses them, with
    # or without --no-precondition-check
    path = tmp_path / "inhomogeneous.json"
    refused = differs = 0
    for convention, kind, family in _parity_refusal_draws():
        bad = _parity_mismatches(family)
        if not bad:
            continue
        path.write_text(serialize_document(AlgebraDocument(family)))
        for bypass in ([], ["--no-precondition-check"]):
            assert main(["check", str(path), "--flavor", kind] + bypass) == 2
            captured = capsys.readouterr()
            assert f"the arity-{bad[0]} operation" in captured.err and captured.out == ""
            # the refusal names the document field it refuses
            assert captured.err.startswith("input error: operations: "), captured.err
        refused += 1
        flavor = EquationFlavor(kind, convention)
        differs += any(residual(family, flavor, n, check_symmetry=False).op
                       != residual_by_positions(family, kind, n) for n in range(1, 6))
    assert main(["check", str(path), "--flavor", ASSOC]) in (0, 1)
    # the refusal must not be vacuous, nor refuse only what the collapse gets right
    assert refused >= 8 and differs >= 6, (refused, differs)


def test_library_residual_refuses_what_check_refuses(tmp_path, capsys):
    # `residual` checks the collapsed form's precondition as `check` does,
    # parity first: every family check refuses, the library refuses at
    # every arity, naming the same operation; with the check bypassed it
    # returns the collapsed sum, the every-entry oracle's
    path = tmp_path / "inhomogeneous.json"
    refused = 0
    for convention, kind, family in _parity_refusal_draws():
        path.write_text(serialize_document(AlgebraDocument(family)))
        assert main(["check", str(path), "--flavor", kind]) == 2
        named = re.search(r"the arity-\d+ operation", capsys.readouterr().err).group()
        flavor = EquationFlavor(kind, convention)
        for n in range(1, 6):
            with pytest.raises(ConventionError, match=named):
                residual(family, flavor, n)
            bypassed = residual(family, flavor, n, check_symmetry=False)
            assert bypassed.op == residual_by_insertions(family, kind, n).op, (kind, n)
        refused += 1
    assert refused == 12


def _first_pair_symmetric(rng, sp, convention, arity):
    """A random homogeneous operation plus its precomposition with the
    transposition of the first two slots: invariant under that one only."""
    op = random_operation(rng, sp, arity, family_degree(convention, arity), 0.6)
    swap = (2, 1) + tuple(range(3, arity + 1))
    return precompose_by_loop(op, [identity(arity), swap], action_variant(convention))


def _differential_documents():
    """40 documents for `check`: 30 generated ones with operations, on
    every degree pattern, both conventions, every symmetrization, nilpotent
    or not (a draw that `generate` refuses, its degrees reaching no output
    letter, or that comes out empty is drawn again); families whose outputs
    have any parity; and families symmetric in their first two slots only."""
    rng = random.Random("check-differential")
    generated = 0
    while generated < 30:
        arities = rng.sample((1, 2, 3), rng.randint(1, 3))
        try:
            doc = generate_random(rng.choice((2, 3)), DEGREE_PATTERNS[rng.choice(sorted(
                DEGREE_PATTERNS))], arities, 0.8, rng.randrange(10**6),
                rng.choice((HAT, UNHAT)), rng.choice(("none", "partial", "full")),
                rng.random() < 0.5)
        except DocumentError:
            continue
        if doc.family.ops:
            generated += 1
            yield doc
    sp = GradedSpace(("x0", "x1", "x2"), (0, 1, -1))
    for convention, kind in itertools.product((HAT, UNHAT), (PRELIE, LIE)):
        yield AlgebraDocument(_symmetric_family(rng, sp, convention, kind,
                                                lambda word, degree: rng.randrange(sp.dim)))
    for convention, top in itertools.product((HAT, UNHAT), (2, 3, 4)):
        ops = {n: _first_pair_symmetric(rng, sp, convention, n) for n in range(2, top + 1)}
        yield AlgebraDocument(OperationFamily(convention, sp, top, ops))


def test_cli_check_agrees_with_the_per_position_oracle(tmp_path, capsys):
    # every flavor of `check` on each document: a refusal names the first
    # operation of the wrong parity, each symmetry line is the whole-
    # permutation oracle's, and each residual line's verdict and witness
    # are those of the sum over every insertion position
    path = tmp_path / "doc.json"
    exits, failing = Counter(), Counter()
    for doc in _differential_documents():
        path.write_text(serialize_document(doc))
        family = parse_document(path.read_text()).family
        for kind in (ASSOC, PRELIE, LIE):
            code = cli.main(["check", str(path), "--flavor", kind, "--max-arity", "5", "--json"])
            out, err = capsys.readouterr()
            exits[code] += 1
            bad = (_parity_mismatches(family) if kind != ASSOC and any(family.space.parities)
                   else [])
            if code == 2:
                assert bad and f"the arity-{bad[0]} operation" in err and out == "", err
                continue
            assert code in (0, 1) and not bad, (code, err)
            checks = json.loads(out)["checks"]
            assert code == (not all(c["passed"] for c in checks))
            expected = []
            if kind != ASSOC:
                full = kind == LIE
                for n, op in sorted(family.ops.items()):
                    fails = failing_transposition_by_act(op, action_variant(family.convention),
                                                         full)
                    expected.append((f"{'full' if full else 'partial'} symmetry at arity {n}",
                                     fails is None,
                                     fails and {"arity": n, "transposition": list(fails)}))
            if all(passed for _, passed, _ in expected):
                for n in range(1, 6):
                    op = residual_by_positions(family, kind, n)
                    expected.append((f"{kind}/{family.convention} residual at arity {n}",
                                     op.is_zero(),
                                     _residual_witness(family.space, op.first_nonzero_entry())))
            assert [(c["name"], c["passed"], c["witness"]) for c in checks] == expected, kind
            failing.update((kind, "residual" in name) for name, passed, _ in expected
                           if not passed)
    # every outcome occurs: no arm of the comparison is vacuous
    assert set(exits) == {0, 1, 2}, exits
    assert all(failing[kind, True] for kind in (ASSOC, PRELIE, LIE)), failing
    assert failing[PRELIE, False] and failing[LIE, False], failing


def test_cli_check_runs_parity_homogeneous_families_of_other_degrees(tmp_path, capsys):
    # outputs of the right parity but not of the right degree: the collapse
    # holds, so check runs and its verdicts are the per-position oracle's
    rng = random.Random("parity-homogeneous")
    sp = GradedSpace(("x0", "x1", "x2"), (0, 1, 2))
    odd = sp.parities
    path = tmp_path / "parity.json"
    inhomogeneous = failing = 0

    def output(word, degree):
        letters = [x for x in range(sp.dim) if odd[x] == (sum(odd[y] for y in word) + degree) % 2]
        return rng.choice(letters)

    for convention, kind in itertools.product((HAT, UNHAT), (PRELIE, LIE)):
        family = _symmetric_family(rng, sp, convention, kind, output)
        assert _parity_mismatches(family) == []
        inhomogeneous += not all(check_homogeneous(op) for op in family.ops.values())
        path.write_text(serialize_document(AlgebraDocument(family)))
        assert main(["check", str(path), "--flavor", kind, "--json"]) in (0, 1)
        verdicts = [c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]
                    if "residual" in c["name"]]
        expected = [residual_by_positions(family, kind, n) for n in range(1, 6)]
        assert verdicts == [op.is_zero() for op in expected], (convention, kind)
        flavor = EquationFlavor(kind, convention)
        assert [residual(family, flavor, n).op for n in range(1, 6)] == expected
        failing += verdicts.count(False)
    assert inhomogeneous == 4 and failing > 0


def test_cli_check_runs_nary_documents_of_odd_degree(tmp_path, capsys):
    # an n-ary operation of degree n - 2 on a degree-0 basis is no table of
    # the parity of its inputs plus its degree when n is odd, but with no odd
    # letter every sign the collapse uses is the same: it still runs
    rng = random.Random("nary-parity")
    sp = GradedSpace(("e0", "e1"), (0, 0))
    path = tmp_path / "nary.json"
    for n, kind in itertools.product((2, 3), (PRELIE, LIE)):
        mu = precompose_symmetrized(random_operation(rng, sp, n, 0, 0.7), RHO2,
                                    MODE_FULL if kind == LIE else MODE_PARTIAL)
        lifted = Operation(sp, n, family_degree(UNHAT, n), dict(mu.table))
        doc = AlgebraDocument(OperationFamily(UNHAT, sp, 2 * n - 1, {n: lifted}),
                              (f"{kind}_n", n))
        path.write_text(serialize_document(doc))
        for bypass in ([], ["--no-precondition-check"]):
            code = main(["check", str(path), "--flavor", kind, "--json"] + bypass)
            (line,) = [c for c in json.loads(capsys.readouterr().out)["checks"]
                       if "residual" in c["name"]]
            assert line["passed"] == nary_residual_by_positions(mu, kind).is_zero()
            assert code == (0 if line["passed"] else 1)


@pytest.mark.parametrize("m", [2, 3])
def test_cli_runs_the_nary_chain_on_matrix_products(m, tmp_path, capsys):
    # the matrix-product chain of test_matrix_products_run_the_nary_chain as
    # declared documents through the CLI: mu(a1..a4) = a1a2a3a4 on M_m is
    # assoc_4, derive writes its pre-Lie image and that image's Lie image,
    # and check passes each under its flavor.  The Lie image is empty on
    # M_2 (Amitsur-Levitzki) and not on M_3; at n = 3 the product fails
    # assoc.  Exit codes and verdicts only: no lie_n witness value
    source, prelie, lie = (tmp_path / f"{name}.json" for name in ("assoc", "prelie", "lie"))
    source.write_text(serialize_document(matrix_product_document(m, 4)))
    for functor, given, written in (("nary-commutator-prelie", source, prelie),
                                    ("nary-commutator-lie", prelie, lie)):
        assert main(["derive", str(given), "--functor", functor, "-o", str(written)]) == 0
    capsys.readouterr()
    for path, flavor in ((source, ASSOC), (prelie, PRELIE), (lie, LIE)):
        assert main(["check", str(path), "--flavor", flavor, "--json"]) == 0, (m, flavor)
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks and all(c["passed"] for c in checks), (m, flavor)
    entries = {path.stem: sum(len(op["entries"])
                              for op in json.loads(path.read_text())["operations"])
               for path in (prelie, lie)}
    assert entries["prelie"] and (entries["lie"] == 0) == (m == 2), entries
    source.write_text(serialize_document(matrix_product_document(m, 3)))
    assert main(["check", str(source), "--flavor", ASSOC, "--json"]) == 1
    assert not all(c["passed"] for c in json.loads(capsys.readouterr().out)["checks"])


@pytest.mark.parametrize("overrides, path", [
    ({"operations": [{"arity": True, "entries": []}]}, "operations[0].arity"),
    ({"max_arity": True}, "max_arity"),
    ({"declared_type": {"name": "prelie_n", "n": True}}, "declared_type.n"),
    ({"space": {"basis": [{"label": "e", "degree": False}]}}, "space.basis[0].degree"),
])
def test_cli_rejects_booleans_in_integer_fields(overrides, path, tmp_path, capsys):
    # a JSON boolean is not an integer (docs/document-schema.json), though
    # Python's bool is an int: true must not parse as 1
    doc = tmp_path / "bool.json"
    doc.write_text(minimal_doc(**overrides))
    assert main(["check", str(doc), "--flavor", "assoc"]) == 2
    assert f"{path}: " in capsys.readouterr().err
    with pytest.raises(DocumentError) as err:
        parse_document(doc.read_text())
    assert err.value.path == path


def test_cli_max_arity_is_bounded(tmp_path, capsys):
    # 143 bytes: one basis letter, no operations and a cap of a million;
    # every residual is zero, but checking them all took seconds
    path = tmp_path / "huge.json"
    path.write_text(minimal_doc(max_arity=1_000_000))
    start = time.monotonic()
    assert main(["check", str(path), "--flavor", "assoc"]) == 2
    assert time.monotonic() - start < 1
    assert f"above the limit {MAX_ARITY}" in capsys.readouterr().err
    path.write_text(minimal_doc(max_arity=MAX_ARITY))
    assert main(["check", str(path), "--flavor", "assoc"]) == 0
    capsys.readouterr()
    assert main(["check", GOOD, "--flavor", "assoc", "--max-arity", str(MAX_ARITY)]) == 0
    capsys.readouterr()
    assert main(["check", GOOD, "--flavor", "assoc", "--max-arity", str(MAX_ARITY + 1)]) == 2
    assert f"at most {MAX_ARITY}" in capsys.readouterr().err
    # a declared arity of 100,000 with no operations ran for minutes
    path.write_text(minimal_doc(max_arity=MAX_ARITY,
                                declared_type={"name": "prelie_n", "n": MAX_ARITY + 1}))
    assert main(["check", str(path), "--flavor", "prelie"]) == 2


def test_cli_check_refuses_max_arity_below_the_nary_residual(capsys):
    # the fixture declares assoc_n with n = 2, whose one residual has arity
    # 3; a cap of 1 used to run it anyway and pass
    assert main(["check", GOOD, "--flavor", "assoc", "--max-arity", "1"]) == 2
    captured = capsys.readouterr()
    assert "has arity 3, above the maximum arity 1" in captured.err
    assert "ALL PASS" not in captured.out
    assert main(["check", GOOD, "--flavor", "assoc", "--max-arity", "2"]) == 2
    assert "has arity 3, above the maximum arity 2" in capsys.readouterr().err
    assert main(["check", GOOD, "--flavor", "assoc", "--max-arity", "3"]) == 0
    assert "partially_associative residual at arity 3" in capsys.readouterr().out


def _dense_arity_8_document(**overrides):
    """Every word of length 8 over two degree-0 letters, each with both
    letters as outputs: 256 entries, 34 KB."""
    words = [[("x", "y")[(k >> bit) & 1] for bit in range(8)] for k in range(256)]
    output = [{"label": "x", "coeff": "1"}, {"label": "y", "coeff": "-1"}]
    return minimal_doc(
        max_arity=15,
        space={"basis": [{"label": "x", "degree": 0}, {"label": "y", "degree": 0}]},
        operations=[{"arity": 8, "entries": [{"inputs": w, "output": output} for w in words]}],
        **overrides)


def test_cli_graded_dga_is_associative_and_its_gamma_image_pre_lie(tmp_path, capsys):
    # the paper's A∞ -> PL∞ functor on an honest instance where mu1 o mu2
    # and mu2 o mu1 meet in the arity-2 residual
    with open(GRADED_DGA, encoding="utf-8") as handle:
        family = parse_document(handle.read()).family
    assert sorted(family.ops) == [1, 2] and family.space.degrees == (0, -1, 1, 0)
    assert main(["check", GRADED_DGA, "--flavor", "assoc", "--max-arity", "3", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [f"assoc/unhat residual at arity {n}"
                                           for n in (1, 2, 3)]
    gamma = tmp_path / "gamma.json"
    assert main(["derive", GRADED_DGA, "--functor", "commutator-gamma", "-o", str(gamma)]) == 0
    assert main(["check", str(gamma), "--flavor", "prelie", "--max-arity", "3", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if c["passed"]] == [
        "partial symmetry at arity 1", "partial symmetry at arity 2",
        *(f"prelie/unhat residual at arity {n}" for n in (1, 2, 3))]


@LIE_COEFFICIENT_XFAIL
def test_cli_graded_dga_alpha_image_is_lie(tmp_path, capsys):
    # the paper's A∞ -> L∞ functor on the same dga: its alpha image is an
    # L∞ algebra, and `coderive --kind wedge` on it passes
    alpha = tmp_path / "alpha.json"
    assert main(["derive", GRADED_DGA, "--functor", "commutator-alpha", "-o", str(alpha)]) == 0
    assert main(["coderive", str(alpha), "--kind", "wedge", "--weight-cap", "3"]) == 0
    assert main(["check", str(alpha), "--flavor", "lie"]) == 0


def test_cli_check_reports_the_symmetry_of_every_arity(tmp_path, capsys):
    # require_symmetry stops at the first failing arity; check reads the
    # same walk to its end and prints a line per arity, failing or not
    path = tmp_path / "doc.json"
    basis = {"basis": [{"label": x, "degree": 0} for x in "abc"]}
    path.write_text(minimal_doc(space=basis, max_arity=4, operations=[
        {"arity": n, "entries": [{"inputs": list("abca"[:n]),
                                  "output": [{"label": "a", "coeff": "1"}]}]}
        for n in (2, 3, 4)]))
    assert main(["check", str(path), "--flavor", "lie", "--json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["passed"], c["witness"]) for c in checks] == [
        (f"full symmetry at arity {n}", False, {"arity": n, "transposition": [1, 2]})
        for n in (2, 3, 4)]


def test_cli_check_work_is_bounded(tmp_path, capsys):
    # the arity-15 residual inserts the operation into itself at 8 positions:
    # per position 256 entries x 2 outputs x the 256 inner output terms at
    # the inserted letter
    family = tmp_path / "dense.json"
    family.write_text(_dense_arity_8_document())
    nary = tmp_path / "dense_n.json"
    nary.write_text(_dense_arity_8_document(declared_type={"name": "assoc_n", "n": 8}))
    assert 8 * 256 * 2 * 256 > MAX_CHECK_TERMS
    for path, what in ((family, "the assoc check up to arity 15"),
                       (nary, "the partially_associative residual at arity 15")):
        start = time.monotonic()
        assert main(["check", str(path), "--flavor", "assoc"]) == 2
        assert time.monotonic() - start < 1
        captured = capsys.readouterr()
        assert (f"{what} streams 1,048,576 insertion terms, "
                f"above the limit of {MAX_CHECK_TERMS:,}") in captured.err
        assert captured.out == ""
    # below arity 15 the operation composes with nothing
    assert main(["check", str(family), "--flavor", "assoc", "--max-arity", "14"]) == 0
    capsys.readouterr()


def test_cli_lie_check_counts_representative_terms(tmp_path, capsys):
    # a hat Lie family with arities {2, 6} on degrees (0, 0, 1, 1), checked
    # up to arity 11: inserting every stored entry streams more terms than
    # MAX_CHECK_TERMS, and `check` refused it when it did; one entry per
    # arrangement of each operation's symmetric slots is far below the
    # limit, and the verdicts and witnesses are those of every entry
    path = tmp_path / "lie26.json"
    assert main(["generate", "--dim", "4", "--degrees", "0,1", "--arities", "2,6",
                 "--sparsity", "0.5", "--seed", "3", "--convention", "hat",
                 "--symmetrize", "full", "-o", str(path)]) == 0
    family = parse_document(path.read_text()).family
    assert family.space.degrees == (0, 0, 1, 1)
    flavor = EquationFlavor(LIE, HAT)
    assert sum(insertion_term_count(residual_insertions_by_entries(family, LIE, n))
               for n in range(1, 12)) == 674_922 > MAX_CHECK_TERMS
    tables = {}
    assert insertion_term_count(itertools.chain.from_iterable(
        residual_insertions(family, flavor, n, tables) for n in range(1, 12))) == 842
    capsys.readouterr()
    start = time.monotonic()
    assert main(["check", str(path), "--flavor", "lie", "--max-arity", "11", "--json"]) == 1
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = json.loads(captured.out)["checks"][2:]   # after the two symmetry lines
    assert [c["name"] for c in checks] == [f"lie/hat residual at arity {n}" for n in range(1, 12)]
    for n, check in enumerate(checks, 1):
        oracle = residual_by_insertions(family, LIE, n)
        assert check["passed"] == oracle.vanishes(), n
        assert check["witness"] == _residual_witness(family.space, oracle.first_nonzero_entry()), n
    assert [n for n, c in enumerate(checks, 1) if not c["passed"]] == [3, 7, 11]


def test_run_check_refuses_max_arity_outside_the_limit():
    # a cap of 0 reported "ALL PASS (0 checks)" when only the CLI checked it
    sp, mu = dual_numbers()
    doc = AlgebraDocument(OperationFamily(UNHAT, sp, 3, {2: mu}))
    for cap in (0, -1, MAX_ARITY + 1):
        with pytest.raises(DocumentError, match=f"at most {MAX_ARITY}, got {cap}"):
            run_check(doc, ASSOC, max_arity=cap)
    assert len(run_check(doc, ASSOC, max_arity=1).checks) == 1


def test_cli_nary_embed_refuses_max_arity_above_the_limit(tmp_path, capsys):
    # nary-embed of arity n writes max_arity 2n - 1, which no verb reads
    # back above MAX_ARITY: refuse it before writing anything
    limit = (MAX_ARITY + 1) // 2
    gen, out = tmp_path / "empty.json", tmp_path / "emb.json"
    # no operations, so the n-ary rules hold at every n and only the limit refuses
    gen.write_text(minimal_doc(space={"basis": [{"label": "e0", "degree": 0},
                                                {"label": "e1", "degree": 0}]}))
    assert main(["derive", str(gen), "--functor", "nary-embed", "--n", str(limit + 1),
                 "-o", str(out)]) == 2
    assert f"n = {limit + 1}" in capsys.readouterr().err
    assert not out.exists()
    declared = tmp_path / "declared.json"
    declared.write_text(minimal_doc(max_arity=limit + 1,
                                    declared_type={"name": "assoc_n", "n": limit + 1}))
    assert main(["derive", str(declared), "--functor", "nary-embed", "-o", str(out)]) == 2
    assert f"n = {limit + 1}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["derive", str(gen), "--functor", "nary-embed", "--n", str(limit),
                 "-o", str(out)]) == 0
    assert main(["check", str(out), "--flavor", "assoc"]) == 0


def _distinct_letters_document(arity, **overrides):
    """One entry at the given arity on as many distinct degree-0 letters."""
    labels = [f"x{i}" for i in range(arity)]
    return minimal_doc(
        max_arity=arity, space={"basis": [{"label": x, "degree": 0} for x in labels]},
        operations=[{"arity": arity, "entries": [
            {"inputs": labels, "output": [{"label": "x0", "coeff": "1"}]}]}],
        **overrides)


@pytest.mark.parametrize("functor, declared, entries", [
    ("commutator-alpha", None, "479,001,600"),                                 # 12!
    ("commutator-gamma", None, "39,916,800"),                                  # 11!
    ("nary-commutator-prelie", {"name": "assoc_n", "n": 12}, "39,916,800"),
])
def test_cli_derive_work_is_bounded(functor, declared, entries, tmp_path, capsys):
    # the symmetrizing functors write every rearrangement of every stored
    # word; arity 9 took 6.2 s and 579 MB before they were counted
    path, out = tmp_path / "wide.json", tmp_path / "derived.json"
    path.write_text(_distinct_letters_document(12, declared_type=declared))
    start = time.monotonic()
    assert main(["derive", str(path), "--functor", functor, "-o", str(out)]) == 2
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert (f"{functor} would write up to {entries} entries, "
            f"above the limit of {MAX_DERIVE_ENTRIES:,}") in captured.err
    assert captured.out == "" and not out.exists()


def test_cli_derive_bound_lets_linear_and_small_work_through(tmp_path, capsys):
    # the shuffle commutators write arity-many words per stored word and
    # are not counted; arity 7 writes 7! = 5,040 entries, under the limit
    path, out = tmp_path / "wide.json", tmp_path / "derived.json"
    path.write_text(_distinct_letters_document(12))
    assert main(["derive", str(path), "--functor", "commutator-beta",
                 "--no-precondition-check", "-o", str(out)]) == 0
    assert len(parse_document(out.read_text()).family.ops[12].table) == 12
    small = tmp_path / "small.json"
    small.write_text(_distinct_letters_document(7))
    assert main(["derive", str(small), "--functor", "commutator-alpha", "-o", str(out)]) == 0
    assert len(parse_document(out.read_text()).family.ops[7].table) == 5_040
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("limit, argv, count", [
    ("MAX_CHECK_TERMS", ["check", "--flavor", "assoc", "--max-arity", "7"],
     r"streams ([\d,]+) insertion terms"),
    ("MAX_DERIVE_ENTRIES", ["derive", "--functor", "commutator-alpha"],
     r"write up to ([\d,]+) entries"),
    ("MAX_CODERIVE_WORK", ["coderive", "--kind", "perm", "--weight-cap", "3"],
     r"([\d,]+) in all"),
])
def test_work_at_the_limit_runs_and_one_more_is_refused(limit, argv, count, tmp_path, capsys,
                                                        monkeypatch):
    # each bound refuses work above its limit, not work at it: the count
    # is read off the refusal under a limit of 0
    path, out = tmp_path / "doc.json", tmp_path / "out.json"
    path.write_text(_distinct_letters_document(4))
    verb, *flags = argv
    argv = [verb, str(path), *flags, *(["-o", str(out)] if verb == "derive" else [])]
    monkeypatch.setattr(drivers, limit, 0)
    assert main(argv) == 2
    work = int(re.search(count, capsys.readouterr().err).group(1).replace(",", ""))
    assert work > 0
    monkeypatch.setattr(drivers, limit, work)
    assert main(argv) in (0, 1)
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(drivers, limit, work - 1)
    assert main(argv) == 2
    assert f"above the limit of {work - 1:,}" in capsys.readouterr().err


def test_cli_coderive_work_is_bounded(tmp_path, capsys):
    # a dim-3 document with no operations: every word has a zero image, but
    # the tensor coalgebra at cap 14 has 7,174,452 words to walk
    path = tmp_path / "empty.json"
    path.write_text(minimal_doc(space={"basis": [
        {"label": "a", "degree": 0}, {"label": "b", "degree": 1},
        {"label": "c", "degree": 2}]}))
    start = time.monotonic()
    assert main(["coderive", str(path), "--kind", "tensor", "--weight-cap", "14"]) == 2
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert "7,174,452 canonical words" in err
    assert f"limit of {MAX_CODERIVE_WORK:,}" in err
    assert word_count(TENSOR, parse_document(path.read_text()).space, 8) < MAX_CODERIVE_WORK
    assert main(["coderive", str(path), "--kind", "tensor", "--weight-cap", "8"]) == 0
    capsys.readouterr()
    # one arity-8 operation on two letters: 40 wedge words up to weight 20,
    # but sum over k <= 20 of C(k, 8) unshuffles for each of the two words
    # of weight k; it ran for 28 s at 219 MB before the blocks were counted
    wide = tmp_path / "wide.json"
    wide.write_text(minimal_doc(
        convention="hat", max_arity=8,
        space={"basis": [{"label": "x", "degree": 0}, {"label": "y", "degree": -1}]},
        operations=[{"arity": 8, "entries": [
            {"inputs": ["x"] * 8, "output": [{"label": "y", "coeff": "1"}]}]}]))
    start = time.monotonic()
    assert main(["coderive", str(wide), "--kind", "wedge", "--weight-cap", "20"]) == 2
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert "40 canonical words and 587,860 unshuffle blocks, 587,900 in all" in err
    assert main(["coderive", str(wide), "--kind", "wedge", "--weight-cap", "12"]) == 0
    capsys.readouterr()
    # caps beyond the arity bound are refused even where no word exists
    odd = tmp_path / "odd.json"
    odd.write_text(minimal_doc(convention="hat",
                               space={"basis": [{"label": "x", "degree": 1}]}))
    assert main(["coderive", str(odd), "--kind", "wedge",
                 "--weight-cap", str(MAX_ARITY)]) == 0
    capsys.readouterr()
    assert main(["coderive", str(odd), "--kind", "wedge",
                 "--weight-cap", str(MAX_ARITY + 1)]) == 2
    assert f"1..{MAX_ARITY}" in capsys.readouterr().err


def test_cli_generate_takes_a_leading_negative_degree_joined_to_the_flag(tmp_path, capsys,
                                                                       monkeypatch):
    out = tmp_path / "neg.json"
    assert main(["generate", "--dim", "3", "--degrees=-1,0,1", "--arities=2,3",
                 "--seed", "4", "-o", str(out)]) == 0
    degrees = set(parse_document(out.read_text()).space.degrees)
    assert degrees <= {-1, 0, 1}
    monkeypatch.setenv("COLUMNS", "200")  # argparse may wrap the help at a hyphen
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--help"])
    assert exc.value.code == 0
    assert "--degrees=-1,0,1" in " ".join(capsys.readouterr().out.split())


def test_schema_bounds_match_the_parser():
    with open(os.path.join(os.path.dirname(__file__), "..", "docs",
                           "document-schema.json")) as handle:
        schema = json.load(handle)["properties"]
    assert schema["max_arity"]["maximum"] == MAX_ARITY
    assert schema["declared_type"]["properties"]["n"]["maximum"] == MAX_ARITY
    assert tuple(schema["declared_type"]["properties"]["name"]["enum"]) == DECLARED_TYPES


def test_readme_names_every_long_option_of_every_verb():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as handle:
        readme = handle.read()
    (verbs,) = [action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    options = {option for verb in verbs.choices.values() for action in verb._actions
               for option in action.option_strings if option.startswith("--")} - {"--help"}
    assert len(options) > 10
    missing = sorted(option for option in options
                     if not re.search(re.escape(option) + r"(?![\w-])", readme))
    assert missing == []


def test_the_cli_and_selftest_list_the_kinds_in_one_order():
    # --flavor offers the kinds and --kind the coalgebras in the order the
    # help has always printed, and selftest's lines walk the coalgebras and
    # the commutators in the same orders
    (verbs,) = [action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    choices = {f"{verb} --{action.dest}": list(action.choices)
               for verb, parser in verbs.choices.items() for action in parser._actions
               if action.dest in ("flavor", "kind")}
    assert choices == {"check --flavor": ["assoc", "prelie", "lie"],
                       "coderive --kind": ["tensor", "wedge", "perm"]}
    names = [check.name for check in run_selftest(0, fast=True).checks]
    assert [name for name in names if name.startswith(("coassociativity", "coalgebra-map"))] == [
        "coassociativity, tensor", "coassociativity, wedge", "coassociativity, perm",
        "coalgebra-map law, alpha", "coalgebra-map law, beta", "coalgebra-map law, gamma"]


def test_derive_alpha_is_beta_after_gamma_on_the_benchmark_documents(tmp_path):
    # two routes to one image on the chains the calculus workload derives:
    # commutator-alpha writes, byte for byte, what commutator-beta writes of
    # commutator-gamma's output (the paper's beta o gamma = alpha)
    compared = 0
    for seed in (1, 5):
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir()
        written = {}
        for job in benchmark_inputs("calculus", seed, workdir).jobs:
            if job.name.startswith("derive-commutator-"):   # gamma, then beta of its output
                assert main(job.argv) == 0, job.name
                with open(job.output, "rb") as handle:
                    written[job.name] = handle.read()
        for name, alpha in written.items():
            if name.startswith("derive-commutator-alpha-"):
                beta = written[name.replace("-alpha-", "-beta-")]
                assert alpha == beta, (seed, name)
                compared += 1
    assert compared > 0


def test_nary_check_is_the_check_of_its_embedding_on_the_benchmark_documents(tmp_path):
    # the paper's three-copy equivalence on the documents the benchmark runs:
    # check of an n-ary document and check of its nary-embed agree on the
    # verdict and on whether the symmetry holds, for the residual workload's
    # n-ary check jobs under their flavor and for the calculus workload's
    # n-ary documents under every flavor
    verdicts = Counter()
    for seed in (1, 5):
        for workload in ("residual", "calculus"):
            workdir = tmp_path / f"{workload}{seed}"
            workdir.mkdir()
            inputs = benchmark_inputs(workload, seed, workdir)
            if workload == "residual":
                cases = [(job.name, job.source, [job.argv[3]]) for job in inputs.jobs]
            else:
                cases = [(name, str(workdir / name), list(KINDS)) for name in inputs.documents]
            for name, path, flavors in cases:
                with open(path, "rb") as handle:
                    doc = parse_document(handle.read())
                if doc.nary_arity is None:
                    continue
                embedded = parse_document(serialize_document(run_derive(doc, "nary-embed")))
                for flavor in flavors:
                    nary, embed = (run_check(d, flavor) for d in (doc, embedded))
                    verdict = [(report.passed, all(c.passed for c in report.checks
                                                   if "symmetry" in c.name))
                               for report in (nary, embed)]
                    assert verdict[0] == verdict[1], (seed, name, flavor)
                    verdicts[verdict[0]] += 1
    # each kind of verdict occurs: passes, failing residuals, failing symmetry
    assert len(verdicts) == 3 and sum(verdicts.values()) > 0, verdicts


def _unhat_words_reach(in_degrees, out_degrees, letters, arities=(2, 3)):
    """Whether a word of input degrees, at most `letters` of them distinct,
    at one of the arities n has an output degree: its sum plus n - 2."""
    return any(len(set(word)) <= letters and sum(word) + n - 2 in out_degrees
               for n in arities
               for word in itertools.combinations_with_replacement(sorted(in_degrees), n))


@pytest.mark.parametrize("degrees", [[-1, 0, 2], [-1, 1, 2], [1, 2]])
def test_generate_writes_a_reachable_degree_set_at_every_seed(degrees):
    # two letters, one source and one sink: every draw misses on some seeds
    # (29, 17 and 2 of these 300 in turn), and those take the first
    # assignment that reaches instead of being refused
    for seed in range(300):
        drawn = generate_random(2, degrees, [2, 3], 0.6, seed, symmetrize="partial",
                                nilpotent=True).space.degrees
        assert _unhat_words_reach({drawn[0]}, {drawn[1]}, 1), (seed, drawn)


@settings(max_examples=12, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 4),
       degrees=st.sets(st.integers(-1, 2), min_size=1))
@example(seed=1, dim=4, degrees={0, 1})
@example(seed=2, dim=4, degrees={0, 1})
@example(seed=4, dim=3, degrees={1})
@example(seed=4, dim=3, degrees={2})
@example(seed=0, dim=2, degrees={-1, 2})
@example(seed=21, dim=2, degrees={-1, 0, 2})  # reachable, and all 21 draws miss
def test_cli_generate_derive_check_pipeline(tmp_path, capsys, seed, dim, degrees):
    # generate exits 2 exactly when no assignment of the degrees gives an
    # input word an output letter; a set whose draws all miss takes the
    # first assignment that reaches
    gen = tmp_path / "gen.json"
    beta = tmp_path / "beta.json"
    sources = dim - max(1, dim // 2)
    code = main(["generate", "--dim", str(dim),
                 "--degrees=" + ",".join(map(str, sorted(degrees))), "--arities", "2,3",
                 "--sparsity", "0.6", "--seed", str(seed),
                 "--symmetrize", "partial", "--nilpotent", "-o", str(gen)])
    if not _unhat_words_reach(degrees, degrees, sources):
        assert code == 2
        return
    assert code == 0
    drawn = parse_document(gen.read_text()).space.degrees
    assert _unhat_words_reach(set(drawn[:sources]), set(drawn[sources:]), sources)
    assert main(["derive", str(gen), "--functor", "commutator-beta",
                 "-o", str(beta)]) == 0
    assert main(["check", str(beta), "--flavor", "lie"]) == 0


def test_cli_suspend_round_trip(tmp_path, capsys):
    emb = tmp_path / "emb.json"
    sus = tmp_path / "sus.json"
    back = tmp_path / "back.json"
    assert main(["derive", GOOD, "--functor", "nary-embed", "-o", str(emb)]) == 0
    assert main(["derive", str(emb), "--functor", "suspend", "-o", str(sus)]) == 0
    assert main(["derive", str(sus), "--functor", "desuspend", "-o", str(back)]) == 0
    assert emb.read_text() == back.read_text()


def test_cli_suspend_of_a_binary_nary_document_writes_its_embedding_type(tmp_path, capsys):
    # an n-ary type requires a degree-0 basis, which the suspension leaves;
    # the output used to keep assoc_n, and check refused it with exit 2
    sus, emb, emb_sus = (tmp_path / f"{name}.json" for name in ("sus", "emb", "emb_sus"))
    assert main(["derive", GOOD, "--functor", "suspend", "-o", str(sus)]) == 0
    assert parse_document(sus.read_text()).declared_type == ("a_infinity", None)
    for flavor in (ASSOC, PRELIE):
        assert main(["check", str(sus), "--flavor", flavor]) == 0
    # at n = 2 the family is its own embedding
    assert main(["derive", GOOD, "--functor", "nary-embed", "-o", str(emb)]) == 0
    assert main(["derive", str(emb), "--functor", "suspend", "-o", str(emb_sus)]) == 0
    assert sus.read_text() == emb_sus.read_text()
    # above n = 2 suspend still refuses, and writes nothing
    ternary = tmp_path / "ternary.json"
    ternary.write_text(minimal_doc(max_arity=5, declared_type={"name": "prelie_n", "n": 3}))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(["derive", str(ternary), "--functor", "suspend", "-o", str(out)]) == 2
    assert "n-ary" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, n", [("assoc_n", 3), ("lie_n", 2)])
def test_cli_desuspend_refuses_nary_documents(tmp_path, capsys, name, n):
    # an n-ary document is an unhat family, so the parser refuses a hat one
    # before desuspend, which needs a hat document, could read it
    doc = tmp_path / "hat_n.json"
    doc.write_text(minimal_doc(convention="hat", max_arity=2 * n - 1,
                               declared_type={"name": name, "n": n},
                               operations=[{"arity": n, "entries": [
                                   {"inputs": ["e"] * n, "output": [{"label": "e",
                                                                     "coeff": "1"}]}]}]))
    out = tmp_path / "out.json"
    assert main(["derive", str(doc), "--functor", "desuspend", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: convention: declared type '{name}' needs the unhat convention\n"
    assert not out.exists()


@pytest.mark.parametrize("n", [2, 3])
def test_cli_nary_check_is_the_one_operation_family_check(tmp_path, capsys, n):
    # the n-ary residual of an unhat n-ary document is the residual at arity
    # 2n - 1 of the same document without its declared type, checked up to
    # that arity; every lower arity has no term and passes
    rng = random.Random(f"nary-family-{n}")
    kinds = {"assoc_n": (ASSOC, None), "prelie_n": (PRELIE, MODE_PARTIAL),
             "lie_n": (LIE, MODE_FULL)}
    verdicts = Counter()
    for (name, (flavor, mode)), dim, nilpotent in itertools.product(
            kinds.items(), (2, 3), (True, False)):
        sp = GradedSpace(tuple(f"x{i}" for i in range(dim)), (0,) * dim)
        sources, sinks = (range(dim - 1), range(dim - 1, dim)) if nilpotent else (None, None)
        mu = random_operation(rng, sp, n, 0, 0.7, (-2, -1, 1, 3), sources, sinks)
        if mode is not None:
            mu = precompose_symmetrized(mu, RHO2, mode)
        family = OperationFamily(UNHAT, sp, n, {n: Operation(sp, n, n - 2, mu.table)})
        nary_path, family_path = tmp_path / "nary.json", tmp_path / "family.json"
        nary_path.write_text(serialize_document(AlgebraDocument(family, (name, n))))
        family_path.write_text(serialize_document(AlgebraDocument(family)))
        reports = []
        for path, extra in ((nary_path, ()), (family_path, ("--max-arity", str(2 * n - 1)))):
            assert main(["check", str(path), "--flavor", flavor, "--json", *extra]) in (0, 1)
            reports.append({c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]})
        nary, fam = reports
        case = (name, dim, nilpotent)
        line = nary.pop(f"{PARTIALLY_ASSOCIATIVE if flavor == ASSOC else flavor} "
                        f"residual at arity {2 * n - 1}")
        top = fam.pop(f"{flavor}/unhat residual at arity {2 * n - 1}")
        assert (top["passed"], top["witness"]) == (line["passed"], line["witness"]), case
        # the rest: the same symmetry lines, and lower residuals that pass
        assert nary == {k: v for k, v in fam.items() if "symmetry" in k}, case
        assert all(c["passed"] for k, c in fam.items() if "residual" in k), case
        assert len(fam) - len(nary) == 2 * n - 2, case
        verdicts[line["passed"]] += 1
    assert verdicts[True] >= 4 and verdicts[False] >= 2, verdicts


def test_cli_check_of_a_zero_nary_operation_has_no_symmetry_line(tmp_path, capsys):
    # the one-operation family drops a zero operation, so its report, like a
    # family document's, has only the residual line
    path = tmp_path / "zero_n.json"
    path.write_text(minimal_doc(max_arity=5, declared_type={"name": "lie_n", "n": 3}))
    family = tmp_path / "zero.json"
    family.write_text(minimal_doc(max_arity=5))
    for doc, flavor, names in (
            (path, LIE, ["lie residual at arity 5"]),
            (path, ASSOC, ["partially_associative residual at arity 5"]),
            (family, LIE, [f"lie/unhat residual at arity {m}" for m in range(1, 6)])):
        assert main(["check", str(doc), "--flavor", flavor, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in report["checks"]] == names
        assert report["passed"]


def test_cli_coderive(tmp_path, capsys):
    assert main(["coderive", GOOD, "--kind", "perm", "--weight-cap", "3"]) == 0
    assert main(["coderive", BROKEN, "--kind", "perm", "--weight-cap", "3"]) == 1


@pytest.mark.parametrize("extra", [[], ["--no-precondition-check"]])
def test_cli_coderive_rejects_inhomogeneous_operations(tmp_path, capsys, extra):
    # the second document, x -> y between degree-0 letters, obeys the tensor
    # coderivation law but is even, so its square-zero verdict would be wrong
    docs = [([("u", 0), ("v", 1)], 2, ["u", "u"], "u"), ([("x", 0), ("y", 0)], 1, ["x"], "y")]
    for n, (basis, arity, inputs, output) in enumerate(docs):
        path = tmp_path / f"inhomogeneous{n}.json"
        path.write_text(minimal_doc(
            space={"basis": [{"label": label, "degree": d} for label, d in basis]},
            convention="hat", operations=[{"arity": arity, "entries": [
                {"inputs": inputs, "output": [{"label": output, "coeff": "1"}]}]}]))
        for kind in ("tensor", "wedge", "perm"):
            assert main(["coderive", str(path), "--kind", kind, "--weight-cap", "2"] + extra) == 2
            err = capsys.readouterr().err
            assert "requires homogeneous operations" in err
            assert err.startswith("input error: operations: "), err


def test_cli_selftest_fast(capsys):
    assert main(["selftest", "--fast", "--seed", "3"]) == 0


def test_cli_generate_hat_convention_feeds_coderive(tmp_path, capsys):
    gen = tmp_path / "hat.json"
    assert main(["generate", "--dim", "4", "--degrees", "0,1", "--arities", "1,2",
                 "--sparsity", "0.7", "--seed", "11", "--convention", "hat",
                 "--symmetrize", "partial", "--nilpotent", "-o", str(gen)]) == 0
    doc = parse_document(gen.read_text())
    assert doc.convention == "hat"
    assert doc.family.arities()  # nonempty
    assert main(["coderive", str(gen), "--kind", "perm", "--weight-cap", "3",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # already hat: no suspension step reported
    assert all("suspended" not in c["name"] for c in payload["checks"])


def test_derive_type_mismatch_is_input_error(flat2):
    # an n-ary document is its own family, so commutator-beta on it is
    # nary-commutator-lie; only an unknown functor is refused
    doc = AlgebraDocument(OperationFamily(UNHAT, flat2, 5, {}), ("prelie_n", 3))
    assert serialize_document(run_derive(doc, "commutator-beta")) == serialize_document(
        run_derive(doc, "nary-commutator-lie"))
    with pytest.raises(DocumentError):
        run_derive(doc, "bogus-functor")


def _entry_at(n):
    return [{"arity": n, "entries": [
        {"inputs": ["e"] * n, "output": [{"label": "e", "coeff": "1"}]}]}]


GRADED_BASIS = {"basis": [{"label": "e", "degree": 1}]}
GENERATED_ARITY_2 = json.loads(serialize_document(generate_random(2, (0,), (2,), 0.5, seed=1)))
ASSOC_2, ASSOC_3 = ({"name": "assoc_n", "n": n} for n in (2, 3))


@pytest.mark.parametrize("overrides, argv, path, message", [
    (dict(space=GRADED_BASIS, declared_type=ASSOC_2), ["derive", "--functor",
     "nary-commutator-prelie"], "space.basis", "n-ary documents require a degree-0 basis"),
    (dict(space=GRADED_BASIS, declared_type=ASSOC_2), ["check", "--flavor", "assoc"],
     "space.basis", "n-ary documents require a degree-0 basis"),
    (dict(space=GRADED_BASIS), ["derive", "--functor", "nary-embed", "--n", "2"],
     "space.basis", "n-ary documents require a degree-0 basis"),
    (dict(declared_type=ASSOC_3, max_arity=5, operations=_entry_at(2)),
     ["derive", "--functor", "nary-commutator-lie"], "operations",
     "an n-ary document must have operations only at arity 3"),
    # (e,e) -> e and (e,e,e) -> 5e: embedding the arity-2 one would drop the other
    (dict(max_arity=3, operations=_entry_at(2) + [{"arity": 3, "entries": [
        {"inputs": ["e"] * 3, "output": [{"label": "e", "coeff": "5"}]}]}]),
     ["derive", "--functor", "nary-embed", "--n", "2"], "operations",
     "an n-ary document must have operations only at arity 2"),
    # `generate --dim 2 --arities 2 --seed 1`, with no operation at 16: it
    # used to embed the zero operation and drop the arity-2 one
    (GENERATED_ARITY_2, ["derive", "--functor", "nary-embed", "--n", "16"], "operations",
     "an n-ary document must have operations only at arity 16"),
    (dict(convention="hat"), ["derive", "--functor", "suspend"], "convention",
     "suspend expects an unhat document"),
    (dict(), ["derive", "--functor", "desuspend"], "convention",
     "desuspend expects a hat document"),
    (dict(declared_type=ASSOC_3), ["derive", "--functor", "suspend"], "declared_type",
     "suspend does not apply to n-ary documents"),
    (dict(convention="hat", declared_type=ASSOC_2), ["derive", "--functor", "desuspend"],
     "convention", "declared type 'assoc_n' needs the unhat convention"),
    (dict(), ["derive", "--functor", "nary-commutator-prelie"], "declared_type",
     "n-ary commutators require a declared n-ary type"),
], ids=["nary-basis-derive", "nary-basis-check", "embed-basis", "nary-operations",
        "embed-other-arities", "embed-no-operation-at-n",
        "suspend-convention", "desuspend-convention", "suspend-nary", "desuspend-nary",
        "nary-commutator-undeclared"])
def test_cli_derive_refusals_name_the_field(overrides, argv, path, message, tmp_path, capsys):
    source, out = tmp_path / "doc.json", tmp_path / "out.json"
    source.write_text(minimal_doc(**overrides))
    verb, *flags = argv
    written = ["-o", str(out)] if verb == "derive" else []
    assert main([verb, str(source), *flags, *written]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {path}: {message}"), captured.err
    assert captured.out == "" and not out.exists()


# every verb that reads a document, with every functor and kind
DOCUMENT_VERBS = ([["check", "--flavor", flavor] for flavor in (ASSOC, PRELIE, LIE)]
                  + [["derive", "--functor", functor] for functor in
                     ("suspend", "desuspend", *COMMUTATOR_FUNCTORS, "nary-embed")]
                  + [["coderive", "--kind", kind, "--weight-cap", "2"]
                     for kind in (TENSOR, WEDGE, PERM)])


def _refused_by_every_verb(path, field, message, tmp_path, capsys):
    out = tmp_path / "out.json"
    for verb, *flags in DOCUMENT_VERBS:
        written = ["-o", str(out)] if verb == "derive" else []
        assert main([verb, str(path), *flags, *written]) == 2, flags
        captured = capsys.readouterr()
        assert captured.err == f"input error: {field}: {message}\n", (flags, captured.err)
        assert captured.out == "" and not out.exists(), flags


def test_cli_refuses_a_hat_nary_document_under_every_verb(tmp_path, capsys):
    # an n-ary document is its own one-operation unhat family; a hat one
    # was checked as the unhat family under a "(hat)" title, and beta and
    # nary-commutator-lie wrote different brackets of it
    path = tmp_path / "hat_prelie_n.json"
    path.write_text(minimal_doc(
        space={"basis": [{"label": "a", "degree": 0}, {"label": "b", "degree": 0}]},
        convention="hat", declared_type={"name": "prelie_n", "n": 2},
        operations=[{"arity": 2, "entries": [
            {"inputs": ["a", "b"], "output": [{"label": "a", "coeff": "1"}]},
            {"inputs": ["b", "a"], "output": [{"label": "b", "coeff": "2"}]}]}]))
    _refused_by_every_verb(path, "convention",
                           "declared type 'prelie_n' needs the unhat convention",
                           tmp_path, capsys)


@pytest.mark.parametrize("overrides, field, message", [
    (dict(space={"basis": [{"label": "e", "degree": 0}, {"label": "t", "degree": 1}]},
          declared_type=ASSOC_2, operations=[{"arity": 2, "entries": [
              {"inputs": ["e", "e"], "output": [{"label": "e", "coeff": "1"}]},
              {"inputs": ["e", "t"], "output": [{"label": "t", "coeff": "1"}]},
              {"inputs": ["t", "e"], "output": [{"label": "t", "coeff": "1"}]}]}]),
     "space.basis", "n-ary documents require a degree-0 basis"),
    (dict(declared_type=ASSOC_3, max_arity=5, operations=_entry_at(2)),
     "operations", "an n-ary document must have operations only at arity 3"),
], ids=["graded-basis", "other-arity"])
def test_cli_refuses_a_malformed_nary_document_under_every_verb(overrides, field, message,
                                                                tmp_path, capsys):
    # commutator-gamma, suspend (which then declared a_infinity) and
    # coderive used to run on the graded one, a homogeneous assoc_n document
    path = tmp_path / "doc.json"
    path.write_text(minimal_doc(**overrides))
    _refused_by_every_verb(path, field, message, tmp_path, capsys)


def _nary_source(path, name, n, seed):
    # n letters, so that beta, a full antisymmetrization, need not vanish
    flat = GradedSpace(tuple(f"x{i}" for i in range(n)), (0,) * n)
    mu = random_operation(random.Random(seed), flat, n, 0, 0.7)
    if name == "prelie_n":
        mu = precompose_symmetrized(mu, RHO2, MODE_PARTIAL)
    family = OperationFamily(UNHAT, flat, 2 * n - 1, {n: mu.with_degree(n - 2)})
    path.write_text(serialize_document(AlgebraDocument(family, (name, n))))
    return str(path)


@pytest.mark.parametrize("n", [2, 3])
def test_cli_homotopy_commutators_of_an_nary_document_are_the_nary_pair(n, tmp_path, capsys):
    # an n-ary document is its own family, so commutator-gamma and
    # commutator-beta write the n-ary pair's bytes, typed by the image-type
    # table; n > 2 was refused, and n = 2 was written with no declared type
    outputs = {}
    for name, functors in (("assoc_n", ("commutator-gamma", "nary-commutator-prelie",
                                        "commutator-alpha")),
                           ("prelie_n", ("commutator-beta", "nary-commutator-lie"))):
        source = _nary_source(tmp_path / f"{name}.json", name, n, f"{name}-{n}")
        for functor in functors:
            out = tmp_path / f"{name}-{functor}.json"
            assert main(["derive", source, "--functor", functor, "-o", str(out)]) == 0
            outputs[functor] = out.read_text(encoding="utf-8")
    assert outputs["commutator-gamma"] == outputs["nary-commutator-prelie"]
    assert outputs["commutator-beta"] == outputs["nary-commutator-lie"]
    for functor, declared in (("commutator-gamma", "prelie_n"), ("commutator-beta", "lie_n"),
                              ("commutator-alpha", "lie_n")):
        doc = parse_document(outputs[functor])
        assert doc.declared_type == (declared, n) and doc.family.arities(), functor


def test_cli_nary_pair_types_only_the_image_of_its_source_structure(tmp_path, capsys):
    # the gl2 bracket, alpha of M2 and declared lie_n, is a Lie 2-algebra;
    # gamma is the identity at n = 2, and its image is no pre-Lie 2-algebra,
    # so nary-commutator-prelie must not declare prelie_n on it
    units = [(i, j) for i in range(2) for j in range(2)]
    sp = GradedSpace(tuple(f"e{i + 1}{j + 1}" for i, j in units), (0,) * 4)
    m2 = Operation(sp, 2, 0, {(units.index((i, j)), units.index((j, l))):
                              LinearCombination({units.index((i, l)): 1})
                              for i, j in units for l in range(2)})
    gl2 = AlgebraDocument(run_derive(AlgebraDocument(OperationFamily(UNHAT, sp, 3, {2: m2})),
                                     "commutator-alpha").family, ("lie_n", 2))
    source, out = tmp_path / "gl2.json", tmp_path / "out.json"
    source.write_text(serialize_document(gl2))
    assert main(["check", str(source), "--flavor", LIE]) == 0
    assert main(["derive", str(source), "--functor", "nary-commutator-prelie",
                 "-o", str(out)]) == 0
    image = parse_document(out.read_text(encoding="utf-8"))
    assert image.declared_type is None
    assert image.family.ops == gl2.family.ops
    capsys.readouterr()
    assert main(["check", str(out), "--flavor", PRELIE, "--json"]) == 1
    failing = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]
               if not c["passed"]]
    assert failing == ["prelie/unhat residual at arity 3"]


def test_nary_operation_refusal_names_the_declared_type(flat2):
    with pytest.raises(DocumentError) as err:
        nary_operation(AlgebraDocument(OperationFamily(UNHAT, flat2, 2, {})))
    assert (err.value.path, err.value.message) == (
        "declared_type", "document does not declare an n-ary type")


def test_nary_check_routes_through_declared_type():
    with open(GOOD) as handle:
        doc = parse_document(handle.read())
    report = run_check(doc, PRELIE)
    assert report.passed  # dual numbers are commutative, hence pre-Lie
    names = [c.name for c in report.checks]
    assert any("symmetry" in n for n in names)


@pytest.mark.parametrize("refuse, message", [
    (lambda doc: run_check(doc, "bogus"), "unknown flavor 'bogus'"),
    (lambda doc: drivers.run_coderive(doc, "bogus"), "unknown coalgebra kind 'bogus'"),
    (lambda doc: generate_random(2, [0], [2], 0.5, 1, convention="bogus"),
     "convention must be 'hat' or 'unhat', got 'bogus'"),
    (lambda doc: generate_random(2, [0], [2], 0.5, 1, symmetrize="bogus"),
     "symmetrize must be none, partial or full, got 'bogus'"),
], ids=["check-flavor", "coderive-kind", "generate-convention", "generate-symmetrize"])
def test_driver_refusals_name_what_they_refuse(refuse, message):
    doc = generate_random(2, [0], [2], 0.5, 1)
    with pytest.raises(DocumentError) as caught:
        refuse(doc)
    assert type(caught.value) is DocumentError and str(caught.value) == message
