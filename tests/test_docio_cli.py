import json
import os
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hopla import cli
from hopla.cli import main
from hopla.docio import (MAX_ARITY, AlgebraDocument, parse_document, parse_rational,
                         serialize_document)
from hopla.coalgebra import TENSOR, word_count
from hopla.drivers import MAX_COALGEBRA_WORDS, generate_random, run_check, run_derive
from hopla.equations import ASSOC, LIE, PRELIE
from hopla.errors import DocumentError
from hopla.graded import UNHAT, OperationFamily
from hopla.permutations import RHO2, action_variant, failing_symmetry_generator
from hopla.samples import dual_numbers

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOOD = os.path.join(FIXTURES, "dual_numbers.json")
BROKEN = os.path.join(FIXTURES, "dual_numbers_broken.json")


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
    from hopla.drivers import nary_operation
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
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(["check", str(path), "--flavor", "assoc"]) == 2
    assert "input error" in capsys.readouterr().err


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


@pytest.mark.parametrize("n", ["3", "1", "0", "-1"])
def test_cli_nary_embed_rejects_n_other_than_declared(n, tmp_path, capsys):
    # GOOD declares assoc_n with n = 2
    out = tmp_path / "emb.json"
    assert main(["derive", GOOD, "--functor", "nary-embed", "--n", n, "-o", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
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
    assert f"limit of {MAX_COALGEBRA_WORDS:,}" in err
    assert word_count(TENSOR, parse_document(path.read_text()).space, 8) < MAX_COALGEBRA_WORDS
    assert main(["coderive", str(path), "--kind", "tensor", "--weight-cap", "8"]) == 0
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


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 4),
       degrees=st.sets(st.integers(-1, 2), min_size=1))
@example(seed=1, dim=4, degrees={0, 1})
@example(seed=2, dim=4, degrees={0, 1})
def test_cli_generate_derive_check_pipeline(tmp_path, capsys, seed, dim, degrees):
    gen = tmp_path / "gen.json"
    beta = tmp_path / "beta.json"
    assert main(["generate", "--dim", str(dim),
                 "--degrees=" + ",".join(map(str, sorted(degrees))), "--arities", "2,3",
                 "--sparsity", "0.6", "--seed", str(seed),
                 "--symmetrize", "partial", "--nilpotent", "-o", str(gen)]) == 0
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


def test_cli_coderive(tmp_path, capsys):
    assert main(["coderive", GOOD, "--kind", "perm", "--weight-cap", "3"]) == 0
    assert main(["coderive", BROKEN, "--kind", "perm", "--weight-cap", "3"]) == 1


@pytest.mark.parametrize("extra", [[], ["--no-precondition-check"]])
def test_cli_coderive_rejects_inhomogeneous_operations(tmp_path, capsys, extra):
    path = tmp_path / "inhomogeneous.json"
    path.write_text(minimal_doc(
        space={"basis": [{"label": "u", "degree": 0}, {"label": "v", "degree": 1}]},
        convention="hat", operations=[{"arity": 2, "entries": [
            {"inputs": ["u", "u"], "output": [{"label": "u", "coeff": "1"}]}]}]))
    assert main(["coderive", str(path), "--kind", "wedge"] + extra) == 2
    assert "requires homogeneous operations" in capsys.readouterr().err


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
    doc = AlgebraDocument(OperationFamily(UNHAT, flat2, 5, {}), ("prelie_n", 3))
    with pytest.raises(DocumentError):
        run_derive(doc, "commutator-beta")
    with pytest.raises(DocumentError):
        run_derive(doc, "bogus-functor")


def test_nary_check_routes_through_declared_type():
    with open(GOOD) as handle:
        doc = parse_document(handle.read())
    report = run_check(doc, PRELIE)
    assert report.passed  # dual numbers are commutative, hence pre-Lie
    names = [c.name for c in report.checks]
    assert any("symmetry" in n for n in names)
