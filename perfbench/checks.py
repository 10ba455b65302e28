"""Output records of benchmark jobs, and the checks that decide whether a
job's output is correct.

A record keeps only what a correct program must reproduce: the exit code,
the `(check name, passed, witness)` list of a `--json` report (unknown keys
and `elapsed_seconds` are ignored, so added counters do not break it), a
digest of each derived document's canonical serialization, and a digest of
each circle-calculus result.

At the default seed every record is compared with the expected file recorded
from this benchmark.  At every seed, `verify` checks what holds by
construction: honest instances pass, a printed witness re-evaluates to its
printed value, and parse o serialize is the identity on derived documents.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re

RESIDUAL = re.compile(r"^(assoc|prelie|lie)/(hat|unhat) residual at arity (\d+)$")
NARY = re.compile(r"^(partially_associative|prelie|lie) residual at arity (\d+)$")
SYMMETRY = re.compile(r"^(full|partial) symmetry at arity (\d+)$")
COMPONENT = re.compile(r"^squared coderivation, cogenerator component at weight (\d+)$")
SQUARE = "squared coderivation vanishes up to the cap"
LAW = "coderivation law up to the cap"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def operation_digest(op) -> str:
    entries = [[list(word), sorted([out, str(c)] for out, c in op.table[word])]
               for word in sorted(op.table)]
    return digest(json.dumps([op.arity, entries]))


def make_record(h, job, exit_code, stdout: str, result) -> dict:
    """What a job produced, reduced to the parts checked for correctness."""
    if job.call is not None:
        if job.call[0] == "circle_bracket":
            return {"exit": exit_code, "entries": len(result.table),
                    "digest": operation_digest(result)}
        return {"exit": exit_code, "verdict": bool(result)}
    if job.output is not None:
        with open(job.output, encoding="utf-8") as handle:
            text = handle.read()
        return {"exit": exit_code, "bytes": len(text), "digest": digest(text)}
    try:
        report = json.loads(stdout)
        checks = [[c["name"], c["passed"], c.get("witness")] for c in report["checks"]]
    except (ValueError, KeyError, TypeError) as exc:
        return {"exit": exit_code, "unreadable": repr(exc)}
    return {"exit": exit_code, "checks": checks}


# -- checks that hold at every seed ----------------------------------------

def _value(h, sp, combo) -> list:
    return [{"label": sp.labels[out], "coeff": h.docio.format_rational(c)}
            for out, c in sorted(combo, key=lambda t: t[0])]


def _word(sp, labels) -> tuple:
    return tuple(sp.index(label) for label in labels)


class _Source:
    """The document a check or coderive job read, and what re-evaluating its
    witnesses needs; built lazily because most checks pass."""

    def __init__(self, h, path):
        self.h = h
        with open(path, "rb") as handle:
            self.doc = h.docio.parse_document(handle.read())
        self._coderivation = None

    def nary(self):
        return self.h.drivers.nary_operation(self.doc)[1]

    def hat_family(self):
        g = self.h.graded
        fam = self.doc.family
        return self.h.functors.suspend_family(fam) if fam.convention == g.UNHAT else fam

    def coderivation(self, argv):
        if self._coderivation is None:
            kind = argv[argv.index("--kind") + 1]
            cap = int(argv[argv.index("--weight-cap") + 1])
            self._coderivation = self.h.coalgebra.extend_coderivation(
                self.hat_family(), kind, cap)
        return self._coderivation


def _witness_problem(h, job, source, name, witness):
    """None when the printed witness re-evaluates to its printed value."""
    eq, p, coalg = h.equations, h.permutations, h.coalgebra
    doc = source.doc
    argv = job.argv
    m = SYMMETRY.match(name)
    if m or name == "symmetry precondition":
        n, transposition = witness["arity"], tuple(witness["transposition"])
        if argv[0] == "coderive":
            kind = argv[argv.index("--kind") + 1]
            op = source.hat_family().ops[n]
            bad = p.failing_symmetry_generator(op, p.RHO1, full=kind == coalg.WEDGE)
        elif doc.declared_type and doc.declared_type[0].endswith("_n"):
            bad = p.failing_symmetry_generator(source.nary(), p.RHO2, full=m.group(1) == "full")
        else:
            variant = p.RHO1 if doc.convention == h.graded.HAT else p.RHO2
            bad = p.failing_symmetry_generator(doc.family.ops[n], variant,
                                               full=m.group(1) == "full")
        return None if bad == transposition else f"{name}: generator {bad} != {transposition}"
    m = RESIDUAL.match(name)
    if m:
        flavor = eq.EquationFlavor(m.group(1), m.group(2))
        op = eq.residual(doc.family, flavor, int(m.group(3)), check_symmetry=False).op
    elif NARY.match(name):
        kind = NARY.match(name).group(1)
        op = eq.nary_residual(source.nary(), kind, check_symmetry=False).op
    elif COMPONENT.match(name):
        op = coalg.square_cogenerator_component(source.coderivation(argv),
                                                int(COMPONENT.match(name).group(1)))
    elif name == SQUARE:
        image = source.coderivation(argv).square_word(ast.literal_eval(witness["word"]))
        value = repr(dict(image.terms))
        return None if value == witness["value"] else f"{name}: re-evaluates to {value}"
    else:
        return f"{name}: no rule to re-evaluate this witness"
    sp = op.space
    value = _value(h, sp, op.evaluate(_word(sp, witness["inputs"])))
    return None if value == witness["value"] else f"{name}: re-evaluates to {value}"


def verify(h, job, record) -> list:
    """Problems with a record that no correct program could produce."""
    if "unreadable" in record:
        return [f"unreadable output: {record['unreadable']}"]
    if job.call is not None:
        if record["exit"] != 0:
            return [f"exit {record['exit']}"]
        return []
    if job.output is not None:
        problems = [] if record["exit"] == 0 else [f"exit {record['exit']}"]
        with open(job.output, encoding="utf-8") as handle:
            text = handle.read()
        if h.docio.serialize_document(h.docio.parse_document(text)) != text:
            problems.append("parse o serialize is not the identity on the derived document")
        return problems
    checks = record["checks"]
    passed = all(ok for _, ok, _ in checks)
    problems = []
    if record["exit"] != (0 if passed else 1):
        problems.append(f"exit {record['exit']} disagrees with the verdicts")
    if job.honest and not passed:
        problems.append("an honest instance failed")
    if job.fixed_witness is not None:
        witnesses = [w for _, ok, w in checks if not ok]
        if witnesses[:1] != [job.fixed_witness]:
            problems.append(f"witness {witnesses[:1]} != {job.fixed_witness}")
    source = None
    for name, ok, witness in checks:
        if ok:
            continue
        if name == LAW:
            problems.append("an extended family failed the coderivation law")
        if witness is None:
            continue
        source = source or _Source(h, job.source)
        problem = _witness_problem(h, job, source, name, witness)
        if problem:
            problems.append(problem)
    return problems


def antisymmetry_problem(h, f, g, bracket) -> str | None:
    """[f, g] = -(-1)^(mn) [g, f] for reduced arities m, n."""
    m, n = f.arity - 1, g.arity - 1
    other = h.equations.circle_bracket(g, f)
    if bracket != other.scaled(-((-1) ** (m * n))):
        return "circle bracket is not graded antisymmetric"
    return None
