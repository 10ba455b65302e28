"""Report-producing entry points behind the CLI verbs.

Every failing check carries a concrete witness: for a residual that is the
first input word (in sorted order) with a nonzero value, together with that
value; re-running the witness through the residual reproduces the printed
coefficients exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .coalgebra import (PERM, TENSOR, WEDGE, check_coderivation,
                        extend_coderivation, square_cogenerator_component, word_count)
from .docio import MAX_ARITY, AlgebraDocument, format_rational
from .equations import (ASSOC, LIE, PARTIALLY_ASSOCIATIVE, PRELIE, EquationFlavor,
                        check_nary, residual)
from .errors import DocumentError, SymmetryError
from .functors import (commutator, desuspend_family, nary_commutator_lie,
                       nary_commutator_prelie, nary_embed, suspend_family)
from .graded import HAT, UNHAT, GradedSpace, Operation, OperationFamily, family_degree
from .permutations import (MODE_FULL, MODE_PARTIAL, RHO2, action_variant,
                           failing_symmetry_generator, precompose_symmetrized,
                           require_symmetry)
from . import verify
from .samples import dual_numbers, nilpotent_dga, upper_corner

NARY_DECLARED = {"assoc_n": PARTIALLY_ASSOCIATIVE, "prelie_n": PRELIE, "lie_n": LIE}
EMBED_TYPE = {"assoc_n": "a_infinity", "prelie_n": "pl_infinity", "lie_n": "l_infinity"}

# `coderive` walks every canonical word up to the weight cap several times
# (components, squares, the law), so it refuses a coalgebra with more words
# than this before any work starts.  The largest input it serves in the
# benchmark, the tensor coalgebra on 2x2 matrices at cap 5, has 1,364.
MAX_COALGEBRA_WORDS = 20_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: dict | None = None
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        w = f"  witness: {self.witness}" if (self.witness and not self.passed) else ""
        return f"{status}  {self.name}{extra}{w}"


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)
    elapsed: float = 0.0

    def add(self, name, passed, witness=None, detail=""):
        self.checks.append(CheckResult(name, bool(passed), witness, detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"# {self.title}"]
        lines += [c.line() for c in self.checks]
        verdict = "ALL PASS" if self.passed else "FAILURES PRESENT"
        lines.append(f"# {verdict} ({len(self.checks)} checks, {self.elapsed:.2f}s)")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness,
                 "detail": c.detail}
                for c in self.checks
            ],
        }


def _residual_witness(space: GradedSpace, op: Operation) -> dict | None:
    entry = op.first_nonzero_entry()
    if entry is None:
        return None
    word, combo = entry
    return {
        "inputs": [space.labels[i] for i in word],
        "value": [{"label": space.labels[out], "coeff": format_rational(c)}
                  for out, c in sorted(combo, key=lambda t: t[0])],
    }


def _symmetry_check(report: Report, ops: dict, variant: str, kind: str,
                    check_preconditions: bool) -> bool:
    """Append one symmetry-precondition line per arity of `ops`; returns
    overall success.

    Without the lines the symmetry is still required: pre-Lie and Lie
    residuals are computed in a collapsed form that holds only for
    symmetric operations, so a family without it raises a SymmetryError.
    """
    if kind in (ASSOC, PARTIALLY_ASSOCIATIVE):
        return True
    full = kind == LIE
    if not check_preconditions:
        require_symmetry(ops, variant, full, f"the {kind} residual")
        return True
    label = "full" if full else "partial"
    ok = True
    for n in sorted(ops):
        bad = failing_symmetry_generator(ops[n], variant, full=full)
        report.add(f"{label} symmetry at arity {n}", bad is None,
                   witness=None if bad is None else {"arity": n, "transposition": list(bad)})
        ok = ok and bad is None
    return ok


def run_check(doc: AlgebraDocument, kind: str, max_arity: int | None = None,
              check_preconditions: bool = True) -> Report:
    """Residual verdicts for the requested equations.

    Documents declaring an n-ary type run the single n-ary equation; all
    other documents run the homotopy residuals for every arity up to
    `max_arity` (default: the family's cap).  Without `check_preconditions`
    the report has no symmetry lines, but a pre-Lie or Lie check of
    operations without the symmetry still raises a SymmetryError.
    """
    t0 = time.monotonic()
    if kind not in (ASSOC, PRELIE, LIE):
        raise DocumentError(f"unknown flavor {kind!r}")
    report = Report(f"check {kind} ({doc.convention})")

    declared = doc.declared_type
    if declared and declared[0] in NARY_DECLARED:
        n, mu = nary_operation(doc)
        want = PARTIALLY_ASSOCIATIVE if kind == ASSOC else kind
        if _symmetry_check(report, {n: mu}, RHO2, want, check_preconditions):
            ok, res = check_nary(mu, want, check_symmetry=False)
            report.add(f"{want} residual at arity {res.n}", ok,
                       witness=None if ok else _residual_witness(mu.space, res.op))
        report.elapsed = time.monotonic() - t0
        return report

    flavor = EquationFlavor(kind, doc.convention)
    cap = max_arity if max_arity is not None else doc.family.max_arity
    if _symmetry_check(report, doc.family.ops, action_variant(doc.convention), kind,
                       check_preconditions):
        for n in range(1, cap + 1):
            res = residual(doc.family, flavor, n, check_symmetry=False)
            ok = res.vanishes()
            report.add(f"{kind}/{doc.convention} residual at arity {n}", ok,
                       witness=None if ok else _residual_witness(doc.space, res.op))
    report.elapsed = time.monotonic() - t0
    return report


def nary_operation(doc: AlgebraDocument) -> tuple:
    """Extract the single plain n-ary operation from an n-ary document."""
    declared = doc.declared_type
    if not declared or declared[0] not in NARY_DECLARED:
        raise DocumentError("document does not declare an n-ary type")
    n = declared[1]
    if not doc.space.is_concentrated_in_degree_zero():
        raise DocumentError("n-ary documents require a degree-0 basis")
    arities = doc.family.arities()
    if arities not in ([], [n]):
        raise DocumentError(f"an n-ary document must have operations only at arity {n}")
    table = doc.family.operation(n).table
    return n, Operation(doc.space, n, 0, dict(table))


def _nary_document(doc: AlgebraDocument, op: Operation, declared_name: str) -> AlgebraDocument:
    n = op.arity
    lifted = Operation(op.space, n, family_degree(doc.convention, n), dict(op.table))
    family = OperationFamily(doc.convention, op.space, max(doc.family.max_arity, n), {n: lifted})
    return AlgebraDocument(family, (declared_name, n))


def run_derive(doc: AlgebraDocument, functor: str, n: int | None = None,
               check_preconditions: bool = True) -> AlgebraDocument:
    """Apply one functor and return the derived document (entries sorted on
    serialization).  Convention and type mismatches raise DocumentError;
    violated symmetry preconditions raise a SymmetryError."""
    declared = doc.declared_type
    is_nary = bool(declared and declared[0] in NARY_DECLARED)

    if functor == "suspend":
        if doc.convention != UNHAT:
            raise DocumentError("suspend expects an unhat document")
        if is_nary and declared[1] > 2:
            raise DocumentError("suspend does not apply to n-ary documents")
        return AlgebraDocument(suspend_family(doc.family), declared)

    if functor == "desuspend":
        if doc.convention != HAT:
            raise DocumentError("desuspend expects a hat document")
        return AlgebraDocument(desuspend_family(doc.family), declared)

    if functor in ("commutator-alpha", "commutator-beta", "commutator-gamma"):
        if is_nary and declared[1] > 2:
            raise DocumentError(
                "homotopy commutators do not apply to n-ary documents; "
                "use nary-commutator-prelie or nary-commutator-lie")
        name = functor.split("-")[1]
        if check_preconditions and name == "beta":
            require_symmetry(doc.family.ops, action_variant(doc.convention), False,
                             "commutator-beta")
        derived_type = None
        if declared and declared[0] == "a_infinity":
            derived_type = {"gamma": ("pl_infinity", None),
                            "alpha": ("l_infinity", None)}.get(name)
        elif declared and declared[0] == "pl_infinity" and name == "beta":
            derived_type = ("l_infinity", None)
        return AlgebraDocument(commutator(doc.family, name), derived_type)

    if functor == "nary-embed":
        n_value = n if n is not None else (declared[1] if is_nary else None)
        if n_value is None:
            raise DocumentError("nary-embed requires --n or a declared n-ary type")
        if is_nary and n_value != declared[1]:
            raise DocumentError(
                f"nary-embed n = {n_value} differs from the declared arity {declared[1]}")
        if is_nary:
            _, mu = nary_operation(doc)
        else:
            if not doc.space.is_concentrated_in_degree_zero():
                raise DocumentError("nary-embed requires a degree-0 basis")
            mu = Operation(doc.space, n_value, 0,
                           dict(doc.family.operation(n_value).table))
        embedding = nary_embed(doc.space, mu, n_value)
        new_type = EMBED_TYPE.get(declared[0]) if is_nary else None
        return AlgebraDocument(embedding.family,
                               (new_type, None) if new_type else None)

    if functor in ("nary-commutator-prelie", "nary-commutator-lie"):
        if not is_nary:
            raise DocumentError("n-ary commutators require a declared n-ary type")
        _, mu = nary_operation(doc)
        if functor == "nary-commutator-prelie":
            out = nary_commutator_prelie(mu)
            return _nary_document(doc, out, "prelie_n")
        out = nary_commutator_lie(mu, check_symmetry=check_preconditions)
        return _nary_document(doc, out, "lie_n")

    raise DocumentError(f"unknown functor {functor!r}")


def run_coderive(doc: AlgebraDocument, kind: str, weight_cap: int = 4,
                 check_preconditions: bool = True) -> Report:
    """Build the coderivation of the chosen coalgebra and report the
    coderivation law plus the square's cogenerator components.

    A weight cap outside 1..MAX_ARITY, or a coalgebra with more than
    MAX_COALGEBRA_WORDS canonical words up to the cap, raises a
    DocumentError before any work starts."""
    t0 = time.monotonic()
    if kind not in (TENSOR, WEDGE, PERM):
        raise DocumentError(f"unknown coalgebra kind {kind!r}")
    if not 1 <= weight_cap <= MAX_ARITY:
        raise DocumentError(f"the weight cap must lie in 1..{MAX_ARITY}, got {weight_cap}")
    report = Report(f"coderive {kind} (cap {weight_cap})")
    family = doc.family
    if family.convention == UNHAT:
        family = suspend_family(family)
        report.add("suspended to the hat convention", True)
    words = word_count(kind, family.space, weight_cap)
    if words > MAX_COALGEBRA_WORDS:
        raise DocumentError(f"the {kind} coalgebra has {words:,} canonical words up to weight "
                            f"{weight_cap}, above the limit of {MAX_COALGEBRA_WORDS:,}")
    try:
        D = extend_coderivation(family, kind, weight_cap)
    except SymmetryError as exc:
        report.add("symmetry precondition", False,
                   witness={"arity": exc.arity, "transposition": list(exc.transposition)})
        report.elapsed = time.monotonic() - t0
        return report
    if check_preconditions:
        report.add("coderivation law up to the cap", check_coderivation(D))
    square_zero = True
    for n in range(1, weight_cap + 1):
        comp = square_cogenerator_component(D, n)
        ok = comp.is_zero()
        square_zero = square_zero and ok
        report.add(f"squared coderivation, cogenerator component at weight {n}", ok,
                   witness=None if ok else _residual_witness(family.space, comp))
    found = D.first_nonzero_square() if square_zero else None
    witness = None if found is None else {"word": repr(found[0]),
                                          "value": repr(dict(found[1].terms))}
    report.add("squared coderivation vanishes up to the cap", square_zero and found is None,
               witness=witness)
    report.elapsed = time.monotonic() - t0
    return report


def generate_random(dim: int, degrees, arities, sparsity: float, seed: int,
                    convention: str = UNHAT, symmetrize: str = "none",
                    nilpotent: bool = False) -> AlgebraDocument:
    """Seeded, reproducible random document; homogeneous by construction.

    With `nilpotent` the basis is split into sources and sinks: operations
    consume only source letters and emit only sink letters, so every
    composite of two operations vanishes and all six residual systems are
    satisfied by construction.  Together with `symmetrize` this yields honest
    satisfying instances for any flavor.
    """
    if dim < 1:
        raise DocumentError("dim must be >= 1")
    if convention not in (HAT, UNHAT):
        raise DocumentError(f"convention must be 'hat' or 'unhat', got {convention!r}")
    if symmetrize not in ("none", "partial", "full"):
        raise DocumentError(f"symmetrize must be none, partial or full, got {symmetrize!r}")
    degrees = list(degrees)
    if not degrees:
        raise DocumentError("at least one degree is required")
    arities = sorted(set(arities))
    if not arities or any(a < 1 for a in arities):
        raise DocumentError("arities must be positive")
    rng = random.Random(seed)

    labels = tuple(f"x{i}" for i in range(dim))
    sink_count = max(1, dim // 2) if nilpotent else 0
    sources = range(dim - sink_count) if nilpotent else range(dim)
    sinks = range(dim - sink_count, dim) if nilpotent else range(dim)

    # redraw the degree assignment (bounded, deterministic) until some input
    # word can reach some output letter; otherwise every table stays empty
    degree_list = [rng.choice(degrees) for _ in range(dim)]
    for _ in range(20):
        in_degrees = degree_list[:dim - sink_count] if nilpotent else degree_list
        out_degrees = set(degree_list[dim - sink_count:] if nilpotent else degree_list)
        achievable = set()
        for arity in arities:
            sums = {0}
            for _ in range(arity):
                sums = {s + d for s in sums for d in in_degrees}
            achievable |= {s + family_degree(convention, arity) for s in sums}
        if achievable & out_degrees:
            break
        degree_list = [rng.choice(degrees) for _ in range(dim)]

    space = GradedSpace(labels, tuple(degree_list))

    variant = action_variant(convention)
    ops = {}
    for arity in arities:
        op = verify.random_operation(rng, space, arity, family_degree(convention, arity),
                                     sparsity, (-2, -1, 1, 2), sources, sinks)
        if symmetrize == "partial":
            op = precompose_symmetrized(op, variant, MODE_PARTIAL)
        elif symmetrize == "full":
            op = precompose_symmetrized(op, variant, MODE_FULL)
        if not op.is_zero():
            ops[arity] = op
    family = OperationFamily(convention, space, max(arities), ops)
    return AlgebraDocument(family)


def run_selftest(seed: int = 0, fast: bool = False) -> Report:
    """The cross-module invariant suite, smaller caps than the test suite
    but the same identities."""
    t0 = time.monotonic()
    rng = random.Random(seed)
    report = Report(f"selftest (seed {seed})")

    for n in range(1, 5):
        degs = [rng.randint(-2, 3) for _ in range(n)]
        report.add(f"Koszul composition law, n={n}",
                   verify.koszul_composition_witness(n, degs) is None)
    for n in range(2, 6 if fast else 7):
        degs = [rng.randint(0, 2) for _ in range(n - 1)]
        report.add(f"degree-shift sign lemma, n={n}",
                   verify.sign_transfer_witness(n, degs) is None)
    for n in range(2, 6):
        report.add(f"unshuffle partition count, n={n}",
                   verify.unshuffle_partition_witness(n) is None)

    sp = GradedSpace(("u", "v"), (0, 1))
    cap = 3 if fast else 4
    for kind in (TENSOR, WEDGE, PERM):
        report.add(f"coassociativity, {kind}",
                   verify.coassociativity_witness(kind, sp, cap) is None)
    for name in ("alpha", "beta", "gamma"):
        report.add(f"coalgebra-map law, {name}",
                   verify.coalgebra_map_law_witness(name, sp, cap) is None)
    report.add("gamma o beta = alpha", verify.factorization_witness(sp, cap) is None)
    report.add("pi o alpha = identity", verify.section_witness(sp, cap) is None)

    rounds = 2 if fast else 4
    for trial in range(rounds):
        fam = verify.random_unhat_family(rng, sp, (1, 2, 3))
        w = verify.coderivation_correspondence_witness(fam, 4, 4)
        report.add(f"residual/coderivation correspondence, random family {trial}", w is None,
                   detail="" if w is None else w[1])

    pipelines = []
    spc, mu = dual_numbers()
    pipelines.append(("dual numbers", OperationFamily(UNHAT, spc, 4, {2: mu})))
    spc, mu = upper_corner()
    pipelines.append(("matrix corner", OperationFamily(UNHAT, spc, 4, {2: mu})))
    pipelines.append(("dga", nilpotent_dga()))
    for label, fam in pipelines:
        w = verify.commutator_pipeline_witness(fam, 4)
        report.add(f"commutator pipeline, {label}", w is None,
                   detail="" if w is None else w[1])
        report.add(f"suspension square, {label}",
                   verify.suspension_square_witness(fam) is None)

    flat = GradedSpace(("a", "b"), (0, 0))
    for trial in range(rounds):
        for n in (2, 3):
            mu = precompose_symmetrized(
                verify.random_operation(rng, flat, n, 0), RHO2, MODE_PARTIAL)
            report.add(f"pre-Lie residual = mu o mu, arity {n}, trial {trial}",
                       verify.lemma_two_routes_witness(mu) is None)
    for n in (2, 3, 4):
        p = precompose_symmetrized(
            verify.random_operation(rng, flat, n, 0), RHO2, MODE_PARTIAL)
        report.add(f"full antisymmetrization = (n-1)! shuffle sum, n={n}",
                   verify.full_vs_shuffle_witness(p) is None)
    for trial in range(rounds):
        f, g, h = (precompose_symmetrized(
            verify.random_operation(rng, flat, rng.randint(1, 3), 0), RHO2, MODE_PARTIAL)
            for _ in range(3))
        report.add(f"graded Jacobi for the circle bracket, trial {trial}",
                   verify.graded_jacobi_witness(f, g, h) is None)

    report.elapsed = time.monotonic() - t0
    return report
