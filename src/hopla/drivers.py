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
from itertools import chain, combinations

from .coalgebra import (_mode, block_count, check_coderivation, extend_coderivation,
                        square_cogenerator_fold, word_count)
from .docio import MAX_ARITY, AlgebraDocument, format_rational, require_nary
from .equations import (COALGEBRAS, COMMUTATORS, KINDS, EquationFlavor, require_collapsible,
                        require_parity, residual, residual_insertions)
from .errors import ConventionError, DocumentError, KindError, SymmetryError
from .functors import commutator, desuspend_family, nary_embed, suspend_family
from .graded import (HAT, UNHAT, GradedSpace, OperationFamily, family_degree,
                     insertion_term_count)
from .permutations import (MODE_PARTIAL, MODE_SHUFFLE, RHO2, Folded, action_variant,
                           arrangement_count, precompose_symmetrized, require_symmetry,
                           symmetry_walk)
from . import verify
from .samples import dual_numbers, nilpotent_dga, upper_corner

# the homotopy type of a kind's n-ary type: what its embedding declares
EMBED_TYPE = {nary: homotopy for homotopy, nary in (kind.types for kind in KINDS.values())}

# each commutator functor is `functors.commutator` under one name, applied to
# the document's family; an n-ary document is the one-operation family of its
# operation (`docio.parse_document` refuses any other)
COMMUTATOR_FUNCTORS = {"commutator-alpha": "alpha", "commutator-beta": "beta",
                       "commutator-gamma": "gamma", "nary-commutator-prelie": "gamma",
                       "nary-commutator-lie": "beta"}

# `coderive`'s law line cuts every canonical wedge or Perm word up to the weight cap per
# arity; the tensor components insert each entry of mu_a at weight k (k - a + 1) dim^(k - a)
# ways, and the law's tensor blocks read at most as many rows; `block_count` counts them.  The
# wedge and Perm components walk the operations' entries.  It refuses a job whose words plus
# blocks exceed this before any work starts.  The largest benchmark job, tensor on 2x2
# matrices at cap 5, counts 1,364 words and 5,008 blocks.
MAX_CODERIVE_WORK = 20_000

# `check` decides on orbit representatives, so its work is the insertion
# terms it folds; it counts every term its streams visit
# (`graded.insertion_term_count`, an upper bound on the terms they yield)
# before any insertion and refuses more than this.  The largest benchmark job streams
# 4,608 terms; 1.6 million took 3-5 s and 130 MB (Intel Xeon, Python 3.11.7).
MAX_CHECK_TERMS = 500_000

# `derive --functor commutator-alpha`, `commutator-gamma` and
# `nary-commutator-prelie` write every distinct rearrangement of the acted
# slots of every orbit a stored word lies in; they count those
# (`arrangement_count`) before any fold and refuse more than this.  The
# largest benchmark derive counts 392; one arity-8 entry on 8 distinct
# letters writes 40,320 in 0.5 s and 86 MB, a 12.8 MB document, and arity 9
# writes 362,880 in 6.2 s, 579 MB and 122 MB (Intel Xeon, Python 3.11.7).
MAX_DERIVE_ENTRIES = 100_000

# `generate` walks every word over the source letters at every arity and
# draws for each, at O(arity) per word.  It refuses a request for more words
# than this before it builds anything.  The slowest shape measured at the
# limit, 316 letters of degrees 0 and 1 at arity 2 with sparsity 1 and full
# symmetrization, takes about 2.3 s to generate and 0.7 s to serialize
# (Intel Xeon, Python 3.11.7).  Apart from the tests of this limit, the
# largest call in the tests and the README walks 780 words.
MAX_GENERATE_WORDS = 100_000


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
    """A verb's checks, in order.  The report's clock starts when it is
    made, and `done` stops it: `elapsed` is the seconds in between."""

    title: str
    checks: list = field(default_factory=list)
    elapsed: float = 0.0
    _start: float = field(default_factory=time.monotonic, init=False, repr=False,
                          compare=False)

    def done(self) -> "Report":
        """Stop the clock, and return the report."""
        self.elapsed = time.monotonic() - self._start
        return self

    def add(self, name, passed, witness=None, detail=""):
        self.checks.append(CheckResult(name, bool(passed), witness, detail))

    def add_fold(self, name: str, folded: Folded) -> bool:
        """The line of a `Folded` sum: it passes when the sum vanishes, and
        its witness is the sum's first nonzero entry.  Returns the verdict."""
        passed = folded.vanishes()
        self.add(name, passed, witness=_residual_witness(folded.space,
                                                         folded.first_nonzero_entry()))
        return passed

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


def _residual_witness(space: GradedSpace, entry) -> dict | None:
    """The printed form of `first_nonzero_entry()`, a (word, value) pair or
    None, of a residual's `Folded` sum or of an operation."""
    if entry is None:
        return None
    word, combo = entry
    return {
        "inputs": [space.labels[i] for i in word],
        "value": [{"label": space.labels[out], "coeff": format_rational(c)}
                  for out, c in sorted(combo, key=lambda t: t[0])],
    }


def _require_work(count: int, limit: int, what: str) -> None:
    """Refuse work above a limit before it starts: a DocumentError saying
    what would be done (`what` names the count) and the limit."""
    if count > limit:
        raise DocumentError(f"{what}, above the limit of {limit:,}")


def run_check(doc: AlgebraDocument, kind: str, max_arity: int | None = None,
              check_preconditions: bool = True) -> Report:
    """Residual verdicts for the requested equations.

    A document declaring an n-ary type, which is the one-operation unhat
    family of its operation, is checked at the single arity 2n - 1 of its
    defining equation; any other document runs its family's residuals for
    every arity up to `max_arity` (default: the family's cap).  Both then
    take one path: a symmetry line per arity, read off
    `permutations.symmetry_walk` under the flavor's action, one work bound,
    one residual per arity.  Before any residual, a DocumentError is raised
    for a `max_arity` outside 1..MAX_ARITY or below 2n - 1, and for more
    than MAX_CHECK_TERMS insertion terms.  The collapsed form's precondition is
    `equations.require_collapsible`'s: its parity half raises a
    DocumentError at `operations` before any symmetry line, and without
    `check_preconditions` the report has no symmetry lines and a family
    without the symmetry raises a SymmetryError instead.  Verdicts and
    witnesses are read off the folded residuals; nothing is expanded.
    """
    if kind not in KINDS:
        raise DocumentError(f"unknown flavor {kind!r}")
    if max_arity is not None and not 1 <= max_arity <= MAX_ARITY:
        raise DocumentError(f"the maximum arity must be at least 1 and at most {MAX_ARITY}, "
                            f"got {max_arity}")
    report = Report(f"check {kind} ({doc.convention})")

    family, n = doc.family, doc.nary_arity
    if n is not None:
        name = KINDS[kind].equation
        if max_arity is not None and max_arity < 2 * n - 1:
            raise DocumentError(f"the {name} residual of an arity-{n} operation has arity "
                                f"{2 * n - 1}, above the maximum arity {max_arity}")
        arities = [2 * n - 1]
        line, what = f"{name} residual", f"the {name} residual at arity {2 * n - 1}"
    else:
        cap = max_arity if max_arity is not None else family.max_arity
        arities = range(1, cap + 1)
        line, what = f"{kind}/{doc.convention} residual", f"the {kind} check up to arity {cap}"

    flavor = EquationFlavor(kind, family.convention)
    try:
        if check_preconditions:
            require_parity(family, kind)
        else:
            require_collapsible(family, flavor)
    except ConventionError as exc:
        raise DocumentError(str(exc), "operations") from None
    walk = symmetry_walk(family.ops, flavor.variant, flavor.mode) if check_preconditions else ()
    for arity, bad in walk:
        report.add(f"{flavor.mode} symmetry at arity {arity}", bad is None,
                   witness=bad and {"arity": arity, "transposition": list(bad)})
    if report.passed:  # no symmetry line failed
        tables = {}  # each representative table is built once per check
        terms = insertion_term_count(chain.from_iterable(
            residual_insertions(family, flavor, n, tables) for n in arities))
        _require_work(terms, MAX_CHECK_TERMS, f"{what} streams {terms:,} insertion terms")
        for n in arities:
            report.add_fold(f"{line} at arity {n}",
                            residual(family, flavor, n, check_symmetry=False, tables=tables))
    return report.done()


def nary_operation(doc: AlgebraDocument) -> tuple:
    """The arity n and the plain (degree-0) operation of an n-ary document."""
    n = doc.nary_arity
    if n is None:
        raise DocumentError("document does not declare an n-ary type", "declared_type")
    return n, doc.family.operation(n).with_degree(0)


def run_derive(doc: AlgebraDocument, functor: str, n: int | None = None,
               check_preconditions: bool = True) -> AlgebraDocument:
    """Apply one functor and return the derived document (entries sorted on
    serialization).  The five commutator functors take one path:
    `functors.commutator` under the name COMMUTATOR_FUNCTORS gives, on the
    document's family, after the symmetry of the commutator's source kind
    (`equations.COMMUTATORS`, `equations.KINDS`) is checked; a document
    declaring a type of the source kind gives an image declaring the target
    kind's type of the same family (homotopy or n-ary), any other none.
    Convention and type mismatches raise a DocumentError at the
    field they refuse, and so does a symmetrizing functor that would write
    more than MAX_DERIVE_ENTRIES entries, before it starts; violated
    symmetry preconditions raise a SymmetryError.  `nary-embed` applies the
    parser's n-ary rules (`docio.require_nary`) to every document it embeds."""
    declared, declared_n = doc.declared_type, doc.nary_arity

    if functor == "suspend":
        if doc.convention != UNHAT:
            raise DocumentError("suspend expects an unhat document", "convention")
        if declared_n is not None and declared_n > 2:
            raise DocumentError("suspend does not apply to n-ary documents", "declared_type")
        # an n-ary type needs a degree-0 basis, which the suspension leaves;
        # for n <= 2 the family is its own embedding (nary-embed at n = 2)
        derived_type = (EMBED_TYPE[declared[0]], None) if declared_n else declared
        return AlgebraDocument(suspend_family(doc.family), derived_type)

    if functor == "desuspend":
        if doc.convention != HAT:
            raise DocumentError("desuspend expects a hat document", "convention")
        return AlgebraDocument(desuspend_family(doc.family), declared)

    if functor in COMMUTATOR_FUNCTORS:
        name, family = COMMUTATOR_FUNCTORS[functor], doc.family
        if functor.startswith("nary-") and declared_n is None:
            raise DocumentError("n-ary commutators require a declared n-ary type",
                                "declared_type")
        (source, target, mode), variant = COMMUTATORS[name], action_variant(family.convention)
        if check_preconditions:
            require_symmetry(family.ops, variant, KINDS[source].mode, functor)
        if mode != MODE_SHUFFLE:
            entries = sum(arrangement_count(op, variant, mode) for op in family.ops.values())
            _require_work(entries, MAX_DERIVE_ENTRIES,
                          f"{functor} would write up to {entries:,} entries")
        # a source of the commutator's source kind gives an image of the target
        # kind's type, homotopy or n-ary as the source is, keeping n
        image = dict(zip(KINDS[source].types, KINDS[target].types)).get(declared and declared[0])
        return AlgebraDocument(commutator(family, name), image and (image, declared[1]))

    if functor == "nary-embed":
        n_value = n if n is not None else declared_n
        if n_value is None:
            raise DocumentError("nary-embed requires --n or a declared n-ary type")
        if n_value < 1:
            raise DocumentError(f"nary-embed needs --n of at least 1, got {n_value}")
        if 2 * n_value - 1 > MAX_ARITY:
            raise DocumentError(f"nary-embed n = {n_value} needs max_arity {2 * n_value - 1}, "
                                f"above the limit {MAX_ARITY}")
        if declared_n is not None and n_value != declared_n:
            raise DocumentError(
                f"nary-embed n = {n_value} differs from the declared arity {declared_n}")
        require_nary(doc.family, n_value)
        mu = doc.family.operation(n_value).with_degree(0)
        new_type = (EMBED_TYPE[declared[0]], None) if declared_n else None
        return AlgebraDocument(nary_embed(mu), new_type)

    raise DocumentError(f"unknown functor {functor!r}")


def run_coderive(doc: AlgebraDocument, kind: str, weight_cap: int = 4,
                 check_preconditions: bool = True) -> Report:
    """Build the coderivation of the chosen coalgebra and report the
    coderivation law plus the square's cogenerator components; the line
    that the square vanishes up to the cap is their conjunction.

    A weight cap outside 1..MAX_ARITY, or more than MAX_CODERIVE_WORK
    canonical words plus unshuffle blocks up to the cap (`word_count`,
    `block_count`), raises a DocumentError before any work starts, and so
    does an operation that is not homogeneous, at `operations`."""
    try:
        _mode(kind)
    except KindError as exc:
        raise DocumentError(str(exc)) from None
    if not 1 <= weight_cap <= MAX_ARITY:
        raise DocumentError(f"the weight cap must lie in 1..{MAX_ARITY}, got {weight_cap}")
    report = Report(f"coderive {kind} (cap {weight_cap})")
    family = doc.family
    if family.convention == UNHAT:
        family = suspend_family(family)
        report.add("suspended to the hat convention", True)
    words = word_count(kind, family.space, weight_cap)
    blocks = block_count(kind, family.space, weight_cap, family.arities())
    _require_work(words + blocks, MAX_CODERIVE_WORK,
                  f"the {kind} coderivation up to weight {weight_cap} walks {words:,} canonical "
                  f"words and {blocks:,} unshuffle blocks, {words + blocks:,} in all")
    try:
        D = extend_coderivation(family, kind, weight_cap)
    except SymmetryError as exc:
        report.add("symmetry precondition", False,
                   witness={"arity": exc.arity, "transposition": list(exc.transposition)})
        return report.done()
    except ConventionError as exc:
        raise DocumentError(str(exc), "operations") from None
    if check_preconditions:
        report.add("coderivation law up to the cap", check_coderivation(D))
    square_zero = True
    for n in range(1, weight_cap + 1):
        square_zero &= report.add_fold(f"squared coderivation, cogenerator component at "
                                       f"weight {n}", square_cogenerator_fold(D, n))
    # extend_coderivation refuses operations that are not homogeneous of
    # degree -1, so D is an odd coderivation; D o D = [D, D]/2 is then one
    # too and vanishes up to the cap exactly when its cogenerator components
    # do (docs/conventions.md, "Coderivation components")
    report.add("squared coderivation vanishes up to the cap", square_zero)
    return report.done()


def _reached(in_degrees, arities, convention: str) -> set:
    """The degrees of the values of the input words over letters of the
    given degrees at the arities: their sums plus the operation's degree."""
    reached = set()
    for arity in arities:
        sums = {0}
        for _ in range(arity):
            sums = {s + d for s in sums for d in in_degrees}
        reached |= {s + family_degree(convention, arity) for s in sums}
    return reached


def _first_reaching_degrees(degrees, sources: int, dim: int, nilpotent: bool, arities,
                            convention: str) -> list | None:
    """The first degree list, in a fixed order, under which some input word
    over the `sources` leading letters reaches an output letter (a sink, or
    any letter without `nilpotent`), or None when no list does.

    Reaching only grows with the set of degrees the source letters carry
    (and the output letters, which are the same letters without
    `nilpotent`), so the sets of min(sources, distinct degrees) of the
    sorted degrees are tried in lexicographic order, each repeated over
    the sources in turn; the sinks take the smallest degree reached."""
    distinct = sorted(set(degrees))
    if not _reached(distinct, arities, convention) & set(distinct):
        return None
    for chosen in combinations(distinct, min(sources, len(distinct))):
        outputs = _reached(chosen, arities, convention) & set(distinct if nilpotent else chosen)
        if outputs:
            return ([chosen[i % len(chosen)] for i in range(sources)]
                    + [min(outputs)] * (dim - sources))
    return None


def generate_random(dim: int, degrees, arities, sparsity: float, seed: int,
                    convention: str = UNHAT, symmetrize: str = "none",
                    nilpotent: bool = False) -> AlgebraDocument:
    """Seeded, reproducible random document; homogeneous by construction.

    With `nilpotent` the basis is split into sources and sinks: operations
    consume only source letters and emit only sink letters, so every
    composite of two operations vanishes and all six residual systems are
    satisfied by construction.  Together with `symmetrize` this yields honest
    satisfying instances for any flavor.  When every draw of the degrees
    leaves each input word without an output letter, the first degree list
    that gives one (`_first_reaching_degrees`) is taken; degrees that no
    list lets reach raise a DocumentError.
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
    if arities[-1] > MAX_ARITY:
        raise DocumentError(f"arity {arities[-1]} is above the limit {MAX_ARITY}")
    if not 0 <= sparsity <= 1:  # NaN fails both comparisons
        raise DocumentError(f"sparsity must lie in [0, 1], got {sparsity}")
    sink_count = max(1, dim // 2) if nilpotent else 0
    if sum((dim - sink_count) ** arity for arity in arities) > MAX_GENERATE_WORDS:
        # the count itself may have more digits than str() converts
        raise DocumentError(f"generating would walk more than {MAX_GENERATE_WORDS:,} words "
                            f"({dim - sink_count} source letters, arities up to {arities[-1]})")
    rng = random.Random(seed)

    labels = tuple(f"x{i}" for i in range(dim))
    sources = range(dim - sink_count) if nilpotent else range(dim)
    sinks = range(dim - sink_count, dim) if nilpotent else range(dim)

    # draw the degrees until some input word reaches an output letter, at most
    # 21 times (once when a redraw changes nothing)
    for _ in range(21 if len(set(degrees)) > 1 else 1):
        degree_list = [rng.choice(degrees) for _ in range(dim)]
        if _reached({degree_list[i] for i in sources}, arities, convention) \
                & {degree_list[i] for i in sinks}:
            break
    else:
        degree_list = _first_reaching_degrees(degrees, len(sources), dim, nilpotent, arities,
                                              convention)
        if degree_list is None:
            letters = (f"{len(sources)} source and {sink_count} sink letters" if nilpotent
                       else f"{dim} letters")
            raise DocumentError(f"no input word at arity {', '.join(map(str, arities))} reaches "
                                f"an output letter for any assignment of the degrees "
                                f"{sorted(set(degrees))} to {letters}; all would be empty")

    space = GradedSpace(labels, tuple(degree_list))

    variant = action_variant(convention)
    ops = {}
    for arity in arities:
        op = verify.random_operation(rng, space, arity, family_degree(convention, arity),
                                     sparsity, (-2, -1, 1, 2), sources, sinks)
        if symmetrize != "none":
            op = precompose_symmetrized(op, variant, symmetrize)
        if not op.is_zero():
            ops[arity] = op
    family = OperationFamily(convention, space, max(arities), ops)
    return AlgebraDocument(family)


def run_selftest(seed: int = 0, fast: bool = False) -> Report:
    """The cross-module invariant suite, smaller caps than the test suite
    but the same identities."""
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
    for kind in COALGEBRAS:
        report.add(f"coassociativity, {kind}",
                   verify.coassociativity_witness(kind, sp, cap) is None)
    for name in COMMUTATORS:
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

    def skew(n):
        """A random arity-n operation on `flat`, skew in all slots but the last."""
        return precompose_symmetrized(verify.random_operation(rng, flat, n, 0), RHO2,
                                      MODE_PARTIAL)

    for trial in range(rounds):
        for n in (2, 3):
            report.add(f"pre-Lie residual = mu o mu, arity {n}, trial {trial}",
                       verify.lemma_two_routes_witness(skew(n)) is None)
    for n in (2, 3, 4):
        report.add(f"full antisymmetrization = (n-1)! shuffle sum, n={n}",
                   verify.full_vs_shuffle_witness(skew(n)) is None)
    for trial in range(rounds):
        f, g, h = (skew(rng.randint(1, 3)) for _ in range(3))
        report.add(f"graded Jacobi for the circle bracket, trial {trial}",
                   verify.graded_jacobi_witness(f, g, h) is None)
    return report.done()
