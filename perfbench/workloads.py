"""Seeded inputs and fixed job lists for the three benchmark workloads.

Every workload is a list of jobs whose shape (dimensions, arities, caps,
flavors, degree patterns) is fixed; the seed only picks coefficients
and basis orders.  That keeps the work per job nearly the same from seed to
seed, so a timing moves when the program changes, not when the seed does.
Random documents are dense: every input word whose degree allows an output
letter gets an entry, so table shapes do not depend on the seed.

Jobs call the public entry points only: `hopla.cli.main(argv)` for the CLI
verbs and the circle calculus in `hopla.equations` where the CLI does not
reach.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("residual", "coderive", "calculus")

# Degree patterns per dimension: a graded basis with degrees {-1, 0, 1}.
GRADED = {3: (-1, 0, 1), 4: (-1, 0, 0, 1), 5: (-1, 0, 0, 1, 1)}
COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


@dataclass
class Job:
    """One request of the closed loop.

    `argv` jobs run `hopla.cli.main(argv)`; `call` jobs run a public API
    function on objects built during set-up.  `honest` marks inputs that
    satisfy their equations by construction and must pass at every seed.
    `source` is the document a check or coderive job reads, so that a
    printed witness can be re-evaluated; `fixed_witness` pins the witness of
    a failing instance that does not depend on the seed; `output` is the
    file a derive job writes.
    """

    name: str
    argv: list | None = None
    call: tuple | None = None
    honest: bool = False
    source: str | None = None
    fixed_witness: dict | None = None
    output: str | None = None
    sizes: dict = field(default_factory=dict)


class Inputs:
    """Everything set-up produces for one workload at one seed."""

    def __init__(self, workload: str, seed: int, workdir: Path, hopla):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workdir = workdir
        self.h = hopla
        self.rng = random.Random(f"{workload}:{seed}")
        self.documents = {}   # file name -> serialized text
        self.objects = {}     # name -> in-memory operands of `call` jobs
        self.jobs = []
        getattr(self, "_" + workload)()

    # -- documents -------------------------------------------------------

    def _write(self, name: str, doc) -> str:
        text = self.h.docio.serialize_document(doc)
        self.documents[name] = text
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _space(self, degrees):
        labels = tuple(f"x{i}" for i in range(len(degrees)))
        return self.h.graded.GradedSpace(labels, tuple(degrees))

    def _symmetrized(self, op, variant: str, symmetry: str):
        """The op summed over S_(n-1) ("partial") or S_n ("full"), or as is."""
        p = self.h.permutations
        if symmetry == "none":
            return op
        mode = p.MODE_PARTIAL if symmetry == "partial" else p.MODE_FULL
        return p.precompose_symmetrized(op, variant, mode)

    def _dense_operation(self, sp, arity: int, degree: int):
        """Every input word whose degree allows an output letter gets a
        small seeded nonzero coefficient on one such letter.  The letter
        depends on the word only, so the table's shape, and the work it
        causes, is the same at every seed."""
        g = self.h.graded
        table = {}
        for word in itertools.product(range(sp.dim), repeat=arity):
            target = sum(sp.degrees[i] for i in word) + degree
            outs = [i for i in range(sp.dim) if sp.degrees[i] == target]
            if outs:
                out = outs[sum((k + 1) * i for k, i in enumerate(word)) % len(outs)]
                table[word] = g.LinearCombination({out: self.rng.choice(COEFFICIENTS)})
        return g.Operation(sp, arity, degree, table)

    def _random_family(self, convention: str, degrees, arities, symmetry: str,
                       max_arity: int):
        g, p = self.h.graded, self.h.permutations
        sp = self._space(degrees)
        variant = p.RHO1 if convention == g.HAT else p.RHO2
        ops = {}
        for n in arities:
            op = self._symmetrized(self._dense_operation(sp, n, g.family_degree(convention, n)),
                                   variant, symmetry)
            if not op.is_zero():
                ops[n] = op
        return g.OperationFamily(convention, sp, max_arity, ops)

    def _matrix_algebra(self, n: int):
        """M_n in a seeded basis b_ij = c_ij E_ij listed in a seeded order.

        Rescaling and reordering give an isomorphic algebra, so every
        identity M_n satisfies still holds, with the same table sizes."""
        g = self.h.graded
        units = [(i, j) for i in range(n) for j in range(n)]
        self.rng.shuffle(units)
        index = {u: k for k, u in enumerate(units)}
        scale = {u: Fraction(self.rng.choice([1, 2, 3, -1, -2])) for u in units}
        sp = g.GradedSpace(tuple(f"e{i + 1}{j + 1}" for i, j in units), (0,) * len(units))
        table = {}
        for (i, j) in units:
            for (k, l) in units:
                if j == k:
                    coeff = scale[(i, j)] * scale[(k, l)] / scale[(i, l)]
                    table[(index[(i, j)], index[(k, l)])] = g.LinearCombination(
                        {index[(i, l)]: coeff})
        return sp, g.Operation(sp, 2, 0, table)

    def _matrix_family(self, n: int, max_arity: int):
        sp, mu = self._matrix_algebra(n)
        return self.h.graded.OperationFamily(self.h.graded.UNHAT, sp, max_arity, {2: mu})

    def _nary_document(self, dim: int, n: int, symmetry: str, declared: str):
        """A degree-0 n-ary operation with the given skew symmetry."""
        g, p = self.h.graded, self.h.permutations
        sp = self._space((0,) * dim)
        op = self._symmetrized(self._dense_operation(sp, n, 0), p.RHO2, symmetry)
        # documents file an n-ary operation at the unhat degree n - 2
        filed = g.Operation(sp, n, g.family_degree(g.UNHAT, n), op.table)
        family = g.OperationFamily(g.UNHAT, sp, n, {n: filed})
        return self.h.docio.AlgebraDocument(family, (declared, n))

    def _broken_fixture(self):
        """The README's broken dual numbers: t*e = 2t breaks associativity
        at (t, e, e) with value 2t, whatever the seed."""
        g = self.h.graded
        sp = g.GradedSpace(("e", "t"), (0, 0))
        mu = g.Operation(sp, 2, 0, {
            (0, 0): g.LinearCombination({0: 1}),
            (0, 1): g.LinearCombination({1: 1}),
            (1, 0): g.LinearCombination({1: 2}),
        })
        family = g.OperationFamily(g.UNHAT, sp, 3, {2: mu})
        return self.h.docio.AlgebraDocument(family, ("assoc_n", 2))

    def _doc(self, family, declared=None):
        return self.h.docio.AlgebraDocument(family, declared)

    # -- workloads -------------------------------------------------------

    def _check(self, name, path, flavor, max_arity=None, honest=False,
               fixed_witness=None, **sizes):
        argv = ["check", path, "--flavor", flavor, "--json"]
        if max_arity is not None:
            argv += ["--max-arity", str(max_arity)]
        self.jobs.append(Job(name, argv=argv, honest=honest, source=path,
                             fixed_witness=fixed_witness, sizes=sizes))

    def _residual(self):
        """`check` jobs: dense random graded families (which fail with a
        witness), random n-ary documents, and honest matrix algebras with
        their commutator images (which pass)."""
        g, f = self.h.graded, self.h.functors
        # (convention, dim, arities, family max arity, symmetry, checks)
        families = [
            (g.UNHAT, 3, (2, 3), 4, "full", [("assoc", 4), ("prelie", 4), ("lie", 4)]),
            (g.UNHAT, 4, (2, 3), 4, "partial", [("assoc", 4), ("prelie", 4)]),
            (g.UNHAT, 4, (2, 3, 4), 5, "full", [("lie", 4), ("prelie", 4)]),
            (g.UNHAT, 5, (2, 3), 4, "full", [("lie", 4), ("assoc", 3)]),
            (g.HAT, 3, (2, 3, 4), 5, "full", [("lie", 5), ("prelie", 4), ("assoc", 4)]),
            (g.HAT, 4, (2, 3), 4, "partial", [("prelie", 4), ("assoc", 4)]),
            (g.HAT, 4, (2, 3, 4), 5, "full", [("lie", 4), ("prelie", 5)]),
            (g.HAT, 5, (2, 3), 4, "full", [("lie", 4), ("prelie", 4)]),
        ]
        for copy in range(3):
            for k, (conv, dim, arities, cap, sym, checks) in enumerate(families):
                label = f"random{k}.{copy}-{conv}-d{dim}"
                fam = self._random_family(conv, GRADED[dim], arities, sym, cap)
                path = self._write(label + ".json", self._doc(fam))
                for flavor, max_arity in checks:
                    self._check(f"check-{flavor}-{label}-m{max_arity}", path, flavor,
                                max_arity, dim=dim, arities=list(arities))
        for dim in (3, 4):
            for declared, flavor, sym in (("prelie_n", "prelie", "partial"),
                                          ("lie_n", "lie", "full")):
                path = self._write(f"{declared}-d{dim}.json",
                                   self._nary_document(dim, 3, sym, declared))
                self._check(f"check-{flavor}-{declared}-d{dim}", path, flavor,
                            dim=dim, arities=[3])
        for copy in range(3):
            for n in (2, 3):
                fam = self._matrix_family(n, 5)
                images = {"assoc": fam, "gamma": f.commutator(fam, "gamma"),
                          "alpha": f.commutator(fam, "alpha")}
                for conv in (g.UNHAT, g.HAT):
                    # a Lie bracket is not pre-Lie: that check fails with a witness
                    for image, flavors in (("assoc", (("assoc", True),)),
                                           ("gamma", (("prelie", True),)),
                                           ("alpha", (("lie", True), ("prelie", False)))):
                        fam_c = images[image]
                        if conv == g.HAT:
                            fam_c = f.suspend_family(fam_c)
                        label = f"m{n}.{copy}-{image}-{conv}"
                        path = self._write(label + ".json", self._doc(fam_c))
                        for flavor, honest in flavors:
                            self._check(f"check-{flavor}-{label}", path, flavor, 5,
                                        honest=honest, dim=n * n, arities=[2])
        path = self._write("dual_numbers_broken.json", self._broken_fixture())
        self._check("check-assoc-dual-numbers-broken", path, "assoc",
                    fixed_witness={"inputs": ["t", "e", "e"],
                                   "value": [{"label": "t", "coeff": "2"}]},
                    dim=2, arities=[2])

    def _coderive_job(self, label, path, kind, cap, honest=False, **sizes):
        self.jobs.append(Job(
            f"coderive-{kind}-{label}-c{cap}", source=path, honest=honest,
            argv=["coderive", path, "--kind", kind, "--weight-cap", str(cap), "--json"],
            sizes=dict(sizes, cap=cap)))

    def _coderive(self):
        """`coderive` jobs: random families that fail with a witness, and
        square-zero instances (gl_n for wedge, gamma images of matrix
        algebras for perm, the matrix algebras for tensor) that pass."""
        g, f = self.h.graded, self.h.functors
        symmetry = {"wedge": "full", "perm": "partial", "tensor": "none"}
        # (dim, arities, cap, copies) for every kind and convention
        # with degrees (-1, 0) every dim-2 verdict is the same at every seed
        shapes = [((-1, 0), (2, 3), 5, 2), ((-1, 0), (2, 3, 4), 5, 6),
                  (GRADED[3], (2, 3), 4, 4), (GRADED[3], (2, 3), 5, 2),
                  (GRADED[3], (2, 3, 4), 5, 1)]
        for kind in ("wedge", "perm", "tensor"):
            for conv in (g.UNHAT, g.HAT):
                for degrees, arities, cap, copies in shapes:
                    for copy in range(copies):
                        dim = len(degrees)
                        label = f"random.{copy}-{conv}-d{dim}-a{len(arities)}"
                        fam = self._random_family(conv, degrees, arities, symmetry[kind],
                                                  max(arities))
                        path = self._write(f"{kind}-{label}.json", self._doc(fam))
                        self._coderive_job(label, path, kind, cap, dim=dim,
                                           arities=list(arities))
                if kind != "tensor":
                    fam = self._random_family(conv, GRADED[4], (2, 3), symmetry[kind], 3)
                    path = self._write(f"{kind}-random-{conv}-d4.json", self._doc(fam))
                    self._coderive_job(f"random-{conv}-d4", path, kind, 5, dim=4,
                                       arities=[2, 3])
        # (n, copies, {kind: cap}); perm or tensor on M_3 would take a tenth
        # of the round each, so M_3 runs wedge only
        for n, copies, caps in ((2, 2, {"wedge": 6, "perm": 6, "tensor": 5}),
                                (3, 1, {"wedge": 4})):
            for copy in range(copies):
                fam = self._matrix_family(n, 2)
                images = {"wedge": ("gl", f.commutator(fam, "alpha")),
                          "perm": ("gamma", f.commutator(fam, "gamma")),
                          "tensor": ("m", fam)}
                for kind, cap in caps.items():
                    label = f"{images[kind][0]}{n}.{copy}"
                    path = self._write(f"{label}.json", self._doc(images[kind][1]))
                    self._coderive_job(label, path, kind, cap, honest=True,
                                       dim=n * n, arities=[2])

    def _derive_chain(self, label, src, steps, **sizes):
        """Derive jobs; a step without an input reads the previous output."""
        prev = None
        for functor, inp in steps:
            out = str(self.workdir / f"{label}-{functor}.json")
            self.jobs.append(Job(f"derive-{functor}-{label}", output=out, sizes=sizes,
                                 argv=["derive", inp or prev, "--functor", functor, "-o", out]))
            prev = out

    def _calculus(self):
        """`derive` chains, `selftest` runs and direct circle-calculus calls."""
        g, p = self.h.graded, self.h.permutations
        # degree patterns chosen so the chain documents weigh 50-150 KB
        chains = {4: (-1, -1, 0, 1), 5: (-1, -1, 0, 0, 1)}
        for copy in range(3):
            for dim, degrees in chains.items():
                fam = self._random_family(g.UNHAT, degrees, (2, 3, 4), "none", 4)
                label = f"chain{copy}-d{dim}"
                src = self._write(label + ".json", self._doc(fam))
                self._derive_chain(label, src, [
                    ("commutator-gamma", src), ("commutator-beta", None),
                    ("commutator-alpha", src), ("suspend", src), ("desuspend", None)],
                    dim=dim, arities=[2, 3, 4])
            for dim in (3, 4, 5):
                label = f"nary{copy}-d{dim}"
                src = self._write(label + ".json",
                                  self._nary_document(dim, 3, "none", "assoc_n"))
                self._derive_chain(label, src, [
                    ("nary-embed", src), ("nary-commutator-prelie", src),
                    ("nary-commutator-lie", None)], dim=dim, arities=[3])
        # selftest draws its own cases from its seed; fixed seeds keep its work fixed
        for k in range(4):
            self.jobs.append(Job(f"selftest-{k}", honest=True,
                                 argv=["selftest", "--seed", str(k), "--json"]))
        pairs = {3: ((2, 2), (2, 3), (3, 2), (3, 3)), 4: ((2, 2), (2, 3), (3, 2), (3, 3))}
        for copy in range(5):
            for dim, dim_pairs in pairs.items():
                sp = self._space((0,) * dim)
                for a, b in dim_pairs:
                    if dim == 4 and (a, b) == (3, 3) and copy > 1:
                        continue
                    fa, fb = (self._symmetrized(self._dense_operation(sp, n, 0),
                                                p.RHO2, "partial") for n in (a, b))
                    key = f"d{dim}-{a}{b}.{copy}"
                    self.objects[key] = (fa, fb)
                    self.jobs.append(Job(f"circle_bracket-{key}", call=("circle_bracket", key),
                                         sizes={"dim": dim, "arities": [a, b]}))
        for copy in range(2):
            for dim in (3, 4):
                sp = self._space((0,) * dim)
                mu = self._symmetrized(self._dense_operation(sp, 3, 0), p.RHO2, "partial")
                key = f"d{dim}.{copy}"
                self.objects[key] = (mu,)
                self.jobs.append(Job(f"check_prelie_n_two_ways-{key}",
                                     call=("check_prelie_n_two_ways", key),
                                     sizes={"dim": dim, "arities": [3]}))
