"""A mutation check for the sign, scale and boundary sites of hopla.

Each entry of `MUTANTS` changes one exact snippet of one module under
`src/hopla` and names the tests that should notice.  The runner copies
`src/`, `tests/` and `pyproject.toml` into a temporary directory (all
three: the ini's `pythonpath = ["src"]` would otherwise import the
unmutated tree), applies one mutant at a time to the copy and runs its
tests with `pytest -x`, one subprocess at a time.  A mutant is killed when
a test fails and survived when every test passes; a survivor calls for a
new test, not for leaving the mutant out.

    python3 tests/mutants.py                  # every mutant
    python3 tests/mutants.py NAME [NAME ...]  # only the named mutants

The exit code is 0 when every mutant run was killed, 1 otherwise, and 2
when a name is not a mutant's (nothing runs then); a pytest run that ends
in no verdict (a usage or collection error) stops the runner.  This is
opt-in tooling, not a tier-1 test: it runs the named tests once per
mutant.  Tier-1 checks only that each snippet occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

PERMUTATIONS = ("tests/test_permutations.py", "tests/test_coalgebra.py",
                "tests/test_equations.py")
COALGEBRA = ("tests/test_coalgebra.py", "tests/test_oracles.py")
# the component signs that the functors' coalgebra identity alone also kills
INTERTWINED = ("tests/test_functors.py::test_functors_intertwine_the_coderivations_they_induce",
               *COALGEBRA)
# alpha and gamma, read by the coalgebra-map laws and the selftest witnesses
ORBIT_SUM = ("tests/test_coalgebra.py", "tests/test_verify.py")
EQUATIONS = ("tests/test_equations.py", "tests/test_preconditions.py",
             "tests/test_oracles.py")
FUNCTORS = ("tests/test_functors.py", "tests/test_acceptance.py")
DERIVE = ("tests/test_functors.py", "tests/test_preconditions.py", "tests/test_docio_cli.py")
# the selftest identities, each broken where it reads a map or its input
VERIFY = ("tests/test_verify.py",)
# table_from_terms against its oracle first, then the kernels it sums for
TABLES = ("tests/test_graded.py::test_table_from_terms_matches_the_grouped_oracle",
          "tests/test_graded.py::test_table_from_terms_groups_per_word_and_drops_zero_words",
          "tests/test_permutations.py", "tests/test_coalgebra.py")
# the coefficient rule of sum_by_key and of the LinearCombination constructor
COEFFICIENTS = ("tests/test_graded.py::test_sum_by_key_adds_as_given",
                "tests/test_graded.py::test_linear_combination_sums_ints_exactly",
                "tests/test_graded.py::test_linear_combination_drops_zeros")
# the pruned insertion streams against the fold's own test
PRUNED = "tests/test_oracles.py::test_pruned_insertion_streams_are_the_terms_the_fold_keeps"
DOCUMENTS = ("tests/test_docio_cli.py", "tests/test_docio_parser.py")


class Mutant(NamedTuple):
    name: str
    file: str          # under src/hopla
    snippet: str       # occurs exactly once in src/hopla, in that file
    replacement: str
    breaks: str        # what the change gets wrong
    tests: tuple       # the pytest paths that should fail


MUTANTS = (
    Mutant("swap-rule", "permutations.py",
           "            b = letters[j - 1]\n            if (odd[a] and odd[b]) != rho2:",
           "            b = letters[j - 1]\n            if (odd[a] or odd[b]) != rho2:",
           "signed_sort's per-swap rule, and with it sign and koszul_sign", PERMUTATIONS),
    Mutant("stabilizer-rule", "permutations.py",
           "        if odd[letters[j]] != rho2:\n            return 0",
           "        if odd[letters[j]] == rho2:\n            return 0",
           "which orbits stabilizer_order kills", PERMUTATIONS),
    Mutant("arrangement-head-sign", "permutations.py",
           "(rho2 and j % 2 == 1)", "(rho2 and j % 2 == 0)",
           "the rho2 sign of moving letter j to the front in arrangements", PERMUTATIONS),
    Mutant("fold-chi", "permutations.py",
           "chi * stabilizer_order(head, odd, rho2))", "stabilizer_order(head, odd, rho2))",
           "fold's chi of the move to the representative", PERMUTATIONS),
    Mutant("fold-stabilizer", "permutations.py",
           "chi * stabilizer_order(head, odd, rho2))",
           "chi * bool(stabilizer_order(head, odd, rho2)))",
           "fold's |Stab| factor", PERMUTATIONS),
    Mutant("fold-memo-key", "permutations.py",
           "                key = word[:acted]\n                move = moves.get(key)\n"
           "                if move is None:\n                    head = list(key)",
           "                key = word[:acted + 1]\n                move = moves.get(key)\n"
           "                if move is None:\n                    head = list(key[:acted])",
           "fold's memo keyed one slot past the acted head, so the partial mode sorts once per "
           "word", ("tests/test_oracles.py::test_fold_sorts_each_distinct_acted_head_once",)),
    Mutant("expand-unreduced-denominator", "permutations.py",
           "                                     reduced.denominator)",
           "                                     folded.denominator)",
           "expand writing the reduced numerators over the fold's unreduced denominator",
           ("tests/test_oracles.py::test_expand_reduces_on_the_representatives",
            *PERMUTATIONS)),
    Mutant("symmetry-pair-count", "permutations.py",
           "        if unpaired:\n            return k, k + 1",
           "        if False:\n            return k, k + 1",
           "the symmetry walk's count of the stored words whose swapped letters are out of "
           "order, which finds a word whose partner is not stored", PERMUTATIONS),
    Mutant("symmetry-repeated-letter", "permutations.py",
           "            if a == b:\n                if flips:\n                    return k, k + 1\n",
           "            if a == b:\n",
           "the symmetry walk's failure on a repeated letter that the swap acts on by -1",
           PERMUTATIONS),
    Mutant("witness-min", "graded.py",
           "word = min(numerators)", "word = max(numerators)",
           "first_entry's smallest word, the printed witness of an operation and of a "
           "Folded sum",
           ("tests/test_oracles.py", "tests/test_docio_cli.py")),
    Mutant("block-count", "permutations.py",
           "count = size // stabilizer_order(block, even, False)", "count = size",
           "block_representatives' arrangement count of a block that repeats a letter",
           ("tests/test_permutations.py", "tests/test_equations.py", "tests/test_oracles.py")),
    Mutant("tensor-prefix-parity", "coalgebra.py",
           "signed = negated if sum(odd[x] for x in prefix) % 2 else table",
           "signed = table",
           "the sign of mu passing an odd prefix in tensor components", INTERTWINED),
    Mutant("perm-tail-sign", "coalgebra.py",
           "parity = -1 if sum(odd[x] for x in front) % 2 else 1", "parity = 1",
           "the sign of mu passing the front letters in Perm tail terms", INTERTWINED),
    Mutant("component-multiplicity", "coalgebra.py",
           "sign *= comb(word.count(x), left.count(x))", "sign *= 1",
           "the number of unshuffles giving a split in the wedge and Perm components",
           COALGEBRA),
    Mutant("component-merge-sign", "coalgebra.py",
           "sign = signed_sort(word, odd, False)", "sign = signed_sort(word, odd, False) ** 2",
           "the Koszul sign of merging an entry with a rest in the wedge and Perm components",
           COALGEBRA),
    Mutant("component-shared-odd", "coalgebra.py",
           "if shared and any(odd[x] for x in shared):", "if False:",
           "the wedge and Perm components' drop of a product that repeats an odd letter",
           COALGEBRA),
    Mutant("perm-head-middle-letter", "coalgebra.py",
           "else merged(e[:-1], e[-1:])", "else wedge_normalize(sp, e)[:2]",
           "the Perm multinomial's factor for a middle letter y that repeats a letter of Lh",
           COALGEBRA),
    Mutant("perm-head-tails", "coalgebra.py",
           "for tail in tails:", "for tail in tails[:1]:",
           "the copy of each Perm head term to every tail", COALGEBRA),
    Mutant("builder-first-weight", "coalgebra.py",
           "    for k in range(a, cap + 1):\n        yield k,",
           "    for k in range(a + 1, cap + 1):\n        yield k,",
           "the builder's first weight, the operation's arity, so the (n, 1) component is lost",
           COALGEBRA),
    Mutant("orbit-sum-sign", "coalgebra.py",
           "order if c == chi else -order", "order",
           "the Koszul sign of each arrangement in alpha and gamma's orbit sums",
           ORBIT_SUM),
    Mutant("component-scale", "coalgebra.py",
           "den // op.denominator", "1",
           "extend_coderivation's scale of each operation to the common denominator",
           INTERTWINED),
    Mutant("square-denominator", "coalgebra.py",
           "D.denominator ** 2", "D.denominator",
           "the denominator of square_cogenerator_fold's products of two components", COALGEBRA),
    Mutant("negative-block", "coalgebra.py",
           "    if min(blocks) < 0:\n        return ()", "    if False:\n        return ()",
           "_signed_unshuffles' empty sum for a negative block", COALGEBRA),
    Mutant("coproduct-reader-run", "coalgebra.py",
           "return itemgetter(slice(start, start + len(slots)))",
           "return itemgetter(slice(start, start + len(slots) - 1))",
           "the reader of a split factor whose slots form one contiguous run: it stops one "
           "slot short", COALGEBRA),
    Mutant("zero-block-drop", "coalgebra.py",
           "tuple(b for b in blocks if b)", "blocks",
           "_signed_unshuffles' drop of the zero blocks before the unshuffle table", COALGEBRA),
    Mutant("law-sign", "coalgebra.py",
           "                if sum(par[x] for x in left) % 2:\n                    s = -s",
           "                if False:\n                    s = -s",
           "the Id (x) D sign of the wedge and Perm law line", COALGEBRA),
    Mutant("tensor-law-sign", "coalgebra.py",
           "                s = -1 if sum(par[x] for x in prefix) % 2 else 1",
           "                s = 1",
           "the Id (x) D sign of the tensor law line: the sign of D_(a,1) passing the "
           "block's prefix", COALGEBRA),
    Mutant("tensor-law-lower-block", "coalgebra.py",
           "D.components.get((k - 1, l - 1), {})", "D.components.get((k - 1, l), {})",
           "the lower table of the tensor law's block (k, l): D_(k-1,l-1), whose image "
           "words gain the last letter and reach weight l", COALGEBRA),
    Mutant("tensor-law-zero-filter", "coalgebra.py",
           "return expected == kept and", "return False and",
           "the tensor law line's drop of explicit zero numerators from D_(k,l) before it "
           "compares the block", COALGEBRA),
    Mutant("tensor-law-zero-block-canonical", "coalgebra.py",
           " and all(tensor_word(w, k) and all(tensor_word(v, l) for v in row)\n"
           "                                        for w, row in table.items())", "",
           "the canonicity test of a tensor block that matches only once its explicit zeros "
           "are dropped, the one block whose words the lower tables do not certify",
           ("tests/test_coalgebra.py::"
            "test_law_line_fails_tables_holding_words_that_are_not_canonical",)),
    Mutant("tensor-law-cogenerator-canonical", "coalgebra.py",
           "if l == 1 for w, row in comp.items()", "if False for w, row in comp.items()",
           "the canonicity test of the tensor (k, 1) tables, which every block's words rest on",
           ("tests/test_coalgebra.py::"
            "test_law_line_fails_tables_holding_words_that_are_not_canonical",)),
    Mutant("law-source-weight", "coalgebra.py",
           "                for _, comp in source[k - 1]:",
           "                for _, comp in source[k]:",
           "the source weight the wedge and Perm law line reads D (x) Id at: the cut's left "
           "word has weight k - 1", COALGEBRA),
    Mutant("law-image-words", "coalgebra.py",
           " and all(row.keys() <= words[l] for row in comp.values())", "",
           "the law line's refusal of a table whose image words are not canonical",
           ("tests/test_coalgebra.py::"
            "test_law_line_fails_tables_holding_words_that_are_not_canonical",)),
    Mutant("fold-output-letter", "coalgebra.py",
           "(cw, z, c * cc)", "(cw, u[0], c * cc)",
           "the output letter of square_cogenerator_fold's terms, the letter D_(l,1) gives",
           COALGEBRA),
    Mutant("unhat-sign", "equations.py",
           "(j * (i - m - 1) + m) % 2", "(j * (i - m - 1)) % 2",
           "_coefficient's unhat sign", EQUATIONS),
    Mutant("prelie-factorials", "equations.py",
           "c /= factorial(i - 1) * factorial(acted_count(flavor.mode, j))",
           "c /= factorial(acted_count(flavor.mode, j))",
           "_coefficient's (i-1)! normalization of the collapsed outer positions", EQUATIONS),
    Mutant("lie-factorials", "equations.py",
           "factorial(acted_count(flavor.mode, j))", "factorial(j)",
           "_coefficient's acted(j)! normalization, which is (j-1)! for pre-Lie", EQUATIONS),
    Mutant("collapse-multiplicity", "equations.py",
           "a * coefficient(0)", "coefficient(0)",
           "_positions' count of the positions the collapsed one stands for", EQUATIONS),
    Mutant("collapse-outer-block", "equations.py",
           "a * coefficient(0), (1, a))", "a * coefficient(0), (0, a))",
           "_positions' outer block at the collapsed position, which the inner output leaves",
           EQUATIONS),
    Mutant("kept-positions", "equations.py",
           "range(a, i)", "range(a + 1, i)",
           "_positions' positions outside the acted slots, each kept", EQUATIONS),
    Mutant("inner-block", "equations.py",
           "acted_count(mode, inner.arity)", "inner.arity",
           "_insertions' inner block, the inner operation's acted slots only", EQUATIONS),
    Mutant("insert-fold-scale", "equations.py",
           "den // (coeff.denominator * operands)", "den // coeff.denominator",
           "_insert_fold's scale of each insertion's operands to the common denominator",
           EQUATIONS),
    Mutant("parity-refusal", "equations.py",
           "    if kind == ASSOC or not any(odd):\n        return",
           "    if True:\n        return",
           "require_parity's refusal of parity-inhomogeneous pre-Lie and Lie families",
           ("tests/test_docio_cli.py::test_library_residual_refuses_what_check_refuses",
            *EQUATIONS)),
    Mutant("odd-inner-sign", "graded.py",
           "               if inner.degree % 2 else None)",
           "               if False else None)",
           "insertion_terms' sign of an odd inner operation passing the letters before it",
           ("tests/test_graded.py", "tests/test_equations.py")),
    Mutant("numerators-gcd", "graded.py",
           "g = gcd(g, *sums.values())", "g = 1",
           "Operation.from_numerators' reduction by the gcd, which keeps equal maps equal",
           ("tests/test_graded.py", "tests/test_permutations.py", "tests/test_oracles.py")),
    Mutant("unweighted-outer-histogram", "graded.py",
           "for word, sums in outer.numerators.items() for _ in sums",
           "for word, sums in outer.numerators.items()",
           "insertion_term_count's weight of each outer entry by its output terms",
           ("tests/test_equations.py", "tests/test_docio_cli.py")),
    Mutant("outer-histogram-position", "graded.py",
           "                word[position] for word, sums in outer.numerators.items()",
           "                word[0] for word, sums in outer.numerators.items()",
           "insertion_term_count's outer histogram read at the first slot, not at the "
           "inserted position", ("tests/test_equations.py", "tests/test_docio_cli.py")),
    Mutant("prune-inner-span", "graded.py",
           "span = max(0, min(inner.arity, acted - position))",
           "span = max(0, min(inner.arity, acted - position) - 1)",
           "insertion_terms' inner letters inside the acted slots, which stopped one short",
           (PRUNED,)),
    Mutant("prune-outer-stop", "graded.py",
           "stop = max(position + 1, acted - inner.arity + 1)",
           "stop = max(position + 1, acted - inner.arity + 2)",
           "insertion_terms' outer letters inside the acted slots, which reached one too far",
           (PRUNED,)),
    Mutant("prune-shared-bit", "graded.py",
           "                if bits & taken:\n                    continue",
           "                if not bits & taken:\n                    continue",
           "insertion_terms' skip of a pair whose two parts share a killing letter", (PRUNED,)),
    Mutant("table-cancel-kept", "graded.py",
           "            del sums[letter]\n            cancelled = True",
           "            cancelled = True",
           "table_from_terms' deletion of a letter whose sum cancels, which kept zero numerators",
           TABLES),
    Mutant("table-empty-word-kept", "graded.py",
           "    if cancelled:\n        return {word: sums",
           "    if False:\n        return {word: sums",
           "table_from_terms' final drop of the words left with no letter", TABLES),
    Mutant("sum-by-key-to-fractions", "graded.py",
           "    return data\n\n\ndef over(",
           "    return {key: Fraction(c) for key, c in data.items()}\n\n\ndef over(",
           "sum_by_key's coefficient rule, which made every sum a Fraction", COEFFICIENTS),
    Mutant("scaled-to-fractions", "graded.py",
           "        if factor.__class__ is not int and factor.__class__ is not Fraction:\n"
           "            factor = Fraction(factor)",
           "        factor = Fraction(factor)",
           "LinearCombination.scaled's int factor, which made an int combination's values "
           "Fractions under scaled and subtraction",
           ("tests/test_graded.py::"
            "test_int_combinations_stay_int_under_scaled_and_subtraction",)),
    Mutant("combination-skips-conversion", "graded.py",
           "c if c.__class__ is int or c.__class__ is Fraction",
           "c if c.__class__ is not bool",
           "the LinearCombination constructor's exact conversion of a float on entry",
           COEFFICIENTS),
    Mutant("suspension-even-sign", "functors.py",
           "for p in range(0, arity, 2))", "for p in range(1, arity, 2))",
           "suspension_sign at even arity", FUNCTORS),
    Mutant("suspension-odd-sign", "functors.py",
           "    return 1 if s % 2 else -1", "    return -1 if s % 2 else 1",
           "suspension_sign at odd arity", FUNCTORS),
    Mutant("shift-base-degrees", "functors.py",
           "(op.space if by == 1 else target).degrees", "(target if by == 1 else target).degrees",
           "the shift's unshifted degrees when suspending", FUNCTORS),
    Mutant("shift-degree-sign", "functors.py",
           "op.degree - by * (op.arity - 1)", "op.degree + by * (op.arity - 1)",
           "the sign of the shifted operation's degree", FUNCTORS),
    Mutant("nary-convention-rule", "docio.py",
           "        if convention != UNHAT:", "        if False:",
           "the parser's refusal of an n-ary document under the hat convention", DOCUMENTS),
    Mutant("nary-basis-rule", "docio.py",
           "    if not family.space.is_concentrated_in_degree_zero():", "    if False:",
           "the n-ary rule's refusal of a letter of nonzero degree, in the parser and in "
           "nary-embed",
           DOCUMENTS),
    Mutant("nary-arity-rule", "docio.py",
           "    if family.ops.keys() - {n}:", "    if False:",
           "the n-ary rule's refusal of an operation at another arity, in the parser and in "
           "nary-embed",
           DOCUMENTS),
    Mutant("nary-prelie-commutator", "drivers.py",
           '"nary-commutator-prelie": "gamma"', '"nary-commutator-prelie": "beta"',
           "the commutator that nary-commutator-prelie applies", DERIVE),
    Mutant("nary-image-type", "drivers.py",
           "dict(zip(KINDS[source].types, KINDS[target].types))",
           "dict(zip(KINDS[source].types, KINDS[source].types))",
           "the type a commutator's image declares, which is its target kind's, not its "
           "source kind's", DERIVE),
    Mutant("nary-embed-rule-at-n", "drivers.py",
           "        require_nary(doc.family, n_value)",
           "        n_value not in doc.family.ops or require_nary(doc.family, n_value)",
           "nary-embed's n-ary rules applied only when an operation sits at n, which embedded "
           "the zero operation and dropped the others", DOCUMENTS),
    Mutant("work-limit-boundary", "drivers.py",
           "    if count > limit:", "    if count >= limit:",
           "the work bounds' refusal of work at the limit, not only above it",
           ("tests/test_docio_cli.py",)),
    Mutant("symmetry-walk-first-failure", "permutations.py",
           "        yield n, failing_symmetry_generator(ops[n], variant, full=mode == MODE_FULL)",
           "        bad = failing_symmetry_generator(ops[n], variant, full=mode == MODE_FULL)\n"
           "        yield n, bad\n"
           "        if bad is not None:\n"
           "            return",
           "the symmetry walk stopping at the first failing arity, so check reports no later "
           "arity", ("tests/test_docio_cli.py", "tests/test_preconditions.py")),
    Mutant("verify-koszul-tau-walk", "verify.py",
           "    for tau in all_permutations(n):\n        permuted",
           "    for tau in all_permutations(n)[:1]:\n        permuted",
           "the Koszul composition law walked at tau = identity only, where it always holds",
           VERIFY),
    Mutant("verify-unshuffle-duplicates", "verify.py",
           "if len(set(found)) != len(found):", "if False:",
           "the unshuffle partition's check for a repeated unshuffle", VERIFY),
    Mutant("verify-word-walk", "verify.py",
           "range(1, cap + 1) for word in coalgebra_words(kind, space, k)",
           "range(1, cap) for word in coalgebra_words(kind, space, k)",
           "the one word walk of the coalgebra witnesses stopping one weight short of the cap",
           VERIFY),
    Mutant("verify-coassociativity-walk", "verify.py",
           "    return _first_failing_word(kind, space, cap, fails)",
           "    return _first_failing_word(kind, space, cap - 1, fails)",
           "the coassociativity walk stopping one weight short of the cap", VERIFY),
    Mutant("verify-map-law-compare", "verify.py",
           "        return lhs != rhs\n", "        return lhs != lhs\n",
           "the coalgebra-map law comparing Delta o m with itself", VERIFY),
    Mutant("verify-map-law-domain", "verify.py",
           "domain, codomain = KINDS[target].coalgebra, KINDS[source].coalgebra",
           "domain, codomain = KINDS[source].coalgebra, KINDS[target].coalgebra",
           "the coalgebra-map law walking the source kind's coalgebra, not the target's",
           VERIFY),
    Mutant("verify-factorization-walk", "verify.py",
           "        return via != coalgebra_map(\"alpha\", space, word)\n\n"
           "    return _first_failing_word(WEDGE, space, cap, fails)",
           "        return via != coalgebra_map(\"alpha\", space, word)\n\n"
           "    return _first_failing_word(WEDGE, space, cap - 1, fails)",
           "the gamma o beta = alpha walk stopping one weight short of the cap", VERIFY),
    Mutant("verify-section-compare", "verify.py",
           "return image != LinearCombination({word: 1})", "return image != image",
           "pi o alpha compared with itself, not with the identity", VERIFY),
    Mutant("verify-correspondence-component", "verify.py",
           "if square_cogenerator_component(D, n) != hat_res:", "if False:",
           "the correspondence's comparison of the squared coderivation with the residual",
           VERIFY),
    Mutant("verify-pipeline-alpha", "verify.py",
           "    if b != a:", "    if False:",
           "the commutator pipeline's comparison of beta o gamma with alpha", VERIFY),
    Mutant("verify-jacobi-compare", "verify.py",
           "    if lhs != rhs:\n        return (f.arity",
           "    if lhs != lhs:\n        return (f.arity",
           "the graded Jacobi identity comparing its left side with itself", VERIFY),
    Mutant("beta-precondition", "drivers.py",
           "require_symmetry(family.ops, variant, KINDS[source].mode, functor)",
           "require_symmetry(family.ops, variant, KINDS[target].mode, functor)",
           "the symmetry derive checks first, which is the commutator's source kind's mode, so "
           "only beta checks for partial symmetry", DERIVE),
    Mutant("dictionary-coalgebras", "equations.py",
           "PRELIE: Kind(MODE_PARTIAL, PERM, (\"pl_infinity\", \"prelie_n\"), PRELIE),\n"
           "         LIE: Kind(MODE_FULL, WEDGE,",
           "PRELIE: Kind(MODE_PARTIAL, WEDGE, (\"pl_infinity\", \"prelie_n\"), PRELIE),\n"
           "         LIE: Kind(MODE_FULL, PERM,",
           "the dictionary's coalgebras of the pre-Lie and Lie kinds swapped, perm for wedge",
           COALGEBRA),
    Mutant("dictionary-nary-types", "equations.py",
           "(\"pl_infinity\", \"prelie_n\"), PRELIE),\n         LIE: Kind(MODE_FULL, WEDGE, "
           "(\"l_infinity\", \"lie_n\"), LIE)",
           "(\"pl_infinity\", \"lie_n\"), PRELIE),\n         LIE: Kind(MODE_FULL, WEDGE, "
           "(\"l_infinity\", \"prelie_n\"), LIE)",
           "the dictionary's n-ary types of the pre-Lie and Lie kinds swapped", DERIVE),
    Mutant("dictionary-gamma-mode", "equations.py",
           "\"gamma\": Commutator(ASSOC, PRELIE, MODE_PARTIAL)",
           "\"gamma\": Commutator(ASSOC, PRELIE, MODE_FULL)",
           "gamma summing over the whole symmetric group, alpha's mode, not over the head",
           (*FUNCTORS, *ORBIT_SUM)),
    Mutant("dictionary-equations", "equations.py",
           "\"prelie_n\"), PRELIE),\n         LIE: Kind(MODE_FULL, WEDGE, (\"l_infinity\", "
           "\"lie_n\"), LIE)",
           "\"prelie_n\"), LIE),\n         LIE: Kind(MODE_FULL, WEDGE, (\"l_infinity\", "
           "\"lie_n\"), PRELIE)",
           "the dictionary's n-ary equations of the pre-Lie and Lie kinds swapped", DERIVE),
    Mutant("coalgebras-order", "equations.py",
           "COALGEBRAS = (TENSOR, WEDGE, PERM)", "COALGEBRAS = (TENSOR, PERM, WEDGE)",
           "the coalgebras listed in the table's order, not the CLI's",
           ("tests/test_docio_cli.py::test_the_cli_and_selftest_list_the_kinds_in_one_order",)),
    Mutant("variant-rho2", "permutations.py",
           "    return variant == RHO2\n", "    return variant == RHO1\n",
           "_is_rho2 answering rho1, so fold, the shuffle sum and the symmetry walk act by the "
           "other action", PERMUTATIONS),
    Mutant("wedge-merge-sign", "coalgebra.py",
           "            sign = signed_sort(word, odd, False)\n            for x in shared:",
           "            sign = signed_sort(word, odd, wedge)\n            for x in shared:",
           "the wedge components' merge sign flipped on every swap of the merged factors "
           "(the Perm components keep theirs)",
           ("tests/test_coalgebra.py::test_wedge_square_is_the_lada_markl_lie_relation",)),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Replace the mutant's snippet in the copy of its module under `src`."""
    path = src / "hopla" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet does not occur exactly once "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def run(mutant: Mutant) -> bool:
    """True when the mutant is killed: some named test fails on the copy."""
    with tempfile.TemporaryDirectory(prefix="hopla-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        apply(mutant, copy / "src")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        result = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                                 "-p", "no:cacheprovider", *mutant.tests],
                                cwd=copy, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):  # not a test verdict: a usage or collection error
        raise RuntimeError(f"{mutant.name}: pytest exited {result.returncode}\n"
                           f"{result.stdout[-2000:]}{result.stderr[-2000:]}")
    return result.returncode == 1


def main(names=()) -> int:
    """Run the named mutants, or every mutant when none is named."""
    unknown = sorted(set(names) - {mutant.name for mutant in MUTANTS})
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    survivors = []
    for mutant in chosen:
        killed = run(mutant)
        print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name}: {mutant.breaks}",
              flush=True)
        if not killed:
            survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
