"""Graded vector spaces, tensor words and sparse multilinear operations.

Everything is exact.  An operation is stored as integer numerators over
one normalized denominator; the kernels compute on those ints, stream
them (`insertion_terms`, bounded ahead by `insertion_term_count`) and
build results with the unchecked `Operation.from_numerators`.  Every
operation table is summed per word and output letter by
`table_from_terms`, in one pass; every other sum by key (a value, a
word's image, a parsed entry) goes through `sum_by_key`.  Both add ints
and Fractions as given, so an integer sum stays an int.  `over` is the
one place a numerator over a denominator becomes a `fractions.Fraction`,
when a value is read, so residuals that end in factorial denominators
either vanish identically or carry an honest nonzero witness.  All
containers are treated as immutable after construction; functions return
fresh objects.

A tensor word is a plain tuple of 0-based basis indices.  An Operation stores
structure constants sparsely: absent input words evaluate to zero, and there
is no notion of "undefined".
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import ArityError, BasisIndexError, ConventionError, GradingError, PositionError

Word = tuple  # tuple[int, ...], 0-based basis indices

ZERO = Fraction(0)


@dataclass(frozen=True)
class GradedSpace:
    """Finite ordered basis with integer degrees.  Labels must be unique.

    `parities` (degree mod 2 per letter) and `positions` (label -> basis
    index) are plain attributes, not fields, so they take no part in
    equality or hashing.
    """

    labels: tuple
    degrees: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.degrees):
            raise ValueError("labels and degrees differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        object.__setattr__(self, "parities", tuple(d % 2 for d in self.degrees))
        object.__setattr__(self, "positions", {label: i for i, label in enumerate(self.labels)})

    @property
    def dim(self) -> int:
        return len(self.labels)

    def degree(self, index: int) -> int:
        if not 0 <= index < self.dim:
            raise BasisIndexError(f"basis index {index} out of range for dim {self.dim}")
        return self.degrees[index]

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except (KeyError, TypeError):  # unknown or unhashable
            raise BasisIndexError(f"unknown basis label {label!r}") from None

    def is_concentrated_in_degree_zero(self) -> bool:
        return all(d == 0 for d in self.degrees)

    def require_degree_zero(self, what: str) -> None:
        if not self.is_concentrated_in_degree_zero():
            raise GradingError(f"{what} requires a space concentrated in degree 0")


def space(*basis) -> GradedSpace:
    """Convenience constructor: space(("e", 0), ("t", 0))."""
    labels = tuple(b[0] for b in basis)
    degrees = tuple(b[1] for b in basis)
    return GradedSpace(labels, degrees)


def word_degree(sp: GradedSpace, word: Word) -> int:
    """Sum of the degrees of the word's entries."""
    return sum(sp.degree(i) for i in word)


class LinearCombination:
    """Sparse linear combination with exact coefficients: a value read off an operation.

    Keys may be anything hashable (basis indices, words, pairs of words);
    a single combination never mixes key shapes.  Zero coefficients are
    dropped eagerly so that `==` is semantic equality.

    The constructor sums through `sum_by_key`, the accumulator of values.
    A coefficient that is neither an int nor a Fraction (a float, a bool)
    converts to an exact Fraction on entry, before the sum; ints and
    Fractions are added as given, so a combination summed from ints holds
    ints, and one read off an operation through `over` holds Fractions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | Iterable | None = None):
        if not terms:
            self.terms = {}
            return
        # a list, the common case, skips the slower Mapping check
        pairs = (terms if terms.__class__ is list
                 else terms.items() if isinstance(terms, Mapping) else terms)
        self.terms = sum_by_key((key, c if c.__class__ is int or c.__class__ is Fraction
                                 else Fraction(c)) for key, c in pairs)

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, key) -> Fraction:
        return self.terms.get(key, ZERO)

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        return LinearCombination(itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "LinearCombination":
        """factor times the combination; factor 1 returns the combination
        itself.  An int or Fraction factor multiplies as given, so an int
        factor keeps an int combination integer; any other converts exactly,
        as on entry to the constructor."""
        if factor == 1:
            return self
        if factor.__class__ is not int and factor.__class__ is not Fraction:
            factor = Fraction(factor)
        return LinearCombination({k: c * factor for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearCombination) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{k}" for k, c in sorted(self.terms.items(), key=lambda t: repr(t[0])))


def sum_by_key(items) -> dict:
    """The accumulator of values: every sum of coefficients by key that is
    not an operation table (those go to `table_from_terms`) goes through
    it.  Sums the (key, coefficient) pairs by key and drops every key whose
    sum is zero; a key whose sum cancels and comes back goes last.
    Coefficients are ints or Fractions and are added as given, the rule of
    `table_from_terms`: integer sums stay ints, and nothing is converted."""
    data = {}
    for key, coeff in items:
        old = data.get(key)
        if old is None:
            if coeff:
                data[key] = coeff
        else:
            coeff += old
            if coeff:
                data[key] = coeff
            else:
                del data[key]
    return data


def over(numerators: Mapping, denominator: int) -> LinearCombination:
    """The combination numerators / denominator, one Fraction per entry: the
    one place a numerator over a denominator becomes a Fraction."""
    return LinearCombination([(key, Fraction(n, denominator)) for key, n in numerators.items()])


def first_entry(numerators: Mapping, denominator: int):
    """The smallest word of a table of numerators over a denominator, with
    its value, or None when the table is empty: the one reader of a
    witness, for an operation and for a folded sum alike."""
    if not numerators:
        return None
    word = min(numerators)
    return word, over(numerators[word], denominator)


def table_from_terms(terms) -> dict:
    """Operation table {word: {output letter: sum}} from (word, output
    letter, coefficient) terms, summed in one pass: the accumulator of
    tables, beside `sum_by_key` and with its rule.  Coefficients are ints
    or Fractions and are added as given (nothing is converted), so integer
    numerators stay ints.  A letter whose sum cancels is deleted there,
    and the words left with no letter are dropped at the end.  A word
    keeps the place of its first term and a cancelled letter that comes
    back goes last, the order `sum_by_key` gives."""
    table = {}
    cancelled = False
    for word, letter, coeff in terms:
        sums = table.get(word)
        if sums is None:
            sums = table[word] = {}
        sums[letter] = c = sums.get(letter, 0) + coeff
        if not c:
            del sums[letter]
            cancelled = True
    if cancelled:
        return {word: sums for word, sums in table.items() if sums}
    return table


class Operation:
    """Homogeneous multilinear map given by sparse structure constants.

    `numerators` maps input words to {output letter: nonzero int} over
    `denominator`, the lcm of the values' reduced denominators, so equal
    maps have equal pairs.  The constructor checks a `table` of values
    (words to what LinearCombination takes); `from_numerators` does not.
    Homogeneity is *checked*, not enforced, by `check_homogeneous`.
    """

    __slots__ = ("space", "arity", "degree", "numerators", "denominator")

    def __init__(self, space: GradedSpace, arity: int, degree: int, table: Mapping | None = None):
        if arity < 1:
            raise ArityError(f"arity must be >= 1, got {arity}")
        values = {}
        dim = space.dim
        for word, combo in (table or {}).items():
            word = tuple(word)
            if len(word) != arity:
                raise ArityError(f"table word {word} has length {len(word)}, arity is {arity}")
            for i in word:
                if not 0 <= i < dim:
                    raise BasisIndexError(f"basis index {i} out of range in word {word}")
            terms = (combo if isinstance(combo, LinearCombination) else LinearCombination(combo)).terms
            for x in terms:
                if not 0 <= x < dim:
                    raise BasisIndexError(f"output letter {x} out of range for word {word}")
            if terms:
                values[word] = terms
        den = lcm(*{c.denominator for terms in values.values() for c in terms.values()})
        self.space, self.arity, self.degree, self.denominator = space, arity, degree, den
        self.numerators = {word: {x: c.numerator * (den // c.denominator) for x, c in terms.items()}
                           for word, terms in values.items()}

    @classmethod
    def from_numerators(cls, space: GradedSpace, arity: int, degree: int, numerators: dict,
                        denominator: int) -> "Operation":
        """numerators / denominator, unchecked: words of length `arity` to nonempty
        dicts of nonzero ints.  Both are divided by their gcd, or kept if it is 1."""
        g = denominator
        for sums in numerators.values():
            if g == 1:
                break
            g = gcd(g, *sums.values())
        if g > 1:
            numerators = {word: {letter: c // g for letter, c in sums.items()}
                          for word, sums in numerators.items()}
            denominator //= g
        op = cls.__new__(cls)
        op.space, op.arity, op.degree = space, arity, degree
        op.numerators, op.denominator = numerators, denominator
        return op

    def with_degree(self, degree: int) -> "Operation":
        """The same map under another declared degree."""
        return Operation.from_numerators(self.space, self.arity, degree, self.numerators,
                                         self.denominator)

    @property
    def table(self) -> Mapping:
        """The values, read-only: input words to `over` of their numerators."""
        return _Values(self)

    def evaluate(self, word: Word) -> LinearCombination:
        """Structure constants of the given input word (zero when absent)."""
        word = tuple(word)
        if len(word) != self.arity:
            raise ArityError(f"word length {len(word)} != arity {self.arity}")
        return over(self.numerators.get(word, {}), self.denominator)

    def is_zero(self) -> bool:
        return not self.numerators

    def __add__(self, other: "Operation") -> "Operation":
        if self.space != other.space or self.arity != other.arity:
            raise ArityError("cannot add operations on different spaces or arities")
        return linear_sum(self.space, self.arity, self.degree, ((self, 1), (other, 1)))

    def scaled(self, factor) -> "Operation":
        """factor times the operation; factor 1 returns the operation itself."""
        if factor == 1:
            return self
        return linear_sum(self.space, self.arity, self.degree, ((self, factor),))

    def __neg__(self) -> "Operation":
        return self.scaled(-1)

    def __sub__(self, other: "Operation") -> "Operation":
        return self + other.scaled(-1)

    def __eq__(self, other) -> bool:
        """Equality as maps: same space, arity and structure constants.

        The declared degree is deliberately not compared; a zero operation
        carries an arbitrary one.
        """
        return (isinstance(other, Operation)
                and self.space == other.space
                and self.arity == other.arity
                and self.denominator == other.denominator
                and self.numerators == other.numerators)

    def __repr__(self):
        return f"Operation(arity={self.arity}, degree={self.degree}, entries={len(self.numerators)})"

    def first_nonzero_entry(self):
        """Smallest input word with a nonzero value, or None.  Used for witnesses."""
        return first_entry(self.numerators, self.denominator)


@dataclass(eq=False)
class _Values(Mapping):
    op: Operation

    def __getitem__(self, word) -> LinearCombination:
        return over(self.op.numerators[word], self.op.denominator)

    def __iter__(self):
        return iter(self.op.numerators)

    def __len__(self):
        return len(self.op.numerators)


def linear_sum(sp: GradedSpace, arity: int, degree: int, terms) -> Operation:
    """sum of coeff * op over the (op, coeff) pairs, accumulated into one
    table of integer numerators over a common denominator."""
    terms = [(op, Fraction(coeff)) for op, coeff in terms]
    den = lcm(*(op.denominator * coeff.denominator for op, coeff in terms))
    factors = [(op, coeff.numerator * (den // (op.denominator * coeff.denominator)))
               for op, coeff in terms]
    return Operation.from_numerators(sp, arity, degree, table_from_terms(
        (word, out, c * factor) for op, factor in factors
        for word, sums in op.numerators.items() for out, c in sums.items()), den)


def check_homogeneous(op: Operation) -> bool:
    """True iff every stored entry satisfies output degree = input degree + op degree."""
    for word, sums in op.numerators.items():
        in_deg = word_degree(op.space, word)
        for out in sums:
            if op.space.degree(out) != in_deg + op.degree:
                return False
    return True


def insertion_terms(outer: Operation, inner: Operation, position: int, scale=1, kills=None):
    """The (word, output letter, numerator) terms of
    scale * outer o (I_position (x) inner (x) I_rest), with the Koszul sign
    of the tensor rule for maps: inner of odd degree picks up the parity of
    whatever it moves past.

    On a word (x_1, ..., x_{i+j-1}) the insertion is
    (-1)^(|inner| * (|x_1|+...+|x_position|)) *
    outer(x_1, ..., x_position, inner(next j letters), remaining letters).
    The coefficients are integer numerators over the product of the
    operands' denominators (`Operation.denominator`), and `scale` is an
    integer: a caller folds a rational coefficient into it over a common
    denominator of its own.  The terms of one word are not summed; the
    caller sums them with `table_from_terms`, directly or through the
    symmetrization kernel `permutations.fold`.

    `kills`, when given, is (acted, killing): the fold's acted slot count,
    at least `position`, and, per letter, whether a second copy of it in
    those slots kills the orbit (`permutations.killing_letters`).  The stream then skips every
    term whose word holds a killing letter twice in its first `acted`
    slots, the terms the fold would drop, before the word is built: an
    inner or outer entry whose own part of those slots repeats one is
    dropped whole, and a pair whose two parts share one is skipped.  The
    other terms come as they would without `kills`, in the same order.
    """
    if outer.space != inner.space:
        raise ArityError("an insertion requires operations on the same space")
    if not 0 <= position < outer.arity:
        raise PositionError(f"position {position} out of range 0..{outer.arity - 1}")
    odd = outer.space.parities
    acted, killing = kills or (0, None)

    def mask(letters):
        """The bitmask of the killing letters, or None when one repeats."""
        bits = 0
        for x in letters:
            if killing[x]:
                bit = 1 << x
                if bits & bit:
                    return None
                bits |= bit
        return bits

    # inner's entries by output letter, scaled once, each with the mask of
    # its letters inside the acted slots, and negated once when the sign
    # can be -1
    span = max(0, min(inner.arity, acted - position))
    stop = max(position + 1, acted - inner.arity + 1)
    by_output = {}
    for win, cin in inner.numerators.items():
        bits = mask(win[:span]) if killing else 0
        if bits is None:
            continue
        for letter, c in cin.items():
            by_output.setdefault(letter, []).append((win, c * scale, bits))
    flipped = ({letter: [(win, -c, bits) for win, c, bits in entries]
                for letter, entries in by_output.items()}
               if inner.degree % 2 else None)
    def terms():
        for wout, cout in outer.numerators.items():
            head, rest = wout[:position], wout[position + 1:]
            taken = mask(head + wout[position + 1:stop]) if killing else 0
            if taken is None:
                continue
            pick = flipped if flipped is not None and sum(odd[x] for x in head) % 2 else by_output
            for win, c, bits in pick.get(wout[position], ()):
                if bits & taken:
                    continue
                word = head + win + rest
                for out, co in cout.items():
                    yield word, out, co * c

    return terms()


def insertion_term_count(insertions) -> int:
    """The number of terms `insertion_terms` visits over the (outer, inner,
    position, ...) insertions, counted without making any: what it yields
    without `kills`, and an upper bound on what it yields with them, since
    the killed terms are visited and skipped.  Per outer entry,
    its output terms times the inner operation's output terms at the
    inserted letter, summed over letters from histograms: one per outer
    operation and position read (output terms by the letter there) and one
    per inner operation (output terms by output letter).  The histograms
    are kept by id, each with its operation: an operation made for the
    stream and freed during the count cannot pass its id, and with it a
    stale histogram, to the next one.
    """
    slots, outputs = {}, {}
    total = 0
    for outer, inner, position, *_ in insertions:
        slot = slots.get((id(outer), position))
        if slot is None:
            slot = slots[id(outer), position] = outer, Counter(
                word[position] for word, sums in outer.numerators.items() for _ in sums)
        at = outputs.get(id(inner))
        if at is None:
            at = outputs[id(inner)] = inner, Counter(
                letter for sums in inner.numerators.values() for letter in sums)
        total += sum(slot[1][letter] * k for letter, k in at[1].items())
    return total


def compose_insert(outer: Operation, inner: Operation, position: int) -> Operation:
    """outer o (I_position (x) inner (x) I_rest) as an operation; see
    `insertion_terms` for the sign."""
    return Operation.from_numerators(
        outer.space, outer.arity + inner.arity - 1, outer.degree + inner.degree,
        table_from_terms(insertion_terms(outer, inner, position)),
        outer.denominator * inner.denominator)


HAT = "hat"
UNHAT = "unhat"


def family_degree(convention: str, arity: int) -> int:
    """Declared degree of the arity-n member: -1 under hat, n-2 under unhat."""
    if convention == HAT:
        return -1
    if convention == UNHAT:
        return arity - 2
    raise ValueError(f"unknown convention {convention!r}")


@dataclass(frozen=True, eq=False)
class OperationFamily:
    """Arity-indexed family of operations under one degree convention.

    `max_arity` is the explicit truncation cap: residuals at n <= max_arity
    treat any absent arity (and every arity beyond the cap) as the zero
    operation.
    """

    convention: str
    space: GradedSpace
    max_arity: int
    ops: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.convention not in (HAT, UNHAT):
            raise ValueError(f"convention must be 'hat' or 'unhat', got {self.convention!r}")
        if self.max_arity < 1:
            raise ArityError("max_arity must be >= 1")
        clean = {}
        for n, op in self.ops.items():
            if not 1 <= n <= self.max_arity:
                raise ArityError(f"arity {n} outside 1..{self.max_arity}")
            if op.space != self.space:
                raise ArityError(f"operation at arity {n} lives on a different space")
            if op.arity != n:
                raise ArityError(f"operation of arity {op.arity} filed under {n}")
            expected = family_degree(self.convention, n)
            if op.degree != expected:
                raise ConventionError(
                    f"{self.convention} family requires degree {expected} at arity {n}, got {op.degree}")
            if not op.is_zero():
                clean[n] = op
        object.__setattr__(self, "ops", clean)

    def operation(self, arity: int) -> Operation:
        if arity in self.ops:
            return self.ops[arity]
        return Operation(self.space, arity, family_degree(self.convention, arity))

    def arities(self):
        return sorted(self.ops)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperationFamily)
                and self.convention == other.convention
                and self.space == other.space
                and self.ops == other.ops)

    def __repr__(self):
        return f"OperationFamily({self.convention}, arities={self.arities()}, cap={self.max_arity})"
