"""Core vocabulary: domains, relations, languages, prenex sentences, and
switch combinatorics.

All values are immutable after construction; every function here is pure.
Domain elements are the canonical integers 0..size-1 so that closure and
power computations can index arrays directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Mapping

FORALL = "forall"
EXISTS = "exists"

#: reserved marker: transformed sentences may introduce variables containing
#: "$"; the user-facing parser rejects them so renaming never collides.
RESERVED_MARK = "$"


def encode_tuple(values: tuple[int, ...], size: int) -> int:
    """Lexicographic rank of a tuple over 0..size-1 (first entry most significant)."""
    rank = 0
    for v in values:
        rank = rank * size + v
    return rank


def decode_rank(rank: int, size: int, length: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_tuple`."""
    out = [0] * length
    for i in range(length - 1, -1, -1):
        rank, out[i] = divmod(rank, size)
    return tuple(out)


@dataclass(frozen=True)
class DomainSpec:
    """A finite domain {0, 1, ..., size-1}."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"domain size must be >= 1, got {self.size}")

    @property
    def elements(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class Relation:
    """A named relation given extensionally as a set of equal-length tuples."""

    name: str
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError(f"relation {self.name}: negative arity")
        tuples = frozenset(tuple(t) for t in self.tuples)
        for t in tuples:
            if len(t) != self.arity:
                raise ValueError(
                    f"relation {self.name}: tuple {t} has length {len(t)}, arity is {self.arity}"
                )
        object.__setattr__(self, "tuples", tuples)

    def sorted_tuples(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)

    @cached_property
    def supports(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Support table for bitset filtering, built once per relation.

        Tuples are numbered in sorted order.  Entry p lists, for each value v
        occurring at position p in ascending order, the pair ``(1 << v, mask)``
        where bit i of mask is set when tuple i holds v at position p.
        """
        columns: list[dict[int, int]] = [{} for _ in range(self.arity)]
        for i, t in enumerate(self.sorted_tuples()):
            bit = 1 << i
            for p, v in enumerate(t):
                columns[p][v] = columns[p].get(v, 0) | bit
        return tuple(tuple((1 << v, m) for v, m in sorted(col.items())) for col in columns)

    def agreeing(self, firsts: tuple[int, ...]) -> int:
        """Mask, numbered as :attr:`supports` numbers the tuples, of the
        tuples t with ``t[p] == t[firsts[p]]`` at every position p: the tuples
        an atom can take whose position p holds the same variable as its
        position ``firsts[p]``.  Built once per ``firsts`` and kept on the
        relation."""
        masks = cached_on(self, "agreeing_masks", dict)
        if firsts not in masks:
            masks[firsts] = sum(
                1 << i
                for i, t in enumerate(self.sorted_tuples())
                if all(t[p] == t[f] for p, f in enumerate(firsts))
            )
        return masks[firsts]

    def covers(self, shape: tuple[int, ...], size: int) -> bool:
        """Whether every assignment of an atom's universals over 0..size-1
        leaves the atom a tuple.  ``shape[p]`` is the first position of the
        variable at position p, bitwise negated (``~``) when that variable is
        universal; only the tuples that agree on a repeated variable's
        positions count, as in :meth:`agreeing`.  Built once per ``shape``
        and ``size`` and kept on the relation."""
        known = cached_on(self, "covers_shapes", dict)
        key = (shape, size)
        if key not in known:
            firsts = [f if f >= 0 else ~f for f in shape]
            universal = sorted({~f for f in shape if f < 0})
            rows = {
                tuple(t[p] for p in universal)
                for t in self.tuples
                if all(t[p] == t[f] for p, f in enumerate(firsts))
            }
            known[key] = len(rows) == size ** len(universal)
        return known[key]

    def __len__(self) -> int:
        return len(self.tuples)


@dataclass(frozen=True)
class ConstraintLanguage:
    """A finite set of named relations over one shared domain."""

    domain: DomainSpec
    relations: Mapping[str, Relation]

    def __post_init__(self):
        rels = dict(self.relations)
        for name, rel in rels.items():
            if name != rel.name:
                raise ValueError(f"language key {name!r} does not match relation name {rel.name!r}")
            for t in rel.tuples:
                for v in t:
                    if not (0 <= v < self.domain.size):
                        raise ValueError(
                            f"relation {name}: element {v} out of domain 0..{self.domain.size - 1}"
                        )
        object.__setattr__(self, "relations", rels)

    @classmethod
    def of(cls, domain_size: int, *relations: Relation) -> "ConstraintLanguage":
        return cls(DomainSpec(domain_size), {r.name: r for r in relations})

    def sorted_relations(self) -> list[Relation]:
        return [self.relations[n] for n in sorted(self.relations)]


def cached_on(obj, key: str, build):
    """``obj.__dict__[key]``, set to ``build()`` on the first call.

    A memo kept in the instance ``__dict__``, as ``cached_property`` keeps
    :attr:`Relation.supports`: it lives as long as the object and takes no
    part in equality.  It suits frozen dataclasses with unhashable fields (a
    language holds a dict), which no cache can take as a key.  A ``build``
    that raises stores nothing.
    """
    memo = obj.__dict__
    if key not in memo:
        memo[key] = build()
    return memo[key]


def const_name(value: int) -> str:
    return f"const_{value}"


def gamma_star(lang: ConstraintLanguage) -> ConstraintLanguage:
    """Extend a language with the unary singleton ("constant") relations.

    Adds const_a = {(a,)} for every domain element a.  An existing relation
    under a constant name is tolerated only if it is already that singleton.
    Built once per language object and kept on it, so later calls return the
    same object; a language that fails the name check keeps nothing and
    raises on every call.
    """

    def build() -> ConstraintLanguage:
        rels = dict(lang.relations)
        for a in lang.domain.elements:
            name = const_name(a)
            singleton = Relation(name, 1, frozenset({(a,)}))
            if name in rels:
                if rels[name] != singleton:
                    raise ValueError(f"relation name {name} already taken by a non-constant relation")
            else:
                rels[name] = singleton
        return ConstraintLanguage(lang.domain, rels)

    return cached_on(lang, "gamma_star", build)


@dataclass(frozen=True)
class Atom:
    """One conjunct: a relation name applied to variables."""

    relation: str
    args: tuple[str, ...]

    def rename(self, mapping: Mapping[str, str]) -> "Atom":
        return Atom(self.relation, tuple(mapping.get(a, a) for a in self.args))


@dataclass(frozen=True)
class QuantifiedSentence:
    """A prenex sentence: ordered quantifier prefix over a conjunctive matrix.

    The prefix is a tuple of (quantifier, variable) pairs with quantifier in
    {forall, exists}.  A zero-atom matrix denotes TRUE.
    """

    prefix: tuple[tuple[str, str], ...]
    matrix: tuple[Atom, ...]
    language: ConstraintLanguage

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple((q, v) for q, v in self.prefix))
        object.__setattr__(self, "matrix", tuple(self.matrix))

    def prefix_variables(self) -> list[str]:
        return [v for _, v in self.prefix]

    def matrix_variables(self) -> set[str]:
        out: set[str] = set()
        for atom in self.matrix:
            out.update(atom.args)
        return out

    def universals(self) -> list[str]:
        return [v for q, v in self.prefix if q == FORALL]

    def existentials(self) -> list[str]:
        return [v for q, v in self.prefix if q == EXISTS]

    def universal_count(self) -> int:
        return sum(1 for q, _ in self.prefix if q == FORALL)

    def is_pi2(self) -> bool:
        """True when the prefix is a (possibly empty) forall block then exists block."""
        seen_exists = False
        for q, _ in self.prefix:
            if q == EXISTS:
                seen_exists = True
            elif seen_exists:
                return False
        return True

    def rename(self, mapping: Mapping[str, str]) -> "QuantifiedSentence":
        return QuantifiedSentence(
            tuple((q, mapping.get(v, v)) for q, v in self.prefix),
            tuple(a.rename(mapping) for a in self.matrix),
            self.language,
        )


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __iter__(self) -> Iterator[ValidationIssue]:
        return iter(self.issues)

    def __len__(self) -> int:
        return len(self.issues)

    def require(self, what: str) -> None:
        """Raise ``ValueError("malformed <what>: <every issue>")`` unless ok."""
        if self.issues:
            raise ValueError(f"malformed {what}: " + "; ".join(i.message for i in self.issues))


_QUANTIFIERS = frozenset((FORALL, EXISTS))
_NO_ISSUES = ValidationReport(())


def validate_sentence(sentence: QuantifiedSentence) -> ValidationReport:
    """Check all sentence invariants; violations become report entries.

    The report is kept on the sentence object (see :func:`cached_on`), so a
    sentence that a transform's postcondition checked is not walked again by
    the next stage's entry check; an invalid sentence keeps its failing
    report and fails every check.
    """
    build = lambda: invariant_report(sentence.prefix, sentence.matrix, sentence.language)
    return cached_on(sentence, "validation_report", build)


def known_wellformed(sentence: QuantifiedSentence) -> QuantifiedSentence:
    """``sentence``, with an ok report kept on it as :func:`validate_sentence`
    keeps one, so that no later check walks it.  Only for a caller that has
    itself checked every invariant :func:`invariant_report` checks, as the
    parser does."""
    cached_on(sentence, "validation_report", lambda: _NO_ISSUES)
    return sentence


def invariant_report(prefix, matrix, lang: ConstraintLanguage) -> ValidationReport:
    """Every broken invariant of a (quantifier, variable) prefix sequence over
    a matrix in a language.  Sentences are checked through
    :func:`validate_sentence`, CSP instances with their variables as an
    all-exists prefix.  The prefix is walked one entry at a time only when
    it has a repeated variable or an unknown quantifier."""
    issues: list[ValidationIssue] = []
    seen = {v for _, v in prefix}
    if len(seen) < len(prefix) or not {q for q, _ in prefix} <= _QUANTIFIERS:
        seen = set()
        for q, v in prefix:
            if q not in _QUANTIFIERS:
                issues.append(ValidationIssue("bad-quantifier", f"unknown quantifier {q!r} on {v}"))
            if v in seen:
                issues.append(ValidationIssue("duplicate-quantifier", f"variable {v} quantified twice"))
            seen.add(v)
    relations = lang.relations
    for i, atom in enumerate(matrix):
        rel = relations.get(atom.relation)
        if rel is None:
            issues.append(
                ValidationIssue("unknown-relation", f"atom {i}: relation {atom.relation} not in language")
            )
        elif len(atom.args) != rel.arity:
            issues.append(
                ValidationIssue(
                    "arity-mismatch",
                    f"atom {i}: {atom.relation} expects {rel.arity} arguments, got {len(atom.args)}",
                )
            )
        if seen.issuperset(atom.args):
            continue
        for v in atom.args:
            if v not in seen:
                issues.append(
                    ValidationIssue("unquantified-variable", f"atom {i}: variable {v} not quantified")
                )
    return ValidationReport(tuple(issues)) if issues else _NO_ISSUES


def check_wellformed(sentence: QuantifiedSentence) -> None:
    """Raise if a sentence breaks its invariants (used as a transform postcondition)."""
    validate_sentence(sentence).require("sentence")


# ---------------------------------------------------------------------------
# switch combinatorics


def switch_count(t: tuple[int, ...]) -> int:
    """Number of positions i with t[i] != t[i-1]; empty and singleton tuples give 0."""
    return sum(1 for i in range(1, len(t)) if t[i] != t[i - 1])


def switch_bounded_count(n: int, k: int, size: int) -> int:
    """Closed-form count of length-n tuples over a size-element domain with <= k switches."""
    top = min(k, n - 1)
    return size * sum(math.comb(n - 1, s) * (size - 1) ** s for s in range(top + 1))


@lru_cache(maxsize=64)
def enumerate_switch_bounded(n: int, k: int, dom: DomainSpec) -> tuple[tuple[int, ...], ...]:
    """All tuples of A^n with at most k switches, in lexicographic order.

    Memoized on (n, k, dom): the result is an immutable tuple, and every
    witness at the same bound and domain starts its closure from it."""
    if n < 1:
        raise ValueError("tuple length must be >= 1")
    if k < 0:
        raise ValueError("switch bound must be >= 0")
    size = dom.size
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def walk(switches: int) -> None:
        if len(stack) == n:
            out.append(tuple(stack))
            return
        for v in range(size):
            ns = switches + (1 if stack and v != stack[-1] else 0)
            if ns <= k:
                stack.append(v)
                walk(ns)
                stack.pop()

    walk(0)
    return tuple(out)
