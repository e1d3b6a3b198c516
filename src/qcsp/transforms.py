"""Syntactic transformations of quantified sentences.

The pipeline pieces here rewrite prefixes while preserving truth value:

* :func:`normalize_alternating` pads a prefix into strict exists/forall
  alternation with unconstrained dummy variables.
* :func:`omega` collapses runs of universal variables between chosen
  positions into shared leading universals z$o0, z$o1, ...  The reductions
  read the same collapse off the unpadded sentence in closed form
  (:func:`_fold`), without building either.
* :func:`eliminate_universals` expands universals into constant-tagged
  copies, yielding a plain CSP over the language with constants.
* :func:`move_universals_left` hoists universals over the existential block
  in front of them, copy by copy, until the prefix is forall*exists*.
* :func:`reduce_universal_count` shrinks a forall*exists* prefix to at most
  one universal per domain element, one copy per partition of the universals.
* :func:`zeta` fully expands an alternating sentence into an equivalent
  forall*exists* sentence of exponential size, on elimination's copies.
* relational powers and the lexicographic column constraints translate
  between quantified sentences and CSPs over a power domain.

The four copy-making transforms (:func:`eliminate_universals`,
:func:`move_universals_left`, :func:`reduce_universal_count`, :func:`zeta`)
first drop every prefix variable that occurs in no atom: domains are
nonempty, so Qx phi is phi when x is not in phi.  A vacuous universal is
never expanded and a vacuous existential never copied.  Each budget check
counts the object about to be built, before it is allocated.  Hoisting
copies only the atoms that mention a variable it renames: any other atom
would come out the same in every copy, so it is kept once.  Elimination and
full expansion read their copies off one table (:func:`_copy_table`), built
in closed form in one pass over integer ids: with k the number of occurring
universals at or before a variable, the variable gets |A|^k copies, and an
atom gets |A|^K copies, K being the k of its last variable.  The table's
code (:func:`_copy_rows`) checks its own figures first.  The bundle reads a
collapse's table off the sentence itself (:func:`_collapse_core`, whose
steps it runs one by one so that a member refuted from its atoms builds no
table): the collapse's occurring prefix, the sentence's matrix and the
renaming that folds its universals go to the same code, which gives the
same names and atoms as the elimination of :func:`omega`'s collapse of the
padded sentence.

Every transform returns freshly named variables marked with "$" so the output
never collides with user input, and every output is checked well-formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from .algebra import _entry_blocks
from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import QcspError
from .model import (
    EXISTS,
    FORALL,
    Atom,
    ConstraintLanguage,
    DomainSpec,
    QuantifiedSentence,
    Relation,
    cached_on,
    check_wellformed,
    const_name,
    encode_tuple,
    gamma_star,
    invariant_report,
    validate_sentence,
)

GAMMA_PREFIX = "gamma$"


@dataclass(frozen=True)
class AlternatingSentence:
    """A sentence whose prefix is exactly exists y1 forall x1 ... exists yn forall xn."""

    sentence: QuantifiedSentence
    n: int

    def __post_init__(self):
        prefix = self.sentence.prefix
        if len(prefix) != 2 * self.n or self.n < 1:
            raise ValueError(f"prefix length {len(prefix)} does not match n={self.n}")
        for i, (q, _) in enumerate(prefix):
            want = EXISTS if i % 2 == 0 else FORALL
            if q != want:
                raise ValueError(f"prefix position {i} is {q}, expected {want}")

    def x_vars(self) -> list[str]:
        return [v for i, (_, v) in enumerate(self.sentence.prefix) if i % 2 == 1]


@dataclass(frozen=True)
class CspInstance:
    """A conjunction of atoms with every variable existential, checked on
    construction as the all-exists sentence over its variables."""

    language: ConstraintLanguage
    variables: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        prefix = [(EXISTS, v) for v in self.variables]
        invariant_report(prefix, self.atoms, self.language).require("instance")

    def as_sentence(self) -> QuantifiedSentence:
        return QuantifiedSentence(
            tuple((EXISTS, v) for v in self.variables), self.atoms, self.language
        )


@dataclass(frozen=True)
class CanonicalFalse:
    """Distinguished FALSE verdict carried where a sentence cannot be built."""

    truth: bool = False

    def to_json(self) -> dict:
        return {"kind": "canonical-false", "truth": False}


CANONICAL_FALSE = CanonicalFalse()


@dataclass(frozen=True)
class GammaColumn:
    """Column i of the matrix whose rows list A^k in lexicographic order."""

    index: int
    column: tuple[int, ...]


# ---------------------------------------------------------------------------
# alternation normal form


def normalize_alternating(s: QuantifiedSentence) -> AlternatingSentence:
    """Insert unconstrained dummies until the prefix strictly alternates
    exists/forall, starting with exists and ending with forall.

    An input whose matrix names a variable its prefix does not quantify is
    refused before padding, with its own report: a dummy could otherwise
    quantify that name.  The normal form is kept on the sentence (see
    :func:`cached_on`), so a later call on the same sentence returns the same
    object."""

    def build() -> AlternatingSentence:
        report = validate_sentence(s)
        if any(issue.kind == "unquantified-variable" for issue in report):
            report.require("sentence")
        out: list[tuple[str, str]] = []
        counter = 1
        expect = EXISTS
        for q, v in s.prefix:
            if q != expect:
                dummy = f"y$d{counter}" if expect == EXISTS else f"x$d{counter}"
                counter += 1
                out.append((expect, dummy))
                expect = FORALL if expect == EXISTS else EXISTS
            out.append((q, v))
            expect = FORALL if expect == EXISTS else EXISTS
        if expect == EXISTS and not out:
            out.append((EXISTS, f"y$d{counter}"))
            counter += 1
            expect = FORALL
        if expect == FORALL:
            out.append((FORALL, f"x$d{counter}"))
        sentence = QuantifiedSentence(tuple(out), s.matrix, s.language)
        check_wellformed(sentence)
        return AlternatingSentence(sentence, len(out) // 2)

    return cached_on(s, "alternating", build)


# ---------------------------------------------------------------------------
# collapsing interleaved universals


def omega(alt: AlternatingSentence, indices: tuple[int, ...]) -> QuantifiedSentence:
    """Collapse the universals away from the chosen positions.

    With 1 <= n_1 < ... < n_k <= n, the universal at each chosen position is
    kept; every other universal between two chosen positions is replaced by a
    shared fresh variable z$oj, universally quantified at the front together
    with z$o0..z$ok.  The output has exactly 2k+1 universals.  The "o" keeps
    these names apart from the <name>$<digit> copies that
    :func:`eliminate_universals` makes of a user variable named z.
    """
    n = alt.n
    indices = tuple(indices)
    for a, b in zip(indices, indices[1:]):
        if a >= b:
            raise ValueError(f"indices must be strictly increasing, got {indices}")
    if indices and not (1 <= indices[0] and indices[-1] <= n):
        raise ValueError(f"indices out of range 1..{n}: {indices}")
    k = len(indices)
    xs = alt.x_vars()
    kept = set(indices)
    rename: dict[str, str] = {}
    for i in range(1, n + 1):
        if i in kept:
            continue
        j = sum(1 for nj in indices if nj < i)
        rename[xs[i - 1]] = f"z$o{j}"
    prefix: list[tuple[str, str]] = [(FORALL, f"z$o{j}") for j in range(k + 1)]
    for q, v in alt.sentence.prefix:
        if q == FORALL and v in rename:
            continue
        prefix.append((q, v))
    matrix = tuple(a.rename(rename) for a in alt.sentence.matrix)
    out = QuantifiedSentence(tuple(prefix), matrix, alt.sentence.language)
    check_wellformed(out)
    return out


def _collapse_prefix(s: QuantifiedSentence):
    """What every collapse of ``s`` is read from, in one walk of its prefix:
    its occurring prefix as (quantifier, variable, p), p being a universal's
    alternation position (the i of x_i in ``normalize_alternating(s)``) and
    0 for an existential, the occurring positions, and whether a prefix
    variable is named z$o..., so that a collapse's z$oj may collide with it.
    A universal takes the next position, and so does the dummy universal
    that padding puts between two existentials.  The padding adds only
    variables that occur in no atom, so no collapse built from this walk
    holds one, and a prefix name the padding would take is not refused.
    ``s`` is checked well-formed first.  Kept on the sentence (see
    :func:`cached_on`).
    """

    def build():
        check_wellformed(s)
        occurring = s.matrix_variables()
        entries: list[tuple[str, str, int]] = []
        position = 0
        last = FORALL
        for q, v in s.prefix:
            if q == FORALL or last == EXISTS:
                position += 1
            last = q
            if v in occurring:
                entries.append((q, v, position if q == FORALL else 0))
        positions = tuple(p for _, _, p in entries if p)
        taken = any(v.startswith("z$o") for _, v in s.prefix)
        return entries, positions, taken

    return cached_on(s, "collapse_prefix", build)


def _fold(s: QuantifiedSentence, indices: tuple[int, ...]) -> tuple[list[tuple[str, str]], dict[str, str]]:
    """The collapse of ``s`` at increasing occurring positions ``indices``
    in closed form: its occurring prefix, and the renaming of the folded
    universals that takes the matrix of ``s`` to its matrix.  It is
    ``omega(normalize_alternating(s), indices)`` without its vacuous
    variables wherever that builds, and no padding is built: a dummy occurs
    in no atom.

    Each occurring universal at a position p outside ``indices`` folds into
    z$oj, j being the number of kept positions below p.  The occurring
    prefix is the z$oj that some universal folds into, in order, then the
    occurring prefix of ``s`` without the folded universals.  When ``s``
    quantifies a z$o... name, that prefix is checked, and a z$oj it shares
    with an occurring name of ``s`` raises as ``omega`` raises it; a
    vacuous one is not in the collapse, and is not refused.
    """
    entries, _, taken = _collapse_prefix(s)
    k = len(indices)
    zs = [f"z$o{j}" for j in range(k + 1)]
    fold: dict[str, str] = {}
    tail: list[tuple[str, str]] = []
    j = 0
    for q, v, p in entries:
        if p:
            while j < k and indices[j] < p:
                j += 1
            if j == k or indices[j] != p:
                fold[v] = zs[j]
                continue
        tail.append((q, v))
    prefix = [(FORALL, z) for z in dict.fromkeys(fold.values())] + tail
    if taken:
        invariant_report(prefix, (), s.language).require("sentence")
    return prefix, fold


def _collapse_sentence(s: QuantifiedSentence, indices: tuple[int, ...]) -> QuantifiedSentence:
    """``omega(normalize_alternating(s), indices)`` without its vacuous
    variables (see :func:`_fold`)."""
    prefix, fold = _fold(s, indices)
    return QuantifiedSentence(tuple(prefix), tuple(a.rename(fold) for a in s.matrix), s.language)


# ---------------------------------------------------------------------------
# vacuous quantifiers


def _occurring_prefix(s: QuantifiedSentence) -> list[tuple[str, str]]:
    """The prefix without the variables that occur in no atom (see the
    module docstring for why dropping them keeps the truth value)."""
    occurring = s.matrix_variables()
    return [(q, v) for q, v in s.prefix if v in occurring]


# ---------------------------------------------------------------------------
# copying the atoms a renaming touches


def _copy_touched(matrix, renamed, size: int, check) -> list[Atom]:
    """One copy per domain element of each atom that mentions a variable in
    ``renamed``, the variable v becoming v$c in copy c; every other atom is
    kept once.  The result lists the whole matrix with the first copy in
    place, then copies 2..size of the touched atoms.  ``check`` is called
    with the number of touched atoms before any copy is made.  Hoisting
    copies this way, one universal at a time.
    """
    names = set(renamed)
    touched = [a for a in matrix if not names.isdisjoint(a.args)]
    check(len(touched))
    maps = [{v: f"{v}${c}" for v in renamed} for c in range(1, size + 1)]
    out = [a.rename(maps[0]) for a in matrix]
    for cmap in maps[1:]:
        out.extend(a.rename(cmap) for a in touched)
    return out


# ---------------------------------------------------------------------------
# universal elimination (to a CSP with constants)


def _copy_table(
    s: QuantifiedSentence, budgets: Budgets = DEFAULT_BUDGETS, pinned: bool = True
) -> tuple[list[str], list[range], list[tuple[str, tuple[int, ...]]]]:
    """The copies that universal elimination and full expansion share: the
    variable names, the id range of each occurring universal's copies, and
    the atom copies, each as (relation, variable ids), where the id of a
    variable is its position among the names.

    Every copy is computed in closed form (see :func:`eliminate_universals`),
    in output order, and each name is built once.  The input is checked
    well-formed first, then the table's budgets (see :func:`_copy_rows`);
    the names are not checked for being distinct.
    """
    check_wellformed(s)
    return _copy_rows(_occurring_prefix(s), s.matrix, s.language.domain.size, None, budgets, pinned)


def _copy_rows(
    prefix,
    matrix,
    size: int,
    renaming: dict[str, str] | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
    pinned: bool = True,
):
    """:func:`_copy_table` of the sentence with occurring ``prefix`` and the
    matrix ``matrix`` renamed by ``renaming``; the renaming is read, not
    applied, and each renamed variable takes the copies of its image.

    The budgets are checked on the table itself, before any name or row is
    built: its |A|^k copies for its k universals, then its atoms, with one
    pin per universal copy when the table is ``pinned``, and its variables
    (:meth:`Budgets.check_expansion`).  The checks are named after universal
    elimination, or after full expansion for a table without pins."""
    # each occurring variable's k, the occurring universals at or before it,
    # and the number of prefix variables of each k
    level: dict[str, int] = {}
    width = [0]
    for q, v in prefix:
        if q == FORALL:
            width.append(0)
        level[v] = len(width) - 1
        width[-1] += 1
    if renaming:
        # read every image before any is written: a renamed variable may
        # share its name with another one's image
        level.update({u: level[z] for u, z in renaming.items()})
    atom_levels = [max([level[v] for v in atom.args], default=0) for atom in matrix]

    # once the copies pass, no |A|^i below is above the copies budget
    what = "universal elimination" if pinned else "full expansion"
    k = len(width) - 1
    budgets.check_power(f"{what} copies", budgets.max_matrix_copies, size, k)
    powers = [size**i for i in range(k + 1)]
    n_atoms = sum([powers[i] for i in atom_levels]) + (sum(powers[1:]) if pinned else 0)
    budgets.check_expansion(what, n_atoms, prefix=sum([n * c for n, c in zip(width, powers)]))

    # each occurring variable in prefix order, with the ids of its |A|^k
    # copies v$c_k...$c_1 in digit order, the first universal's value most
    # significant
    names: list[str] = []
    copies: dict[str, range] = {}
    suffixes = [""]
    tags = [f"${c}" for c in range(1, size + 1)]
    for q, v in prefix:
        if q == FORALL:
            suffixes = [tag + suffix for suffix in suffixes for tag in tags]
        copies[v] = range(len(names), len(names) + len(suffixes))
        names.extend([v + suffix for suffix in suffixes])
    universal_ids = [copies[v] for q, v in prefix if q == FORALL]
    if renaming:
        copies.update({u: copies[z] for u, z in renaming.items()})

    # each atom in matrix order, its copies in digit order: copy r of an atom
    # of level K takes copy r // |A|^(K - k) of a variable of level k
    atoms: list[tuple[str, tuple[int, ...]]] = []
    for atom, top in zip(matrix, atom_levels):
        columns = []
        for v in atom.args:
            repeat = powers[top - level[v]]
            columns.append(copies[v] if repeat == 1 else [i for i in copies[v] for _ in range(repeat)])
        rows = zip(*columns) if columns else [()]
        atoms.extend([(atom.relation, ids) for ids in rows])
    return names, universal_ids, atoms


def _pinned(base: ConstraintLanguage, names, universal_ids, atoms):
    """A copy table (see :func:`_copy_table`) as an eliminated CSP: the
    language with constants, the names, checked distinct, and the atoms
    followed by each universal's pins."""
    language = gamma_star(base)
    if len(set(names)) < len(names):
        invariant_report([(EXISTS, v) for v in names], (), language).require("instance")
    # each universal's pins, one per copy in digit order: const_c for the
    # copy's last digit c, the universal's own value
    size = base.domain.size
    consts = [const_name(c) for c in range(size)]
    for ids in universal_ids:
        atoms.extend([(consts[r % size], (i,)) for r, i in enumerate(ids)])
    return language, names, atoms


def _elimination_core(
    s: QuantifiedSentence, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[ConstraintLanguage, list[str], list[tuple[str, tuple[int, ...]]]]:
    """The language with constants, the variable names and the atoms of
    ``eliminate_universals(s)``, each atom as (relation, variable ids), where
    the id of a variable is its position among the names.

    The copies are read off :func:`_copy_table`, which checks the input
    well-formed over its own language, then the budgets on the instance it
    is about to build; the names are then checked for being distinct: a
    malformed input raises ``ValueError`` listing what is wrong with it, so
    a solver may compile the atoms without building the instance that would
    check them.
    """
    return _pinned(s.language, *_copy_table(s, budgets))


def _collapse_core(
    s: QuantifiedSentence, indices: tuple[int, ...], budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[ConstraintLanguage, list[str], list[tuple[str, tuple[int, ...]]]]:
    """The elimination of the collapse of ``s`` at ``indices`` (see
    :func:`_fold`), with the names and atoms of
    ``_elimination_core(omega(normalize_alternating(s), indices))``, read
    off ``s`` in one pass: neither the padding nor the collapse is built.
    After the collapse's own check and the constant-name check of
    :func:`gamma_star`, the budgets are checked on the table about to be
    built (:func:`_copy_rows`)."""
    prefix, fold = _fold(s, indices)
    gamma_star(s.language)
    return _pinned(s.language, *_copy_rows(prefix, s.matrix, s.language.domain.size, fold, budgets))


def eliminate_universals(s: QuantifiedSentence, budgets: Budgets = DEFAULT_BUDGETS) -> CspInstance:
    """Expand every universal into one constant-tagged copy per domain element.

    Prefix variables that occur in no atom are dropped first, so only
    occurring universals are expanded and only occurring existentials copied.
    Let k of a variable count the occurring universals at or before it, and
    c_1, ..., c_k be one value plus one of each of them, outermost first:

    * a variable v gets |A|^k copies v$c_k...$c_1 (v itself when k = 0);
    * an atom gets |A|^K copies, K being the k of its last variable, each
      over the copies its variables take under the same values, so an atom
      over variables before the first universal is kept once;
    * each copy of a universal gets one const_a atom pinning it to a = c_k - 1.

    The variables come in prefix order, each with its copies in digit order
    (c_1 most significant); then the atoms in matrix order, each with its
    copies in digit order; then the pins, universal by universal, each
    universal's copies in digit order.  The copies are computed in one
    integer pass (:func:`_copy_table`, which :func:`zeta` reads too), each
    name built once.  The result is a CSP over the language with constants.
    The input is checked well-formed over its own language, then the budgets
    on the instance's own figures: |A|^k copies for its k occurring
    universals, its atoms and pins, then its variables.
    """
    language, names, atoms = _elimination_core(s, budgets)
    return CspInstance(
        language,
        tuple(names),
        tuple(Atom(rel, tuple([names[i] for i in idxs])) for rel, idxs in atoms),
    )


# ---------------------------------------------------------------------------
# moving universals left


def move_universals_left(s: QuantifiedSentence, budgets: Budgets = DEFAULT_BUDGETS) -> QuantifiedSentence:
    """Rewrite into forall*exists* form without constants.

    Repeatedly takes the rightmost universal directly preceded by an
    existential block and hoists it over that block, splitting it into one
    copy per domain element.  Bound existentials in the scope behind it are
    renamed per copy; universal quantifiers there are shared between copies
    (conjunction distributes over a shared universal), which keeps the
    rewrite terminating.  The universal count compounds per nesting level.
    Prefix variables that occur in no atom are dropped before the first
    hoist, so none of them is copied; each hoist checks the budgets against
    what it builds.  The input is checked well-formed first, and an input
    already in forall*exists* form with no vacuous variable is returned
    itself.
    """
    check_wellformed(s)
    size = s.language.domain.size
    prefix = _occurring_prefix(s)
    if len(prefix) == len(s.prefix) and s.is_pi2():
        return s
    matrix = list(s.matrix)
    while True:
        boundary = None
        for i in range(len(prefix) - 2, -1, -1):
            if prefix[i][0] == EXISTS and prefix[i + 1][0] == FORALL:
                boundary = i
                break
        if boundary is None:
            break
        u = prefix[boundary + 1][1]
        j = boundary
        while j > 0 and prefix[j - 1][0] == EXISTS:
            j -= 1
        w_part = prefix[:j]
        e_part = prefix[j : boundary + 1]
        tail = prefix[boundary + 2 :]
        tail_exists = [v for q, v in tail if q == EXISTS]

        def check(touched: int) -> None:
            budgets.check_expansion(
                "universal hoisting",
                len(matrix) + (size - 1) * touched,
                prefix=len(prefix) + (size - 1) * (1 + len(tail_exists)),
            )

        new_matrix = _copy_touched(matrix, [u, *tail_exists], size, check)
        new_tail: list[tuple[str, str]] = []
        for q, v in tail:
            if q == FORALL:
                new_tail.append((q, v))
            else:
                new_tail.extend((EXISTS, f"{v}${c}") for c in range(1, size + 1))
        prefix = (
            w_part
            + [(FORALL, f"{u}${c}") for c in range(1, size + 1)]
            + e_part
            + new_tail
        )
        matrix = new_matrix

    out = QuantifiedSentence(tuple(prefix), tuple(matrix), s.language)
    check_wellformed(out)
    if not out.is_pi2():
        raise QcspError("universal hoisting did not reach forall*exists* form")
    return out


# ---------------------------------------------------------------------------
# shrinking the universal count


def _partitions(k: int, m: int) -> Iterator[tuple[int, ...]]:
    """Each partition of k things into exactly m >= 1 blocks, k >= m, as its
    restricted-growth labelling: a tuple a with a[0] = 0 and each a[i] at
    most one above every label before it, so block labels appear in order of
    first occurrence.  Built in lexicographic order: each position tries its
    labels in ascending order, and a prefix is dropped as soon as the
    positions left cannot open the blocks still missing.  The recursion takes
    one level per position, so one block, whose one labelling is all zeros,
    is built without it; m >= 2 blocks have S(k, m) >= 2**(k - 1) - 1
    labellings, so any k whose copies fit a budget is small."""
    if m == 1:
        yield (0,) * k
        return

    def extend(a: tuple[int, ...], used: int) -> Iterator[tuple[int, ...]]:
        if len(a) == k:
            yield a
            return
        for label in range(min(used + 1, m)):
            opened = used + (label == used)
            if k - len(a) - 1 >= m - opened:
                yield from extend((*a, label), opened)

    yield from extend((), 0)


def reduce_universal_count(s: QuantifiedSentence, budgets: Budgets = DEFAULT_BUDGETS) -> QuantifiedSentence:
    """Conjoin one renamed copy per partition of the k universals into
    m = min(k, |A|) blocks, leaving a forall*exists* sentence with m <= |A|
    universals z$u1..z$um.

    Copy j, for the j-th partition in the lexicographic order of its
    restricted-growth labelling (:func:`_partitions`), renames each universal
    to the shared universal of its block and each existential e to e$j.
    That is S(k, m) copies, a Stirling number of the second kind, and one
    copy when k <= |A|.  Every block holds an occurring universal, so no
    output universal is vacuous.

    The output is equivalent to the input.  It is the conjunction of some of
    the copies for all |A|^k maps from the k universals to |A| shared ones,
    so the input implies it.  Conversely, take any assignment alpha of the
    universals.  Its kernel has at most m blocks, so some partition P into
    exactly m blocks refines it, and alpha = beta . phi_P, phi_P taking each
    universal to its block.  The copy for P at the shared universals beta
    then gives the input's existentials under alpha.

    Prefix variables that occur in no atom are dropped first, so k counts
    only occurring universals and only occurring existentials are copied; with
    none of the universals occurring, the input comes back without its
    vacuous variables (the input itself when it has none).  The budgets are
    checked on the output before it is built: its S(k, m) copies, then
    S(k, m) times the matrix's atoms, and its m + S(k, m) times the
    occurring existentials' prefix variables.  The input is checked
    well-formed first, and the output after.
    """
    check_wellformed(s)
    if not s.is_pi2():
        raise ValueError("input must be in forall*exists* form")

    kept = _occurring_prefix(s)
    uvars = [v for q, v in kept if q == FORALL]
    evars = [v for q, v in kept if q == EXISTS]
    k = len(uvars)
    if k == 0:
        if len(kept) == len(s.prefix):
            return s
        out = QuantifiedSentence(tuple(kept), s.matrix, s.language)
        check_wellformed(out)
        return out

    m = min(k, s.language.domain.size)
    what = "universal-count reduction"
    copies = budgets.check_partitions(f"{what} copies", budgets.max_matrix_copies, k, m)
    budgets.check_expansion(what, copies * len(s.matrix), prefix=m + copies * len(evars))
    zs = [f"z$u{i}" for i in range(1, m + 1)]
    prefix: list[tuple[str, str]] = [(FORALL, z) for z in zs]
    matrix: list[Atom] = []
    for j, labels in enumerate(_partitions(k, m), start=1):
        cmap: dict[str, str] = {u: zs[b] for u, b in zip(uvars, labels)}
        cmap.update({e: f"{e}${j}" for e in evars})
        prefix.extend((EXISTS, cmap[e]) for e in evars)
        matrix.extend(a.rename(cmap) for a in s.matrix)
    out = QuantifiedSentence(tuple(prefix), tuple(matrix), s.language)
    check_wellformed(out)
    return out


# ---------------------------------------------------------------------------
# full expansion to forall*exists*


def zeta(alt: AlternatingSentence, budgets: Budgets = DEFAULT_BUDGETS) -> QuantifiedSentence:
    """Equivalent forall*exists* sentence on the copies of
    :func:`eliminate_universals`, read off the same table
    (:func:`_copy_table`): names v$c_k...$c_1, |A|^K copies of an atom, and
    no variable that occurs in no atom, so no alternation padding.  Each
    universal copy, which elimination pins to its last digit's value, is
    quantified forall in front instead, universal by universal, each in
    digit order; every other copy follows, existential, in elimination's
    order, over the input's language.

    It is exact.  Take a winning strategy sigma and any assignment beta of
    the universal copies.  Set each existential copy e$c_j...$c_1 to sigma's
    answer to beta(u_1$c_1), ..., beta(u_j$c_j...$c_1).  Then each atom copy
    holds on one consistent play.  Conversely, set each universal copy to
    its own last digit's value.  The existential copies then form a
    strategy, and every play satisfies every atom.

    The input is checked well-formed, then the budgets on the output's own
    figures, before it is built: |A|^k copies for its k occurring
    universals, its atoms, then its prefix (see :func:`_copy_rows`).
    """
    names, universal_ids, atoms = _copy_table(alt.sentence, budgets, pinned=False)
    universal = set().union(*universal_ids)
    prefix = [(FORALL, names[i]) for ids in universal_ids for i in ids]
    prefix.extend((EXISTS, v) for i, v in enumerate(names) if i not in universal)
    matrix = tuple(Atom(rel, tuple([names[i] for i in ids])) for rel, ids in atoms)
    out = QuantifiedSentence(tuple(prefix), matrix, alt.sentence.language)
    check_wellformed(out)
    return out


# ---------------------------------------------------------------------------
# relational powers and lexicographic columns


def gamma_columns(k: int, dom: DomainSpec, budgets: Budgets = DEFAULT_BUDGETS) -> list[GammaColumn]:
    """The k columns of the matrix whose rows list A^k in lexicographic order."""
    if k < 1:
        raise ValueError("column width must be >= 1")
    size = dom.size
    rows = budgets.check_power("lexicographic column length", budgets.max_power_domain, size, k)
    cols = []
    for i in range(1, k + 1):
        stride = size ** (k - i)
        cols.append(GammaColumn(i, tuple((row // stride) % size for row in range(rows))))
    return cols


def power_relation(rel: Relation, k: int, dom: DomainSpec, budgets: Budgets = DEFAULT_BUDGETS) -> Relation:
    """The relation over A^k holding iff every digit slice lies in ``rel``.

    Power-domain elements are the lexicographic ranks of k-tuples over A, so
    the rows are the entry ranks of the k-combinations of rows of ``rel``.
    |result| = |rel|**k.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    size = dom.size
    budgets.check_power("power domain", budgets.max_power_domain, size, k)
    if rel.tuples:
        budgets.check_power("power relation tuples", budgets.max_power_tuples, len(rel.tuples), k)
    if not rel.tuples or rel.arity == 0:  # then R^k is R
        return rel
    rows = np.array(rel.sorted_tuples(), dtype=np.intp)
    out = np.concatenate(list(_entry_blocks([rows] * k, size)))
    return Relation(rel.name, rel.arity, frozenset(map(tuple, out.tolist())))


@dataclass(frozen=True)
class PowerLanguage(ConstraintLanguage):
    """A base language raised to a power, plus the column singleton constraints."""

    base: ConstraintLanguage
    power: int


def _check_power_language(base: ConstraintLanguage, budgets: Budgets) -> None:
    """The checks of a power-language build, in build order."""
    size = base.domain.size
    budgets.check_power("power domain", budgets.max_power_domain, size, (size, size))
    k = size**size  # at most the power domain's bit length
    for rel in base.sorted_relations():
        if rel.name.startswith(GAMMA_PREFIX):
            raise ValueError(f"base relation name {rel.name!r} collides with column constraints")
        if rel.tuples:
            budgets.check_power("power relation tuples", budgets.max_power_tuples, len(rel.tuples), k)
    budgets.check_power("lexicographic column length", budgets.max_power_domain, size, size)


def build_power_language(base: ConstraintLanguage, budgets: Budgets = DEFAULT_BUDGETS) -> PowerLanguage:
    """The language over A^(|A|**|A|): every base relation powered, plus one
    unary singleton per lexicographic column of width |A|.

    Built once per language object and kept on it, so later calls return the
    same object, powered relations and their support tables included.  A
    call first runs the checks of a build, in the same order: the power
    domain, the name and power size of each relation, the column length.
    The budgets that passed them are kept on the language too, and a call
    with budgets kept there runs none: the checks read only the language and
    the budgets, both frozen.  A call with tighter budgets raises what a
    first call would, and a build that fails is not kept.
    """
    passed = cached_on(base, "power_budgets", set)
    if budgets not in passed:
        _check_power_language(base, budgets)
        passed.add(budgets)
    size = base.domain.size
    k = size**size  # at most the power domain's bit length

    def build() -> PowerLanguage:
        rels = {rel.name: power_relation(rel, k, base.domain, budgets) for rel in base.sorted_relations()}
        for col in gamma_columns(size, base.domain, budgets):
            name = f"{GAMMA_PREFIX}{col.index}"
            rels[name] = Relation(name, 1, frozenset({(encode_tuple(col.column, size),)}))
        return PowerLanguage(DomainSpec(size**k), rels, base, k)

    return cached_on(base, "power_language", build)


def qcsp_to_power_csp(s: QuantifiedSentence, budgets: Budgets = DEFAULT_BUDGETS) -> CspInstance:
    """Translate a forall*exists* sentence with at most |A| universals into a
    CSP over the power language, constraining each universal to its column."""
    if not s.is_pi2():
        raise ValueError("input must be in forall*exists* form")
    size = s.language.domain.size
    uvars = s.universals()
    if len(uvars) > size:
        raise ValueError(
            f"input has {len(uvars)} universals; at most {size} allowed (reduce the count first)"
        )
    pad = [f"x$pad{i}" for i in range(1, size - len(uvars) + 1)]
    uvars = pad + uvars
    plang = build_power_language(s.language, budgets)
    variables = tuple(pad + [v for _, v in s.prefix])
    atoms = list(s.matrix)
    atoms.extend(Atom(f"{GAMMA_PREFIX}{i}", (v,)) for i, v in enumerate(uvars, start=1))
    return CspInstance(plang, variables, tuple(atoms))


def power_csp_to_qcsp(inst: CspInstance) -> QuantifiedSentence | CanonicalFalse:
    """Translate an instance over a power language back to a quantified sentence.

    Column-constrained variables become the universals x$u1..x$u|A|; a variable
    carrying two different column constraints makes the instance canonically
    false.  All other variables stay existential over the base domain.
    """
    plang = inst.language
    if not isinstance(plang, PowerLanguage):
        raise ValueError("instance language is not a power language")
    base = plang.base
    size = base.domain.size
    column_of: dict[str, int] = {}
    kept: list[Atom] = []
    for atom in inst.atoms:
        if atom.relation.startswith(GAMMA_PREFIX):
            i = int(atom.relation[len(GAMMA_PREFIX):])
            if not (1 <= i <= size):
                raise ValueError(f"foreign relation name {atom.relation!r}")
            z = atom.args[0]
            if column_of.get(z, i) != i:
                return CANONICAL_FALSE
            column_of[z] = i
        elif atom.relation in base.relations:
            kept.append(atom)
        else:
            raise ValueError(f"foreign relation name {atom.relation!r}")
    xs = [f"x$u{i}" for i in range(1, size + 1)]
    rename = {z: xs[i - 1] for z, i in column_of.items()}
    prefix: list[tuple[str, str]] = [(FORALL, x) for x in xs]
    prefix.extend((EXISTS, v) for v in inst.variables if v not in column_of)
    matrix = tuple(a.rename(rename) for a in kept)
    out = QuantifiedSentence(tuple(prefix), matrix, base)
    check_wellformed(out)
    return out
