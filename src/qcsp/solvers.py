"""Ground-truth oracles and the reduction pipelines.

The game-tree oracle evaluates any quantified sentence exactly and is the
reference every transformation is checked against.  The CSP solver is a
deterministic backtracking search with generalized arc consistency, sound and
complete.  The reduction pipelines are gated on a switchability witness: the
equivalence they compute is only guaranteed when the bounded-switch tuples
actually generate the powers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .algebra import (
    OperationTable,
    SwitchabilityWitness,
    WITNESSED,
    find_wnu,
    is_wnu,
    lift_operation,
    preserves,
    switchability_witness,
)
from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import QcspError, WitnessRequiredError
from .model import (
    EXISTS,
    FORALL,
    Atom,
    ConstraintLanguage,
    QuantifiedSentence,
    RESERVED_MARK,
    cached_on,
    check_wellformed,
    gamma_star,
)
from .transforms import (
    AlternatingSentence,
    CanonicalFalse,
    CspInstance,
    _collapse_prefix,
    _collapse_sentence,
    _copy_rows,
    _fold,
    _pinned,
    eliminate_universals,
    move_universals_left,
    normalize_alternating,
    omega,
    reduce_universal_count,
)

P_TIME = "P"
NP_COMPLETE_BOUNDED = "NP-complete-modulo-arity-bound"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class SolveVerdict:
    truth: bool
    method: str
    witness: dict[str, int] | None
    stats: dict[str, int]

    def __post_init__(self):
        if self.witness is not None and not self.truth:
            raise ValueError("witness present on an unsatisfiable verdict")

    def to_json(self) -> dict:
        out = {"truth": self.truth, "method": self.method, "stats": dict(self.stats)}
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        return out


# ---------------------------------------------------------------------------
# exact game-tree oracle


def oracle_qcsp(sentence: QuantifiedSentence, budgets: Budgets = DEFAULT_BUDGETS) -> SolveVerdict:
    """Evaluate the sentence by exhaustive recursion over the raw prefix.

    Prefix variables that occur in no atom have identical children under
    either quantifier, so the recursion branches only on occurring variables;
    the verdict is exact and the budget is counted over those levels.
    """
    check_wellformed(sentence)
    size = sentence.language.domain.size
    occurring = sentence.matrix_variables()
    levels = [(q, v) for q, v in sentence.prefix if v in occurring]
    nvars = len(levels)
    budgets.check_power("game tree size", budgets.max_game_tree, size, nvars)

    position = {v: i for i, (_, v) in enumerate(levels)}
    ready: list[list[tuple[frozenset, tuple[int, ...]]]] = [[] for _ in range(nvars)]
    truth = True
    for atom in sentence.matrix:
        rel = sentence.language.relations[atom.relation]
        idxs = tuple(position[v] for v in atom.args)
        if not idxs:
            if () not in rel.tuples:
                truth = False
            continue
        ready[max(idxs)].append((rel.tuples, idxs))

    assignment = [0] * nvars
    nodes = 0

    def holds_at(level: int) -> bool:
        for tuples, idxs in ready[level]:
            if tuple(assignment[i] for i in idxs) not in tuples:
                return False
        return True

    def walk(level: int) -> bool:
        nonlocal nodes
        if level == nvars:
            return True
        q = levels[level][0]
        for value in range(size):
            nodes += 1
            assignment[level] = value
            sub = holds_at(level) and walk(level + 1)
            if q == FORALL and not sub:
                return False
            if q == EXISTS and sub:
                return True
        return q == FORALL

    truth = truth and walk(0)
    return SolveVerdict(truth, "oracle", None, {"nodes": nodes})


# ---------------------------------------------------------------------------
# CSP backtracking with generalized arc consistency


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _find(parent, x):
    """Union-find root of ``x`` in ``parent`` (a list or dict), halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class _CompiledCsp:
    """A conjunction of atoms compiled once and searched from any start domains.

    Domains are int bitsets over the domain elements.  Variables are the ids
    0..n-1, named by ``variables``, and each atom is a pair (relation name,
    variable ids); :func:`_atom_ids` maps atoms over names to them.
    Identical atoms (same relation, same variables in the same order) are
    compiled once.  A unary atom is never propagated: it becomes a mask on
    its variable's start domain, applied once per search, which is its whole
    arc-consistent effect.  Every other atom keeps its relation's support
    table (:attr:`Relation.supports`), the mask of the tuples it can take
    (all the relation's tuples, or when a variable repeats in it only those
    equal on the positions that variable holds, :meth:`Relation.agreeing`)
    and its variable ids.
    """

    def __init__(self, language: ConstraintLanguage, variables, atoms) -> None:
        self.variables = list(variables)
        self.full = (1 << language.domain.size) - 1
        n = len(self.variables)
        self.order = sorted(range(n), key=self.variables.__getitem__)  # name order
        relations = language.relations
        self.masks: list[tuple[int, int]] = []
        self.atoms: list[tuple[tuple, int, tuple[int, ...]]] = []
        self.watch: list[list[int]] = [[] for _ in range(n)]
        # (relation, variable ids) -> tuples of each distinct atom, unary
        # ones included, for the final witness check
        self.checks: dict[tuple[str, tuple[int, ...]], frozenset] = {}
        masks, compiled, watch, checks = self.masks, self.atoms, self.watch, self.checks
        for key in atoms:
            if key in checks:
                continue
            name, idxs = key
            rel = relations[name]
            checks[key] = rel.tuples
            if len(idxs) == 1:
                mask = 0
                for bit, _ in rel.supports[0]:
                    mask |= bit
                masks.append((idxs[0], mask))
                continue
            scope = set(idxs)
            aid = len(compiled)
            for i in scope:
                watch[i].append(aid)
            if len(scope) < len(idxs):
                valid = rel.agreeing(tuple(map(idxs.index, idxs)))
            else:
                valid = (1 << len(rel.tuples)) - 1
            compiled.append((rel.supports, valid, idxs))

    def components(self, domains: list[int]) -> list[list[int]]:
        """Connected components of the variables with more than one value
        left, linked through shared atoms; each in name order, and the
        components ordered by their first name.

        One pass over the variables in name order: a branching variable not
        yet labelled opens the next component, and a walk from it over the
        atoms that watch each reached variable labels every branching
        variable linked to it (a variable with one value left links nothing
        and is labelled -1)."""
        atoms, watch = self.atoms, self.watch
        label: dict[int, int] = {}
        groups: list[list[int]] = []
        for i in self.order:
            d = domains[i]
            if not d & (d - 1):
                continue
            if i not in label:
                c = label[i] = len(groups)
                groups.append([])
                stack = [i]
                while stack:
                    for aid in watch[stack.pop()]:
                        for w in atoms[aid][2]:
                            if w not in label:
                                dw = domains[w]
                                if dw & (dw - 1):
                                    label[w] = c
                                    stack.append(w)
                                else:
                                    label[w] = -1
            groups[label[i]].append(i)
        return groups

    def solve(self, domains: list[int]) -> tuple[bool, int]:
        """(truth, nodes) of :meth:`assignment`."""
        values, nodes = self.assignment(domains)
        return values is not None, nodes

    def assignment(self, domains: list[int]) -> tuple[list[int] | None, int]:
        """Search from ``domains`` (mutated in place); returns the value of
        each variable, checked against every atom, or None if there is no
        solution, and the number of nodes.

        The unary masks narrow the start domains first.  On success every
        domain is a singleton.  After the initial propagation the constraint
        graph is split on the variables still carrying more than one value,
        and each connected component is searched independently, variables in
        name order and values ascending, which keeps chronological
        backtracking from thrashing across unrelated blocks.  A component is
        searched with a stack of frames, one per assigned variable: the top
        frame undoes the trail to its mark before each value it tries, an
        exhausted frame is popped, and an empty stack means no solution.
        """
        atoms = self.atoms
        watch = self.watch
        trail: list[tuple[int, int]] = []
        in_queue = [False] * len(atoms)
        nodes = 0

        for i, mask in self.masks:
            domains[i] &= mask
            if not domains[i]:
                return None, 0

        def propagate(seed_atoms) -> bool:
            # FIFO revision to the arc-consistent fixpoint: an atom's valid
            # tuples are those whose every entry is still in its variable's
            # domain; each domain keeps the values some valid tuple supports.
            # Valid tuples agree on the positions of a repeated variable, so
            # those positions support the same values and every valid tuple
            # survives the narrowing: one revision is the atom's own
            # fixpoint, and it stays flagged as queued while it runs.
            queue = list(seed_atoms)
            for aid in queue:
                in_queue[aid] = True
            head = 0
            while head < len(queue):
                aid = queue[head]
                head += 1
                supports, valid, idxs = atoms[aid]
                for p, w in enumerate(idxs):
                    dom = domains[w]
                    acc = 0
                    for bit, m in supports[p]:
                        if dom & bit:
                            acc |= m
                    valid &= acc
                    if not valid:
                        break
                if valid:
                    for p, w in enumerate(idxs):
                        dom = domains[w]
                        new = 0
                        for bit, m in supports[p]:
                            if m & valid:
                                new |= bit
                        new &= dom
                        if new == dom:
                            continue
                        if not new:
                            valid = 0
                            break
                        trail.append((w, dom))
                        domains[w] = new
                        for a2 in watch[w]:
                            if not in_queue[a2]:
                                in_queue[a2] = True
                                queue.append(a2)
                in_queue[aid] = False
                if not valid:
                    for a2 in queue[head:]:
                        in_queue[a2] = False
                    return False
            return True

        def undo(mark: int) -> None:
            while len(trail) > mark:
                w, old = trail.pop()
                domains[w] = old

        if not propagate(range(len(atoms))):
            return None, 0

        def search(order: list[int]) -> bool:
            nonlocal nodes
            # frames: (cursor, variable, untried values, trail mark before its assignment)
            stack: list[tuple[int, int, list[int], int]] = []
            cursor = 0
            while True:
                while cursor < len(order):
                    d = domains[order[cursor]]
                    if d & (d - 1):
                        break
                    cursor += 1
                else:
                    return True
                values = [x for x in range(d.bit_length()) if d >> x & 1]
                stack.append((cursor, order[cursor], values, len(trail)))
                while stack:
                    cursor, v, values, mark = stack[-1]
                    undo(mark)
                    if not values:
                        stack.pop()
                        continue
                    nodes += 1
                    trail.append((v, domains[v]))
                    domains[v] = 1 << values.pop(0)
                    if propagate(watch[v]):
                        break
                else:
                    return False

        for component in self.components(domains):
            if not search(component):
                return None, nodes
        values = [_lowest(d) for d in domains]
        for (_, idxs), tuples in self.checks.items():
            if tuple(map(values.__getitem__, idxs)) not in tuples:
                raise QcspError("CSP search ended on an assignment that violates an atom")
        return values, nodes


def solve_csp(inst: CspInstance) -> SolveVerdict:
    """Sound and complete backtracking with generalized arc consistency.

    Domains are int bitsets and the trail stores (variable, old domain).
    Identical atoms count once, and unary atoms (the const_a atoms of
    universal elimination, the column atoms of a power CSP) only mask the
    start domains.  Any other atom is revised against its relation's support
    table: the still-valid tuples are the AND over positions of the OR of the
    supports of the values left in that position's domain, and each domain
    keeps the values whose support meets them (compact-table filtering,
    recomputed per revision).  An atom whose variable repeats starts from
    only the tuples equal on that variable's positions, so its revision is
    arc consistent on the equality they impose.  An atom is queued again
    when a domain in its scope shrinks, but never by its own revision.
    Search is lexicographic in variable name and value inside each connected
    component of the branching variables, with its choice points on a stack
    of frames rather than the call stack, so no recursion limit bounds the
    number of variables (see :meth:`_CompiledCsp.solve`); the witness takes
    each variable's lowest remaining value, and is checked against every
    atom before it is returned.  It builds nothing larger than the instance
    and its relations' support tables, so it takes no budgets.
    """
    return _solve_ids(inst.language, inst.variables, _atom_ids(inst.variables, inst.atoms))


def _atom_ids(variables, atoms) -> list[tuple[str, tuple[int, ...]]]:
    """Each atom as (relation, ids), the id of a variable being its position
    in ``variables``."""
    index = dict(zip(variables, range(len(variables))))
    return [(a.relation, tuple(map(index.__getitem__, a.args))) for a in atoms]


def _solve_ids(language: ConstraintLanguage, variables, atoms) -> SolveVerdict:
    """:func:`solve_csp` of the instance whose atoms are given over ids."""
    if not atoms:
        return SolveVerdict(True, "csp", {}, {"nodes": 0})
    model = _CompiledCsp(language, variables, atoms)
    values, nodes = model.assignment([model.full] * len(model.variables))
    if values is None:
        return SolveVerdict(False, "csp", None, {"nodes": nodes})
    return SolveVerdict(True, "csp", dict(zip(model.variables, values)), {"nodes": nodes})


def truth_of(obj, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """Truth of any pipeline object: sentence, instance, or canonical false."""
    if isinstance(obj, CanonicalFalse):
        return False
    if isinstance(obj, CspInstance):
        return solve_csp(obj).truth
    if isinstance(obj, AlternatingSentence):
        obj = obj.sentence
    return oracle_qcsp(obj, budgets).truth


def pi2_truth(sentence: QuantifiedSentence, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """Truth of a forall*exists* sentence.

    The universal block distributes over the conjunction, so the matrix is
    split into components connected through shared existential variables;
    each component is compiled once and checked satisfiable under every
    assignment of the universals it actually touches, solved with those
    universals' domains pinned to the assigned singletons.

    A component's shape is its atoms in order, with each universal and each
    existential replaced by its first-occurrence number within the component,
    the two kinds numbered apart.  Components of equal shape differ only by a
    bijective renaming of universals and of existentials.  Each component on
    its own is the closed sentence forall U exists E C over the universals U
    it touches and its existentials E, so two of equal shape differ only in
    bound names and have the same truth: each shape is decided once per call.
    """
    if not sentence.is_pi2():
        raise ValueError("input must be in forall*exists* form")
    check_wellformed(sentence)
    size = sentence.language.domain.size
    universals = set(sentence.universals())

    # union-find over existential variables; atoms join their existentials
    parent: dict[str, str] = {v: v for v in sentence.existentials()}
    firsts: list[str | None] = []
    for atom in sentence.matrix:
        evars = [v for v in atom.args if v not in universals]
        if not evars:
            firsts.append(None)
            continue
        firsts.append(evars[0])
        root = _find(parent, evars[0])
        for v in evars[1:]:
            parent[_find(parent, v)] = root
    groups: dict[str, list[Atom]] = {}
    universal_only: list[Atom] = []
    for atom, first in zip(sentence.matrix, firsts):
        if first is None:
            universal_only.append(atom)
        else:
            groups.setdefault(_find(parent, first), []).append(atom)

    # shapes already decided; a shape that fails ends the call, so only
    # holding ones are kept
    holding: set[tuple] = set()

    def holds_for_all(atoms: list[Atom]) -> bool:
        # existentials numbered 0, 1, ... and universals -1, -2, ...
        number: dict[str, int] = {}
        touched: dict[str, int] = {}
        shape = []
        for a in atoms:
            args = []
            for v in a.args:
                if v in universals:
                    args.append(~touched.setdefault(v, len(touched)))
                else:
                    args.append(number.setdefault(v, len(number)))
            shape.append((a.relation, tuple(args)))
        budgets.check_power("component assignments", budgets.max_game_tree, size, len(touched))
        key = tuple(shape)
        if key in holding:
            return True
        # the shape itself is compiled: universal j is id j, existential i id |U| + i
        u = len(touched)
        ids = [(rel, tuple(u + i if i >= 0 else ~i for i in args)) for rel, args in shape]
        model = _CompiledCsp(sentence.language, [*touched, *number], ids)
        free = [model.full] * len(number)
        for values in product(range(size), repeat=u):
            if not model.solve([1 << val for val in values] + free)[0]:
                return False
        holding.add(key)
        return True

    for atom in universal_only:
        if not holds_for_all([atom]):
            return False
    for atoms in groups.values():
        if not holds_for_all(atoms):
            return False
    return True


# ---------------------------------------------------------------------------
# witness-gated reductions


def check_witness_gate(
    witness: SwitchabilityWitness | None, r: int, override: bool
) -> bool:
    """Whether a true verdict of a reduction must carry the conditional
    caveat: False when the witness holds at bound r, True when it does not
    and ``override`` is set; otherwise raises :class:`WitnessRequiredError`.
    A false verdict never carries it: the sentence entails each of its
    collapses, so a false collapse refutes it over any language."""
    if r < 0:
        raise ValueError(f"switch bound must be >= 0, got {r}")
    valid = witness is not None and witness.verdict == WITNESSED and witness.r <= r
    if valid:
        return False
    if override:
        return True
    raise WitnessRequiredError(
        f"no switchability witness for switch bound {r}; pass override to proceed conditionally"
    )


def _index_sets(s: QuantifiedSentence, r: int) -> tuple[tuple[int, ...], ...]:
    """The maximal collapse patterns: every choice of min(r, m) of the m
    alternation positions whose universal occurs in the matrix, the i of x_i
    in ``normalize_alternating(s)``, read off ``s`` itself
    (:func:`~qcsp.transforms._collapse_prefix`, which checks ``s``
    well-formed); in lexicographic order, so ``((),)`` when m = 0.
    Both reductions decide exactly these (see :func:`reduce_pgp_to_csp` for
    why only occurring positions are kept, :func:`reduce_to_pi2` for why
    only the maximal patterns).  When ``s`` quantifies a z$o... name, every
    pattern's collapse is checked first (:func:`~qcsp.transforms._fold`), so
    both reductions refuse a z$oj that one of them shares before deciding
    any, though the bundle may stop at a false member."""
    _, positions, taken = _collapse_prefix(s)
    sets = tuple(combinations(positions, min(r, len(positions))))
    for idx in sets if taken else ():
        _fold(s, idx)
    return sets


def _refuted_from_atoms(s: QuantifiedSentence, prefix, fold) -> bool:
    """Whether some atom of the collapse with occurring ``prefix`` and
    renaming ``fold`` (see :func:`~qcsp.transforms._fold`) has no tuple
    under some values of its universals (:meth:`Relation.covers`), its
    arguments read through the fold.  Every such assignment is the pinned
    universals of one copy of the atom in the collapse's elimination, so
    that elimination has no solution."""
    universals = {v for q, v in prefix if q == FORALL}
    relations = s.language.relations
    size = s.language.domain.size
    for atom in s.matrix:
        args = [fold.get(v, v) for v in atom.args]
        shape = tuple([~args.index(v) if v in universals else args.index(v) for v in args])
        if not relations[atom.relation].covers(shape, size):
            return True
    return False


@dataclass(frozen=True)
class BundleMember:
    """One solved collapse pattern: its indices, the source sentence and the
    verdict of the collapse's eliminated instance.  The bundle builds
    neither the collapse nor its instance: :attr:`sentence` builds the
    collapse, ``omega(normalize_alternating(source), indices)``, and
    :attr:`instance` its elimination under the bundle's ``budgets``, each on
    first access.  For a source holding a name the padding or ``omega``
    takes (y$d1, a vacuous z$o1), which the bundle decides, :attr:`sentence`
    raises what they raise."""

    indices: tuple[int, ...]
    source: QuantifiedSentence
    verdict: SolveVerdict
    budgets: Budgets = field(default=DEFAULT_BUDGETS, compare=False, repr=False)

    @property
    def sentence(self) -> QuantifiedSentence:
        return cached_on(self, "sentence", lambda: omega(normalize_alternating(self.source), self.indices))

    @property
    def instance(self) -> CspInstance:
        return cached_on(self, "instance", lambda: eliminate_universals(self.sentence, self.budgets))


@dataclass(frozen=True)
class ReductionBundle:
    """One decision per maximal collapse pattern; true iff every one is
    satisfiable.

    ``index_sets`` lists the patterns that keep min(r, m) of the m universals
    occurring in the matrix (:func:`_index_sets`); they entail every smaller
    pattern, so their conjunction is the conjunction over every pattern of at
    most ``r`` kept universals.  The patterns are decided in that order, and
    the bundle stops at the first unsatisfiable one: ``members`` is the
    decided prefix of ``index_sets``, all of it when the sentence is true,
    and up to its first false member otherwise.
    ``conditional`` marks a true verdict reached without a valid
    switchability witness; a false one never is, since a false collapse
    refutes the sentence over any language.
    """

    source: QuantifiedSentence
    r: int
    index_sets: tuple[tuple[int, ...], ...]
    members: tuple[BundleMember, ...]
    combined: bool
    conditional: bool

    def __post_init__(self):
        if self.index_sets != _index_sets(self.source, self.r):
            raise ValueError("index sets must be the maximal patterns over the occurring universals")
        truths = [m.verdict.truth for m in self.members]
        if tuple(m.indices for m in self.members) != self.index_sets[: len(self.members)]:
            raise ValueError("members must form a prefix of the index sets, in order")
        if False in truths[:-1]:
            raise ValueError("bundle decides no pattern after an unsatisfiable member")
        complete = len(truths) == len(self.index_sets)
        if not complete and (not truths or truths[-1]):
            raise ValueError("bundle may only stop at an unsatisfiable member")
        if self.combined != (complete and all(truths)):
            raise ValueError("combined verdict must be the conjunction over every pattern")
        if self.conditional and not self.combined:
            raise ValueError("only a true verdict is conditional: a false member refutes the sentence")

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "combined": self.combined,
            "conditional": self.conditional,
            "instances_solved": len(self.members),
            "instances_skipped": len(self.index_sets) - len(self.members),
            "members": [
                {
                    "indices": list(m.indices),
                    "satisfiable": m.verdict.truth,
                    "nodes": m.verdict.stats.get("nodes", 0),
                }
                for m in self.members
            ],
        }


def reduce_pgp_to_csp(
    s: QuantifiedSentence,
    r: int,
    witness: SwitchabilityWitness | None = None,
    override: bool = False,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ReductionBundle:
    """Solve the sentence as a conjunction of plain CSP instances, one per
    maximal collapse pattern: each keeps k = min(r, m) of the m universals
    occurring in the matrix (at most 2k+1 occurring universals each).

    The patterns keep only occurring universals (:func:`_index_sets`)
    because the padded patterns, which may keep any of the n universals, add
    nothing: the conjunction over the occurring patterns equals the
    conjunction over all padded patterns, witness or not.  Take a padded
    pattern I with a kept position v whose universal x_v is vacuous.  If the
    segment of I before v (the positions after the previous kept one) has an
    occurring universal, let u be the last one, and I' = I - {v} + {u}.
    Every universal after u up to x_v is vacuous, so ``omega(alt, I')`` folds
    the same occurring universals into each collapsed universal as
    ``omega(alt, I)``, except that x_u stays in place instead of joining the
    collapsed universal of its segment.  Moving x_u to the front
    (exists y forall x phi entails forall x exists y phi) and identifying it
    with that segment's collapsed universal (forall a forall b phi entails
    forall a phi[b:=a]) gives ``omega(alt, I)`` back, so ``omega(alt, I')``
    entails it.  If that segment has no occurring universal, let
    I' = I - {v}: the segments on either side of v merge, and the collapse is
    the same up to renaming once vacuous variables are dropped.  Either way
    I' has one vacuous kept position fewer and no more kept positions than I,
    so repeating the step ends at an occurring pattern of at most |I| kept
    universals that entails ``omega(alt, I)``.  Every occurring pattern is a
    padded one, and the sentence entails each of its collapses, so a false
    member still refutes the sentence over any language.

    Only the maximal occurring patterns are decided, as :func:`reduce_to_pi2`
    conjoins them: for J a subset of I, ``omega(alt, I)`` entails
    ``omega(alt, J)`` (the proof is there), so every smaller occurring
    pattern, and by the argument above every padded one, is entailed by a
    maximal one.  Their conjunction is the conjunction over every padded
    pattern of at most r kept universals, witness or not, and a false
    smaller pattern lies under a false maximal one, which refutes the
    sentence.

    Patterns are decided one at a time in index-set order, and the first
    unsatisfiable one decides the verdict; later ones are never built.  A
    member is decided from the integer form of its collapse's elimination,
    read off the sentence itself in one pass, as
    :func:`~qcsp.transforms._collapse_core` reads it: neither the padded
    alternation form nor the collapse is built, and the names and atoms are
    those of ``_elimination_core(omega(normalize_alternating(s), I))``
    wherever that builds, so the verdict, the witness and the node count
    are too.

    Each member's fold is computed once.  After the fold's name check and
    the constant-name check of :func:`gamma_star`, every atom is read
    through the fold (:func:`_refuted_from_atoms`): if some values of its
    universals leave it no tuple, the member is false with 0 nodes and no
    witness, neither its copy table nor its CSP is built, and no budget is
    checked, since nothing is built.  That is
    the verdict solving it gives: the elimination holds that atom's copy
    with those universals pinned, which has no valid tuple, so the solver
    fails on its start masks (a unary atom) or on its first propagation,
    before any node.  Copy names can clash only when a prefix name holds
    "$", so such a sentence's members are always built, and raise as
    building them raises.

    The collapse is built only when :attr:`BundleMember.sentence` is read,
    and its :class:`CspInstance` only when :attr:`BundleMember.instance` is;
    solving that instance gives the member's verdict.  A solved member's
    table checks the budgets on its own figures before it is built
    (:func:`~qcsp.transforms._copy_rows`).  The refusals come in this order:
    a malformed sentence, then a z$oj that some pattern's collapse shares
    with an occurring name of the sentence (:func:`_index_sets`), before
    any member; then, at a member, a constant name the language holds for a
    non-constant relation, the table's budgets, and copy names that clash.
    ``conditional`` is the witness gate's flag (:func:`check_witness_gate`)
    on a true verdict, and False on a false one.
    """
    conditional = check_witness_gate(witness, r, override)
    sets = _index_sets(s, r)
    size = s.language.domain.size
    reserved = any(RESERVED_MARK in v for _, v in s.prefix)
    members: list[BundleMember] = []
    for idx in sets:
        prefix, fold = _fold(s, idx)
        gamma_star(s.language)
        if not reserved and _refuted_from_atoms(s, prefix, fold):
            verdict = SolveVerdict(False, "csp", None, {"nodes": 0})
        else:
            verdict = _solve_ids(*_pinned(s.language, *_copy_rows(prefix, s.matrix, size, fold, budgets)))
        members.append(BundleMember(idx, s, verdict, budgets))
        if not verdict.truth:
            break
    combined = members[-1].verdict.truth
    return ReductionBundle(s, r, sets, tuple(members), combined, conditional and combined)


def reduce_to_pi2(
    s: QuantifiedSentence,
    r: int,
    witness: SwitchabilityWitness | None = None,
    override: bool = False,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> QuantifiedSentence:
    """Equivalent forall*exists* sentence with at most |A| universals.

    Collapses the sentence at every pattern of exactly min(r, m) kept
    universals among the m that occur in the matrix (:func:`_index_sets`),
    hoists each member's universals left, conjoins the members on a shared
    universal ladder z$s1, z$s2, ... with member-disjoint existentials e$cj,
    and shrinks the universal count if that leaves more than |A| universals.

    The smaller patterns are left out because each is implied by a maximal
    one: for J a subset of I, ``omega(alt, I)`` entails ``omega(alt, J)``.
    Dropping one kept position t from I moves the universal x_t to the front
    (exists y forall x phi entails forall x exists y phi) and identifies it
    with the collapsed universals of the segments on either side of t
    (forall a forall b phi entails forall a phi[b:=a]); both steps weaken the
    sentence.  Patterns that keep a vacuous universal are left out too: each
    is entailed by an occurring pattern of no more kept universals (the proof
    is in :func:`reduce_pgp_to_csp`), and so by a maximal one.  So the
    conjunction is the same over the maximal occurring patterns as over every
    padded pattern of at most r kept universals, witness or not.

    Each collapse is built straight from the sentence in one pass, without
    the padded alternation form (:func:`~qcsp.transforms._collapse_sentence`):
    it is ``omega(normalize_alternating(s), I)`` without its vacuous
    variables.  :func:`move_universals_left` drops every vacuous variable
    before its first hoist and before any budget check, so each hoisted
    member, and each check, is the same as hoisting ``omega``'s collapse;
    a z$oj that a collapse shares with an occurring name of the sentence
    raises before any member is built (:func:`_index_sets`).

    When m <= r the only pattern keeps every occurring universal, so its
    collapse is the sentence itself up to vacuous variables: ``omega`` folds
    only vacuous universals into the z$oj, which are vacuous in turn, and
    pads only with vacuous dummies.  :func:`move_universals_left` drops
    every vacuous variable before its first hoist, so hoisting the sentence
    gives the same prefix and matrix, and the same budget checks, as
    hoisting that collapse; the sentence is hoisted directly, without
    normalizing or collapsing it, and hoisting checks it well-formed.
    The ladder's renaming only keeps several members' existentials apart,
    so one member (m <= r, or r = 0) is taken as it is.  Several members are
    conjoined after the budgets are checked on the ladder's atoms and prefix
    (``"universal ladder"``).  Only the names
    differ from a one-rung ladder (no $c1 on the existentials): the prefix
    length, the atom count, the universal count and the truth value are the
    same.

    :func:`reduce_universal_count` runs only when the conjoined sentence
    (the one member, or the ladder) has k > |A| universals.  With k <= |A|
    it would build S(k, k) = 1 copy, a bijective renaming in prefix order
    (each universal to z$ui, each existential e to e$1) of a sentence that
    already meets its contract: forall*exists*, at most |A| universals, no
    vacuous variable (hoisting drops them, and each z$si occurs in a member
    with at least i universals), checked well-formed.  So that sentence is
    returned itself, and nothing more is built or checked.  Only the names
    differ from the reduced copy: it keeps its hoisted names (x$1,
    y$2, ...) or the ladder's (z$s1, e$cj) where the reduction gave z$u1
    and e$1.  The prefix length, the atom count, the universal count and
    the truth value are the same.
    """
    check_witness_gate(witness, r, override)
    occurring = s.matrix_variables()
    if sum(1 for q, v in s.prefix if q == FORALL and v in occurring) <= r:
        members = [move_universals_left(s, budgets)]
    else:
        members = [move_universals_left(_collapse_sentence(s, idx), budgets) for idx in _index_sets(s, r)]

    size = s.language.domain.size
    if len(members) == 1:
        conjoined = members[0]
    else:
        shared_count = max(m.universal_count() for m in members)
        atoms = sum(len(m.matrix) for m in members)
        existentials = sum(len(m.existentials()) for m in members)
        budgets.check_expansion("universal ladder", atoms, prefix=shared_count + existentials)
        shared = [f"z$s{i}" for i in range(1, shared_count + 1)]
        prefix: list[tuple[str, str]] = [(FORALL, z) for z in shared]
        matrix = []
        for j, member in enumerate(members, start=1):
            cmap: dict[str, str] = {}
            for i, u in enumerate(member.universals()):
                cmap[u] = shared[i]
            for e in member.existentials():
                cmap[e] = f"{e}$c{j}"
            prefix.extend((EXISTS, cmap[e]) for e in member.existentials())
            matrix.extend(a.rename(cmap) for a in member.matrix)
        conjoined = QuantifiedSentence(tuple(prefix), tuple(matrix), s.language)
        check_wellformed(conjoined)
    if conjoined.universal_count() <= size:
        return conjoined
    out = reduce_universal_count(conjoined, budgets)
    if out.universal_count() > size:
        raise QcspError("universal-count reduction exceeded the domain size")
    return out


# ---------------------------------------------------------------------------
# tractability classification


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    caveat: str
    wnu: OperationTable | None = None
    base_wnu: OperationTable | None = None
    searched_arities: tuple[int, ...] = ()
    searched_tables: int = 0

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "caveat": self.caveat,
            "searched_arities": list(self.searched_arities),
            "searched_tables": self.searched_tables,
        }
        if self.wnu is not None:
            out["wnu_table"] = {
                "arity": self.wnu.arity,
                "domain_size": self.wnu.domain.size,
                "table": list(self.wnu.table),
            }
        return out


def classify(
    lang: ConstraintLanguage,
    r: int,
    wnu_arity: int = 3,
    override: bool = False,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ClassificationReport:
    """Classify the quantified problem over the power language with columns.

    Searches weak near-unanimity operations over the base domain (complete for
    every table up to ``wnu_arity``, which must be at least 2) and verifies a
    hit on the base language.  The reported operation is the hit lifted
    digitwise to the power domain: each digit of an image is the base
    operation applied to base rows, so an idempotent polymorphism lifts to one
    of every powered relation and column singleton.  The negative answer is
    always bounded by the searched arities.

    The search stops at the first arity with a hit, so ``searched_arities``
    and ``searched_tables`` count only the arities searched: 2 up to the hit
    for a P verdict, 2 up to ``wnu_arity`` otherwise.  A bound far above the
    hit costs nothing.

    Without ``override`` the search at each arity the witness holds (up to
    its arity bound, 3) reads the first weak near-unanimity operation among
    the witness's operations of that arity, in their lexicographic table
    order; ``find_wnu`` runs only at the arities above it.  That is the
    operation ``find_wnu`` returns: the witness holds every polymorphism of
    the arity, and on weak near-unanimity tables lexicographic order is
    ``find_wnu``'s slot order, since each slot is numbered by its first
    entry and the diagonal is fixed.  The witness's budget checks dominate
    the search's (size**(size**m) tables, the same preservation cells), so
    reading it raises no check the search would not.

    The switchability witness is computed only without ``override``, the one
    case that reads it.  So under the override an over-budget language never
    raises a check of the witness (``arity-m operation enumeration``,
    ``closure membership index``).  After ``power domain`` it raises the
    first failing check of the search (``arity-m symmetric-table
    enumeration``, ``preservation check cells``) or of the lift (``power
    domain for lifted operation``, ``lifted operation table``).
    """
    if wnu_arity < 2:
        raise ValueError(f"weak near-unanimity search arity must be >= 2, got {wnu_arity}")
    size = lang.domain.size
    budgets.check_power("power domain", budgets.max_power_domain, size, (size, size))
    if r < 0:
        raise ValueError(f"switch bound must be >= 0, got {r}")
    read = set()
    if not override:
        witness = switchability_witness(lang, r, budgets=budgets)
        if witness.verdict != WITNESSED:
            return ClassificationReport(
                NOT_APPLICABLE,
                f"switchability check returned {witness.verdict!r}; classification needs a witness",
            )
        read = set(witness.arities_used())

    for top in range(2, wnu_arity + 1):
        base = witness.first_wnu(top) if top in read else find_wnu(lang, top, budgets)
        if base is not None:
            break
    arities = tuple(range(2, top + 1))
    searched = sum(size ** (size**m) for m in arities)
    if base is None:
        return ClassificationReport(
            NP_COMPLETE_BOUNDED,
            f"no weak near-unanimity polymorphism up to arity {wnu_arity}; "
            "absence beyond this bound is not decided",
            searched_arities=arities,
            searched_tables=searched,
        )
    if not is_wnu(base):
        raise QcspError("weak near-unanimity search returned an operation without the identities")
    for rel in lang.sorted_relations():
        if not preserves(base, rel, budgets):
            raise QcspError(f"weak near-unanimity operation does not preserve {rel.name}")
    return ClassificationReport(
        P_TIME,
        f"witnessed by an arity-{base.arity} weak near-unanimity operation, "
        "verified on the base language, lifted digitwise to the power domain",
        wnu=lift_operation(base, size**size, budgets),
        base_wnu=base,
        searched_arities=arities,
        searched_tables=searched,
    )
