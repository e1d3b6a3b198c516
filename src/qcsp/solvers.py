"""Ground-truth oracles and the reduction pipelines.

The game-tree oracle evaluates any quantified sentence exactly and is the
reference every transformation is checked against.  The CSP solver is a
deterministic backtracking search with generalized arc consistency, sound and
complete.  The reduction pipelines are gated on a switchability witness: the
equivalence they compute is only guaranteed when the bounded-switch tuples
actually generate the powers.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    check_wellformed,
    validate_sentence,
)
from .transforms import (
    AlternatingSentence,
    CanonicalFalse,
    CspInstance,
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
    report = validate_sentence(sentence)
    if not report.ok:
        raise ValueError(f"invalid sentence: {report.issues[0].message}")
    size = sentence.language.domain.size
    occurring = sentence.matrix_variables()
    levels = [(q, v) for q, v in sentence.prefix if v in occurring]
    nvars = len(levels)
    budgets.check("game tree size", size**nvars, budgets.max_game_tree)

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

    Domains are int bitsets over the domain elements.  Each atom keeps its
    relation's support table (:attr:`Relation.supports`), the mask of all the
    relation's tuples, its variable indices and the relation's tuple set.
    """

    def __init__(self, language: ConstraintLanguage, variables, atoms) -> None:
        self.variables = list(variables)
        self.full = (1 << language.domain.size) - 1
        n = len(self.variables)
        index = dict(zip(self.variables, range(n)))
        self.rank = [0] * n
        for r, i in enumerate(sorted(range(n), key=self.variables.__getitem__)):
            self.rank[i] = r
        relations = language.relations
        self.atoms: list[tuple[tuple, int, tuple[int, ...], frozenset]] = []
        self.scopes: list[set[int]] = []
        self.watch: list[list[int]] = [[] for _ in range(n)]
        for aid, atom in enumerate(atoms):
            rel = relations[atom.relation]
            idxs = tuple(map(index.__getitem__, atom.args))
            scope = set(idxs)
            for i in scope:
                self.watch[i].append(aid)
            self.scopes.append(scope)
            self.atoms.append((rel.supports, (1 << len(rel.tuples)) - 1, idxs, rel.tuples))

    def components(self, domains: list[int]) -> list[list[int]]:
        """Connected components of the variables with more than one value
        left, linked through shared atoms; each in name order, and the
        components ordered by their first name."""
        branching = [i for i, d in enumerate(domains) if d & (d - 1)]
        if not branching:
            return []
        parent = list(range(len(domains)))
        for scope in self.scopes:
            live = [i for i in scope if domains[i] & (domains[i] - 1)]
            for a, b in zip(live, live[1:]):
                parent[_find(parent, a)] = _find(parent, b)
        groups: dict[int, list[int]] = {}
        for i in branching:
            groups.setdefault(_find(parent, i), []).append(i)
        rank = self.rank
        return sorted(
            (sorted(g, key=rank.__getitem__) for g in groups.values()),
            key=lambda g: rank[g[0]],
        )

    def solve(self, domains: list[int]) -> tuple[bool, int]:
        """Search from ``domains`` (mutated in place); returns (truth, nodes).

        On success every domain is a singleton.  After the initial
        propagation the constraint graph is split on the variables still
        carrying more than one value, and each connected component is searched
        independently, variables in name order and values ascending, which
        keeps chronological backtracking from thrashing across unrelated
        blocks.
        """
        atoms = self.atoms
        watch = self.watch
        trail: list[tuple[int, int]] = []
        in_queue = [False] * len(atoms)
        nodes = 0

        def propagate(seed_atoms) -> bool:
            # FIFO revision to the arc-consistent fixpoint: an atom's valid
            # tuples are those whose every entry is still in its variable's
            # domain; each domain keeps the values some valid tuple supports.
            queue = list(seed_atoms)
            for aid in queue:
                in_queue[aid] = True
            head = 0
            while head < len(queue):
                aid = queue[head]
                head += 1
                in_queue[aid] = False
                supports, valid, idxs, _ = atoms[aid]
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
            return False, 0

        def search(order: list[int]) -> bool:
            nonlocal nodes
            # frames: (var, remaining values, trail mark before its assignment, cursor)
            stack: list[tuple[int, list[int], int, int]] = []
            cursor = 0
            pending: tuple[int, list[int], int] | None = None
            while True:
                if pending is None:
                    v = None
                    c = cursor
                    while c < len(order):
                        d = domains[order[c]]
                        if d & (d - 1):
                            v = order[c]
                            break
                        c += 1
                    if v is None:
                        return True
                    d = domains[v]
                    pending = (v, [x for x in range(d.bit_length()) if d >> x & 1], c)
                v, values, cursor = pending
                placed = False
                while values:
                    value = values.pop(0)
                    nodes += 1
                    mark = len(trail)
                    trail.append((v, domains[v]))
                    domains[v] = 1 << value
                    if propagate(watch[v]):
                        stack.append((v, values, mark, cursor))
                        placed = True
                        break
                    undo(mark)
                if placed:
                    pending = None
                    continue
                if not stack:
                    return False
                v, values, mark, cursor = stack.pop()
                undo(mark)
                pending = (v, values, cursor)

        for component in self.components(domains):
            if not search(component):
                return False, nodes
        for _, _, idxs, tuples in atoms:
            if tuple(_lowest(domains[i]) for i in idxs) not in tuples:
                raise QcspError("CSP search ended on an assignment that violates an atom")
        return True, nodes


def solve_csp(inst: CspInstance, budgets: Budgets = DEFAULT_BUDGETS) -> SolveVerdict:
    """Sound and complete backtracking with generalized arc consistency.

    Domains are int bitsets and the trail stores (variable, old domain).  An
    atom is revised against its relation's support table: the still-valid
    tuples are the AND over positions of the OR of the supports of the values
    left in that position's domain, and each domain keeps the values whose
    support meets them (compact-table filtering, recomputed per revision).
    Search is lexicographic in variable name and value inside each connected
    component of the branching variables (see :meth:`_CompiledCsp.solve`);
    the witness takes each variable's lowest remaining value, and is checked
    against every atom before it is returned.
    """
    if not inst.atoms:
        return SolveVerdict(True, "csp", {}, {"nodes": 0})
    model = _CompiledCsp(inst.language, inst.variables, inst.atoms)
    domains = [model.full] * len(model.variables)
    truth, nodes = model.solve(domains)
    if not truth:
        return SolveVerdict(False, "csp", None, {"nodes": nodes})
    witness = {v: _lowest(d) for v, d in zip(model.variables, domains)}
    return SolveVerdict(True, "csp", witness, {"nodes": nodes})


def truth_of(obj, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """Truth of any pipeline object: sentence, instance, or canonical false."""
    if isinstance(obj, CanonicalFalse):
        return False
    if isinstance(obj, CspInstance):
        return solve_csp(obj, budgets).truth
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

    A component's shape is its atoms in order, with each universal kept by
    name and each existential replaced by its first-occurrence number within
    the component.  Components of equal shape differ only by a bijective
    renaming of existentials, so they have the same truth: each shape is
    decided once per call.
    """
    if not sentence.is_pi2():
        raise ValueError("input must be in forall*exists* form")
    report = validate_sentence(sentence)
    if not report.ok:
        raise ValueError(f"invalid sentence: {report.issues[0].message}")
    size = sentence.language.domain.size
    universal_pos = {v: i for i, v in enumerate(sentence.universals())}

    # union-find over existential variables; atoms join their existentials
    parent: dict[str, str] = {v: v for v in sentence.existentials()}
    firsts: list[str | None] = []
    for atom in sentence.matrix:
        evars = [v for v in atom.args if v not in universal_pos]
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
        number: dict[str, int] = {}
        touched: set[str] = set()
        shape = []
        for a in atoms:
            args = []
            for v in a.args:
                if v in universal_pos:
                    touched.add(v)
                    args.append(v)
                else:
                    args.append(number.setdefault(v, len(number)))
            shape.append((a.relation, tuple(args)))
        budgets.check("component assignments", size ** len(touched), budgets.max_game_tree)
        key = tuple(shape)
        if key in holding:
            return True
        pinned = sorted(touched, key=universal_pos.get)
        evars = sorted(number)
        model = _CompiledCsp(sentence.language, pinned + evars, atoms)
        free = [model.full] * len(evars)
        for values in product(range(size), repeat=len(pinned)):
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


def _check_witness_gate(
    witness: SwitchabilityWitness | None, r: int, override: bool
) -> bool:
    """Returns True when the result must carry the conditional caveat."""
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


def _index_sets(n: int, r: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for k in range(0, min(r, n) + 1):
        out.extend(combinations(range(1, n + 1), k))
    return out


@dataclass(frozen=True)
class BundleMember:
    indices: tuple[int, ...]
    sentence: QuantifiedSentence
    instance: CspInstance
    verdict: SolveVerdict


@dataclass(frozen=True)
class ReductionBundle:
    """One CSP instance per collapse pattern; true iff all are satisfiable."""

    source: QuantifiedSentence
    r: int
    members: tuple[BundleMember, ...]
    combined: bool
    conditional: bool

    def __post_init__(self):
        if self.combined != all(m.verdict.truth for m in self.members):
            raise ValueError("combined verdict must be the conjunction of member verdicts")

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "combined": self.combined,
            "conditional": self.conditional,
            "instances_solved": len(self.members),
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
    collapse pattern with at most r kept universals (2k+1 universals each)."""
    conditional = _check_witness_gate(witness, r, override)
    alt = normalize_alternating(s)
    sets = _index_sets(alt.n, r)
    sentences = [omega(alt, idx) for idx in sets]
    instances = [eliminate_universals(w, budgets) for w in sentences]
    verdicts = [solve_csp(inst, budgets) for inst in instances]
    members = tuple(
        BundleMember(idx, w, inst, v)
        for idx, w, inst, v in zip(sets, sentences, instances, verdicts)
    )
    combined = all(v.truth for v in verdicts)
    return ReductionBundle(s, r, members, combined, conditional)


def reduce_to_pi2(
    s: QuantifiedSentence,
    r: int,
    witness: SwitchabilityWitness | None = None,
    override: bool = False,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> QuantifiedSentence:
    """Equivalent forall*exists* sentence with at most |A| universals.

    Builds the collapse bundle, hoists each member's universals left, conjoins
    the members on a shared universal ladder with member-disjoint existentials,
    and shrinks the universal count.
    """
    _check_witness_gate(witness, r, override)
    alt = normalize_alternating(s)
    members = [move_universals_left(omega(alt, idx), budgets) for idx in _index_sets(alt.n, r)]

    shared_count = max(m.universal_count() for m in members)
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
    out = reduce_universal_count(conjoined, budgets)
    if out.universal_count() > s.language.domain.size:
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
    """
    if wnu_arity < 2:
        raise ValueError(f"weak near-unanimity search arity must be >= 2, got {wnu_arity}")
    size = lang.domain.size
    budgets.check("power domain", size ** (size**size), budgets.max_power_domain)
    witness = switchability_witness(lang, r, budgets=budgets)
    if witness.verdict != WITNESSED and not override:
        return ClassificationReport(
            NOT_APPLICABLE,
            f"switchability check returned {witness.verdict!r}; classification needs a witness",
        )

    arities = tuple(range(2, wnu_arity + 1))
    searched = sum(size ** (size**m) for m in arities)
    base = None
    for m in arities:
        base = find_wnu(lang, m, budgets)
        if base is not None:
            break
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
