"""Shared generators and brute-force reference implementations for the tests.

Everything randomized lives here (seeded), never in the library code.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product

from qcsp import (
    Atom,
    BudgetError,
    Budgets,
    ConstraintLanguage,
    CspInstance,
    OperationTable,
    QuantifiedSentence,
    Relation,
    enumerate_switch_bounded,
    gamma_star,
    generate_closure,
    polymorphisms,
)
from qcsp.model import const_name

XOR0 = Relation("XOR0", 3, frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}))
NOT = Relation("NOT", 2, frozenset({(0, 1), (1, 0)}))
ONE_IN_THREE = Relation("ONE_IN_THREE", 3, frozenset({(0, 0, 1), (0, 1, 0), (1, 0, 0)}))
LT3 = Relation("LT", 2, frozenset({(0, 1), (0, 2), (1, 2)}))
CYCLE3 = Relation("CYC", 3, frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)}))
# (x or y) and (not z or not w): 9 rows, whose first WNU is majority; its
# powered relation has 9^4 rows, too many to check a ternary operation on
ORNAND = Relation(
    "ORNAND",
    4,
    frozenset(t for t in product((0, 1), repeat=4) if (t[0] or t[1]) and not (t[2] and t[3])),
)
# x xor y xor z xor w = 0: 8 rows, whose first WNU is minority
XOR4 = Relation("XOR4", 4, frozenset(t for t in product((0, 1), repeat=4) if sum(t) % 2 == 0))


def lang_xor0() -> ConstraintLanguage:
    return ConstraintLanguage.of(2, XOR0)


def lang_mixed2() -> ConstraintLanguage:
    return ConstraintLanguage.of(2, XOR0, NOT)


def lang_dom3() -> ConstraintLanguage:
    return ConstraintLanguage.of(3, LT3, CYCLE3)


def random_language(rnd: random.Random, size, arities, max_tuples, max_relations=2) -> ConstraintLanguage:
    """One to max_relations relations R0, R1, ..., each of an arity drawn from
    arities and holding 1 to max_tuples distinct tuples."""
    rels = []
    for i in range(rnd.randint(1, max_relations)):
        arity = rnd.choice(arities)
        rows = list(product(range(size), repeat=arity))
        picked = rnd.sample(rows, rnd.randint(1, min(len(rows), max_tuples)))
        rels.append(Relation(f"R{i}", arity, frozenset(picked)))
    return ConstraintLanguage.of(size, *rels)


def random_matrix(rnd: random.Random, lang, names, max_atoms):
    rels = sorted(lang.relations)
    atoms = []
    for _ in range(rnd.randint(0, max_atoms)):
        rn = rnd.choice(rels)
        rel = lang.relations[rn]
        atoms.append(Atom(rn, tuple(rnd.choice(names) for _ in range(rel.arity))))
    return tuple(atoms)


def random_sentence(rnd: random.Random, lang, max_vars=5, max_atoms=2) -> QuantifiedSentence:
    nv = rnd.randint(1, max_vars)
    names = [f"v{i}" for i in range(nv)]
    prefix = tuple((rnd.choice(["forall", "exists"]), v) for v in names)
    return QuantifiedSentence(prefix, random_matrix(rnd, lang, names, max_atoms), lang)


def random_pi2(rnd: random.Random, lang, max_univ=2, max_exist=3, max_atoms=2) -> QuantifiedSentence:
    nu = rnd.randint(0, max_univ)
    ne = rnd.randint(0 if nu else 1, max_exist)
    names_u = [f"u{i}" for i in range(nu)]
    names_e = [f"e{i}" for i in range(ne)]
    prefix = tuple([("forall", v) for v in names_u] + [("exists", v) for v in names_e])
    names = names_u + names_e
    return QuantifiedSentence(prefix, random_matrix(rnd, lang, names, max_atoms), lang)


def random_alternating(rnd: random.Random, lang, n, max_atoms=2) -> QuantifiedSentence:
    prefix = []
    for i in range(1, n + 1):
        prefix += [("exists", f"y{i}"), ("forall", f"x{i}")]
    names = [v for _, v in prefix]
    return QuantifiedSentence(tuple(prefix), random_matrix(rnd, lang, names, max_atoms), lang)


TRUE0 = Relation("T0", 0, frozenset({()}))
FALSE0 = Relation("F0", 0, frozenset())


def messy_sentence(rnd: random.Random, lang, max_vars=5, max_atoms=4) -> QuantifiedSentence:
    """A random sentence whose atoms draw on a random part of its prefix, so
    variables repeat inside atoms and the rest stay vacuous, with some atoms
    repeated and, when the language has T0 and F0, some 0-ary atoms."""
    names = [f"v{i}" for i in range(rnd.randint(1, max_vars))]
    prefix = tuple((rnd.choice(["forall", "exists"]), v) for v in names)
    base = [r for r in sorted(lang.relations) if lang.relations[r].arity]
    pool = rnd.sample(names, rnd.randint(1, len(names)))
    atoms = []
    for _ in range(rnd.randint(0, max_atoms)):
        rel = rnd.choice(base)
        atoms.append(Atom(rel, tuple(rnd.choice(pool) for _ in range(lang.relations[rel].arity))))
    atoms += rnd.sample(atoms, rnd.randint(0, min(2, len(atoms))))
    for rel, p in (("T0", 0.3), ("F0", 0.05)):
        if rel in lang.relations and rnd.random() < p:
            atoms.insert(rnd.randint(0, len(atoms)), Atom(rel, ()))
    return QuantifiedSentence(prefix, tuple(atoms), lang)


def alternating_family(lang, n, max_atoms=2):
    """Every alternating sentence of depth n whose matrix has at most
    max_atoms distinct atoms over the prefix variables."""
    prefix = []
    for i in range(1, n + 1):
        prefix += [("exists", f"y{i}"), ("forall", f"x{i}")]
    names = [v for _, v in prefix]
    pool = []
    for rel in lang.sorted_relations():
        pool.extend(Atom(rel.name, args) for args in product(names, repeat=rel.arity))
    yield QuantifiedSentence(tuple(prefix), (), lang)
    for a in pool:
        yield QuantifiedSentence(tuple(prefix), (a,), lang)
    if max_atoms >= 2:
        for a, b in combinations(pool, 2):
            yield QuantifiedSentence(tuple(prefix), (a, b), lang)


def prefix_family(lang, n_vars, atom_count=1):
    """Every quantifier pattern over n_vars variables crossed with every
    matrix of exactly atom_count atoms drawn from the language."""
    names = [f"v{i}" for i in range(n_vars)]
    pool = []
    for rel in lang.sorted_relations():
        pool.extend(Atom(rel.name, args) for args in product(names, repeat=rel.arity))
    matrices = [(a,) for a in pool] if atom_count == 1 else list(combinations(pool, atom_count))
    for pattern in product(["forall", "exists"], repeat=n_vars):
        prefix = tuple(zip(pattern, names))
        for matrix in matrices:
            yield QuantifiedSentence(prefix, tuple(matrix), lang)


# ---------------------------------------------------------------------------
# brute-force reference implementations


def preserves_bruteforce(f: OperationTable, rel: Relation) -> bool:
    """Direct double loop over all argument choices, no shortcuts."""
    if rel.arity == 0:
        return True
    for combo in product(sorted(rel.tuples), repeat=f.arity):
        image = tuple(f.apply(tuple(t[j] for t in combo)) for j in range(rel.arity))
        if image not in rel.tuples:
            return False
    return True


def polymorphisms_bruteforce(lang: ConstraintLanguage, m: int) -> list[OperationTable]:
    """Every arity-m table in lexicographic order that passes the double loop
    on every relation."""
    out = []
    for table in product(range(lang.domain.size), repeat=lang.domain.size**m):
        f = OperationTable(m, lang.domain, table)
        if all(preserves_bruteforce(f, r) for r in lang.relations.values()):
            out.append(f)
    return out


def stirling2(n: int, m: int) -> int:
    """S(n, m), the partitions of n things into m nonempty blocks, by the
    inclusion-exclusion formula."""
    return sum((-1) ** i * math.comb(m, i) * (m - i) ** n for i in range(m + 1)) // math.factorial(m)


def is_wnu_bruteforce(f: OperationTable) -> bool:
    """Idempotent and equal on all one-off argument patterns, each entry
    read through ``OperationTable.apply``."""
    m = f.arity
    for x in range(f.domain.size):
        if f.apply((x,) * m) != x:
            return False
        for y in range(f.domain.size):
            if len({f.apply((x,) * p + (y,) + (x,) * (m - 1 - p)) for p in range(m)}) != 1:
                return False
    return True


def first_wnu_bruteforce(lang: ConstraintLanguage, m: int) -> OperationTable | None:
    return next((f for f in polymorphisms_bruteforce(lang, m) if is_wnu_bruteforce(f)), None)


def witness_per_power(lang: ConstraintLanguage, r: int, max_arity: int, max_power: int, budgets: Budgets):
    """The witness with every power closed on its own, from n = 2 up."""
    ops = tuple(f for m in range(1, max_arity + 1) for f in polymorphisms(lang, m))
    powers, verdict = [], "witnessed"
    for n in range(2, max_power + 1):
        try:
            closed = generate_closure(enumerate_switch_bounded(n, r, lang.domain), ops, n, budgets)
        except BudgetError:
            verdict = "inconclusive"
            break
        powers.append((n, len(closed) == lang.domain.size**n))
    if not all(g for _, g in powers):
        verdict = "refuted-at-bounds"
    return ops, tuple(powers), verdict


def closure_bruteforce(seeds, ops, n: int) -> frozenset:
    """Naive fixpoint: apply every operation to every combination of the
    current set until nothing new appears."""
    closed = set(seeds)
    while True:
        images = {
            tuple(f.apply(tuple(t[j] for t in combo)) for j in range(n))
            for f in ops
            for combo in product(sorted(closed), repeat=f.arity)
        }
        if images <= closed:
            return frozenset(closed)
        closed |= images


def reversed_relations(lang: ConstraintLanguage) -> ConstraintLanguage:
    """The same language with its relations given in the reverse order."""
    return ConstraintLanguage(lang.domain, dict(reversed(list(lang.relations.items()))))


def sat_by_enumeration(inst: CspInstance) -> bool:
    """Exhaustive assignment enumeration, the completeness oracle for solve_csp."""
    size = inst.language.domain.size
    variables = list(inst.variables)
    rels = {name: rel.tuples for name, rel in inst.language.relations.items()}
    for values in product(range(size), repeat=len(variables)):
        env = dict(zip(variables, values))
        if all(tuple(env[v] for v in a.args) in rels[a.relation] for a in inst.atoms):
            return True
    return False


def eliminate_universals_reference(s: QuantifiedSentence) -> CspInstance:
    """Universal elimination one universal at a time, the innermost first:
    its copies x$1..x$|A| and those of the variables after it replace them,
    each atom that mentions one of them is copied once per value, every other
    atom is kept once, and const_a(x$c) atoms pin the copies.  Vacuous
    prefix variables are dropped first.  Takes no budgets."""
    size = s.language.domain.size
    occurring = s.matrix_variables()
    prefix = [(q, v) for q, v in s.prefix if v in occurring]
    matrix = list(s.matrix)
    while any(q == "forall" for q, _ in prefix):
        pos = max(i for i, (q, _) in enumerate(prefix) if q == "forall")
        x = prefix[pos][1]
        renamed = [x] + [v for _, v in prefix[pos + 1 :]]
        maps = [{v: f"{v}${c}" for v in renamed} for c in range(1, size + 1)]
        touched = [a for a in matrix if set(a.args) & set(renamed)]
        prefix = prefix[:pos] + [("exists", f"{x}${c}") for c in range(1, size + 1)] + [
            ("exists", cmap[v]) for cmap in maps for v in renamed[1:]
        ]
        matrix = (
            [a.rename(maps[0]) for a in matrix]
            + [a.rename(cmap) for cmap in maps[1:] for a in touched]
            + [Atom(const_name(c - 1), (f"{x}${c}",)) for c in range(1, size + 1)]
        )
    return CspInstance(gamma_star(s.language), tuple(v for _, v in prefix), tuple(matrix))
