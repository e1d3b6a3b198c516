"""Shared generators and brute-force reference implementations for the tests.

Everything randomized lives here (seeded), never in the library code.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from qcsp import (
    Atom,
    ConstraintLanguage,
    CspInstance,
    OperationTable,
    QuantifiedSentence,
    Relation,
    is_wnu,
)

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


def first_wnu_bruteforce(lang: ConstraintLanguage, m: int) -> OperationTable | None:
    return next((f for f in polymorphisms_bruteforce(lang, m) if is_wnu(f)), None)


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
