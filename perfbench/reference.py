"""Reference checks, written apart from ``qcsp``.

They read the plain data of :mod:`inputs` (domain size, relations as tuple
lists, sentences as prefix and atom lists), never the program's objects.
Operation tables list f(args) for args in lexicographic order of A^m, the
order the program's tables use too.
"""

from __future__ import annotations

from itertools import product


def evaluate(lang: dict, sentence: dict) -> bool:
    """Truth of a prenex sentence by walking its game tree.

    An atom is checked at the level of its last quantified variable, so a
    branch stops as soon as an atom fails."""
    size = lang["domain"]
    rels = {name: set(tuples) for name, (_, tuples) in lang["relations"].items()}
    prefix = sentence["prefix"]
    level = {v: i for i, (_, v) in enumerate(prefix)}
    checks: list[list] = [[] for _ in prefix]
    for r, args in sentence["atoms"]:
        idx = [level[a] for a in args]
        checks[max(idx)].append((rels[r], idx))
    values = [0] * len(prefix)

    def walk(i: int) -> bool:
        if i == len(prefix):
            return True
        universal = prefix[i][0] == "forall"
        for a in range(size):
            values[i] = a
            ok = all(tuple(values[j] for j in idx) in rel for rel, idx in checks[i]) and walk(i + 1)
            if universal and not ok:
                return False
            if not universal and ok:
                return True
        return universal

    return walk(0)


def preserves(arity: int, table, size: int, tuples) -> bool:
    """Double loop: every choice of ``arity`` rows, mapped column by column."""
    rows = list(tuples)
    member = set(rows)
    width = len(rows[0]) if rows else 0
    for choice in product(rows, repeat=arity):
        image = []
        for j in range(width):
            rank = 0
            for row in choice:
                rank = rank * size + row[j]
            image.append(table[rank])
        if tuple(image) not in member:
            return False
    return True


def preserves_language(arity: int, table, lang: dict) -> bool:
    return all(preserves(arity, table, lang["domain"], t) for _, t in lang["relations"].values())


def boolean_wnu_candidates() -> list:
    """The six idempotent weak near-unanimity operations on {0, 1} of arity 2
    and 3: AND and OR; then ternary AND, OR, majority and minority, fixed by
    their values on the one-off patterns (two 0s and a 1, two 1s and a 0)."""
    out = [(2, (0, 0, 0, 1)), (2, (0, 1, 1, 1))]
    for on_one_one, on_two_ones in product((0, 1), repeat=2):
        table = []
        for args in product((0, 1), repeat=3):
            ones = sum(args)
            table.append({0: 0, 1: on_one_one, 2: on_two_ones, 3: 1}[ones])
        out.append((3, tuple(table)))
    return out


def switch_bounded(n: int, r: int, size: int) -> list:
    return [t for t in product(range(size), repeat=n) if sum(t[i] != t[i - 1] for i in range(1, n)) <= r]


def generates_all(ops, n: int, r: int, size: int) -> bool:
    """Closure fixpoint over A^n of the switch-bounded tuples under ``ops``:
    True iff it reaches all of A^n."""
    closed = set(switch_bounded(n, r, size))
    full = size**n
    changed = True
    while changed and len(closed) < full:
        changed = False
        points = sorted(closed)
        for arity, table in ops:
            for choice in product(points, repeat=arity):
                image = []
                for j in range(n):
                    rank = 0
                    for p in choice:
                        rank = rank * size + p[j]
                    image.append(table[rank])
                image = tuple(image)
                if image not in closed:
                    closed.add(image)
                    changed = True
    return len(closed) == full


def boolean_polymorphisms(lang: dict, max_arity: int) -> list:
    out = []
    for m in range(1, max_arity + 1):
        for table in product((0, 1), repeat=2**m):
            if preserves_language(m, table, lang):
                out.append((m, table))
    return out


def check_witness(lang: dict, r: int, max_power: int, output: dict) -> str | None:
    """None when a returned witness holds up; otherwise what is wrong."""
    size = lang["domain"]
    ops = [tuple(op) for op in output["operations"]]
    for arity, table in ops:
        if not preserves_language(arity, table, lang):
            return f"returned operation {table} is not a polymorphism"
    powers = [tuple(p) for p in output["powers"]]
    for n, generated in powers:
        if generates_all(ops, n, r, size) != generated:
            return f"power {n}: program says generated={generated}, closure disagrees"
    if any(not g for _, g in powers):
        want = "refuted-at-bounds"
    elif [n for n, _ in powers] == list(range(2, max_power + 1)):
        want = "witnessed"
    else:
        want = "inconclusive"
    if output["verdict"] != want:
        return f"verdict {output['verdict']!r} but the powers give {want!r}"
    return None


def check_classify(lang: dict, r: int, output: dict) -> str | None:
    """Classification of a Boolean language: not-applicable unless its
    polymorphisms of arity <= 3 witness switchability at powers 2..4; then P
    exactly when one of the six idempotent WNU candidates is a polymorphism."""
    ops = boolean_polymorphisms(lang, 3)
    witnessed = all(generates_all(ops, n, r, 2) for n in range(2, 5))
    wnus = [c for c in boolean_wnu_candidates() if preserves_language(*c, lang)]
    if not witnessed:
        want = "not-applicable"
    elif wnus:
        want = "P"
    else:
        want = "NP-complete-modulo-arity-bound"
    if output["verdict"] != want:
        return f"verdict {output['verdict']!r}, reference gives {want!r}"
    if want == "P" and tuple(output["base_wnu"][1]) not in {t for _, t in wnus}:
        return f"returned base WNU {output['base_wnu']} is not a WNU polymorphism"
    return None
