"""Seeded inputs of the four workloads, as plain data and as text.

Nothing here imports ``qcsp``: the program only ever sees the text this module
writes.  Each workload is a fixed catalogue of items drawn once from
``CATALOGUE_SEED``.  The run seed then rewrites every item without changing its
meaning or its cost class: fresh variable and relation names (kept in the same
sorted order), shuffled atoms, atom arguments permuted within their relation's
symmetries, and relation coordinates permuted in the random languages.  A seed
that drew the items themselves would decide a round's cost by which few slow
items it drew: one `pi2` round holds items from 0.2 ms to over 1 s.
"""

from __future__ import annotations

import random
from itertools import permutations, product

CATALOGUE_SEED = 2110_09504

# name -> (arity, tuples)
XOR0 = ("XOR0", 3, ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))
NOT = ("NOT", 2, ((0, 1), (1, 0)))
LT = ("LT", 2, ((0, 1), (0, 2), (1, 2)))
CYC = ("CYC", 3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))


def language(domain: int, *relations) -> dict:
    return {"domain": domain, "relations": {n: (a, tuple(sorted(t))) for n, a, t in relations}}


def boolean_relation(name: str, arity: int, pred) -> tuple:
    return (name, arity, tuple(t for t in product((0, 1), repeat=arity) if pred(*t)))


# The shared languages of the sentence workloads, and the switchability
# witness each one is given at set-up (keyword arguments of
# ``switchability_witness`` besides the language and r).
SENTENCE_LANGUAGES = {
    "xor0": (language(2, XOR0), {}),
    "xor0not": (language(2, XOR0, NOT), {}),
    "dom3": (language(3, LT, CYC), {"max_arity": 2}),
}
R = 2

# Languages on which `classify` raises today instead of answering (see the
# README); they stay in every round, unchanged by the seed, and count as failed.
FAILING_LANGUAGES = (
    language(2, boolean_relation("ORNAND", 4, lambda x, y, z, w: (x or y) and not (z and w))),
    language(2, boolean_relation("XOR4", 4, lambda x, y, z, w: (x ^ y ^ z ^ w) == 0)),
)


def language_text(lang: dict) -> str:
    lines = [f"domain {lang['domain']}"]
    for name in sorted(lang["relations"]):
        arity, tuples = lang["relations"][name]
        lines.append(f"relation {name} {arity}")
        lines.extend(" ".join(map(str, t)) for t in tuples)
        lines.append("end")
    return "\n".join(lines) + "\n"


def sentence_text(sentence: dict) -> str:
    lines = [f"{q} {v}" for q, v in sentence["prefix"]]
    lines.extend("constraint " + " ".join((r, *args)) for r, args in sentence["atoms"])
    return "\n".join(lines) + "\n"


def alternation_depth(prefix) -> int:
    """Number of exists/forall pairs once the prefix is padded to strict
    exists-forall alternation, as ``normalize_alternating`` pads it."""
    expect, length = "exists", 0
    for q, _ in prefix:
        if q != expect:
            length += 1
            expect = "forall" if expect == "exists" else "exists"
        length += 1
        expect = "forall" if expect == "exists" else "exists"
    return (length + 1) // 2


# ---------------------------------------------------------------------------
# catalogue draws (fixed seed)


def _random_sentence(rnd: random.Random, lang: dict, max_vars: int, max_atoms: int) -> dict:
    names = [f"v{i}" for i in range(rnd.randint(1, max_vars))]
    prefix = [(rnd.choice(["forall", "exists"]), v) for v in names]
    rels = sorted(lang["relations"])
    atoms = []
    for _ in range(rnd.randint(0, max_atoms)):
        r = rnd.choice(rels)
        atoms.append((r, tuple(rnd.choice(names) for _ in range(lang["relations"][r][0]))))
    return {"prefix": prefix, "atoms": atoms}


def xor0_ladder(depth: int) -> dict:
    """exists y1 forall x1 ... exists yd forall xd with XOR0(yi, xi, y(i+1)):
    true, since each y(i+1) = yi xor xi exists, so every collapse member is
    satisfiable and the search reaches a full assignment."""
    prefix = []
    for i in range(1, depth + 1):
        prefix += [("exists", f"y{i}"), ("forall", f"x{i}")]
    atoms = [("XOR0", (f"y{i}", f"x{i}", f"y{i + 1}")) for i in range(1, depth)]
    return {"prefix": prefix, "atoms": atoms}


def _draw_sentences(rnd, keys, count, max_vars, max_atoms, depths) -> list:
    out = []
    while len(out) < count:
        key = keys[len(out) % len(keys)]
        s = _random_sentence(rnd, SENTENCE_LANGUAGES[key][0], max_vars, max_atoms)
        if alternation_depth(s["prefix"]) in depths:
            out.append((key, s))
    return out


def _random_relation(rnd, name, domain, arity, count) -> tuple:
    rows = rnd.sample(list(product(range(domain), repeat=arity)), count)
    return (name, arity, tuple(sorted(rows)))


def catalogue(workload: str) -> list:
    """The fixed items of one workload: (language key, sentence) pairs for the
    sentence workloads, (kind, language) pairs for `classify`."""
    rnd = random.Random(f"{CATALOGUE_SEED}-{workload}")
    if workload == "bundle":
        items = _draw_sentences(rnd, ["xor0", "dom3"], 160, 8, 3, range(1, 8))
        items += [("xor0", xor0_ladder(d)) for d in range(2, 8)]
        return items
    if workload == "pi2":
        items = _draw_sentences(rnd, ["xor0", "xor0not"], 20, 5, 2, (1,))
        return items + _draw_sentences(rnd, ["xor0", "xor0not"], 40, 5, 2, (2,))
    if workload == "power":
        items = _draw_sentences(rnd, ["xor0", "xor0not"], 36, 4, 2, (1,))
        return items + _draw_sentences(rnd, ["xor0", "xor0not"], 4, 4, 2, (2,))
    if workload == "classify":
        items = [("fixed", lang) for lang in FAILING_LANGUAGES]
        items.append(("fixed", language(2, XOR0)))
        for _ in range(29):
            rels = [
                _random_relation(rnd, f"R{j}", 2, rnd.choice((2, 3)), 3)
                for j in range(rnd.randint(1, 2))
            ]
            items.append(("boolean", language(2, *rels)))
        items.append(("dom3", SENTENCE_LANGUAGES["dom3"][0]))
        for _ in range(7):
            binary = _random_relation(rnd, "B", 3, 2, rnd.randint(3, 5))
            ternary = _random_relation(rnd, "T", 3, 3, rnd.randint(3, 6))
            items.append(("dom3", language(3, binary, ternary)))
        return items
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# meaning-preserving rewrites (run seed)


def symmetries(arity: int, tuples) -> list:
    """Argument permutations p with {t[p]} equal to the relation itself."""
    rows = set(tuples)
    return [p for p in permutations(range(arity)) if {tuple(t[i] for i in p) for t in rows} == rows]


def _renaming(rnd: random.Random, old) -> dict:
    """Fresh distinct names for ``old``, in the same sorted order, so that the
    program's name-ordered choices (search order, component order) are kept."""
    fresh: set[str] = set()
    while len(fresh) < len(old):
        fresh.add(rnd.choice("abcdefghkmnpqrstuvw") + str(rnd.randrange(10_000)))
    return dict(zip(sorted(old), sorted(fresh)))


def vary_sentence(rnd: random.Random, lang: dict, sentence: dict) -> dict:
    rename = _renaming(rnd, [v for _, v in sentence["prefix"]])
    atoms = []
    for r, args in sentence["atoms"]:
        arity, tuples = lang["relations"][r]
        p = rnd.choice(symmetries(arity, tuples))
        atoms.append((r, tuple(rename[args[i]] for i in p)))
    rnd.shuffle(atoms)
    return {"prefix": [(q, rename[v]) for q, v in sentence["prefix"]], "atoms": atoms}


def vary_language(rnd: random.Random, lang: dict) -> dict:
    rename = _renaming(rnd, lang["relations"])
    rels = []
    for old, (arity, tuples) in lang["relations"].items():
        order = list(range(arity))
        rnd.shuffle(order)
        rels.append((rename[old].upper(), arity, tuple(tuple(t[i] for i in order) for t in tuples)))
    return language(lang["domain"], *rels)


def make_items(workload: str, seed: int) -> list:
    """The round of one workload for one seed, as dicts carrying both the
    data the reference checks read and the text the program parses."""
    rnd = random.Random(seed)
    items = []
    for key, obj in catalogue(workload):
        if workload == "classify":
            lang = obj if key == "fixed" else vary_language(rnd, obj)
            kind = "witness" if lang["domain"] == 3 else "classify"
            items.append({"kind": kind, "language": lang, "text": language_text(lang)})
        else:
            lang = SENTENCE_LANGUAGES[key][0]
            s = vary_sentence(rnd, lang, obj)
            items.append({"key": key, "sentence": s, "text": sentence_text(s)})
    return items
