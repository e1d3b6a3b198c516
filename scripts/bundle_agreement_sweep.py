#!/usr/bin/env python3
"""Randomized agreement experiment: exact oracle vs the collapse bundle and
the reduction to two quantifier levels.

Draws random quantified sentences over the affine language, decides each with
the oracle, the collapse bundle and ``pi2_truth`` of ``reduce_to_pi2``, and
reports the rate at which all three agree, with timing.  The bundle keeps only
universals that occur in the matrix; its verdict is also checked against the
conjunction over every padded collapse pattern of at most r kept universals,
vacuous ones included, each built and solved.  The bundle solves its members
without building their instances; each solved member is also checked against
``solve_csp`` of its instance, built on access, and a member whose truth,
witness or node count differs makes its sentence a disagreement.  Exits
nonzero on any disagreement.
"""

import argparse
import random
import time
from itertools import combinations

from qcsp import (
    Atom,
    ConstraintLanguage,
    QuantifiedSentence,
    Relation,
    eliminate_universals,
    normalize_alternating,
    omega,
    oracle_qcsp,
    pi2_truth,
    reduce_pgp_to_csp,
    reduce_to_pi2,
    solve_csp,
    switchability_witness,
)

XOR0 = Relation("XOR0", 3, frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}))


def random_sentence(rnd, lang, max_vars, max_atoms):
    names = [f"v{i}" for i in range(rnd.randint(1, max_vars))]
    prefix = tuple((rnd.choice(["forall", "exists"]), v) for v in names)
    atoms = tuple(
        Atom("XOR0", tuple(rnd.choice(names) for _ in range(3)))
        for _ in range(rnd.randint(0, max_atoms))
    )
    return QuantifiedSentence(prefix, atoms, lang)


def padded_conjunction(s, r):
    """Whether every collapse pattern of at most r kept universals, vacuous
    ones included, is satisfiable."""
    alt = normalize_alternating(s)
    return all(
        solve_csp(eliminate_universals(omega(alt, idx))).truth
        for k in range(min(r, alt.n) + 1)
        for idx in combinations(range(1, alt.n + 1), k)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--max-vars", type=int, default=8)
    parser.add_argument("--max-atoms", type=int, default=3)
    parser.add_argument("--r", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    lang = ConstraintLanguage.of(2, XOR0)
    witness = switchability_witness(lang, args.r, max_arity=3, max_power=4)
    print(f"witness at bound {args.r}: {witness.verdict}")
    if witness.verdict != "witnessed":
        print("no witness; aborting")
        return 2

    rnd = random.Random(args.seed)
    start = time.time()
    agree = 0
    true_count = 0
    solved = instances = 0
    for i in range(args.count):
        s = random_sentence(rnd, lang, args.max_vars, args.max_atoms)
        truth = oracle_qcsp(s).truth
        bundle = reduce_pgp_to_csp(s, args.r, witness=witness)
        pi2 = pi2_truth(reduce_to_pi2(s, args.r, witness=witness))
        padded = padded_conjunction(s, args.r)
        solved += len(bundle.members)
        instances += len(bundle.index_sets)
        true_count += truth
        mismatched = [m.indices for m in bundle.members if solve_csp(m.instance) != m.verdict]
        if truth == bundle.combined == pi2 == padded and not mismatched:
            agree += 1
        else:
            print(
                f"DISAGREEMENT at sentence {i}: oracle={truth} bundle={bundle.combined} pi2={pi2}"
                f" padded patterns={padded} members unlike their instances={mismatched}"
            )
            print("  prefix:", s.prefix)
            print("  matrix:", s.matrix)
    elapsed = time.time() - start
    print(
        f"{agree}/{args.count} agree ({100.0 * agree / args.count:.1f}%), "
        f"{true_count} true, {solved} solved of {instances} CSP instances, "
        f"{elapsed:.1f}s"
    )
    return 0 if agree == args.count else 1


if __name__ == "__main__":
    raise SystemExit(main())
