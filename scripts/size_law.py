#!/usr/bin/env python3
"""Size law of the three reduction routes on the XOR0 ladder.

The ladder of depth d is exists y1 forall x1 ... exists yd forall xd with
XOR0(yi, xi, y(i+1)) for i < d; it is true.  For each switch bound r and each
depth, decides the ladder with the oracle and with the three routes, and
prints the exact size of what each route built:

* ``bundle``: :func:`reduce_pgp_to_csp`, its solved collapse patterns and
  the atoms of their instances;
* ``pi2``: :func:`pi2_truth` of :func:`reduce_to_pi2`, the reduced sentence's
  atoms;
* ``power-csp``: :func:`solve_csp` of :func:`qcsp_to_power_csp` of the same
  reduced sentence, the power instance's atoms.

A route or the oracle over a budget prints the failing check and its
``required`` figure instead.  The output is deterministic and holds no
timings.  Exits 1 when a decided verdict disagrees with the oracle, 2 when
the language has no switchability witness at a bound.
"""

import argparse
import functools

from qcsp import (
    Atom,
    BudgetError,
    ConstraintLanguage,
    QuantifiedSentence,
    Relation,
    oracle_qcsp,
    pi2_truth,
    qcsp_to_power_csp,
    reduce_pgp_to_csp,
    reduce_to_pi2,
    solve_csp,
    switchability_witness,
)

XOR0 = Relation("XOR0", 3, frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}))


def ladder(lang, depth):
    prefix = []
    for i in range(1, depth + 1):
        prefix += [("exists", f"y{i}"), ("forall", f"x{i}")]
    atoms = [Atom("XOR0", (f"y{i}", f"x{i}", f"y{i + 1}")) for i in range(1, depth)]
    return QuantifiedSentence(tuple(prefix), tuple(atoms), lang)


def decide(name, run):
    """(name, truth or None, what to print) for ``run``, which returns the
    truth and the sizes it built, or raises ``BudgetError``."""
    try:
        truth, sizes = run()
    except BudgetError as err:
        return name, None, f"refused ({err.what}: requires {err.required})"
    return name, truth, f"{str(truth).lower()}{sizes}"


def routes(s, r, witness):
    # pi2 and power-csp decide the same reduced sentence; a failed reduction
    # is not kept, so each of them reports its budget error
    reduced = functools.cache(lambda: reduce_to_pi2(s, r, witness=witness))

    def bundle():
        b = reduce_pgp_to_csp(s, r, witness=witness)
        atoms = sum(len(m.instance.atoms) for m in b.members)
        return b.combined, f" ({len(b.members)} solved, {atoms} atoms)"

    def pi2():
        return pi2_truth(reduced()), f" ({len(reduced().matrix)} atoms)"

    def power():
        inst = qcsp_to_power_csp(reduced())
        return solve_csp(inst).truth, f" ({len(inst.atoms)} atoms)"

    return [
        decide("oracle", lambda: (oracle_qcsp(s).truth, "")),
        decide("bundle", bundle),
        decide("pi2", pi2),
        decide("power-csp", power),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-depth", type=int, default=6)
    parser.add_argument("--r", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args()

    lang = ConstraintLanguage.of(2, XOR0)
    rows = disagreements = 0
    for r in args.r:
        witness = switchability_witness(lang, r)
        if witness.verdict != "witnessed":
            print(f"r={r}: no witness ({witness.verdict}); aborting")
            return 2
        for depth in range(1, args.max_depth + 1):
            decided = routes(ladder(lang, depth), r, witness)
            print(f"r={r} depth={depth}  " + "  ".join(f"{name} {text}" for name, _, text in decided))
            oracle = decided[0][1]
            wrong = [name for name, truth, _ in decided[1:] if None not in (oracle, truth) and truth != oracle]
            if wrong:
                print(f"  DISAGREEMENT with the oracle: {', '.join(wrong)}")
            rows += 1
            disagreements += bool(wrong)
    print(f"{rows} ladders, {disagreements} with a verdict unlike the oracle's")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
