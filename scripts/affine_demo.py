#!/usr/bin/env python3
"""End-to-end walkthrough on the affine language over {0,1}.

Builds the ternary even-parity relation, counts switches, checks the
switchability witness at bound 2, runs the collapse bundle against the exact
oracle on a small sentence, translates it to the 16-element power domain, and
classifies the language.
"""

import argparse
import json

from qcsp import (
    Atom,
    ConstraintLanguage,
    QuantifiedSentence,
    Relation,
    classify,
    oracle_qcsp,
    qcsp_to_power_csp,
    reduce_pgp_to_csp,
    reduce_to_pi2,
    solve_csp,
    switch_count,
    switchability_witness,
)
from qcsp.solvers import pi2_truth

XOR0 = Relation("XOR0", 3, frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit one JSON object instead of text")
    args = parser.parse_args()

    lang = ConstraintLanguage.of(2, XOR0)
    out = {}

    out["switches_example"] = {"tuple": [1, 1, 0, 2, 0, 0, 0], "switches": switch_count((1, 1, 0, 2, 0, 0, 0))}

    witness = switchability_witness(lang, 2, max_arity=3, max_power=4)
    out["witness"] = witness.to_json()

    sentence = QuantifiedSentence(
        (("exists", "y1"), ("forall", "x1"), ("exists", "y2"), ("forall", "x2")),
        (Atom("XOR0", ("x1", "x2", "y2")),),
        lang,
    )
    oracle = oracle_qcsp(sentence)
    bundle = reduce_pgp_to_csp(sentence, 2, witness=witness)
    out["sentence"] = {
        "oracle": oracle.truth,
        "bundle": bundle.combined,
        "instances": len(bundle.index_sets),
        "instances_solved": len(bundle.members),
        "agreement": oracle.truth == bundle.combined,
    }

    pi2 = reduce_to_pi2(sentence, 2, witness=witness)
    out["two_level"] = {"universals": pi2.universal_count(), "truth": pi2_truth(pi2)}

    power = qcsp_to_power_csp(pi2)
    out["power_instance"] = {
        "domain": power.language.domain.size,
        "satisfiable": solve_csp(power).truth,
    }

    out["classification"] = classify(lang, 2, wnu_arity=3).to_json()

    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"(1,1,0,2,0,0,0) has {out['switches_example']['switches']} switches")
        print(f"witness at bound 2: {out['witness']['verdict']} over powers "
              f"{[p['n'] for p in out['witness']['powers']]}")
        print(f"oracle={out['sentence']['oracle']} bundle={out['sentence']['bundle']} "
              f"({out['sentence']['instances_solved']} of {out['sentence']['instances']} instances solved), "
              f"agreement={out['sentence']['agreement']}")
        print(f"two-level form: {out['two_level']['universals']} universals, truth {out['two_level']['truth']}")
        print(f"power instance over {out['power_instance']['domain']} elements: "
              f"satisfiable={out['power_instance']['satisfiable']}")
        print(f"classification: {out['classification']['verdict']} — {out['classification']['caveat']}")
    return 0 if out["sentence"]["agreement"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
