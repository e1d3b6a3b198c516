#!/usr/bin/env python3
"""Randomized agreement experiment for the polymorphism sieve and the
switchability witness.

Each draw is a random language over two or three elements, checked twice:

* sieve: ``polymorphisms`` and ``find_wnu`` at every arity up to 3 (two
  elements) or 2 (three elements) against every table of that arity, each
  applied to every combination of relation rows.  The sieve runs once as it
  is and once with ``_BLOCK_CELLS`` small, which splits it into many stages.
* witness: ``switchability_witness``, which sieves only its top arity,
  reads the lower ones as minors, closes only the top power under the
  operations that depend on every argument, and projects it, against a loop
  that sieves every arity and closes every power on its own under all of
  them, at the default budgets and at a closure-point budget that only the
  top power's closure can exceed.
* classify: on two elements, where ``classify`` finds a witness, the weak
  near-unanimity operation it reads off the witness (``base_wnu``) at each
  search bound 2 and 3, against the first ``find_wnu`` hit up to the bound.

The references are the brute-force ones the tests use, from
``tests/helpers.py``.  Prints each disagreement and a summary line; exits
nonzero on any.
"""

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

from qcsp import (
    Budgets,
    classify,
    enumerate_switch_bounded,
    find_wnu,
    generate_closure,
    polymorphisms,
    switchability_witness,
)
from qcsp import algebra

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import (  # noqa: E402
    first_wnu_bruteforce,
    polymorphisms_bruteforce,
    random_language,
    witness_per_power,
)

SMALL_BLOCK_CELLS = 16  # at most four tables in a stage


def sieve_disagreements(lang):
    out = []
    for m in range(1, (3 if lang.domain.size == 2 else 2) + 1):
        want = polymorphisms_bruteforce(lang, m)
        first_wnu = first_wnu_bruteforce(lang, m) if m >= 2 else None
        for block_cells in (algebra._BLOCK_CELLS, SMALL_BLOCK_CELLS):
            saved, algebra._BLOCK_CELLS = algebra._BLOCK_CELLS, block_cells
            try:
                if list(polymorphisms(lang, m)) != want:
                    out.append(f"polymorphisms at arity {m}, {block_cells} block cells")
                if (find_wnu(lang, m) if m >= 2 else None) != first_wnu:
                    out.append(f"find_wnu at arity {m}, {block_cells} block cells")
            finally:
                algebra._BLOCK_CELLS = saved
    return out


def witness_disagreements(lang, r, verdicts):
    max_arity, max_power = (3, 5) if lang.domain.size == 2 else (2, 4)
    ops = tuple(f for m in range(1, max_arity + 1) for f in polymorphisms(lang, m))
    below = generate_closure(enumerate_switch_bounded(max_power - 1, r, lang.domain), ops, max_power - 1)
    out = []
    for budgets in (Budgets(), Budgets(max_closure_points=len(below))):
        want = witness_per_power(lang, r, max_arity, max_power, budgets)
        w = switchability_witness(lang, r, max_arity, max_power, budgets)
        verdicts[w.verdict] += 1
        if (w.operations, w.powers, w.verdict) != want:
            out.append(f"witness at r={r}, {budgets.max_closure_points} closure points: {w.verdict}")
    return out


def classify_disagreements(lang, r):
    out, want = [], None
    if lang.domain.size != 2:
        return out
    for m in (2, 3):
        want = want or find_wnu(lang, m)
        report = classify(lang, r, wnu_arity=m)
        if report.verdict != "not-applicable" and report.base_wnu != want:
            out.append(f"classify base_wnu at r={r}, arity bound {m}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rnd = random.Random(args.seed)
    start = time.time()
    agree, three, verdicts = 0, 0, Counter()
    for i in range(args.count):
        lang = random_language(rnd, rnd.choice((2, 3)), (1, 2, 3), 6)
        three += lang.domain.size == 3
        r = rnd.randint(0, 2)
        failures = (
            sieve_disagreements(lang)
            + witness_disagreements(lang, r, verdicts)
            + classify_disagreements(lang, r)
        )
        for failure in failures:
            rels = [(rel.name, sorted(rel.tuples)) for rel in lang.sorted_relations()]
            print(f"FAIL at {i}: {failure} on {lang.domain.size} elements, {rels}")
        agree += not failures

    elapsed = time.time() - start
    print(
        f"{agree}/{args.count} agree ({three} over three elements; witnesses "
        f"{verdicts['witnessed']} witnessed, {verdicts['refuted-at-bounds']} refuted, "
        f"{verdicts['inconclusive']} inconclusive), {elapsed:.1f}s"
    )
    return 0 if agree == args.count else 1


if __name__ == "__main__":
    raise SystemExit(main())
