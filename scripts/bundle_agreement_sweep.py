#!/usr/bin/env python3
"""Randomized agreement experiment: exact oracle vs the collapse bundle and
the reduction to two quantifier levels, over two languages.

Draws random quantified sentences over the affine language {XOR0} and over
the three-element language {LT, CYC}, and decides each with the collapse
bundle, with ``pi2_truth`` of ``reduce_to_pi2`` and, where the power domain
fits the budgets (over {XOR0}), with ``solve_csp`` of ``qcsp_to_power_csp``
of the same reduced sentence.  A budget that refuses the reduction or the
power CSP is counted and reported, and that route is left unchecked on the
sentence.  The bundle decides only the maximal collapse patterns over the
universals that occur in the matrix; its verdict and the Π2 and power-CSP
verdicts are checked against the conjunction over every padded collapse
pattern of at most r kept universals, vacuous ones included, each built and
solved.  The bundle's pattern list is checked against the maximal patterns
computed here from the universals that occur in the matrix.  The bundle
decides its members without building their instances: a member is refuted
from its atoms when one of them has no tuple under some values of its
universals, and solved otherwise.  Each member is also checked against
``solve_csp`` of its instance, built on access, and a member whose truth,
witness or node count differs makes its sentence a disagreement; a refuted
member's instance must be false at 0 nodes.

Each language is given a switchability witness at the bound r ({XOR0} up to
arity 3, {LT, CYC} up to arity 2).  Where the witness holds, the verdicts are
also checked against the oracle; where it does not, the reductions run under
the override and only the checks above, which hold over any language, are
made.  The sentences are drawn by the tests' generator in
``tests/helpers.py``.  Every fifth one is then given names that a sentence
built through the API may hold and the padding or a collapse takes: one or
two variables are renamed y$d1, x$d1, y$d2, x$d2 or z$o1, and a vacuous
z$o0 joins the prefix.  Neither route builds the padding, so on such a
sentence the bundle, ``pi2`` and ``power-csp`` must give one verdict (the
oracle's where the witness holds) or raise the same refusal; a budget that
refuses one route leaves it unchecked.  Prints one summary line per
language, then how many members were refuted from their atoms and how many
were solved, and exits nonzero on any disagreement.
"""

import argparse
import random
import sys
import time
from itertools import combinations
from pathlib import Path

from qcsp import (
    BudgetError,
    ConstraintLanguage,
    QcspError,
    QuantifiedSentence,
    build_power_language,
    eliminate_universals,
    normalize_alternating,
    omega,
    oracle_qcsp,
    pi2_truth,
    qcsp_to_power_csp,
    reduce_pgp_to_csp,
    reduce_to_pi2,
    solve_csp,
    switchability_witness,
)
from qcsp.solvers import _refuted_from_atoms
from qcsp.transforms import _fold

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import CYCLE3, LT3, XOR0, random_sentence  # noqa: E402

# (language, keyword arguments of its switchability witness besides r)
LANGUAGES = [
    (ConstraintLanguage.of(2, XOR0), {"max_arity": 3, "max_power": 4}),
    (ConstraintLanguage.of(3, LT3, CYCLE3), {"max_arity": 2}),
]


def padded_conjunction(s, r):
    """Whether every collapse pattern of at most r kept universals, vacuous
    ones included, is satisfiable."""
    alt = normalize_alternating(s)
    return all(
        solve_csp(eliminate_universals(omega(alt, idx))).truth
        for k in range(min(r, alt.n) + 1)
        for idx in combinations(range(1, alt.n + 1), k)
    )


def maximal_patterns(s, r):
    """Every choice of min(r, m) of the m alternation positions whose
    universal occurs in the matrix, in lexicographic order."""
    alt = normalize_alternating(s)
    occurring = {v for atom in s.matrix for v in atom.args}
    positions = [i for i, x in enumerate(alt.x_vars(), start=1) if x in occurring]
    return tuple(combinations(positions, min(r, len(positions))))


# a fifth of the sentences hold names the padding or a collapse takes
TAKEN_SHARE = 5
TAKEN_NAMES = ["y$d1", "x$d1", "y$d2", "x$d2", "z$o1"]


def with_taken_names(rnd, s):
    """``s`` with one or two variables renamed to names the padding or a
    collapse takes, and a vacuous z$o0 put into its prefix."""
    variables = [v for _, v in s.prefix]
    picked = rnd.sample(variables, min(len(variables), rnd.randint(1, 2)))
    s = s.rename(dict(zip(picked, rnd.sample(TAKEN_NAMES, len(picked)))))
    prefix = list(s.prefix)
    prefix.insert(rnd.randint(0, len(prefix)), (rnd.choice(["forall", "exists"]), "z$o0"))
    return QuantifiedSentence(tuple(prefix), s.matrix, s.language)


def outcome(decide):
    """``decide()``, ``"refused"`` when a budget refuses it, or the message of
    the refusal it raises."""
    try:
        return decide()
    except BudgetError:
        return "refused"
    except (ValueError, QcspError) as err:
        return f"raises {err}"


def taken_names_agree(s, r, gate, truth, powered) -> tuple[bool, list]:
    """Whether the bundle, pi2 and (when ``powered``) power-csp give one
    verdict on ``s``, ``truth`` unless it is None, or raise one refusal; and
    their outcomes."""
    reduced = outcome(lambda: reduce_to_pi2(s, r, **gate))
    routes = [outcome(lambda: reduce_pgp_to_csp(s, r, **gate).combined)]
    if isinstance(reduced, QuantifiedSentence):
        routes.append(outcome(lambda: pi2_truth(reduced)))
        if powered:
            routes.append(outcome(lambda: solve_csp(qcsp_to_power_csp(reduced)).truth))
    else:
        routes.append(reduced)
    checked = {o for o in routes if o != "refused"}
    if truth is not None and any(isinstance(o, bool) for o in checked):
        checked.add(truth)
    return len(checked) <= 1, routes


def sweep(lang, witness_args, args, rnd) -> int:
    """Decide ``args.count`` sentences over ``lang``; print one summary line
    and return the number of disagreements."""
    names = ", ".join(sorted(lang.relations))
    witness = switchability_witness(lang, args.r, **witness_args)
    witnessed = witness.verdict == "witnessed"
    gate = {"witness": witness} if witnessed else {"override": True}
    try:
        build_power_language(lang)
        powered, power_note = True, ""
    except BudgetError as err:
        powered, power_note = False, f"; power-csp not run ({err})"
    print(f"{{{names}}} over {lang.domain.size} elements, witness at bound {args.r}: {witness.verdict}"
          + ("" if witnessed else " (override; no oracle check)") + power_note)
    start = time.time()
    agree = true_count = solved = refuted = instances = refused = power_refused = 0
    for i in range(args.count):
        s = random_sentence(rnd, lang, args.max_vars, args.max_atoms)
        if i % TAKEN_SHARE == TAKEN_SHARE - 1:
            s = with_taken_names(rnd, s)
            fine, routes = taken_names_agree(s, args.r, gate, oracle_qcsp(s).truth if witnessed else None, powered)
            agree += fine
            true_count += routes[0] is True
            if not fine:
                print(f"DISAGREEMENT at sentence {i}: bundle, pi2, power-csp gave {routes}")
                print("  prefix:", s.prefix)
                print("  matrix:", s.matrix)
            continue
        bundle = reduce_pgp_to_csp(s, args.r, **gate)
        padded = padded_conjunction(s, args.r)
        reduced = None
        try:
            reduced = reduce_to_pi2(s, args.r, **gate)
            pi2 = pi2_truth(reduced)
        except BudgetError:
            pi2 = padded
            refused += 1
        power = padded
        if powered and reduced is not None:
            try:
                power = solve_csp(qcsp_to_power_csp(reduced)).truth
            except BudgetError:
                power_refused += 1
        truth = oracle_qcsp(s).truth if witnessed else padded
        instances += len(bundle.index_sets)
        true_count += padded
        mismatched = []
        for m in bundle.members:
            verdict = solve_csp(m.instance)
            atoms_refute = _refuted_from_atoms(s, *_fold(s, m.indices))
            if verdict != m.verdict or atoms_refute and (verdict.truth or verdict.stats["nodes"]):
                mismatched.append(m.indices)
            refuted += atoms_refute
            solved += not atoms_refute
        patterns = maximal_patterns(s, args.r)
        if truth == bundle.combined == pi2 == power == padded and not mismatched and bundle.index_sets == patterns:
            agree += 1
        else:
            oracle = truth if witnessed else "unchecked"
            print(
                f"DISAGREEMENT at sentence {i}: oracle={oracle} bundle={bundle.combined} pi2={pi2} power={power}"
                f" padded patterns={padded} members unlike their instances={mismatched}"
            )
            if bundle.index_sets != patterns:
                print("  bundle patterns:", bundle.index_sets, "maximal patterns:", patterns)
            print("  prefix:", s.prefix)
            print("  matrix:", s.matrix)
    elapsed = time.time() - start
    print(
        f"{agree}/{args.count} agree ({100.0 * agree / args.count:.1f}%), "
        f"{true_count} true, {solved} solved of {instances} CSP instances, "
        f"{elapsed:.1f}s"
    )
    print(f"  {refuted} more refuted from their atoms, each false at 0 nodes when its instance is solved")
    if refused:
        print(f"  pi2 refused by a budget on {refused} sentences, left unchecked there")
    if power_refused:
        print(f"  power-csp refused by a budget on {power_refused} sentences, left unchecked there")
    return args.count - agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200, help="sentences per language")
    parser.add_argument("--max-vars", type=int, default=8)
    parser.add_argument("--max-atoms", type=int, default=3)
    parser.add_argument("--r", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rnd = random.Random(args.seed)
    disagreements = sum(sweep(lang, witness_args, args, rnd) for lang, witness_args in LANGUAGES)
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
