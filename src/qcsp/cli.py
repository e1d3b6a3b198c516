"""Batch command-line front end.

Subcommands: ``solve`` (oracle or one of the reduction pipelines),
``transform`` (a single named transform), ``witness``, ``classify``, and
``verify`` (cross-check solve methods on one sentence).

Exit codes: 0 = computed truth true or informational run, 1 = computed truth
false (or verify disagreement), 2 = any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import switchability_witness
from .budgets import Budgets
from .errors import QcspError
from .model import FORALL, QuantifiedSentence
from .parsing import (
    is_integer,
    language_to_dict,
    load_language,
    load_sentence,
    sentence_to_dict,
    serialize_sentence,
)
from .solvers import (
    check_witness_gate,
    classify,
    oracle_qcsp,
    pi2_truth,
    reduce_pgp_to_csp,
    reduce_to_pi2,
    solve_csp,
)
from .transforms import (
    CanonicalFalse,
    CspInstance,
    build_power_language,
    eliminate_universals,
    gamma_columns,
    move_universals_left,
    normalize_alternating,
    omega,
    power_csp_to_qcsp,
    power_relation,
    qcsp_to_power_csp,
    reduce_universal_count,
    zeta,
)

SOLVE_METHODS = ("oracle", "pgp-csp", "pi2", "power-csp")
TRANSFORMS = (
    "normalize",
    "omega",
    "eliminate-universals",
    "move-left",
    "reduce-count",
    "zeta",
    "to-power-csp",
    "from-power-csp",
    "gamma-columns",
    "power-relation",
)


def _integer(token: str) -> int:
    """The argparse type of every integer flag: the integer syntax of the
    input files (:func:`qcsp.parsing.is_integer`), so a token such as
    ``+9``, ``1_0`` or a non-ASCII digit is a usage error (exit 2) naming
    the flag."""
    if not is_integer(token):
        raise argparse.ArgumentTypeError(f"expected an integer, got {token!r}")
    return int(token)


def _integers(text: str) -> tuple[int, ...]:
    """The argparse type of ``--indices``: comma-separated :func:`_integer` tokens."""
    return tuple(_integer(token) for token in text.split(",")) if text else ()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str, sentence: bool = True, trace: bool = False,
                closure: bool = True) -> argparse.ArgumentParser:
        """A subcommand with the flags every driver reads, plus ``--trace``
        and ``--budget-closure`` only where its driver reads them."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--language", required=True, type=Path)
        if sentence:
            p.add_argument("--sentence", type=Path)
            p.add_argument("--instance", type=Path)
        p.add_argument("--format", choices=("text", "json"), default="text")
        if trace:
            p.add_argument("--trace", action="store_true")
        if closure:
            p.add_argument("--budget-closure", type=_integer, default=None)
        return p

    p = command("solve", _run_solve, "evaluate a sentence or instance", trace=True)
    p.add_argument("--method", choices=SOLVE_METHODS, default="oracle")
    p.add_argument("--r", type=_integer, default=0)
    p.add_argument("--max-arity", type=_integer, default=3)
    p.add_argument("--max-power", type=_integer, default=4)
    p.add_argument("--override-witness", action="store_true")

    p = command("transform", _run_transform, "apply one named transform", trace=True, closure=False)
    p.add_argument("--transform", choices=TRANSFORMS, required=True)
    p.add_argument("--indices", type=_integers, default=(), help="comma-separated positions for omega")
    p.add_argument("--k", type=_integer, default=1, help="width/power parameter")
    p.add_argument("--relation", help="relation name for power-relation")

    p = command("witness", _run_witness, "bounded switchability check", sentence=False)
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--max-arity", type=_integer, default=3)
    p.add_argument("--max-power", type=_integer, default=4)

    p = command("classify", _run_classify, "tractability classification over the power language",
                sentence=False)
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument(
        "--max-arity", type=_integer, default=3, help="largest weak near-unanimity arity searched (>= 2)"
    )
    p.add_argument("--override-witness", action="store_true")

    p = command("verify", _run_verify, "cross-check solve methods on one sentence")
    p.add_argument("--methods", required=True, help="two or more comma-separated methods")
    p.add_argument("--r", type=_integer, default=0)
    p.add_argument("--max-arity", type=_integer, default=3)
    p.add_argument("--max-power", type=_integer, default=4)
    p.add_argument("--override-witness", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# report emission


def emit_report(result, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result, indent=2, sort_keys=True)
    return _text_report(result)


def _text_report(data, indent: str = "") -> str:
    lines: list[str] = []
    if isinstance(data, dict):
        for key in data:
            value = data[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_text_report(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {value}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)):
                lines.append(_text_report(value, indent + "  "))
            else:
                lines.append(f"{indent}- {value}")
    else:
        lines.append(f"{indent}{data}")
    return "\n".join(line for line in lines if line)


def _sentence_size(s: QuantifiedSentence) -> dict:
    return {"variables": len(s.prefix), "atoms": len(s.matrix)}


def _instance_size(inst: CspInstance) -> dict:
    return {"variables": len(inst.variables), "atoms": len(inst.atoms)}


# ---------------------------------------------------------------------------
# subcommand drivers


def _load_instance(path: Path, lang) -> CspInstance:
    """An all-existential sentence file as a CSP; names may use the reserved marker."""
    sent = load_sentence(path, lang, allow_reserved=True)
    if any(q == FORALL for q, _ in sent.prefix):
        raise QcspError("instance file must quantify every variable with exists")
    return CspInstance(lang, tuple(v for _, v in sent.prefix), sent.matrix)


def _load_input(args: argparse.Namespace):
    lang = load_language(args.language)
    if args.instance is not None:
        return lang, _load_instance(args.instance, lang)
    if args.sentence is None:
        raise QcspError("missing --sentence or --instance")
    return lang, load_sentence(args.sentence, lang)


def _compute_witness(lang, args: argparse.Namespace, budgets: Budgets):
    return switchability_witness(
        lang, args.r, max_arity=args.max_arity, max_power=args.max_power, budgets=budgets
    )


def _reduction_witness(lang, methods, args: argparse.Namespace, budgets: Budgets):
    """The switchability witness shared by every reduction method in
    ``methods``, or None when none of them runs a reduction or the override
    is set."""
    if args.override_witness or all(method == "oracle" for method in methods):
        return None
    return _compute_witness(lang, args, budgets)


def _solve_with_method(
    target: QuantifiedSentence, method: str, witness, args: argparse.Namespace, budgets: Budgets,
    trace: list,
) -> tuple[bool, dict]:
    if method == "oracle":
        verdict = oracle_qcsp(target, budgets)
        return verdict.truth, verdict.to_json()
    if method == "pgp-csp":
        bundle = reduce_pgp_to_csp(
            target, args.r, witness=witness, override=args.override_witness, budgets=budgets
        )
        counts = {"instances": len(bundle.index_sets), "solved": len(bundle.members)}
        trace.append({"step": len(trace) + 1, "rule": "pgp-csp-bundle",
                      "before": _sentence_size(target), "after": counts})
        return bundle.combined, bundle.to_json()
    conditional = check_witness_gate(witness, args.r, args.override_witness)
    pi2 = reduce_to_pi2(
        target, args.r, witness=witness, override=args.override_witness, budgets=budgets
    )
    if method == "pi2":
        trace.append({"step": len(trace) + 1, "rule": "pi2",
                      "before": _sentence_size(target), "after": _sentence_size(pi2)})
        truth = pi2_truth(pi2, budgets)
        return truth, {"truth": truth, "method": "pi2", "conditional": conditional and truth,
                       "pi2_size": _sentence_size(pi2)}
    # power-csp
    inst = qcsp_to_power_csp(pi2, budgets)
    trace.append({"step": len(trace) + 1, "rule": "power-csp",
                  "before": _sentence_size(pi2), "after": _instance_size(inst)})
    verdict = solve_csp(inst)
    return verdict.truth, {"truth": verdict.truth, "method": "power-csp",
                           "conditional": conditional and verdict.truth,
                           "instance_size": _instance_size(inst)}


def _run_solve(args: argparse.Namespace, budgets: Budgets) -> int:
    if args.instance is not None and args.method != "oracle":
        raise QcspError(f"--method {args.method} needs --sentence: an --instance is solved as a CSP")
    lang, target = _load_input(args)
    trace: list = []
    if isinstance(target, CspInstance):
        verdict = solve_csp(target)
        truth, report = verdict.truth, verdict.to_json()
    else:
        witness = _reduction_witness(lang, [args.method], args, budgets)
        truth, report = _solve_with_method(target, args.method, witness, args, budgets, trace)
    if args.trace:
        report = {**report, "trace": trace}
    print(emit_report(report, args.format))
    return 0 if truth else 1


def _run_transform(args: argparse.Namespace, budgets: Budgets) -> int:
    lang = load_language(args.language)
    trace: list = []
    name = args.transform

    def record(rule: str, before: dict, after: dict) -> None:
        trace.append({"step": len(trace) + 1, "rule": rule, "before": before, "after": after})

    if name == "gamma-columns":
        cols = gamma_columns(args.k, lang.domain, budgets)
        payload = {"columns": [{"index": c.index, "column": list(c.column)} for c in cols]}
        print(emit_report(payload, args.format))
        return 0
    if name == "power-relation":
        if not args.relation:
            raise QcspError("power-relation needs --relation")
        rel = lang.relations.get(args.relation)
        if rel is None:
            raise QcspError(f"unknown relation {args.relation!r}")
        powered = power_relation(rel, args.k, lang.domain, budgets)
        doc = [f"relation {powered.name} {powered.arity}"]
        doc += [" ".join(map(str, t)) for t in powered.sorted_tuples()]
        doc.append("end")
        if args.format == "json":
            payload = {"relation": powered.name, "arity": powered.arity,
                       "domain": lang.domain.size**args.k,
                       "rows": [list(t) for t in powered.sorted_tuples()]}
            print(emit_report(payload, "json"))
        else:
            print("\n".join(doc))
        return 0

    if name == "from-power-csp":
        if args.instance is None:
            raise QcspError("from-power-csp needs --instance")
        inst = _load_instance(args.instance, build_power_language(lang, budgets))
        record("from-power-csp", _instance_size(inst), {})
        print(_render_transform(power_csp_to_qcsp(inst), args, trace))
        return 0

    _, target = _load_input(args)

    if isinstance(target, CspInstance):
        raise QcspError(f"transform {name!r} needs --sentence")
    elif name == "normalize":
        alt = normalize_alternating(target)
        record("normalize", _sentence_size(target), _sentence_size(alt.sentence))
        result = alt.sentence
    elif name == "omega":
        alt = normalize_alternating(target)
        record("normalize", _sentence_size(target), _sentence_size(alt.sentence))
        result = omega(alt, args.indices)
        record("omega", _sentence_size(alt.sentence), _sentence_size(result))
    elif name == "eliminate-universals":
        result = eliminate_universals(target, budgets)
        record("eliminate-universals", _sentence_size(target), _instance_size(result))
    elif name == "move-left":
        result = move_universals_left(target, budgets)
        record("move-left", _sentence_size(target), _sentence_size(result))
    elif name == "reduce-count":
        result = reduce_universal_count(target, budgets)
        record("reduce-count", _sentence_size(target), _sentence_size(result))
    elif name == "zeta":
        alt = normalize_alternating(target)
        record("normalize", _sentence_size(target), _sentence_size(alt.sentence))
        result = zeta(alt, budgets)
        record("zeta", _sentence_size(alt.sentence), _sentence_size(result))
    else:  # to-power-csp
        result = qcsp_to_power_csp(target, budgets)
        record("to-power-csp", _sentence_size(target), _instance_size(result))

    print(_render_transform(result, args, trace))
    return 0


def _render_transform(result, args: argparse.Namespace, trace: list) -> str:
    if isinstance(result, CanonicalFalse):
        if args.format == "json":
            payload = result.to_json()
            if args.trace:
                payload["trace"] = trace
            return emit_report(payload, "json")
        return "canonical-false"
    if isinstance(result, CspInstance):
        sentence = result.as_sentence()
        derived = result.language
    else:
        sentence = result
        derived = None
    if args.format == "json":
        payload: dict = {"sentence": sentence_to_dict(sentence)}
        if derived is not None:
            payload["language"] = language_to_dict(derived)
        if args.trace:
            payload["trace"] = trace
        return emit_report(payload, "json")
    text = serialize_sentence(sentence).rstrip("\n")
    if args.trace:
        text += "\n# trace: " + json.dumps(trace, sort_keys=True)
    return text


def _run_witness(args: argparse.Namespace, budgets: Budgets) -> int:
    lang = load_language(args.language)
    witness = _compute_witness(lang, args, budgets)
    print(emit_report(witness.to_json(), args.format))
    return 0


def _run_classify(args: argparse.Namespace, budgets: Budgets) -> int:
    lang = load_language(args.language)
    report = classify(
        lang, args.r, wnu_arity=args.max_arity, override=args.override_witness, budgets=budgets
    )
    print(emit_report(report.to_json(), args.format))
    return 0


def _run_verify(args: argparse.Namespace, budgets: Budgets) -> int:
    methods = args.methods.split(",")
    if len(methods) < 2:
        raise QcspError("verify needs at least two --methods")
    if len(set(methods)) != len(methods):
        raise QcspError(f"verify needs distinct --methods, got {args.methods}")
    for method in methods:
        if method not in SOLVE_METHODS:
            raise QcspError(f"unknown method {method!r}")
    if args.instance is not None:
        raise QcspError("verify needs --sentence: an --instance has only one solver")
    lang, target = _load_input(args)
    witness = _reduction_witness(lang, methods, args, budgets)
    results = {}
    for method in methods:
        results[method], _ = _solve_with_method(target, method, witness, args, budgets, [])
    agreement = len(set(results.values())) == 1
    print(emit_report({"methods": results, "agreement": agreement}, args.format))
    return 0 if agreement else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        budgets = Budgets.from_env()
        closure = getattr(args, "budget_closure", None)  # transform builds no closure
        if closure is not None:
            if closure <= 0:
                raise QcspError("--budget-closure must be positive")
            budgets = Budgets.from_env(max_closure_points=closure)
        return args.run(args, budgets)
    except (QcspError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
