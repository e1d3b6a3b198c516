"""Batch command-line front end.

Subcommands: ``solve`` (oracle or one of the reduction pipelines),
``transform`` (a single named transform), ``witness``, ``classify``, and
``verify`` (cross-check two solve methods on one input).

Exit codes: 0 = computed truth true or informational run, 1 = computed truth
false (or verify disagreement), 2 = any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .algebra import switchability_witness
from .budgets import Budgets
from .errors import QcspError
from .model import FORALL, QuantifiedSentence
from .parsing import (
    language_to_dict,
    load_language,
    load_sentence,
    sentence_to_dict,
    serialize_sentence,
)
from .solvers import (
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


@dataclass
class RunConfig:
    command: str
    language: Path | None = None
    sentence: Path | None = None
    instance: Path | None = None
    method: str = "oracle"
    methods: tuple[str, ...] = ()
    transform: str | None = None
    indices: tuple[int, ...] = ()
    k: int = 1
    relation: str | None = None
    r: int = 0
    max_arity: int = 3
    max_power: int = 4
    budgets: Budgets = field(default_factory=Budgets.from_env)
    output_format: str = "text"
    trace: bool = False
    override_witness: bool = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sentence: bool = True) -> None:
        p.add_argument("--language", required=True, type=Path)
        if sentence:
            p.add_argument("--sentence", type=Path)
            p.add_argument("--instance", type=Path)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--trace", action="store_true")
        p.add_argument("--budget-closure", type=int, default=None)

    p = sub.add_parser("solve", help="evaluate a sentence or instance")
    common(p)
    p.add_argument("--method", choices=SOLVE_METHODS, default="oracle")
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--max-arity", type=int, default=3)
    p.add_argument("--max-power", type=int, default=4)
    p.add_argument("--override-witness", action="store_true")

    p = sub.add_parser("transform", help="apply one named transform")
    common(p)
    p.add_argument("--transform", choices=TRANSFORMS, required=True)
    p.add_argument("--indices", default="", help="comma-separated positions for omega")
    p.add_argument("--k", type=int, default=1, help="width/power parameter")
    p.add_argument("--relation", help="relation name for power-relation")

    p = sub.add_parser("witness", help="bounded switchability check")
    common(p, sentence=False)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-arity", type=int, default=3)
    p.add_argument("--max-power", type=int, default=4)

    p = sub.add_parser("classify", help="tractability classification over the power language")
    common(p, sentence=False)
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--max-arity", type=int, default=3, help="largest weak near-unanimity arity searched (>= 2)"
    )
    p.add_argument("--override-witness", action="store_true")

    p = sub.add_parser("verify", help="cross-check two solve methods on one input")
    common(p)
    p.add_argument("--methods", required=True, help="comma-separated pair of methods")
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--max-arity", type=int, default=3)
    p.add_argument("--max-power", type=int, default=4)
    p.add_argument("--override-witness", action="store_true")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    budgets = Budgets.from_env()
    closure = getattr(args, "budget_closure", None)
    if closure is not None:
        if closure <= 0:
            raise QcspError("--budget-closure must be positive")
        budgets = Budgets.from_env(max_closure_points=closure)
    indices: tuple[int, ...] = ()
    raw = getattr(args, "indices", "")
    if raw:
        indices = tuple(int(tok) for tok in raw.split(","))
    methods = tuple(getattr(args, "methods", "").split(",")) if getattr(args, "methods", "") else ()
    return RunConfig(
        command=args.command,
        language=args.language,
        sentence=getattr(args, "sentence", None),
        instance=getattr(args, "instance", None),
        method=getattr(args, "method", "oracle"),
        methods=methods,
        transform=getattr(args, "transform", None),
        indices=indices,
        k=getattr(args, "k", 1),
        relation=getattr(args, "relation", None),
        r=getattr(args, "r", 0),
        max_arity=getattr(args, "max_arity", 3),
        max_power=getattr(args, "max_power", 4),
        budgets=budgets,
        output_format=args.format,
        trace=args.trace,
        override_witness=getattr(args, "override_witness", False),
    )


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


def _load_input(config: RunConfig):
    lang = load_language(config.language)
    if config.instance is not None:
        return lang, _load_instance(config.instance, lang)
    if config.sentence is None:
        raise QcspError("missing --sentence or --instance")
    return lang, load_sentence(config.sentence, lang)


def _compute_witness(lang, config: RunConfig):
    return switchability_witness(
        lang,
        config.r,
        max_arity=config.max_arity,
        max_power=config.max_power,
        budgets=config.budgets,
    )


def _reduction_witness(lang, target, methods, config: RunConfig):
    """The switchability witness shared by every reduction method in
    ``methods``, or None when none of them runs a reduction or the override
    is set."""
    if config.override_witness or isinstance(target, CspInstance):
        return None
    if all(method == "oracle" for method in methods):
        return None
    return _compute_witness(lang, config)


def _solve_with_method(
    target, method: str, witness, config: RunConfig, trace: list
) -> tuple[bool, dict]:
    budgets = config.budgets
    if isinstance(target, CspInstance):
        verdict = solve_csp(target, budgets)
        return verdict.truth, verdict.to_json()
    if method == "oracle":
        verdict = oracle_qcsp(target, budgets)
        return verdict.truth, verdict.to_json()
    if method == "pgp-csp":
        bundle = reduce_pgp_to_csp(
            target, config.r, witness=witness, override=config.override_witness, budgets=budgets
        )
        counts = {"instances": len(bundle.index_sets), "solved": len(bundle.members)}
        trace.append({"step": len(trace) + 1, "rule": "pgp-csp-bundle",
                      "before": _sentence_size(target), "after": counts})
        return bundle.combined, bundle.to_json()
    if method == "pi2":
        pi2 = reduce_to_pi2(
            target, config.r, witness=witness, override=config.override_witness, budgets=budgets
        )
        trace.append({"step": len(trace) + 1, "rule": "pi2",
                      "before": _sentence_size(target), "after": _sentence_size(pi2)})
        truth = pi2_truth(pi2, budgets)
        return truth, {"truth": truth, "method": "pi2", "pi2_size": _sentence_size(pi2)}
    if method == "power-csp":
        pi2 = reduce_to_pi2(
            target, config.r, witness=witness, override=config.override_witness, budgets=budgets
        )
        inst = qcsp_to_power_csp(pi2, budgets)
        trace.append({"step": len(trace) + 1, "rule": "power-csp",
                      "before": _sentence_size(pi2), "after": _instance_size(inst)})
        verdict = solve_csp(inst, budgets)
        return verdict.truth, {"truth": verdict.truth, "method": "power-csp",
                               "instance_size": _instance_size(inst)}
    raise QcspError(f"unknown method {method!r}")


def _run_solve(config: RunConfig) -> int:
    lang, target = _load_input(config)
    trace: list = []
    witness = _reduction_witness(lang, target, [config.method], config)
    truth, report = _solve_with_method(target, config.method, witness, config, trace)
    if config.trace:
        report = {**report, "trace": trace}
    print(emit_report(report, config.output_format))
    return 0 if truth else 1


def _run_transform(config: RunConfig) -> int:
    lang = load_language(config.language)
    budgets = config.budgets
    trace: list = []
    name = config.transform

    def record(rule: str, before: dict, after: dict) -> None:
        trace.append({"step": len(trace) + 1, "rule": rule, "before": before, "after": after})

    if name == "gamma-columns":
        cols = gamma_columns(config.k, lang.domain, budgets)
        payload = {"columns": [{"index": c.index, "column": list(c.column)} for c in cols]}
        print(emit_report(payload, config.output_format))
        return 0
    if name == "power-relation":
        if not config.relation:
            raise QcspError("power-relation needs --relation")
        rel = lang.relations.get(config.relation)
        if rel is None:
            raise QcspError(f"unknown relation {config.relation!r}")
        powered = power_relation(rel, config.k, lang.domain, budgets)
        doc = [f"relation {powered.name} {powered.arity}"]
        doc += [" ".join(map(str, t)) for t in powered.sorted_tuples()]
        doc.append("end")
        if config.output_format == "json":
            payload = {"relation": powered.name, "arity": powered.arity,
                       "domain": lang.domain.size**config.k,
                       "rows": [list(t) for t in powered.sorted_tuples()]}
            print(emit_report(payload, "json"))
        else:
            print("\n".join(doc))
        return 0

    if name == "from-power-csp":
        if config.instance is None:
            raise QcspError("from-power-csp needs --instance")
        inst = _load_instance(config.instance, build_power_language(lang, budgets))
        record("from-power-csp", _instance_size(inst), {})
        print(_render_transform(power_csp_to_qcsp(inst), config, trace))
        return 0

    _, target = _load_input(config)

    if isinstance(target, CspInstance):
        raise QcspError(f"transform {name!r} needs --sentence")
    elif name == "normalize":
        alt = normalize_alternating(target)
        record("normalize", _sentence_size(target), _sentence_size(alt.sentence))
        result = alt.sentence
    elif name == "omega":
        alt = normalize_alternating(target)
        record("normalize", _sentence_size(target), _sentence_size(alt.sentence))
        result = omega(alt, config.indices)
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
    elif name == "to-power-csp":
        result = qcsp_to_power_csp(target, budgets)
        record("to-power-csp", _sentence_size(target), _instance_size(result))
    else:
        raise QcspError(f"unknown transform {name!r}")

    print(_render_transform(result, config, trace))
    return 0


def _render_transform(result, config: RunConfig, trace: list) -> str:
    if isinstance(result, CanonicalFalse):
        if config.output_format == "json":
            payload = result.to_json()
            if config.trace:
                payload["trace"] = trace
            return emit_report(payload, "json")
        return "canonical-false"
    if isinstance(result, CspInstance):
        sentence = result.as_sentence()
        derived = result.language
    else:
        sentence = result
        derived = None
    if config.output_format == "json":
        payload: dict = {"sentence": sentence_to_dict(sentence)}
        if derived is not None:
            payload["language"] = language_to_dict(derived)
        if config.trace:
            payload["trace"] = trace
        return emit_report(payload, "json")
    text = serialize_sentence(sentence).rstrip("\n")
    if config.trace:
        text += "\n# trace: " + json.dumps(trace, sort_keys=True)
    return text


def _run_witness(config: RunConfig) -> int:
    lang = load_language(config.language)
    witness = _compute_witness(lang, config)
    print(emit_report(witness.to_json(), config.output_format))
    return 0


def _run_classify(config: RunConfig) -> int:
    lang = load_language(config.language)
    report = classify(
        lang,
        config.r,
        wnu_arity=config.max_arity,
        override=config.override_witness,
        budgets=config.budgets,
    )
    print(emit_report(report.to_json(), config.output_format))
    return 0


def _run_verify(config: RunConfig) -> int:
    if len(config.methods) < 2:
        raise QcspError("verify needs at least two --methods")
    if len(set(config.methods)) != len(config.methods):
        raise QcspError(f"verify needs distinct --methods, got {','.join(config.methods)}")
    for method in config.methods:
        if method not in SOLVE_METHODS:
            raise QcspError(f"unknown method {method!r}")
    lang, target = _load_input(config)
    witness = _reduction_witness(lang, target, config.methods, config)
    results = {}
    for method in config.methods:
        truth, _ = _solve_with_method(target, method, witness, config, [])
        results[method] = truth
    agreement = len(set(results.values())) == 1
    print(emit_report({"methods": results, "agreement": agreement}, config.output_format))
    return 0 if agreement else 1


def run(config: RunConfig) -> int:
    if config.command == "solve":
        return _run_solve(config)
    if config.command == "transform":
        return _run_transform(config)
    if config.command == "witness":
        return _run_witness(config)
    if config.command == "classify":
        return _run_classify(config)
    if config.command == "verify":
        return _run_verify(config)
    raise QcspError(f"unknown command {config.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(config_from_args(args))
    except (QcspError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
