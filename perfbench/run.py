#!/usr/bin/env python3
"""Seeded benchmark of qcsp's three reduction routes and its classifier.

    python3 perfbench/run.py --workload bundle --seed 1 --seconds 25 --trace 0

runs one workload (``--workload all``, the default, runs the four in turn)
from the root of a checkout that holds ``src/qcsp``.  Each workload runs in
its own fresh single-threaded worker process: set-up, then a closed loop with
one caller, where the next item is sent when the previous verdict is back.
Set-up is also timed in further fresh processes and the median reported.
Every verdict is checked against ``reference.py``; a wrong one makes the run
exit with 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer ones from a separate traced run with
``--trace 1``.  Results and spans are written under ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bundle", "pi2", "power", "classify")
SETUP_PROCESSES = 5
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10  # items left beyond the tail percentile

END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# <module>.<function>.<measure>; per one traced set-up plus one round
PER_LAYER = {
    "parsing.parse_sentence": ("s",),
    "parsing.parse_language": ("s",),
    "model.validate_sentence": ("calls", "s"),
    "transforms.omega": ("calls", "s"),
    "transforms.eliminate_universals": ("s", "out_atoms", "out_variables"),
    "transforms.move_universals_left": ("s", "out_atoms"),
    "transforms.reduce_universal_count": ("s", "out_atoms"),
    "solvers.reduce_to_pi2": ("self_s", "out_atoms"),
    "transforms.qcsp_to_power_csp": ("s", "out_atoms"),
    "transforms.build_power_language": ("calls", "s"),
    "solvers.solve_csp": ("calls", "self_s", "variables", "atoms", "nodes"),
    "solvers.pi2_truth": ("calls", "self_s"),
    "solvers.reduce_pgp_to_csp": ("self_s", "members", "members_after_false"),
    "algebra.switchability_witness": ("self_s",),
    "algebra.generate_closure": ("calls", "s", "points"),
    "algebra.polymorphisms": ("s", "tables", "found"),
    "algebra.preserves": ("calls", "s"),
    "algebra.find_wnu": ("s",),
    "algebra.lift_operation": ("s",),
    "solvers.classify": ("self_s",),
}
TIME_MEASURES = ("s", "self_s")


def per_layer_units() -> dict:
    units = {
        f"{fn}.{m}": "s" if m in TIME_MEASURES else "count"
        for fn, measures in PER_LAYER.items()
        for m in measures
    }
    units["trace.overhead_s"] = "s"
    return units


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def spawn(job: dict) -> dict:
    job = dict(job, spawned=perf_counter())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        env=worker_env(),
        cwd=HERE,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{job['workload']}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def check(workload: str, items: list, outputs: list, errors: dict) -> list:
    """Messages for every verdict that disagrees with the reference."""
    bad = []
    for i, (item, out) in enumerate(zip(items, outputs)):
        if str(i) in errors:
            continue
        if workload == "classify":
            if item["kind"] == "witness":
                # 4 is the default max_power of switchability_witness
                why = reference.check_witness(item["language"], inputs.R, 4, out)
            else:
                why = reference.check_classify(item["language"], inputs.R, out)
        else:
            lang = inputs.SENTENCE_LANGUAGES[item["key"]][0]
            want = reference.evaluate(lang, item["sentence"])
            why = None if out == want else f"verdict {out}, game tree gives {want}"
        if why:
            bad.append(f"{workload} item {i}: {why}\n{item['text']}")
    return bad


def loop_metrics(loop: dict, failed: set) -> dict:
    """Metrics of a median round: each item's time is its median adjusted
    time over the rounds.  A failed item ranks as slower than any verdict."""
    per_item = [statistics.median(ts) * loop["factor"] for ts in zip(*loop["times"])]
    ranked = sorted(float("inf") if i in failed else t for i, t in enumerate(per_item))
    return {
        "verdicts_per_s": (len(per_item) - len(failed)) / sum(per_item),
        "verdict_p50_ms": statistics.median(ranked) * 1e3,
        "verdict_tail_ms": ranked[len(ranked) - TAIL_BEYOND - 1] * 1e3,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    items = inputs.make_items(workload, seed)
    keys = sorted({it["key"] for it in items if "key" in it})
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    job = {
        "src": str(ROOT / "src"),
        "workload": workload,
        "r": inputs.R,
        "languages": {
            k: {
                "text": inputs.language_text(inputs.SENTENCE_LANGUAGES[k][0]),
                "witness": inputs.SENTENCE_LANGUAGES[k][1],
            }
            for k in keys
        },
        "items": [{k: it[k] for k in ("text", "key", "kind") if k in it} for it in items],
        "seconds": seconds,
        "trace": trace,
        "trace_file": str(results_dir / f"trace-{workload}-seed{seed}.jsonl"),
    }
    # set-up is reported only by untraced runs
    setups = [] if trace else [spawn(dict(job, mode="setup")) for _ in range(SETUP_PROCESSES - 1)]
    main = spawn(dict(job, mode="run"))
    setups.append(main)
    loop = main["loop"]
    n, rounds = len(items), len(loop["times"])
    failed = {int(i) for i in loop["errors"]}
    problems = check(workload, items, loop["outputs"], loop["errors"])
    if loop["mismatched"]:
        problems.append(f"{workload}: {loop['mismatched']} verdicts changed between rounds")
    if trace and (main["traced"]["mismatched"] or not main["traced"]["same_verdicts"]):
        problems.append(f"{workload}: traced rounds gave other verdicts")
    for i in sorted(failed):
        print(f"{workload} item {i} failed: {loop['errors'][str(i)]}", file=sys.stderr)

    raw = sum(map(sum, loop["times"]))
    adjusted = raw * loop["factor"]
    print(
        f"{workload}: seed {seed}, {n} items x {rounds} rounds, raw {raw:.3f} s, "
        f"probe factor {loop['factor']:.4f} ({loop['probes']} probes), adjusted {adjusted:.3f} s"
    )
    if trace:
        traced = main["traced"]
        traced_adjusted = sum(map(sum, traced["times"])) * traced["factor"]
        metrics = {name: 0.0 for name in per_layer_units()}
        for fn, totals in main["layers"].items():
            at_setup = main["setup_layers"].get(fn, {})
            for measure in PER_LAYER.get(fn, ()):
                once = at_setup.get(measure, 0.0)
                value = once + (totals.get(measure, 0.0) - once) / rounds
                if measure in TIME_MEASURES:
                    value *= traced["factor"]
                metrics[f"{fn}.{measure}"] = value
        metrics["trace.overhead_s"] = (traced_adjusted - adjusted) / rounds
        units = per_layer_units()
    else:
        metrics = {
            **loop_metrics(loop, failed),
            "setup_s": statistics.median(s["setup_raw"] * s["setup_factor"] for s in setups),
            "peak_rss_mb": main["rss_kb"] / 1024,
        }
        units = END_TO_END
        print(
            f"{workload}: setup raw {[round(s['setup_raw'], 4) for s in setups]} s, "
            f"tail = p{100 * (n - TAIL_BEYOND) / n:.1f} of {n} items"
        )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": n * rounds,
        "failed": len(failed) * rounds,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    for p in problems:
        print(p, file=sys.stderr)
    with open(results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qcsp" / "__init__.py").is_file():
        print(f"no qcsp sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
