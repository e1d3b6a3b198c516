"""One workload in one fresh process: set-up, then a closed loop of rounds.

Started by ``run.py``, which writes the job as JSON to this process's standard
input and reads the result as JSON from its standard output.  The job holds
the ``src`` directory to import ``qcsp`` from, the workload, its languages and
items as text, the run length, the trace flag, and the monotonic clock reading
taken just before this process was started.

Set-up runs from process start to the first timed item: importing ``qcsp``,
parsing the workload's languages and computing the one switchability witness
per language that the items share.  Reading the job is not counted.  Then
items run one after another, each timed from its text to its verdict, until
the run length has passed at the end of a whole round.  Between items, a fixed
pure-Python probe runs whenever 25 ms of item time have passed since the last
one; its measured time, against its nominal time, gives the probe factor.
"""

from time import perf_counter

STARTED = perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

PROBE_NOMINAL_S = 0.0010  # median probe time on the reference machine (see README)
PROBE_EVERY_S = 0.025
SETUP_PROBES = 25


def probe() -> int:
    """Fixed set, tuple and dict work on int tuples, lists and strings; its
    speed stands for the machine's."""
    seen = set()
    index = {}
    for i in range(1500):
        t = (i % 37, i % 11, i & 7)
        if t in seen:
            index[t] += 1
        else:
            seen.add(t)
            index[t] = 1
    groups = {}
    for i in range(800):
        row = (i % 7, i % 5, i % 3, i)
        groups.setdefault(row[:3], []).append(row)
    sizes = {row: len(rows) for rows in groups.values() for row in rows}
    names = {}
    for i in range(800):
        name = f"v{i % 97}${i % 5}"
        names[name] = names.get(name, 0) + 1
    return len(index) + len(sizes) + len(names)


class Probe:
    def __init__(self):
        self.count = 0
        self.total = 0.0

    def run(self) -> None:
        probe()  # warm-up: the first call after an item is slowed by the item's cache state
        t0 = perf_counter()
        probe()
        self.total += perf_counter() - t0
        self.count += 1

    def factor(self) -> float:
        return PROBE_NOMINAL_S * self.count / self.total


def import_qcsp(src: str) -> None:
    sys.path.insert(0, src)
    qcsp = importlib.import_module("qcsp")
    if not qcsp.__file__.startswith(src):
        raise SystemExit(f"qcsp imported from {qcsp.__file__}, not from {src}")


def prepare(job: dict) -> dict:
    """Parse the shared languages and compute their witnesses."""
    parsing = sys.modules["qcsp.parsing"]
    algebra = sys.modules["qcsp.algebra"]
    shared = {}
    for key, spec in job["languages"].items():
        lang = parsing.parse_language(spec["text"])
        shared[key] = (lang, algebra.switchability_witness(lang, job["r"], **spec["witness"]))
    return shared


def make_runner(job: dict, shared: dict):
    """The function taking one item's text to its verdict, as JSON data."""
    parsing = sys.modules["qcsp.parsing"]
    algebra = sys.modules["qcsp.algebra"]
    solvers = sys.modules["qcsp.solvers"]
    transforms = sys.modules["qcsp.transforms"]
    workload, r = job["workload"], job["r"]

    if workload == "classify":
        def run(item):
            lang = parsing.parse_language(item["text"])
            if item["kind"] == "witness":
                w = algebra.switchability_witness(lang, r, max_arity=2)
                return {
                    "verdict": w.verdict,
                    "powers": [list(p) for p in w.powers],
                    "operations": [[f.arity, list(f.table)] for f in w.operations],
                }
            report = solvers.classify(lang, r)
            base = report.base_wnu
            return {"verdict": report.verdict, "base_wnu": base and [base.arity, list(base.table)]}
        return run

    def run(item):
        lang, witness = shared[item["key"]]
        s = parsing.parse_sentence(item["text"], lang)
        if workload == "bundle":
            return solvers.reduce_pgp_to_csp(s, r, witness=witness).combined
        pi2 = solvers.reduce_to_pi2(s, r, witness=witness)
        if workload == "pi2":
            return solvers.pi2_truth(pi2)
        return solvers.solve_csp(transforms.qcsp_to_power_csp(pi2)).truth

    return run


def loop(run, items, seconds: float, rounds: int | None = None, tracer=None) -> dict:
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds`` rounds."""
    probes = Probe()
    times, outputs, errors, mismatched = [], None, {}, 0
    start = perf_counter()
    since_probe = PROBE_EVERY_S
    while True:
        round_times, round_out = [], []
        for i, item in enumerate(items):
            if since_probe >= PROBE_EVERY_S:
                probes.run()
                since_probe = 0.0
            if tracer is not None:
                tracer.item = f"{len(times)}:{i}"
            t0 = perf_counter()
            try:
                out = run(item)
            except Exception as exc:  # an item that raises is counted as failed
                out = None
                errors[i] = f"{type(exc).__name__}: {exc}"
            took = perf_counter() - t0
            since_probe += took
            round_times.append(took)
            round_out.append(out)
        if outputs is None:
            outputs = round_out
        else:
            mismatched += sum(a != b for a, b in zip(round_out, outputs))
        times.append(round_times)
        if len(times) == rounds or (rounds is None and perf_counter() - start >= seconds):
            break
    probes.run()
    return {
        "times": times,
        "outputs": outputs,
        "errors": errors,
        "mismatched": mismatched,
        "factor": probes.factor(),
        "probes": probes.count,
    }


def main() -> None:
    job = json.load(sys.stdin)
    read = perf_counter() - STARTED
    import_qcsp(job["src"])
    shared = prepare(job)
    setup_raw = perf_counter() - job["spawned"] - read
    setup_probe = Probe()
    for _ in range(SETUP_PROBES):
        setup_probe.run()
    result = {"setup_raw": setup_raw, "setup_factor": setup_probe.factor()}
    if job["mode"] == "run":
        run = make_runner(job, shared)
        items = job["items"]
        seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
        result["loop"] = loop(run, items, seconds)
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.item = "setup"
            run = make_runner(job, prepare(job))
            setup_layers = tracer.snapshot()
            traced = loop(run, items, 0, len(result["loop"]["times"]), tracer)
            tracer.uninstall()
            tracer.write(job["trace_file"])
            traced["same_verdicts"] = traced.pop("outputs") == result["loop"]["outputs"]
            result["traced"] = traced
            result["setup_layers"] = setup_layers
            result["layers"] = tracer.snapshot()
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
