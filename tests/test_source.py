import ast
import importlib
from pathlib import Path

import qcsp
from qcsp import Budgets

SOURCES = sorted(Path(qcsp.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # invariants must hold under `python -O`, which strips assert statements
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_budget_checks_are_given_no_power():
    # a figure is built before the check that would refuse it, so exponential
    # figures go through Budgets.check_power, which never builds one too large
    checks = {name for name in dir(Budgets) if name.startswith("check")}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in checks
        and any(
            isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow)
            for arg in [*node.args, *(k.value for k in node.keywords)]
            for sub in ast.walk(arg)
        )
    ]
    assert checks >= {"check", "check_power", "check_expansion"}
    assert found == []


def test_benchmark_tracer_wraps_and_records_the_traced_functions(xor0_lang, monkeypatch):
    # the traced benchmark reads its per-layer metrics from these wrappers, so a
    # renamed or bypassed function would leave its metrics at zero unnoticed
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    homes = {short: importlib.import_module(f"qcsp.{short}") for short in tracer.TRACED}
    originals = {
        (short, name): getattr(homes[short], name)
        for short, names in tracer.TRACED.items()
        for name in names
    }
    t = tracer.Tracer()
    t.install()
    try:
        unwrapped = [f"{s}.{n}" for (s, n), fn in originals.items() if getattr(homes[s], n) is fn]
        assert unwrapped == []
        assert homes["solvers"].classify(xor0_lang, 2).verdict == "P"
        # only the override searches with find_wnu at the witness's arities
        assert homes["solvers"].classify(xor0_lang, 2, override=True).verdict == "P"
        s = homes["parsing"].parse_sentence(
            "forall x1\nforall x2\nexists y\nconstraint XOR0 x1 x2 y\n", xor0_lang
        )
        inst = homes["transforms"].qcsp_to_power_csp(s)
        assert homes["solvers"].solve_csp(inst).truth
        counts = t.snapshot()
        for name in (
            "algebra.preserves",
            "algebra.polymorphisms",
            "algebra.find_wnu",
            "algebra.lift_operation",
            "transforms.build_power_language",
        ):
            assert counts.get(name, {}).get("calls", 0) > 0, name
    finally:
        t.uninstall()
    assert all(getattr(homes[s], n) is fn for (s, n), fn in originals.items())
