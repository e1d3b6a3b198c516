"""Spans around the public functions of ``qcsp``, installed from outside.

Each traced function is replaced by a wrapper in every ``qcsp`` module whose
namespace holds it, because modules call each other's functions through names
they imported (``solvers`` imports ``omega`` and ``eliminate_universals``, for
example).  A span is (name, start, end, parent span, item id); spans stay in
memory until :meth:`Tracer.write`.  Counts are summed per function as calls
return: ``calls``, inclusive seconds ``s`` (a call nested inside a call of the
same function is not added twice), ``self_s`` (``s`` minus the time of traced
calls nested directly inside) and the sizes named in ``SIZES``.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

TRACED = {
    "parsing": ("parse_sentence", "parse_language"),
    "model": ("validate_sentence",),
    "transforms": (
        "omega",
        "eliminate_universals",
        "move_universals_left",
        "reduce_universal_count",
        "qcsp_to_power_csp",
        "build_power_language",
    ),
    "solvers": ("solve_csp", "pi2_truth", "reduce_pgp_to_csp", "reduce_to_pi2", "classify"),
    "algebra": (
        "switchability_witness",
        "generate_closure",
        "polymorphisms",
        "preserves",
        "find_wnu",
        "lift_operation",
    ),
}

MODULES = ("qcsp", "qcsp.model", "qcsp.parsing", "qcsp.algebra", "qcsp.transforms", "qcsp.solvers", "qcsp.cli")


def _members_after_false(members) -> int:
    for i, m in enumerate(members):
        if not m.verdict.truth:
            return len(members) - i - 1
    return 0


# sizes read from a call's arguments and result
SIZES = {
    "transforms.eliminate_universals": lambda a, out: {
        "out_atoms": len(out.atoms),
        "out_variables": len(out.variables),
    },
    "transforms.move_universals_left": lambda a, out: {"out_atoms": len(out.matrix)},
    "transforms.reduce_universal_count": lambda a, out: {"out_atoms": len(out.matrix)},
    "solvers.reduce_to_pi2": lambda a, out: {"out_atoms": len(out.matrix)},
    "transforms.qcsp_to_power_csp": lambda a, out: {"out_atoms": len(out.atoms)},
    "solvers.solve_csp": lambda a, out: {
        "variables": len(a[0].variables),
        "atoms": len(a[0].atoms),
        "nodes": out.stats["nodes"],
    },
    "solvers.reduce_pgp_to_csp": lambda a, out: {
        "members": len(out.members),
        "members_after_false": _members_after_false(out.members),
    },
    "algebra.generate_closure": lambda a, out: {"points": len(out)},
    "algebra.polymorphisms": lambda a, out: {
        "tables": a[0].domain.size ** (a[0].domain.size ** a[1]),
        "found": len(out),
    },
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # open frames: [name, start, nested seconds, span id]
        self.depth: dict[str, int] = defaultdict(int)
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.item = None
        self._patched: list = []

    def _wrap(self, name: str, fn):
        sizes = SIZES.get(name)
        spans, stack, depth, totals = self.spans, self.stack, self.depth, self.totals

        def traced(*args, **kwargs):
            parent = stack[-1][3] if stack else None
            frame = [name, perf_counter(), 0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            depth[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                took = end - frame[1]
                if stack:
                    stack[-1][2] += took
                spans[frame[3]] = (name, frame[1], end, parent, self.item)
                t = totals[name]
                t["calls"] += 1
                if not depth[name]:
                    t["s"] += took
                t["self_s"] += took - frame[2]
            if sizes is not None:
                for key, value in sizes(args, out).items():
                    totals[name][key] += value
            return out

        return traced

    def snapshot(self) -> dict:
        return {name: dict(t) for name, t in self.totals.items()}

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for short, names in TRACED.items():
            home = importlib.import_module(f"qcsp.{short}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
                        self._patched.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
