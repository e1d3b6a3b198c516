"""Smoke tests of the experiment scripts the README advertises.

Each script runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, with a
small ``--count`` where it takes one, and must exit 0 and print its summary
line.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, summary",
    [
        ("affine_demo.py", [], r"^oracle=False bundle=False \(\d+ of \d+ instances solved\), agreement=True$"),
        (
            "bundle_agreement_sweep.py",
            ["--count", "15"],
            r"^15/15 agree \(100\.0%\), \d+ true, \d+ solved of \d+ CSP instances, [\d.]+s$",
        ),
        (
            "power_roundtrip_sweep.py",
            ["--count", "15"],
            r"^15/15 round trips exact \(\d+ column-conflict draws\), [\d.]+s$",
        ),
        (
            "witness_agreement_sweep.py",
            ["--count", "15"],
            r"^15/15 agree \(\d+ over three elements; witnesses \d+ witnessed, \d+ refuted, "
            r"\d+ inconclusive\), [\d.]+s$",
        ),
    ],
)
def test_script_exits_zero_with_summary(name, args, summary):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert re.search(summary, done.stdout, re.MULTILINE), done.stdout


def test_affine_demo_json():
    done = run_script("affine_demo.py", "--json")
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["sentence"]["agreement"] is True
    assert out["witness"]["verdict"] == "witnessed"
    assert out["classification"]["verdict"] == "P"


def test_size_law_pins_the_ladder_sizes():
    # the route sizes against depth; at depth d the bundle solves the C(d-1, r)
    # maximal patterns (one when d - 1 <= r), and at depth 4 and r = 2 the
    # count reduction builds 63 copies of the 97-atom conjoined matrix
    done = run_script("size_law.py", "--max-depth", "4")
    assert done.returncode == 0, done.stderr
    rows = [
        (1, 1, "1 solved, 0 atoms", 0, 2),
        (1, 2, "1 solved, 4 atoms", 2, 4),
        (1, 3, "2 solved, 26 atoms", 21, 23),
        (1, 4, "3 solved, 66 atoms", 105, 107),
        (2, 1, "1 solved, 0 atoms", 0, 2),
        (2, 2, "1 solved, 4 atoms", 2, 4),
        (2, 3, "1 solved, 12 atoms", 744, 746),
        (2, 4, "3 solved, 92 atoms", 6111, 6113),
    ]
    assert done.stdout.splitlines() == [
        f"r={r} depth={d}  oracle true  bundle true ({bundle})  pi2 true ({pi2} atoms)"
        f"  power-csp true ({power} atoms)"
        for r, d, bundle, pi2, power in rows
    ] + ["8 ladders, 0 with a verdict unlike the oracle's"]
