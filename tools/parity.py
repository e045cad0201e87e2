"""Bit parity of the CP layer between this checkout and another tree.

    python tools/parity.py --against <tree> [--quick]

Runs one fixed, seeded case set in a fresh process per tree, each with
``PYTHONPATH=<tree>/src`` (this checkout's ``src`` for the working side),
and compares the results bit for bit.  Groups:

* ``is_cp``: verdict, witness (nu, index, value) and horizon of cp_map-like
  ladders, of rungs next to c*/kappa_min, and of random maps (30 % with a
  cut horizon): damped, mixed, ringing, with 4 kappa tau near 1, and with
  one slow damped profile next to two fast ones;
* ``boundary``: ``critical_flip_parameter`` values and the number of scans
  each makes, on cp_map-like, weak-axis and fixed directions;
* ``cli``: stdout, stderr and exit code of every command at its defaults
  (``critical`` with ``--direction 1,1,0``), of the README examples and of
  a few more ``cp-scan`` and ``critical`` calls.

Per group it prints the case count, the number of cases that differ in any
bit and the largest absolute difference of a numeric field (for ``cli``,
the most output lines that differ in one case); ``boundary`` also prints
its largest difference in units of the search's resolution
delta = 1e-6 max(1, b), b the other tree's boundary.  It exits 1 when any
case differs.  ``--quick`` runs a subset (``cp-scan`` and ``critical``
only in ``cli``) in a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = (0.1, 0.3, 1.0, 3.0, 10.0, 50.0)
C_STAR = 0.7058598262632272

# Each command at its defaults, then the README examples and more calls of
# the two CP commands.
CLI_DEFAULTS = [
    "evolve",
    "cp-scan",
    "critical --direction 1,1,0",
    "mc-validate",
    "markov-compare",
    "volterra-check",
]
CLI_README = [
    "evolve --a1 0 --a2 0 --a3 1.5 --bloch 1,0,0 --nu-max 4 --steps 200",
    "cp-scan --a1 1.2 --a2 1.2 --a3 0",
    "critical --direction 1,1,0",
    "mc-validate --a1 0 --a2 0 --a3 1 --trajectories 10000 --seed 7",
    "markov-compare --a1 1 --tau 0.1",
    "volterra-check --a1 1 --a2 1 --a3 0 --steps 10000 --tol 1e-5",
]
CLI_CP = [
    "cp-scan --a1 1.2 --a2 1.2 --a3 0 --nu-max 3 --format json",
    "cp-scan --a1 0.7 --a2 0.3 --a3 0.1",
    "cp-scan --a1 0 --a2 0 --a3 5",
    "cp-scan --a1 17.6565 --a2 0.706 --a3 0 --steps 50",
    "critical --direction 1,0.04,0",
    "critical --direction 0,0,1 --format json",
    "critical --direction 1,1,1 --tau 3",
]


def directions(rng, count: int):
    """cp_map-like unit directions: largest component 1, the others in
    [0.3, 1], every other one with a zero third axis, axes permuted."""
    import numpy as np

    out = []
    for k in range(count):
        d = np.concatenate([[1.0], rng.uniform(0.3, 1.0, 2)])
        if k % 2:
            d[2] = 0.0
        out.append(d[rng.permutation(3)])
    return out


def is_cp_cases(quick: bool):
    """(params, nu_max) pairs."""
    import numpy as np
    from rtnqubit import ModelParams, scan_horizon

    scale = 15 if quick else 1
    cases = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        for d in directions(rng, 300 // scale):
            cases += [(ModelParams(a=tuple(d * a_tau), tau=1.0), None) for a_tau in LADDER]
            kappa_min = float(np.min(ModelParams(a=tuple(d), tau=1.0).kappa_taus))
            for f in (0.99, 1.0, 1.01):
                cases.append((ModelParams(a=tuple(d * (f * C_STAR / kappa_min)), tau=1.0), None))
    rng = np.random.default_rng(3)
    for k in range(3600 // scale):
        tau = float(rng.uniform(0.05, 2.0))
        kind = k % 5
        if kind == 3:  # 4 kappa tau in [0.8, 1.2], a partner 0 or anywhere
            kt = 0.25 * float(rng.uniform(0.8, 1.2))
            a = (0.0, float(rng.uniform(0.0, 2.0) * rng.integers(2)), kt)
        elif kind == 4:  # one slow damped profile next to two fast ones
            a = tuple(rng.permutation([rng.uniform(1.0, 5.0), *rng.uniform(0.005, 0.05, 2)]))
        else:  # damped, mixed, ringing
            a = tuple(rng.uniform(0.0, (0.1, 0.5, 3.0)[kind], 3))
        params = ModelParams(a=tuple(x / tau for x in a), tau=tau)
        cut = float(rng.uniform(0.05, 1.0)) * scan_horizon(params) if rng.uniform() < 0.3 else None
        cases.append((params, cut))
    return cases


def ray_cases(quick: bool):
    """(direction, tau) pairs."""
    import numpy as np

    scale = 15 if quick else 1
    rays = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        taus = rng.uniform(0.5, 2.0, 600 // scale)
        rays += [(d, float(t)) for d, t in zip(directions(rng, 600 // scale), taus)]
    rng = np.random.default_rng(4)
    for _ in range(400 // scale):  # a weak axis between 1e-3 and 1e-1
        d = np.array([1.0, 10.0 ** rng.uniform(-3.0, -1.0), 0.0])
        rays.append((d[rng.permutation(3)], 1.0))
    fixed = [(1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.54, 0.0), (0.0, 0.0, 1.0)]
    fixed += [(1.0, 10.0**-k, 0.0) for k in range(1, 4 if quick else 6)]
    return rays + [(np.array(d), 1.0) for d in fixed]


def emit(quick: bool) -> dict:
    """Every group's results in this process's rtnqubit, as JSON-ready lists."""
    import rtnqubit
    from rtnqubit import cli, positivity

    out = {"source": rtnqubit.__file__, "is_cp": [], "boundary": [], "cli": []}
    for params, cut in is_cp_cases(quick):
        v = positivity.is_cp(params, nu_max=cut)
        w = v.witness
        out["is_cp"].append(
            [f"{params.a} tau={params.tau} nu_max={cut}", [v.is_cp, v.horizon]
             + ([w.nu, w.index, w.value] if w else [None])]
        )
    scan, scans = positivity._scan, []

    def counting_scan(*args):
        scans.append(args)
        return scan(*args)

    positivity._scan = counting_scan
    try:
        for d, tau in ray_cases(quick):
            scans.clear()
            b = positivity.critical_flip_parameter(d, tau)
            out["boundary"].append([f"{d.tolist()} tau={tau}", [b, len(scans)]])
    finally:
        positivity._scan = scan
    calls = CLI_DEFAULTS + CLI_README + CLI_CP
    if quick:
        calls = [line for line in calls if line.split()[0] in ("cp-scan", "critical")]
    for line in calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(shlex.split(line))
        out["cli"].append([line, [stdout.getvalue(), stderr.getvalue(), code]])
    return out


def run_tree(tree: Path, quick: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, str(Path(__file__).resolve()), "--emit"] + ["--quick"] * quick
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"parity run on {tree} failed:\n{done.stderr}")
    result = json.loads(done.stdout)
    if not Path(result["source"]).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"parity run on {tree} imported {result['source']}")
    return result


def largest_difference(a, b) -> float:
    """Largest absolute difference of the numeric fields that differ, a
    text field counting the lines that differ."""
    worst = 0.0
    for x, y in zip(a, b):
        if json.dumps(x) == json.dumps(y):
            continue
        if isinstance(x, str) and isinstance(y, str):
            lines = itertools.zip_longest(x.splitlines(), y.splitlines())
            worst = max(worst, sum(u != v for u, v in lines))
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            worst = max(worst, abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf)
    return worst


def in_deltas(ours: float, theirs: float) -> float:
    """|ours - theirs| in units of delta = 1e-6 max(1, theirs)."""
    if ours == theirs:
        return 0.0
    if not (math.isfinite(ours) and math.isfinite(theirs)):
        return math.inf
    return abs(ours - theirs) / (1e-6 * max(1.0, theirs))


def compare(ours: dict, theirs: dict) -> list[tuple[str, str, bool]]:
    """(group, its report line, whether any case differs) per group."""
    report = []
    for group in ("is_cp", "boundary", "cli"):
        a, b = ours[group], theirs[group]
        if [case for case, _ in a] != [case for case, _ in b]:
            raise SystemExit(f"{group}: the two trees built different case sets")
        differ = [(x, y) for (_, x), (_, y) in zip(a, b) if json.dumps(x) != json.dumps(y)]
        worst = max((largest_difference(x, y) for x, y in differ), default=0.0)
        line = f"{len(a)} cases, {len(differ)} differ, largest difference {worst:.3g}"
        if group == "boundary":
            deltas = max((in_deltas(x[0], y[0]) for x, y in differ), default=0.0)
            line += f" ({deltas:.3g} delta)"
        report.append((group, line, bool(differ)))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="root of the tree to compare with")
    parser.add_argument("--quick", action="store_true", help="the small subset")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        json.dump(emit(args.quick), sys.stdout)
        return 0
    if args.against is None:
        parser.error("--against is required")
    report = compare(run_tree(ROOT, args.quick), run_tree(args.against, args.quick))
    for group, line, _ in report:
        print(f"{group}: {line}")
    return 1 if any(differ for _, _, differ in report) else 0


if __name__ == "__main__":
    sys.exit(main())
