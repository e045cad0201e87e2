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
  a few more ``cp-scan`` and ``critical`` calls;
* ``profiles``: ``relaxation_profiles``, ``relaxation_profile``, ``xi``,
  ``choi_matrix`` and ``propagate`` in every branch of the closed form and
  on both sides of the critical series window, at scalar nu (float,
  ``np.float64`` and 0-d array) and array nu, nu = 0, -0.0, 5e-324 and
  1e300 among them;
* ``ensembles``: ``ensemble_average``'s ``mean_bloch`` and ``stderr`` on
  mc_oracle-like inputs (1 to 3 axes, damped, critical and ringing, nu_max
  2, 4 and 8, N = 256 on 41 points), on point_audit-like inputs (N = 32 on
  11 points), on a two-block N = 1100 run and on a long-horizon
  (nu_max = 100) N = 1024 run.

Per group it prints the case count, the number of cases that differ in any
bit and the largest absolute difference of a numeric field (for ``cli``,
the most output lines that differ in one case); ``boundary`` also prints
its largest difference in units of the search's resolution
delta = 1e-6 max(1, b), b the other tree's boundary, and ``profiles`` how
many of its differing cases differ only where the other tree has nan (or
raised on meeting nan).  It exits 1 when any case differs.  ``--quick``
runs a subset (``cp-scan`` and ``critical`` only in ``cli``) in a few
seconds.
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
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GROUPS = ("is_cp", "boundary", "cli", "profiles", "ensembles")
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


# Values of nu, each taken as a float, an np.float64 and a 0-d array, and
# all in one array: 0, -0.0 and the subnormal next to them, 1e3, where
# exp(-nu) has underflowed, and 1e300, where the critical series' nu^2
# overflows.
PROFILE_NUS = (0.0, -0.0, 5e-324, 0.37, 9.5, 1e3, 1e300)


def profile_cases(quick: bool):
    """(params, nu label, nu) triples: couplings in every branch, 4 kappa tau
    - 1 at +-1e-7 (the critical series) and +-2e-6 (the exact branches next
    to it), kappa tau = 0, and seeded draws."""
    import numpy as np
    from rtnqubit import ModelParams

    params = [ModelParams(a=(0.0, 0.0, 0.0), tau=1.0)]
    for offset in (0.0, 1e-7, -1e-7, 2e-6, -2e-6):
        kt = 0.25 * (1.0 + offset)
        params += [ModelParams(a=(0.0, 0.0, kt), tau=1.0), ModelParams(a=(0.3, 0.0, kt), tau=1.0)]
    params += [
        ModelParams(a=(0.05, 0.1, 0.02), tau=1.3),  # damped
        ModelParams(a=(2.0, 1.0, 0.5), tau=0.8),  # ringing
        ModelParams(a=(0.3, 0.05, 1.1), tau=0.9),  # mixed
        ModelParams(a=(1e6, 0.0, 0.0), tau=1.0),  # fast ringing
    ]
    rng = np.random.default_rng(5)
    params += [
        ModelParams(a=tuple(rng.uniform(0.0, scale, 3)), tau=float(rng.uniform(0.1, 2.0)))
        for scale in (0.2, 3.0)
        for _ in range(1 if quick else 10)
    ]
    nus = []
    for nu in PROFILE_NUS:
        nus += [(f"{nu!r}", nu), (f"float64 {nu!r}", np.float64(nu)), (f"0-d {nu!r}", np.array(nu))]
    nus += [("array", np.array(PROFILE_NUS)), ("linspace", np.linspace(0.0, 30.0, 61))]
    return [(p, label, nu) for p in params for label, nu in nus]


def profile_results(quick: bool):
    """[case, flat values] of each profile-layer call, complex values as
    their real parts, then their imaginary parts."""
    import numpy as np
    from rtnqubit import (
        bloch_to_density,
        choi_matrix,
        propagate,
        relaxation_profile,
        relaxation_profiles,
        xi,
    )

    def flat(func, *args):
        try:
            values = np.asarray(func(*args))
        except ValueError as exc:  # a state check that meets nan raises
            return [f"{type(exc).__name__}: {exc}"]
        if np.iscomplexobj(values):
            values = np.stack([values.real, values.imag])
        return values.ravel().tolist()

    rho = bloch_to_density([0.3, -0.4, 0.5])
    out = []
    for p, label, nu in profile_cases(quick):
        case = f"{p.a} tau={p.tau} nu={label}"
        out.append([f"relaxation_profiles {case}", flat(relaxation_profiles, nu, p)])
        out.append([f"xi {case}", flat(xi, nu, p)])
        for i, kt in enumerate(p.kappa_taus.tolist()):
            out.append([f"relaxation_profile {i} {case}", flat(relaxation_profile, nu, kt)])
        if np.ndim(nu) == 0:
            out.append([f"choi_matrix {case}", flat(choi_matrix, p, nu)])
            out.append([f"propagate {case}", flat(propagate, rho, nu, p)])
    return out


def ensemble_cases(quick: bool):
    """(label, params, rho0, grid, N, seed) of each ensemble."""
    import numpy as np
    from rtnqubit import ModelParams, bloch_to_density

    def case(kind, d, kappa_tau, tau, b0, grid, n, seed):
        # d scaled so that its largest kappa_i * tau is kappa_tau
        a = d * (kappa_tau / (tau * float(np.max(ModelParams(a=tuple(d), tau=1.0).kappas))))
        p = ModelParams(a=tuple(a), tau=tau)
        label = f"{kind} a={p.a} tau={tau} b0={b0} nu_max={grid[-1]} m={grid.size}"
        label += f" N={n} seed={seed}"
        return label, p, bloch_to_density(b0), grid, n, seed

    def draw(rng, n_axes, low):
        d = np.zeros(3)
        d[rng.permutation(3)[:n_axes]] = [1.0, *rng.uniform(low, 1.0, n_axes - 1)]
        b0 = rng.normal(size=3)
        return d, float(rng.uniform(0.5, 2.0)), (b0 / np.linalg.norm(b0)).tolist()

    rng = np.random.default_rng(6)
    cases = []
    for k in range(27 * (1 if quick else 10)):  # mc_oracle-like
        d, tau, b0 = draw(rng, k % 3 + 1, 0.5)
        kappa_tau = (rng.uniform(0.05, 0.2), 0.25, rng.uniform(0.5, 2.0))[k // 9 % 3]
        grid = np.linspace(0.0, (2.0, 4.0, 8.0)[k // 3 % 3], 41)
        cases.append(case("mc_oracle", d, kappa_tau, tau, b0, grid, 256, 10_000_000 + k))
    for k in range(20 if quick else 300):  # point_audit-like
        d, tau, b0 = draw(rng, k % 3 + 1, 0.3)
        kappa_tau = rng.uniform(0.1, math.sqrt(2.0))
        cases.append(case("point_audit", d, kappa_tau, tau, b0, np.linspace(0.0, 4.0, 11), 32, k))
    d, tau, b0 = draw(rng, 3, 0.3)
    cases.append(case("two blocks", d, 1.0, tau, b0, np.linspace(0.0, 2.0, 5), 1100, 2026))
    cases.append(case("long horizon", d, 1.0, tau, b0, np.linspace(0.0, 100.0, 41), 1024, 1))
    return cases


def ensemble_results(quick: bool):
    """[case, mean_bloch then stderr, flat] of each ensemble."""
    from rtnqubit import ensemble_average

    out = []
    for label, params, rho0, grid, n, seed in ensemble_cases(quick):
        res = ensemble_average(params, rho0, grid, n, seed)
        out.append([label, res.mean_bloch.ravel().tolist() + res.stderr.ravel().tolist()])
    return out


def emit(quick: bool) -> dict:
    """Every group's results in this process's rtnqubit, as JSON-ready lists."""
    import rtnqubit
    from rtnqubit import cli, positivity

    out = {"source": rtnqubit.__file__, "is_cp": [], "boundary": [], "cli": []}
    out["ensembles"] = ensemble_results(quick)
    with warnings.catch_warnings():  # a tree may warn where it overflows
        warnings.simplefilter("ignore")
        out["profiles"] = profile_results(quick)
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


def nan_like(value) -> bool:
    """A nan value, or an error its check raised on meeting nan."""
    if isinstance(value, str):
        return value.endswith("nan")
    return isinstance(value, float) and math.isnan(value)


def compare(ours: dict, theirs: dict) -> list[tuple[str, str, bool]]:
    """(group, its report line, whether any case differs) per group."""
    report = []
    for group in GROUPS:
        a, b = ours[group], theirs[group]
        if [case for case, _ in a] != [case for case, _ in b]:
            raise SystemExit(f"{group}: the two trees built different case sets")
        differ = [(x, y) for (_, x), (_, y) in zip(a, b) if json.dumps(x) != json.dumps(y)]
        worst = max((largest_difference(x, y) for x, y in differ), default=0.0)
        line = f"{len(a)} cases, {len(differ)} differ, largest difference {worst:.3g}"
        if group == "boundary":
            deltas = max((in_deltas(x[0], y[0]) for x, y in differ), default=0.0)
            line += f" ({deltas:.3g} delta)"
        if group == "profiles":
            at_nan = sum(all(u == v or nan_like(v) for u, v in zip(x, y)) for x, y in differ)
            line += f" ({at_nan} only where the other tree has nan)"
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
