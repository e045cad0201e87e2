"""Batch command-line front end.

Emits plot-ready tables (CSV or JSON) for the library's analyses: Bloch
evolution curves, CP eigenvalue scans, the phase-boundary search, Monte
Carlo validation, the white-noise limit and the Volterra cross-check.
No plotting dependencies; every command is deterministic given its
configuration (including the seed).  Each command's handler returns its
table, meta extras, verdict line and exit code, and ``main`` alone emits it.

Exit codes: 0 success, 1 computational verdict failure (where a command
defines one), 2 usage or configuration error.

Options may come from a flat ``key=value`` config file (``--config``).
Its keys are the long flag names (``-`` or ``_``), its values parse as the
flags do, command-line flags override file values, and keys that only
other commands take are ignored.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, kernels, linalg, montecarlo, positivity, telegraph
from .telegraph import ModelParams

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"could not parse {text!r} as numbers") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p.strip()) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"could not parse {text!r} as a number list") from exc


def _parse_format(text: str) -> str:
    text = text.strip().lower()
    if text not in ("csv", "json"):
        raise argparse.ArgumentTypeError(f"format must be 'csv' or 'json', got {text!r}")
    return text


# Every option, as flag and as config key: its type and its help.
_OPTIONS = {
    "a1": (float, "coupling along sigma_1"),
    "a2": (float, "coupling along sigma_2"),
    "a3": (float, "coupling along sigma_3"),
    "tau": (float, "flip timescale (> 0)"),
    "seed": (int, "random seed"),
    "format": (_parse_format, "output format: csv or json"),
    "out": (str, "write the table to this path instead of stdout"),
    "nu_max": (float, "grid endpoint in nu (cp-scan: overrides the scan horizon)"),
    "steps": (int, "number of grid intervals (volterra-check: quadrature steps)"),
    "trajectories": (int, "ensemble size N"),
    "bloch": (_parse_triple, "initial Bloch vector bx,by,bz"),
    "direction": (_parse_triple, "coupling direction d1,d2,d3"),
    "t_max": (float, "physical-time grid endpoint"),
    "tau_ladder": (_parse_float_list, "comma-separated tau values"),
    "tol": (float, "max deviation tolerated for exit code 0"),
}

# The options every command takes, with their defaults.
_SHARED = {
    "a1": 1.0,
    "a2": 1.0,
    "a3": 0.0,
    "tau": 1.0,
    "seed": 20260809,
    "format": "csv",
    "out": None,
}

def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _OPTIONS[key][0](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def _effective_config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if cfg["seed"] < 0:
        raise UsageError("seed must be >= 0")
    for key in ("steps", "trajectories"):
        if cfg.get(key, 1) < 1:
            raise UsageError(f"{key} must be >= 1")
    # written so that NaN fails every range check
    if not 0.0 <= (cfg.get("nu_max") or 0.0) < math.inf:
        raise UsageError("nu-max must be finite and >= 0")
    for key in ("t_max", "tol"):
        if not 0.0 < cfg.get(key, 1.0) < math.inf:
            raise UsageError(f"{key.replace('_', '-')} must be finite and > 0")
    return cfg


def _model_params(cfg: dict) -> ModelParams:
    try:
        return ModelParams(a=(cfg["a1"], cfg["a2"], cfg["a3"]), tau=cfg["tau"])
    except ValueError as exc:
        raise UsageError(f"invalid model parameters: {exc}") from exc


def _bloch_vector(cfg: dict) -> np.ndarray:
    b = np.asarray(cfg["bloch"], dtype=float)
    if not np.linalg.norm(b) <= 1.0 + linalg.BLOCH_NORM_TOL:
        raise UsageError(f"initial Bloch vector {cfg['bloch']} lies outside the sphere")
    return b


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value + 0.0, ".17g")  # folds -0.0 into 0
    return str(value)


def _json_safe(value):
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return value + 0.0
    return value


def _emit(cfg: dict, meta: dict, columns: list, rows: list, verdict: str | None) -> None:
    if cfg["format"] == "json":
        payload = {
            "meta": {**meta, "columns": list(columns)},
            "rows": [[_json_safe(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"

    if cfg["out"]:
        try:
            Path(cfg["out"]).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file {cfg['out']!r}: {exc}") from exc
        if verdict:
            print(verdict)
    else:
        sys.stdout.write(text)
        if verdict and cfg["format"] == "csv":
            print(f"# {verdict}")


def _meta(command: str, cfg: dict, **extra) -> dict:
    echo = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in sorted(cfg.items())
        if v is not None
    }
    return {"command": command, "version": __version__, "config": echo, **extra}


# A handler maps the effective config to (columns, rows, meta extras, verdict
# line or None, exit code); it raises UsageError for a bad configuration.
def _cmd_evolve(cfg: dict) -> tuple:
    params = _model_params(cfg)
    b0 = _bloch_vector(cfg)
    grid = np.linspace(0.0, cfg["nu_max"], cfg["steps"] + 1)
    profiles = telegraph.relaxation_profiles(grid, params)
    rows = np.column_stack([grid, (profiles * b0[:, None]).T, profiles.T]).tolist()
    return ["nu", "b1", "b2", "b3", "lambda1", "lambda2", "lambda3"], rows, {}, None, 0


def _cmd_cp_scan(cfg: dict) -> tuple:
    params = _model_params(cfg)
    if cfg["nu_max"] is not None and cfg["nu_max"] <= 0.0:
        raise UsageError("cp-scan needs a positive nu-max")
    verdict = positivity.is_cp(params, nu_max=cfg["nu_max"])
    grid = np.linspace(0.0, verdict.horizon, cfg["steps"] + 1)
    table = positivity.xi(grid, params)
    rows = np.column_stack([grid, table.T]).tolist()
    if verdict.is_cp:
        line = f"verdict: completely positive (scan horizon nu = {verdict.horizon:.6g})"
        witness = None
    else:
        w = verdict.witness
        line = f"verdict: not completely positive; xi_{w.index}(nu = {w.nu:.9g}) = {w.value:.9e}"
        witness = {"nu": w.nu, "index": w.index, "value": w.value}
    extra = {"verdict": {"is_cp": verdict.is_cp, "horizon": verdict.horizon, "witness": witness}}
    return ["nu", "xi1", "xi2", "xi3", "xi4"], rows, extra, line, 0


def _cmd_critical(cfg: dict) -> tuple:
    if cfg["direction"] is None:
        raise UsageError("critical requires --direction d1,d2,d3")
    direction = cfg["direction"]
    try:
        boundary = positivity.critical_flip_parameter(direction, cfg["tau"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if boundary is None:
        line = "no boundary: with one nonzero coupling the map is CP at every a*tau"
        value = math.inf
    else:
        line = f"critical coupling: a*tau = {boundary:.6g}"
        value = boundary
    rows = [[direction[0], direction[1], direction[2], value]]
    extra = {"verdict": {"a_tau_critical": _json_safe(value)}}
    return ["dir1", "dir2", "dir3", "a_tau_critical"], rows, extra, line, 0


def _cmd_mc_validate(cfg: dict) -> tuple:
    params = _model_params(cfg)
    b0 = _bloch_vector(cfg)
    rho0 = linalg.bloch_to_density(b0)
    grid = np.linspace(0.0, cfg["nu_max"], cfg["steps"] + 1)
    n = cfg["trajectories"]
    try:
        if n == 1:
            mean = montecarlo._trajectories(params, rho0, grid, 1, cfg["seed"])[0]
            stderr = np.zeros_like(mean)
        else:
            result = montecarlo.ensemble_average(params, rho0, grid, n, cfg["seed"])
            mean, stderr = result.mean_bloch, result.stderr
    except ValueError as exc:  # a horizon the sampler cannot draw
        raise UsageError(f"--nu-max {cfg['nu_max']:g} at --tau {cfg['tau']:g}: {exc}") from exc

    profiles = telegraph.relaxation_profiles(grid, params)  # (3, npts)
    # compare against the Bloch vector the trajectories actually started
    # from (the density-matrix round trip of b0), so conserved components
    # agree exactly instead of at 1e-15
    b_start = linalg.density_to_bloch(rho0)
    analytic = profiles * b_start[:, None]
    diff = mean.T - analytic  # (3, npts)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(
            stderr.T > 0.0, diff / stderr.T, np.where(diff == 0.0, 0.0, math.inf)
        )
    # a point passes on the statistical contract or on numerical exactness
    # (zero-variance components have no meaningful z)
    ok = (np.abs(z) <= 3.0) | (np.abs(diff) <= 1e-12)
    fraction = float(np.mean(ok))
    passed = fraction >= 0.95

    rows = np.column_stack([grid, analytic.T, mean, stderr, z.T]).tolist()
    names = ("analytic_b", "mc_mean", "mc_se", "z")
    columns = ["nu"] + [f"{name}{k}" for name in names for k in (1, 2, 3)]
    line = (
        f"z-check: {fraction:.4f} of points within |z| <= 3 "
        f"({'pass' if passed else 'FAIL'}, N = {n})"
    )
    extra = {
        "contract_version": montecarlo.CONTRACT_VERSION,
        "verdict": {"fraction_within_3se": fraction, "passed": passed},
    }
    return columns, rows, extra, line, 0 if passed else 1


def _cmd_markov_compare(cfg: dict) -> tuple:
    a = cfg["a1"]
    if not (a > 0.0 and math.isfinite(a)):
        raise UsageError("markov-compare needs a positive coupling --a1")
    tau0 = cfg["tau"]
    if not 0.0 < tau0 < math.inf:
        raise UsageError("tau must be finite and > 0")
    ladder = cfg["tau_ladder"] or (tau0, tau0 / 10.0, tau0 / 100.0)
    if not all(0.0 < t < math.inf for t in ladder):
        raise UsageError("tau ladder values must be finite and > 0")
    # kappa_1 = a1, so gamma = 4 kappa_1^2 tau, the same at every rung; read
    # at tau = 1 and scaled, so that only gamma itself need be finite
    try:
        gamma = float(telegraph.markov_rates(ModelParams(a=(0.0, 0.0, a), tau=1.0))[0]) * tau0
    except ValueError:
        gamma = math.inf
    if not math.isfinite(gamma):
        raise UsageError(f"--a1 {a:g} at --tau {tau0:g} overflows the white-noise rate 4 a1^2 tau")
    diffusion = gamma / 2.0
    t = np.linspace(0.0, cfg["t_max"], cfg["steps"] + 1)
    markov = np.exp(-gamma * t)
    rows = []
    for tau_k in ladder:
        a_k = math.sqrt(diffusion / (2.0 * tau_k))
        try:
            params = ModelParams(a=(0.0, 0.0, a_k), tau=tau_k)  # kappa_1 = a_k
        except ValueError as exc:
            raise UsageError(
                f"--a1 {a:g} at --tau {tau0:g} overflows 4 kappa^2 or (4 kappa tau)^2"
                f" at --tau-ladder value {tau_k:g}"
            ) from exc
        colored = telegraph.relaxation_profiles(t / (2.0 * tau_k), params)[0]
        rung, diff = np.full_like(t, tau_k), np.abs(colored - markov)
        rows += np.column_stack([rung, t, colored, markov, diff, np.full_like(t, gamma)]).tolist()
    columns = ["tau", "t", "lambda_colored", "lambda_markov", "abs_diff", "gamma"]
    return columns, rows, {}, None, 0


def _cmd_volterra_check(cfg: dict) -> tuple:
    params = _model_params(cfg)
    if cfg["steps"] < 2:
        raise UsageError("volterra-check needs at least 2 quadrature steps")
    kernel = kernels.ExponentialKernel(tau=params.tau)
    spectrum = telegraph.damping_spectrum(params)[1:]
    t_max = 2.0 * params.tau * cfg["nu_max"]
    if not 0.0 < t_max < math.inf:
        raise UsageError(f"volterra-check needs a finite positive horizon 2 tau nu-max, got {t_max:g}")
    rows = []
    worst = 0.0
    for i, (lam_i, kt) in enumerate(zip(spectrum, params.kappa_taus), start=1):
        try:
            solution = kernels.solve_volterra(kernel, lam_i, t_max, cfg["steps"])
        except kernels.NumericalBlowupError:
            dev = math.inf  # the quadrature blew up: its deviation is unbounded
        else:
            exact = telegraph.relaxation_profile(solution.nu_grid(params.tau), kt)
            dev = float(np.max(np.abs(solution.values - exact)))
        worst = max(worst, dev)
        rows.append([i, float(kt), dev])
    passed = worst <= cfg["tol"]
    line = (
        f"max deviation {worst:.6e} vs tolerance {cfg['tol']:g} "
        f"({'pass' if passed else 'FAIL'}, {cfg['steps']} steps)"
    )
    extra = {"verdict": {"max_abs_deviation": _json_safe(worst), "passed": passed}}
    return ["component", "kappa_tau", "max_abs_deviation"], rows, extra, line, 0 if passed else 1


# Each command: its handler, its help, and its own options with their defaults.
_COMMANDS = {
    "evolve": (
        _cmd_evolve, "Bloch components and profiles over nu",
        {"nu_max": 5.0, "steps": 200, "bloch": (1.0, 0.0, 0.0)},
    ),
    "cp-scan": (_cmd_cp_scan, "xi curves plus a CP verdict", {"nu_max": None, "steps": 400}),
    "critical": (_cmd_critical, "CP boundary along a coupling direction", {"direction": None}),
    "mc-validate": (
        _cmd_mc_validate, "Monte Carlo vs analytic profiles",
        {"nu_max": 3.0, "steps": 50, "trajectories": 2000, "bloch": (1.0 / math.sqrt(3.0),) * 3},
    ),
    "markov-compare": (
        _cmd_markov_compare,
        "colored-noise profile vs white-noise limit down a tau ladder",
        {"t_max": 5.0, "steps": 100, "tau_ladder": None},
    ),
    "volterra-check": (
        _cmd_volterra_check, "quadrature solution vs closed-form profiles",
        {"nu_max": 10.0, "steps": 10000, "tol": 1e-5},
    ),
}


def _add_options(parser: argparse.ArgumentParser, defaults: dict) -> None:
    for key, default in defaults.items():
        kind, text = _OPTIONS[key]
        parser.add_argument("--" + key.replace("_", "-"), type=kind, default=default, help=text)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by command name, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    _add_options(common, _SHARED)
    common.add_argument("--config", help="flat key=value config file; flags override")

    parser = argparse.ArgumentParser(
        prog="rtnqubit",
        description="Qubit evolution and complete-positivity analysis "
        "under random telegraph noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, defaults) in _COMMANDS.items():
        _add_options(sub.add_parser(command, parents=[common], help=text), defaults)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file values fill the namespace before the command's flags are
            # parsed into it, so flags win and the shared parser is never
            # changed; keys that only other commands take are ignored
            values = {k: v for k, v in _load_config(args.config).items() if hasattr(args, k)}
            args = subparsers[args.command].parse_args(
                argv[argv.index(args.command) + 1 :],
                argparse.Namespace(command=args.command, **values),
            )
        cfg = _effective_config(args)
        columns, rows, extra, line, code = _COMMANDS[args.command][0](cfg)
        _emit(cfg, _meta(args.command, cfg, **extra), columns, rows, line)
        return code
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
