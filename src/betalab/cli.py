"""Config-driven experiment runner.

Subcommands: equilibrium, sample, rate, dos-converge, fluctuate, tail-scan.
Options come from an optional flat key=value config file plus flags, flags
winning.  Every run writes summary.json (resolved config, results, and the
only timestamp) plus plot-ready CSVs whose bytes depend solely on config
and seed.  Exit codes: 0 success, 2 config validation, 3 solver failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from ._fsio import fmt, write_text_atomic
from . import dos as dosmod
from .equilibrium import effective_potential_tail, equilibrium_cached, \
    nu_limit, save_equilibrium
from .measures import load_measure
from .potential import Potential
from .rates import projection_J, rate_IDOS, rate_IV, rate_calI, rate_calJ, \
    rate_report

__all__ = ["main"]


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2 with the field named."""


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, val = line.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    return out


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < config file < explicit flags; flags win."""
    cfg = dict(defaults)
    if args.config:
        cfg.update(_read_config_file(args.config))
    for key, val in vars(args).items():
        if key in ("config", "command") or val is None:
            continue
        cfg[key] = val
    return cfg


def _parse_potential(cfg: dict) -> Potential:
    text = str(cfg.get("potential", "0,0,0.5"))
    try:
        return Potential.from_string(text)
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from exc


def _parse_sizes(cfg: dict) -> list[int]:
    raw = cfg.get("n", "1000")
    if isinstance(raw, int):
        return [raw]
    try:
        sizes = [int(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"n: not an integer list: {raw!r}") from exc
    if not sizes or any(s < 2 for s in sizes):
        raise ConfigError(f"n: need sizes >= 2, got {raw!r}")
    return sizes


def _parse_float_list(cfg: dict, key: str, default: str) -> list[float]:
    raw = str(cfg.get(key, default))
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number list: {raw!r}") from exc


def _pos_int(cfg: dict, key: str, default: int, minimum: int = 1) -> int:
    try:
        val = int(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: not an integer: {cfg.get(key)!r}") from exc
    if val < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {val}")
    return val


def _pos_float(cfg: dict, key: str, default: float) -> float:
    try:
        val = float(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: not a number: {cfg.get(key)!r}") from exc
    if val <= 0:
        raise ConfigError(f"{key}: must be positive, got {val}")
    return val


def _write_summary(outdir: str, command: str, cfg: dict, results: dict) -> str:
    os.makedirs(outdir, exist_ok=True)
    payload = {
        "command": command,
        "config": {k: v for k, v in sorted(cfg.items())},
        "results": results,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    path = os.path.join(outdir, "summary.json")
    write_text_atomic(path, json.dumps(payload, indent=2, default=str) + "\n")
    return path


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(
            fmt(x) if isinstance(x, float) else str(x) for x in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


# -- subcommands -----------------------------------------------------------------

def _cmd_equilibrium(cfg: dict) -> dict:
    V = _parse_potential(cfg)
    grid = _pos_int(cfg, "grid", 4096, minimum=16)
    eq = equilibrium_cached(V, grid)
    outdir = str(cfg["out"])
    os.makedirs(outdir, exist_ok=True)
    save_equilibrium(eq, outdir)
    return {"a_v": eq.a_v, "b_v": eq.b_v, "c_v": eq.c_v, "sigma": eq.sigma}


def _cmd_sample(cfg: dict) -> dict:
    V = _parse_potential(cfg)
    beta = _pos_float(cfg, "beta", 2.0)
    n = _parse_sizes(cfg)[0]
    seed = _pos_int(cfg, "seed", 1, minimum=0)
    replicas = _pos_int(cfg, "replicas", 1)
    method = str(cfg.get("method", "tridiagonal"))
    samples = dosmod.draw_spectra(V, beta, n, seed, replicas, method)
    outdir = str(cfg["out"])
    os.makedirs(outdir, exist_ok=True)
    rows = [(s.replica, float(x)) for s in samples for x in s.eigenvalues]
    _write_csv(os.path.join(outdir, "samples.csv"),
               "replica,eigenvalue", rows)
    return {
        "n": n, "beta": beta, "method": method, "replicas": replicas,
        "lambda_max": [s.lambda_max for s in samples],
        "acceptance_rate": [s.acceptance_rate for s in samples],
        "tie_breaks": int(sum(s.tie_breaks for s in samples)),
    }


def _load_rate_measure(cfg: dict, V: Potential):
    spec = str(cfg.get("measure", "nu_V"))
    eq = equilibrium_cached(V)
    if spec == "nu_V":
        return nu_limit(eq)
    if spec == "mu_V":
        return eq.density
    if os.path.exists(spec):
        return load_measure(spec)
    raise ConfigError(f"measure: expected nu_V, mu_V, or a CSV path; got {spec!r}")


def _cmd_rate(cfg: dict) -> dict:
    V = _parse_potential(cfg)
    functional = str(cfg.get("functional", "idos")).lower()
    eq = equilibrium_cached(V)
    reg = cfg.get("reg_m")
    m = float(reg) if reg not in (None, "", "auto") else None
    grid = _pos_int(cfg, "grid", 2048, minimum=16)
    c = float(cfg.get("c", eq.b_v))
    if functional == "projection":
        value = projection_J(eq, V, c, n=grid)
        results = {"functional": "projection", "c": c, "value": value}
        return results
    mu = _load_rate_measure(cfg, V)
    if functional == "iv":
        ev = rate_IV(eq, V, mu, m)
    elif functional == "cali":
        ev = rate_calI(eq, V, c, mu, m)
    elif functional == "idos":
        ev = rate_IDOS(eq, V, mu, m)
    elif functional == "calj":
        ev = rate_calJ(eq, V, c, mu, m, n=grid)
    else:
        raise ConfigError(f"functional: unknown {functional!r}")
    report = rate_report(functional, ev, V,
                         {"c": c, "measure": str(cfg.get("measure", "nu_V"))})
    return report


def _cmd_dos_converge(cfg: dict) -> dict:
    V = _parse_potential(cfg)
    beta = _pos_float(cfg, "beta", 2.0)
    sizes = _parse_sizes(cfg)
    replicas = _pos_int(cfg, "replicas", 50, minimum=2)
    seed = _pos_int(cfg, "seed", 1, minimum=0)
    report = dosmod.dos_convergence(V, beta, sizes, replicas, seed,
                                    method=str(cfg.get("method", "tridiagonal")))
    outdir = str(cfg["out"])
    os.makedirs(outdir, exist_ok=True)
    _write_csv(os.path.join(outdir, "dos_convergence.csv"),
               "n,mean_w1,std_w1",
               [(n, report[n]["mean_w1"], report[n]["std_w1"])
                for n in sorted(report)])
    _write_csv(os.path.join(outdir, "dos_w1_replicas.csv"),
               "n,replica,w1",
               [(n, j, w) for n in sorted(report)
                for j, w in enumerate(report[n]["w1"])])
    means = [report[n]["mean_w1"] for n in sorted(report)]
    return {
        "mean_w1": {str(n): report[n]["mean_w1"] for n in sorted(report)},
        "strictly_decreasing": bool(
            all(a > b for a, b in zip(means, means[1:]))),
    }


def _make_test_function(cfg: dict) -> dosmod.TestFunction:
    name = str(cfg.get("f", "identity"))
    window = _pos_float(cfg, "window", 3.0)
    if name in ("identity", "x"):
        return dosmod.TestFunction.identity(window)
    if name in ("square", "(x-b)^2"):
        V = _parse_potential(cfg)
        return dosmod.TestFunction.square_about(
            equilibrium_cached(V).b_v, window)
    raise ConfigError(f"f: unknown test function {name!r}")


def _cmd_fluctuate(cfg: dict) -> dict:
    V = _parse_potential(cfg)
    fc = dosmod.FluctuationConfig(
        potential=V,
        beta=_pos_float(cfg, "beta", 2.0),
        f=_make_test_function(cfg),
        sizes=tuple(_parse_sizes(cfg)),
        replicas=_pos_int(cfg, "replicas", 100, minimum=2),
        seed=_pos_int(cfg, "seed", 1, minimum=0),
        method=str(cfg.get("method", "tridiagonal")),
    )
    report = dosmod.fluctuation_ensemble(fc)
    outdir = str(cfg["out"])
    os.makedirs(outdir, exist_ok=True)
    _write_csv(os.path.join(outdir, "fluct_stats.csv"), "n,replica,stat",
               [(n, j, s) for n in sorted(report["per_n"])
                for j, s in enumerate(report["per_n"][n]["stats"])])
    for n in sorted(report["per_n"]):
        hist = report["per_n"][n]["histogram"]
        rows = [(hist["edges"][i], hist["edges"][i + 1], hist["counts"][i])
                for i in range(len(hist["counts"]))]
        _write_csv(os.path.join(outdir, f"fluct_hist_{n}.csv"),
                   "bin_left,bin_right,count", rows)
    slim = {
        k: v for k, v in report.items() if k != "per_n"
    }
    slim["per_n"] = {
        str(n): {kk: vv for kk, vv in d.items()
                 if kk not in ("stats", "alt_stats")}
        for n, d in report["per_n"].items()
    }
    return slim


def _cmd_tail_scan(cfg: dict) -> dict:
    V = _parse_potential(cfg)
    eq = equilibrium_cached(V)
    grid = _pos_int(cfg, "grid", 1024, minimum=16)
    xs = _parse_float_list(cfg, "xs", f"{eq.b_v},{eq.b_v + 0.5},{eq.b_v + 1}")
    left = _parse_float_list(cfg, "left", "")
    plus = [(x, effective_potential_tail(eq, V, x)) for x in xs]
    minus = [(c, projection_J(eq, V, c, n=grid)) for c in left]
    outdir = str(cfg["out"])
    os.makedirs(outdir, exist_ok=True)
    _write_csv(os.path.join(outdir, "tail_plus.csv"), "x,j_plus", plus)
    if minus:
        _write_csv(os.path.join(outdir, "tail_minus.csv"), "c,j_minus", minus)
    return {
        "j_plus": {fmt(x): v for x, v in plus},
        "j_minus": {fmt(c): v for c, v in minus},
    }


_COMMANDS = {
    "equilibrium": _cmd_equilibrium,
    "sample": _cmd_sample,
    "rate": _cmd_rate,
    "dos-converge": _cmd_dos_converge,
    "fluctuate": _cmd_fluctuate,
    "tail-scan": _cmd_tail_scan,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betalab",
        description="beta-ensemble experiments: equilibrium measures, "
                    "samplers, rate functionals, edge fluctuations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--potential",
                       help="ascending coefficients c0,c1,...,cp")
        p.add_argument("--beta", type=float)
        p.add_argument("--n", help="size or comma list of sizes")
        p.add_argument("--replicas", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--grid", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--reg-m", dest="reg_m",
                       help="Sigma^M regularization for atomic inputs")
        p.add_argument("--threads", type=int,
                       help="ignored; accepted so older command lines parse")
        p.add_argument("--method", choices=["tridiagonal", "mcmc"])
        if name == "rate":
            p.add_argument("functional",
                           choices=["iv", "cali", "idos", "calj",
                                    "projection"])
            p.add_argument("--measure", help="nu_V, mu_V, or CSV path")
            p.add_argument("--c", type=float, help="cutoff / shift point")
        if name == "fluctuate":
            p.add_argument("--f", help="test function: identity | square")
            p.add_argument("--window", type=float,
                           help="spectral window H for diagnostics")
        if name == "tail-scan":
            p.add_argument("--xs", help="right-tail scan points")
            p.add_argument("--left", help="left-tail (constrained) points")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args, {"out": "betalab_out"})
        results = _COMMANDS[args.command](cfg)
        path = _write_summary(str(cfg["out"]), args.command, cfg, results)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # module preconditions double as config validation
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
