"""Config-driven experiment runner.

Subcommands: equilibrium, sample, rate, dos-converge, fluctuate, tail-scan.
Each reads only the options that _COMMANDS lists for it, from an optional
flat key=value config file plus flags, flags winning; a value from either
source goes through the option's one parser.  Every run writes summary.json
(the resolved value of every option, results, and the only timestamp) plus
plot-ready CSVs whose bytes depend solely on config and seed.  Exit codes:
0 success, 2 config validation or an unwritable output, 3 solver failure,
or a result that is not a finite number.  The files of a run are written
all or none: each goes to a temp file first, and they are renamed into
--out only once all are written, so a run that exits 2 or 3 leaves no file
of its own behind (--out itself may remain).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time

import numpy as np

from ._fsio import WriteError, csv_text, fmt, write_files
from . import dos as dosmod
from .equilibrium import effective_potential_tail, equilibrium_cached, \
    equilibrium_files, nu_limit, solve_equilibrium
from .measures import load_measure
from .potential import Potential
from .rates import projection_J, rate_IDOS, rate_IV, rate_calI, rate_calJ, \
    rate_report

__all__ = ["main"]


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2 with the field named."""


# -- option parsers: one per option, for flags and config-file values alike ------

def _type(convert, expect: str, ok=lambda val: True):
    """convert(text), refused unless ok(value), with `expect` in the error."""
    def parse(text: str):
        try:
            val = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected {expect}, got {text!r}: {exc}") from None
        if not ok(val):
            raise argparse.ArgumentTypeError(
                f"expected {expect}, got {text!r}")
        return val
    return parse


def _finite(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError("not a finite number")
    return val


def _int_from(low: int):
    return _type(int, f"an integer >= {low}", lambda v: v >= low)


def _one_of(*names: str):
    return _type(str, f"one of {', '.join(names)}", lambda v: v in names)


def _list(convert):
    return lambda text: [convert(t) for t in text.split(",") if t.strip()]


# -- subcommands: each returns (results, {file name: table}) ------------------
# A table is the (header, rows) of a CSV, or the text of a file.

def _cmd_equilibrium(cfg: dict):
    eq = solve_equilibrium(cfg["potential"], cfg["grid"])
    return {"a_v": eq.a_v, "b_v": eq.b_v, "c_v": eq.c_v,
            "sigma": eq.measure.sigma}, equilibrium_files(eq)


def _cmd_sample(cfg: dict):
    samples = dosmod.draw_spectra(cfg["potential"], cfg["beta"], cfg["n"],
                                  cfg["seed"], cfg["replicas"], cfg["method"])
    rows = [(s.replica, float(x)) for s in samples for x in s.eigenvalues]
    return {
        "n": cfg["n"], "beta": cfg["beta"], "method": cfg["method"],
        "replicas": cfg["replicas"],
        "lambda_max": [s.lambda_max for s in samples],
        "acceptance_rate": [s.acceptance_rate for s in samples],
        "tie_breaks": int(sum(s.tie_breaks for s in samples)),
    }, {"samples.csv": ("replica,eigenvalue", rows)}


def _cmd_rate(cfg: dict):
    V, functional, m = cfg["potential"], cfg["functional"], cfg["reg_m"]
    eq = equilibrium_cached(V)
    if cfg["c"] is None and functional == "calj":
        raise ConfigError(f"c: calj needs --c below b_V = {eq.b_v}")
    c = cfg["c"] = float(eq.b_v) if cfg["c"] is None else cfg["c"]
    if functional == "projection":
        value = projection_J(V, c).value
        return {"functional": "projection", "c": c, "value": value}, {}
    spec = cfg["measure"]
    mu = nu_limit(eq) if spec == "nu_V" else \
        eq.measure if spec == "mu_V" else load_measure(spec)
    if functional == "iv":
        ev = rate_IV(eq, V, mu, m)
    elif functional == "cali":
        ev = rate_calI(eq, V, c, mu, m)
    elif functional == "idos":
        ev = rate_IDOS(eq, V, mu, m)
    else:
        ev = rate_calJ(eq, V, c, mu, m)
    inputs = {"measure": spec, "reg_m": m}
    if functional in ("cali", "calj"):
        inputs["c"] = c
    return rate_report(functional, ev, V, inputs), {}


def _cmd_dos_converge(cfg: dict):
    report = dosmod.dos_convergence(cfg["potential"], cfg["beta"], cfg["n"],
                                    cfg["replicas"], cfg["seed"],
                                    method=cfg["method"],
                                    workers=cfg["threads"])
    sizes = sorted(report)
    means = [report[n]["mean_w1"] for n in sizes]
    return {
        "mean_w1": {str(n): report[n]["mean_w1"] for n in sizes},
        "strictly_decreasing": bool(
            all(a > b for a, b in zip(means, means[1:]))),
    }, {
        "dos_convergence.csv": (
            "n,mean_w1,std_w1",
            [(n, report[n]["mean_w1"], report[n]["std_w1"]) for n in sizes]),
        "dos_w1_replicas.csv": (
            "n,replica,w1",
            [(n, j, w) for n in sizes for j, w in enumerate(report[n]["w1"])]),
    }


def _cmd_fluctuate(cfg: dict):
    V = cfg["potential"]
    if cfg["f"] in ("identity", "x"):
        f = dosmod.TestFunction.identity(cfg["window"])
    else:
        f = dosmod.TestFunction.square_about(equilibrium_cached(V).b_v,
                                             cfg["window"])
    report = dosmod.fluctuation_ensemble(V, cfg["beta"], f, cfg["n"],
                                         cfg["replicas"], cfg["seed"],
                                         method=cfg["method"],
                                         workers=cfg["threads"])
    per_n = report["per_n"]
    tables = {"fluct_stats.csv": (
        "n,replica,stat",
        [(n, j, s) for n in sorted(per_n)
         for j, s in enumerate(per_n[n]["stats"])])}
    for n in sorted(per_n):
        edges, counts = (per_n[n]["histogram"][k] for k in ("edges", "counts"))
        tables[f"fluct_hist_{n}.csv"] = (
            "bin_left,bin_right,count", list(zip(edges, edges[1:], counts)))
    return {**{k: v for k, v in report.items() if k != "per_n"},
            "per_n": {str(n): {k: v for k, v in d.items() if k != "stats"}
                      for n, d in per_n.items()}}, tables


def _cmd_tail_scan(cfg: dict):
    V = cfg["potential"]
    eq = equilibrium_cached(V)
    if cfg["xs"] is None:
        cfg["xs"] = [float(eq.b_v) + d for d in (0.0, 0.5, 1.0)]
    plus = [(x, effective_potential_tail(eq, V, x)) for x in cfg["xs"]]
    walls = {c: projection_J(V, c) for c in cfg["left"]}
    minus = [(c, res.value) for c, res in walls.items()]
    tables = {"tail_plus.csv": ("x,j_plus", plus)}
    if minus:
        tables["tail_minus.csv"] = ("c,j_minus", minus)
    return {
        "j_plus": {fmt(x): v for x, v in plus},
        "j_minus": {fmt(c): v for c, v in minus},
        "j_minus_certificate": {
            fmt(c): {"soft_edge_residual": res.gap}
            for c, res in walls.items() if c < eq.b_v},
    }, tables


# -- the option table ------------------------------------------------------------

# Per subcommand: option -> (parser, default as config text).  A None default
# is resolved by the command from the potential (c and xs from b_V), or there
# is none (the positional functional, always given).
_POTENTIAL = (_type(Potential.from_string, "coefficients c0,c1,...,cp"),
              "0,0,0.5")
_POSITIVE = _type(_finite, "a positive number", lambda v: v > 0)
_BETA = (_POSITIVE, "2")
_SEED = (_type(int, "an integer in [0, 2^64)", lambda v: 0 <= v < 2**64), "1")
_SIZES = (_type(_list(int), "a comma list of distinct integers >= 2",
                lambda v: len(v) > 0 and min(v) >= 2
                and len(set(v)) == len(v)), "1000")
_METHOD = (_one_of("tridiagonal", "mcmc"), "tridiagonal")
_THREADS = (_int_from(1), "1")
_OUT = (str, "betalab_out")
_FLOATS = _type(_list(_finite), "a comma list of distinct numbers",
                lambda v: len(set(v)) == len(v))

_COMMANDS = {
    "equilibrium": (_cmd_equilibrium, {
        "potential": _POTENTIAL, "grid": (_int_from(16), "4096"),
        "out": _OUT}),
    "sample": (_cmd_sample, {
        "potential": _POTENTIAL, "beta": _BETA, "n": (_int_from(2), "1000"),
        "replicas": (_int_from(1), "1"), "seed": _SEED, "method": _METHOD,
        "out": _OUT}),
    "rate": (_cmd_rate, {
        "functional": (_one_of("iv", "cali", "idos", "calj", "projection"),
                       None),
        "potential": _POTENTIAL,
        "measure": (_type(str, "nu_V, mu_V, or a CSV path",
                          lambda v: v in ("nu_V", "mu_V")
                          or os.path.isfile(v)), "nu_V"),
        "c": (_type(_finite, "a number"), None),
        "reg_m": (_type(lambda t: None if t in ("", "auto") else _finite(t),
                        "auto or a number"), "auto"),
        "grid": (_int_from(16), "2048"), "out": _OUT}),
    "dos-converge": (_cmd_dos_converge, {
        "potential": _POTENTIAL, "beta": _BETA, "n": _SIZES,
        "replicas": (_int_from(2), "50"), "seed": _SEED, "method": _METHOD,
        "threads": _THREADS, "out": _OUT}),
    "fluctuate": (_cmd_fluctuate, {
        "potential": _POTENTIAL, "beta": _BETA,
        "f": (_one_of("identity", "x", "square", "(x-b)^2"), "identity"),
        "window": (_POSITIVE, "3"),
        "n": _SIZES, "replicas": (_int_from(2), "100"), "seed": _SEED,
        "method": _METHOD, "threads": _THREADS, "out": _OUT}),
    "tail-scan": (_cmd_tail_scan, {
        "potential": _POTENTIAL, "xs": (_FLOATS, None), "left": (_FLOATS, ""),
        "grid": (_int_from(16), "1024"), "out": _OUT}),
}

_HELP = {
    "functional": "iv, cali, idos, calj or projection",
    "potential": "ascending coefficients c0,c1,...,cp",
    "beta": "inverse temperature",
    "n": "matrix size; dos-converge and fluctuate take a comma list",
    "replicas": "independent replicas, each from the stream (seed, replica)",
    "seed": "random seed",
    "method": "sampler: tridiagonal (Gaussian V only) or mcmc",
    "grid": "cells of the equilibrium density grid; accepted by rate and "
            "tail-scan, where it changes nothing (J^- is in closed form)",
    "measure": "nu_V, mu_V, or a measure CSV path",
    "c": "cutoff / wall position (default: b_V; calj: required)",
    "reg_m": "Sigma^M regularization M for atomic inputs; auto is 2 ln N",
    "f": "test function: identity (x) or square ((x-b)^2)",
    "window": "spectral window H for diagnostics",
    "xs": "right-tail scan points (default: b_V, b_V + 0.5, b_V + 1)",
    "left": "left-tail (hard-wall) points",
    "threads": "processes drawing the replicas, at most the CPUs this "
               "process may use; results do not depend on it",
    "out": "output directory",
}


class _ArgParser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, so main returns 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


@functools.cache          # built once per process; a parse changes nothing in it
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgParser(
        prog="betalab",
        description="beta-ensemble experiments: equilibrium measures, "
                    "samplers, rate functionals, edge fluctuations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        for key, (parse, default) in options.items():
            text = _HELP[key] + (f" (default: {default})" if default else "")
            if key == "functional":
                p.add_argument(key, type=parse, help=text)
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               type=parse, default=argparse.SUPPRESS,
                               help=text)
    return parser


def _glue_negative_values(argv: list) -> list:
    """['--left', '-0.5,1'] -> ['--left=-0.5,1'].  Every option takes one
    value, but argparse reads a comma list that starts with a negative
    number as an option."""
    out = []
    for tok in argv:
        if (out and re.match(r"--\w[^=]*$", out[-1])
                and re.match(r"-\.?\d", tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _read_config_file(path: str, options: dict) -> dict:
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
                key = key.strip().replace("-", "_")
                if key not in options:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown key {key!r}; this command "
                        f"reads {', '.join(sorted(options))}")
                out[key] = val.strip()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    return out


def _resolve(args: argparse.Namespace, options: dict) -> dict:
    """Every option the command reads: default < config file < flag."""
    text = {key: default for key, (_, default) in options.items()}
    if args.config:
        text.update(_read_config_file(args.config, options))
    cfg = {}
    for key, (parse, _) in options.items():
        try:
            cfg[key] = None if text[key] is None else parse(text[key])
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{args.config}: {key}: {exc}") from None
    cfg.update((k, v) for k, v in vars(args).items() if k in options)
    return cfg


def _require_finite(obj, key: str) -> None:
    """Raises RuntimeError naming the key of the first float in obj (nested
    dicts, lists and tuples) that is NaN or infinite."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise RuntimeError(f"{key} is not finite")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _require_finite(v, f"{key}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _require_finite(v, f"{key}[{i}]")


def _check_finite(results: dict, tables: dict) -> None:
    """Refuses a run whose results or tables hold NaN or an infinity (a
    finite input whose arithmetic overflowed), before any file is written:
    neither is valid JSON."""
    _require_finite(results, "results")
    for name, table in tables.items():
        if isinstance(table, str):
            continue
        header, rows = table
        cols = header.split(",")
        for i, row in enumerate(rows):
            for col, x in zip(cols, row):
                if isinstance(x, float) and not math.isfinite(x):
                    raise RuntimeError(f"{name}: {col} in row {i} is not "
                                       "finite")


def _json_value(obj):
    return obj.coeffs.tolist() if isinstance(obj, Potential) else str(obj)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(
            _glue_negative_values(sys.argv[1:] if argv is None else argv))
        command, options = _COMMANDS[args.command]
        cfg = _resolve(args, options)
        try:        # before the run, so a bad --out costs no computation
            os.makedirs(cfg["out"], exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"out: cannot make directory {cfg['out']!r}: {exc}") from exc
        results, tables = command(cfg)
        _check_finite(results, tables)
        files = {name: table if isinstance(table, str) else csv_text(*table)
                 for name, table in tables.items()}
        files["summary.json"] = json.dumps({
            "command": args.command, "config": dict(sorted(cfg.items())),
            "results": results,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }, indent=2, default=_json_value) + "\n"
        write_files(cfg["out"], files)
    except WriteError as exc:   # every file of the run, or none
        print(f"config error: out: cannot write {exc.filename}: "
              f"{exc.strerror}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # ConfigError, and module preconditions, which double as validation
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    print(os.path.join(cfg["out"], "summary.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
