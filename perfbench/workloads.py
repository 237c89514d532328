"""The four workloads: inputs from (seed, pass), one pass of betalab calls,
and the output checks that count toward ``fail_frac``.

A pass is a ``Session`` of operations.  An operation is one ``cli.main``
call or one library call; it fails if it raises, exits non-zero, or if an
output check attributed to it does not hold.
"""
from __future__ import annotations

import json
import os

import numpy as np

import betalab.cli
import betalab.equilibrium
import betalab.measures
import betalab.rates
from betalab.potential import Potential

# mcmc_w1_tol bounds the pooled W1 between the mcmc-quartic samples and the
# quartic mu_V; it was fixed from runs of the unmodified sampler over several
# seeds (see README.md).
SIZES = {
    "full": {"fluct_n": "500,2000", "fluct_reps": 30,
             "dos_n": "100,1000", "dos_reps": 40,
             "wall_grid": 1024, "idos_cells": 1024,
             "mcmc_n": 50, "mcmc_reps": 16, "mcmc_w1_tol": 0.015},
    "toy": {"fluct_n": "50,200", "fluct_reps": 4,
            "dos_n": "50,400", "dos_reps": 4,
            "wall_grid": 128, "idos_cells": 256,
            "mcmc_n": 20, "mcmc_reps": 2, "mcmc_w1_tol": 0.08},
}


class Session:
    """Runs operations and output checks, counting attempts and failures."""

    def __init__(self, out_root: str):
        self.out_root = out_root
        self.ops = []
        self.failed = set()
        self.errors = []
        self.cli_dirs = []

    def _fail(self, label: str, detail: str) -> None:
        self.failed.add(label)
        self.errors.append(f"{label}: {detail}")

    def cli(self, label: str, argv: list):
        """betalab.cli.main(argv) into an empty directory; returns the
        parsed summary.json results, or None if the call failed."""
        self.ops.append(label)
        out = os.path.join(self.out_root, label)
        self.cli_dirs.append(out)
        try:
            code = betalab.cli.main(argv + ["--out", out])
            if code != 0:
                self._fail(label, f"exit code {code}")
                return None
            with open(os.path.join(out, "summary.json")) as fh:
                return json.load(fh)["results"]
        except Exception as exc:  # an exception is a counted failure
            self._fail(label, repr(exc))
            return None

    def call(self, label: str, fn, *args, **kwargs):
        self.ops.append(label)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # an exception is a counted failure
            self._fail(label, repr(exc))
            return None

    def check(self, label: str, ok: bool, detail: str) -> None:
        if not ok:
            self._fail(label, f"check failed: {detail}")

    def bytes_written(self) -> int:
        """Bytes of the files the CLI calls left in their output directories."""
        return sum(entry.stat().st_size for out in self.cli_dirs
                   if os.path.isdir(out) for entry in os.scandir(out))


def pass_inputs(seed: int, index: int) -> np.random.Generator:
    """The input stream of pass `index` of a run with workload seed `seed`."""
    return np.random.default_rng([seed, index])


def edge_fluct(s: Session, rng, size: dict, corrupt: str | None) -> None:
    seed = int(rng.integers(1, 2 ** 31))
    res = s.cli("fluctuate", [
        "fluctuate", "--f", "square", "--n", size["fluct_n"],
        "--replicas", str(size["fluct_reps"]), "--seed", str(seed),
        "--threads", "1"])
    if res is None:
        return
    s.check("fluctuate", res["regime"] == "clt", f"regime {res['regime']}")
    for n, d in res["per_n"].items():
        s.check("fluctuate", d["max_bookkeeping_residual"] <= 1e-10 * int(n),
                f"N={n} residual {d['max_bookkeeping_residual']}")
        s.check("fluctuate", d["remainder_bound_ok"],
                f"N={n} remainder bound")


def dos_w1(s: Session, rng, size: dict, corrupt: str | None) -> None:
    seed = int(rng.integers(1, 2 ** 31))
    res = s.cli("dos-converge", [
        "dos-converge", "--n", size["dos_n"],
        "--replicas", str(size["dos_reps"]), "--seed", str(seed),
        "--threads", "2"])
    if res is None:
        return
    small, large = (res["mean_w1"][n] for n in size["dos_n"].split(","))
    s.check("dos-converge", large <= 0.1, f"mean W1 {large} > 0.1")
    s.check("dos-converge", large < small,
            f"mean W1 {large} not below {small}")


def wall_points(rng) -> list:
    """Three distinct hard-wall positions, one in each third of [1.0, 1.9],
    so every seed does a similar amount of Frank-Wolfe work."""
    return [round(1.0 + 0.3 * k + 0.29 * float(rng.random()), 4)
            for k in range(3)]


def rates_hardwall(s: Session, rng, size: dict, corrupt: str | None) -> None:
    walls = wall_points(rng)
    grid = str(size["wall_grid"])
    # keep the Frank-Wolfe certificates that projection_J does not return;
    # a pass has a process of its own, so the probe is never removed
    solves = []
    solve = betalab.rates.constrained_equilibrium

    def probe(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    betalab.rates.constrained_equilibrium = probe
    scan = s.cli("tail-scan", ["tail-scan", "--grid", grid,
                               "--left", ",".join(repr(c) for c in walls)])
    jm = None
    if scan is not None:
        gap = max((r.gap for r in solves), default=float("nan"))
        s.check("tail-scan", gap <= 1e-8,
                f"{len(solves)} Frank-Wolfe solves, largest gap {gap}")
        jm = [scan["j_minus"][repr(c)] for c in walls]
        if corrupt == "jminus":
            jm[1] += 1e-3
        s.check("tail-scan", all(j >= 0.0 for j in jm), f"J^- {jm} < 0")
        s.check("tail-scan", all(a >= b for a, b in zip(jm, jm[1:])),
                f"J^- {jm} increases in c")

    V = Potential.gaussian()
    dens = s.call("equilibrium", betalab.equilibrium.solve_equilibrium,
                  V, size["idos_cells"])
    if dens is not None:
        tau = betalab.measures.reflect_shift(dens.density, 2.5)
        path = os.path.join(s.out_root, "tau_2.5.csv")
        betalab.measures.save_measure(tau, path)
        idos = s.cli("rate-idos", ["rate", "idos", "--measure", path])
        eq = betalab.equilibrium.equilibrium_cached(V)
        scanned = s.call("calI-inf", betalab.rates.calI_inf_over_c,
                         eq, V, tau)
        if idos is not None and scanned is not None:
            s.check("calI-inf", abs(idos["value"] - scanned[1]) <= 1e-9,
                    f"inf_c calI {scanned[1]} vs I_DOS {idos['value']}")

    calj = s.cli("rate-calj", ["rate", "calj", "--grid", grid,
                               "--c", repr(walls[1])])
    if calj is not None and jm is not None:
        off = calj["terms"]["offset_term"]
        s.check("rate-calj", abs(off + jm[1]) <= 1e-12 * max(1.0, abs(jm[1])),
                f"calJ offset {off} vs -J^- {-jm[1]}")


def mcmc_quartic(s: Session, rng, size: dict, corrupt: str | None) -> None:
    seed = int(rng.integers(1, 2 ** 31))
    res = s.cli("sample", [
        "sample", "--method", "mcmc", "--potential", "0,0,0,0,1",
        "--n", str(size["mcmc_n"]), "--replicas", str(size["mcmc_reps"]),
        "--seed", str(seed)])
    if res is None:
        return
    acc = res["acceptance_rate"]
    s.check("sample", all(0.15 <= a <= 0.6 for a in acc),
            f"acceptance rates {acc}")
    eig = np.loadtxt(os.path.join(s.out_root, "sample", "samples.csv"),
                     delimiter=",", skiprows=1, usecols=1)
    pooled = betalab.measures.AtomicMeasure.from_points(eig)
    mu_v = betalab.equilibrium.equilibrium_cached(Potential.quartic()).density
    w1 = betalab.measures.wasserstein(pooled, mu_v)
    tol = size["mcmc_w1_tol"]
    s.check("sample", w1 <= tol, f"pooled W1 {w1} > {tol}")


WORKLOADS = {
    "edge-fluct": edge_fluct,
    "dos-w1": dos_w1,
    "rates-hardwall": rates_hardwall,
    "mcmc-quartic": mcmc_quartic,
}
