"""Equilibrium measures and the variational problems behind the tail rates.

solve_equilibrium computes the one-cut equilibrium measure of a convex
polynomial potential: the support endpoints solve two moment conditions
(Newton on the exact Chebyshev coefficients of V' and V'' on the
support), and the density comes out as sqrt((x-a)(b-x)) times a
polynomial read off the Chebyshev coefficients of V'.  mu_V and the
hard-edge measure below a wall are both AngularMeasures (see measures),
whose log-energy Sigma, energy -Sigma + int V (c_V for mu_V), CDF and
exterior log-potential are finite series in their cosine moments; nu_V
is mu_V's reflection, exactly.

constrained_equilibrium minimizes the energy E(mu) = -Sigma(mu) + int V dmu
over probability measures on (-inf, x] in closed form: the minimizer is
mu_V for x >= b_V, and below it the hard-edge measure with a soft left
edge and a hard wall at x, whose cosine moments the Euler-Lagrange
equation fixes and whose radius is the least positive root of one
polynomial.  J^-(x) is its energy minus c_V, a finite sum; the soft-edge
residual of the minimizer is its certificate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P

from ._fsio import csv_text
from .measures import AngularMeasure, GridMeasure, _cheb_coeffs, _compose, \
    reflect_shift
from .potential import Potential

__all__ = [
    "EquilibriumResult", "ConstrainedEquilibriumResult",
    "solve_equilibrium", "equilibrium_cached", "nu_limit",
    "constrained_equilibrium", "effective_potential_tail",
    "equilibrium_files",
]

NEWTON_TOL = 8.0 * np.finfo(float).eps   # relative: roundoff of the residual
NEWTON_MAX_ITER = 200
GAP_TOL = 1e-8
EQUILIBRIUM_STEM = "equilibrium"   # file names of equilibrium_files


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """One-cut equilibrium measure with its derived scalars.

    measure is mu_V, centred at 0.5 (a_v + b_v): c_v = measure.energy(V).
    density is its grid of `cells` cells on [a_v, b_v], built on first read
    from u, the Chebyshev coefficients of V' on the support; only
    equilibrium_files renders it, and the library computes with measure alone.
    """

    a_v: float
    b_v: float
    c_v: float
    measure: AngularMeasure
    potential_coeffs: tuple = field(repr=False)
    cells: int = field(repr=False)
    u: np.ndarray = field(repr=False)

    @cached_property
    def density(self) -> GridMeasure:
        # u is about Newton's (c, r), which equal the measure's to roundoff
        mu = self.measure
        xs = np.linspace(self.a_v, self.b_v, self.cells + 1)
        phi = np.arccos(np.clip((xs - mu.center) / mu.radius, -1.0, 1.0))
        dens = np.sin(np.outer(phi, np.arange(1, self.u.size))) \
            @ self.u[1:] / (2.0 * np.pi)
        return GridMeasure(self.a_v, self.b_v, np.maximum(dens, 0.0))


def _newton_endpoints(V: Potential) -> tuple:
    """Solve u_0(c,r) = 0 and r u_1(c,r)/4 = 1 for the center and radius,
    u_k the Chebyshev coefficients of V' on [c - r, c + r] and s_k those of
    V'' for the Jacobian, both exact to roundoff; Newton stops when the
    residual is at roundoff, NEWTON_TOL relative to sum |u_k|."""
    roots = P.polyroots(V._d1)
    real = np.real(roots[np.abs(np.imag(roots)) < 1e-8])
    c = float(real[np.argmin(V.eval(real))]) if real.size else 0.0
    curv = V.deriv(c, 2)
    r = 2.0 / math.sqrt(curv) if curv > 1e-3 else 1.0

    def residual(c, r):
        u = _cheb_coeffs(V._d1, c, r)
        return u, np.array([u[0], 0.25 * r * u[1] - 1.0])

    u, F = residual(c, r)
    err = np.max(np.abs(F))
    for _ in range(NEWTON_MAX_ITER):
        if err <= NEWTON_TOL * max(1.0, float(np.sum(np.abs(u)))):
            break
        # the Jacobian reads s_0..s_2; a quadratic V'' has s_0 alone
        s = np.append(_cheb_coeffs(V._d2, c, r), [0.0, 0.0])
        J = np.array([
            [s[0], 0.5 * s[1]],
            [0.25 * r * s[1], 0.25 * u[1] + 0.25 * r * (s[0] + 0.5 * s[2])],
        ])
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"endpoint Newton: singular Jacobian at c={c}, r={r}") from exc
        lam = 1.0
        for _ in range(50):
            c2, r2 = c + lam * step[0], r + lam * step[1]
            if r2 > 0.0:
                u2, F2 = residual(c2, r2)
                if np.max(np.abs(F2)) < err or lam < 1e-8:
                    break
            lam *= 0.5
        c, r, u, F = c2, r2, u2, F2
        err = np.max(np.abs(F))
    else:
        raise RuntimeError(
            f"endpoint Newton did not converge: last iterate c={c}, r={r}, "
            f"residual={err}")
    return c, r, u


def solve_equilibrium(V: Potential, n: int = 4096) -> EquilibriumResult:
    """Equilibrium measure of V on its one-cut support [a_V, b_V]; n is the
    cell count of its density grid, which is built on first read."""
    if n < 2:
        raise ValueError(f"density grid needs n >= 2 cells, got {n}")
    c, r, u = _newton_endpoints(V)
    p = V.degree
    # cosine moments <cos k theta> = r (u_{k+1} - u_{k-1}) / 8, k = 1..p,
    # with u_0 entering as exactly 0 (the solved constraint); u has p terms
    uu = np.concatenate([[0.0], u[1:], [0.0, 0.0]])
    mom = np.append(1.0, 0.125 * r * (uu[2:] - uu[:p]))
    a, b = c - r, c + r
    measure = AngularMeasure(0.5 * (a + b), 0.5 * (b - a), mom)
    u.setflags(write=False)
    return EquilibriumResult(
        a_v=a, b_v=b, c_v=measure.energy(V), measure=measure,
        potential_coeffs=V.key(), cells=n, u=u)


_EQ_CACHE: dict = {}


def equilibrium_cached(V: Potential) -> EquilibriumResult:
    key = V.key()
    if key not in _EQ_CACHE:
        _EQ_CACHE[key] = solve_equilibrium(V)
    return _EQ_CACHE[key]


def nu_limit(eq: EquilibriumResult) -> AngularMeasure:
    """nu_V: the equilibrium measure seen from its right edge, on [0, b-a],
    exactly (the reflected angular series of mu_V)."""
    return reflect_shift(eq.measure, eq.b_v)


def effective_potential_tail(eq: EquilibriumResult, V: Potential,
                             x: float) -> float:
    """Right-tail rate J^+(x) = V(x) - 2 U(x) anchored to vanish at b_V."""
    if x < eq.b_v - 1e-12:
        raise ValueError(f"effective potential tail needs x >= b_V = {eq.b_v}")
    x = max(float(x), eq.b_v)
    U = eq.measure.log_potential_exterior
    val = (V.eval(x) - 2.0 * U(x)) - (V.eval(eq.b_v) - 2.0 * U(eq.b_v))
    return max(float(val), 0.0)


# -- constrained problem ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstrainedEquilibriumResult:
    """Minimizer of the energy over probability measures on (-inf, x].

    gap is the soft-edge residual |1 + 2 sum_k (-1)^k mom_k| of the
    minimizer: pi times its angular density at the left edge, which the
    closed form puts at 0.  Nothing iterates, so iterations is 0.
    """

    minimizer: AngularMeasure
    value: float
    gap: float
    iterations: int = 0


def _hard_edge(V: Potential, c: float) -> AngularMeasure:
    """The continuum minimizer of the energy over measures on (-inf, c],
    for a wall c < b_V.

    On [c - 2r, c] write x = m + r cos theta, m = c - r.  The Euler-Lagrange
    equation fixes every cosine moment, <cos k theta> = -k v_k / 4 with v_k
    the Chebyshev coefficients of V.  The left edge is soft:
    phi(pi) = 1 + 2 sum_k (-1)^k <cos k theta> = 0, where
    phi(pi) = 1 + (r / 2 pi) int_0^pi (1 - cos t) V'(c - r (1 - cos t)) dt.
    With V'(c - y) = sum_j d_j y^j and (1/pi) int_0^pi (1 - cos t)^k dt
    = C(2k, k) / 2^k, phi(pi) is a polynomial of degree p in r, equal to 1
    at r = 0; r is its smallest positive root, polished by one Newton step.
    """
    d = _compose(V._d1, c, -1.0)
    j = np.arange(1, d.size + 1)
    binom = np.array([math.comb(2 * i, i) for i in j], dtype=float)
    soft = np.concatenate([[1.0], 0.5 * d * binom / 2.0 ** j])
    roots = P.polyroots(soft)
    pos = roots.real[(np.abs(roots.imag) < 1e-8) & (roots.real > 0.0)]
    if pos.size == 0:
        raise RuntimeError(f"no soft-edge radius for the hard wall at {c}")
    r = float(pos.min())
    r -= P.polyval(r, soft) / P.polyval(r, P.polyder(soft))
    v = _cheb_coeffs(V.coeffs, c - r, r)
    k = np.arange(1, v.size)
    return AngularMeasure(c - r, r, np.append(1.0, -k * v[1:] / 4.0))


def constrained_equilibrium(V: Potential,
                            x: float) -> ConstrainedEquilibriumResult:
    """Minimize E(mu) = -Sigma(mu) + int V dmu over measures on (-inf, x].

    In closed form: mu_V for x >= b_V, where J^-(x) = 0, and the hard-edge
    measure of _hard_edge below it, where J^-(x) = E(minimizer) - c_V.
    Raises RuntimeError when the minimizer's soft-edge residual exceeds
    GAP_TOL, or when its energy falls below c_V.
    """
    eq = equilibrium_cached(V)
    if x >= eq.b_v:
        minimizer, value = eq.measure, 0.0
    else:
        minimizer = _hard_edge(V, x)
        value = minimizer.energy(V) - eq.c_v
    mom = minimizer.cos_moments
    gap = abs(1.0 + 2.0 * float(mom[1:] @ (-1.0) ** np.arange(1, mom.size)))
    if gap > GAP_TOL:
        raise RuntimeError(
            f"J^-({x}): soft-edge residual {gap} of the hard-wall minimizer")
    if value < -1e-6:
        raise RuntimeError(
            f"constrained minimum below unconstrained: {value}")
    return ConstrainedEquilibriumResult(
        minimizer=minimizer, value=max(value, 0.0), gap=gap)


# -- serialization ------------------------------------------------------------

def equilibrium_files(eq: EquilibriumResult) -> dict:
    """The endpoints and constants as JSON and the density grid as CSV (the
    format of save_measure), file name -> text."""
    obj = {
        "a_v": float(eq.a_v), "b_v": float(eq.b_v),
        "c_v": float(eq.c_v), "sigma": float(eq.measure.sigma),
        "potential_coeffs": list(eq.potential_coeffs),
        "cos_moments": [float(m) for m in eq.measure.cos_moments],
    }
    grid = eq.density
    return {f"{EQUILIBRIUM_STEM}.json": json.dumps(obj, indent=2) + "\n",
            f"{EQUILIBRIUM_STEM}_density.csv": csv_text(
                "position,density", zip(grid.nodes, grid.values))}
