"""Equilibrium measures and the variational problems behind the tail rates.

solve_equilibrium computes the one-cut equilibrium measure of a convex
polynomial potential: the support endpoints solve two moment conditions
(Newton on Gauss-Chebyshev quadrature), and the density comes out as
sqrt((x-a)(b-x)) times a polynomial read off the Chebyshev coefficients of
V'.  mu_V and the hard-edge measure below a wall are both AngularMeasures,
whose log-energy Sigma, energy -Sigma + int V (c_V for mu_V), CDF and
exterior log-potential are finite series in their cosine moments.

constrained_equilibrium minimizes the discretized energy
E(mu) = -Sigma(mu) + int V dmu over probability measures supported in
[L, x] by an active-set solve of the KKT conditions on the simplex
(a bordered linear system on the support per round, duality-gap
certificate), started from the support of the continuum minimizer: mu_V
itself, or for x < b_V the closed-form hard-edge measure with a soft left
edge and a hard wall at x.  The reported value J^-(x)
is the difference between the constrained and the unconstrained minima
on the same grid, which makes nonnegativity, monotonicity in x, and
J^-(x) = 0 for x >= b_V structural rather than numerical accidents.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from ._fsio import write_text_atomic
from .measures import GridMeasure, _readonly, load_measure, \
    log_kernel_mass_form, reflect_shift, save_measure
from .potential import Potential

__all__ = [
    "AngularMeasure", "EquilibriumResult", "ConstrainedEquilibriumResult",
    "solve_equilibrium", "equilibrium_cached", "nu_limit",
    "constrained_equilibrium", "effective_potential_tail",
    "equilibrium_integral",
    "save_equilibrium", "load_equilibrium",
]

CHEB_NODES = 512
INTEGRAL_NODES = 2048    # angular midpoint nodes of equilibrium_integral
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
GAP_TOL = 1e-8
ACTIVE_SET_MAX_ROUNDS = 50
EQUILIBRIUM_STEM = "equilibrium"   # file names written by save_equilibrium


def _cheb_project(g, c: float, r: float, kmax: int,
                  nodes: int = CHEB_NODES) -> np.ndarray:
    """Chebyshev coefficients u_0..u_kmax of theta -> g(c + r cos theta).

    Midpoint Gauss-Chebyshev quadrature; exact to roundoff for polynomial
    integrands of the degrees that occur here.
    """
    theta = (np.arange(nodes) + 0.5) * (np.pi / nodes)
    vals = g(c + r * np.cos(theta))
    ks = np.arange(kmax + 1)
    proj = np.cos(np.outer(ks, theta)) @ vals * (2.0 / nodes)
    proj[0] *= 0.5
    return proj


def _angular_series(cheb_u: np.ndarray, theta) -> np.ndarray:
    """sum_{k>=1} u_k sin(k theta): 2 pi times the density of mu_V at
    center + radius cos theta."""
    ks = np.arange(1, cheb_u.size)
    return np.sin(np.outer(theta, ks)) @ cheb_u[1:]


@dataclass(frozen=True, eq=False)
class AngularMeasure:
    """Probability measure on [center - radius, center + radius] with
    angular density (1 + 2 sum_k mom_k cos k theta) / pi in
    x = center + radius cos theta.

    cos_moments[k] = mom_k = int cos(k theta) dmu, with mom_0 = 1.
    """

    center: float
    radius: float
    cos_moments: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cos_moments", _readonly(self.cos_moments))

    @property
    def sigma(self) -> float:
        """Sigma(mu) = ln(radius / 2) - 2 sum_k mom_k^2 / k."""
        mom = self.cos_moments
        return math.log(0.5 * self.radius) - 2.0 * sum(
            mom[k] ** 2 / k for k in range(1, mom.size))

    def energy(self, V: Potential) -> float:
        """-Sigma(mu) + int V dmu, int V = sum_k v_k mom_k with v_k the
        Chebyshev coefficients of V on the support."""
        v = _cheb_project(V.eval, self.center, self.radius,
                          self.cos_moments.size - 1)
        return -self.sigma + float(v @ self.cos_moments)

    def cdf(self, x) -> np.ndarray:
        """mu((-inf, x]) = 1 - (alpha + 2 sum_k mom_k sin(k alpha) / k) / pi,
        alpha = arccos((x - center) / radius)."""
        x = np.asarray(x, dtype=float)
        alpha = np.arccos(np.clip((x - self.center) / self.radius, -1.0, 1.0))
        k = np.arange(1, self.cos_moments.size)
        tail = alpha + 2.0 * _angular_series(
            np.append(0.0, self.cos_moments[1:] / k), alpha)
        return 1.0 - tail / np.pi

    def log_potential_exterior(self, x):
        """U(x) = int ln|x - y| dmu(y) for x outside the support.

        Finite series in the cosine moments through the conformal variable
        w = |z| + sqrt(z^2 - 1), z = (x - center)/radius; no quadrature.
        """
        x = np.asarray(x, dtype=float)
        z = (x - self.center) / self.radius
        az = np.abs(z)
        if np.any(az < 1.0 - 1e-9):
            raise ValueError("log_potential_exterior needs x outside the support")
        az = np.maximum(az, 1.0)
        w = az + np.sqrt(az * az - 1.0)
        out = np.log(0.5 * self.radius * w)
        sgn = np.where(z < 0.0, -1.0, 1.0)
        fac = np.ones_like(w)
        for m in range(1, self.cos_moments.size):
            fac = fac * sgn / w
            out -= 2.0 * self.cos_moments[m] * fac / m
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """One-cut equilibrium measure with its derived scalars.

    measure is mu_V, centred at 0.5 (a_v + b_v): c_v = measure.energy(V).
    cheb_u holds the Chebyshev coefficients of V' on the support, the
    series of the density grid and of equilibrium_integral's weights.
    """

    a_v: float
    b_v: float
    density: GridMeasure
    c_v: float
    measure: AngularMeasure
    cheb_u: np.ndarray = field(repr=False)
    potential_coeffs: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cheb_u", _readonly(self.cheb_u))


def _newton_endpoints(V: Potential) -> tuple:
    """Solve u_0(c,r) = 0 and r u_1(c,r)/4 = 1 for the center and radius."""
    d1 = V._d1
    roots = P.polyroots(d1)
    real = np.real(roots[np.abs(np.imag(roots)) < 1e-8])
    c = float(real[np.argmin(V.eval(real))]) if real.size else 0.0
    curv = V.deriv(c, 2)
    r = 2.0 / math.sqrt(curv) if curv > 1e-3 else 1.0
    kmax = max(V.degree, 2)

    def residual(c, r):
        u = _cheb_project(V.deriv, c, r, kmax)
        return u, np.array([u[0], 0.25 * r * u[1] - 1.0])

    u, F = residual(c, r)
    err = np.max(np.abs(F))
    for _ in range(NEWTON_MAX_ITER):
        if err <= NEWTON_TOL * max(1.0, float(np.sum(np.abs(u)))):
            break
        s = _cheb_project(lambda x: V.deriv(x, 2), c, r, kmax)
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
    """Equilibrium measure of V on its one-cut support [a_V, b_V]."""
    c, r, u = _newton_endpoints(V)
    p = V.degree
    # cosine moments <cos k theta>: finite ladder in the u_k, with u_0
    # entering as exactly 0 (the solved constraint)
    uu = np.zeros(p + 3)
    uu[1:min(u.size, p + 2)] = u[1:min(u.size, p + 2)]
    mom = np.zeros(p + 1)
    mom[0] = 1.0
    for k in range(1, p + 1):
        mom[k] = 0.125 * r * (uu[k + 1] - uu[k - 1])   # uu[0] == 0 by design
    a, b = c - r, c + r
    measure = AngularMeasure(0.5 * (a + b), 0.5 * (b - a), mom)
    # the density grid keeps Newton's (c, r): they fix its CSV digits
    xs = np.linspace(a, b, n + 1)
    phi = np.arccos(np.clip((xs - c) / r, -1.0, 1.0))
    dens = _angular_series(u, phi) / (2.0 * np.pi)
    density = GridMeasure(a, b, np.maximum(dens, 0.0))
    return EquilibriumResult(
        a_v=a, b_v=b, density=density, c_v=measure.energy(V),
        measure=measure, cheb_u=u, potential_coeffs=V.key())


_EQ_CACHE: dict = {}


def equilibrium_cached(V: Potential, n: int = 4096) -> EquilibriumResult:
    key = (V.key(), n)
    if key not in _EQ_CACHE:
        _EQ_CACHE[key] = solve_equilibrium(V, n)
    return _EQ_CACHE[key]


def nu_limit(eq: EquilibriumResult) -> GridMeasure:
    """nu_V: the equilibrium measure seen from its right edge, on [0, b-a]."""
    return reflect_shift(eq.density, eq.b_v)


def equilibrium_integral(eq: EquilibriumResult, f) -> float:
    """int f dmu_V as a self-normalized midpoint rule in the angular variable.

    Dividing by the rule's own mass makes the integral of a constant exact,
    so mass cancellations downstream are exact too.
    """
    theta = (np.arange(INTEGRAL_NODES) + 0.5) * (np.pi / INTEGRAL_NODES)
    w = _angular_series(eq.cheb_u, theta) * np.sin(theta)
    x = eq.measure.center + eq.measure.radius * np.cos(theta)
    fw = np.dot(np.asarray(f(x), dtype=float), w)
    return float(fw / np.dot(np.ones_like(w), w))


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
    """Minimizer of the energy over probability measures on [L, x], the
    support interval of `minimizer`."""

    minimizer: GridMeasure
    value: float
    gap: float
    iterations: int


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
    at r = 0; r is its smallest positive root.
    """
    d = P.Polynomial(V._d1)(P.Polynomial([c, -1.0])).coef
    j = np.arange(1, d.size + 1)
    binom = np.array([math.comb(2 * i, i) for i in j], dtype=float)
    roots = P.polyroots(np.concatenate([[1.0], 0.5 * d * binom / 2.0 ** j]))
    pos = roots.real[(np.abs(roots.imag) < 1e-8) & (roots.real > 0.0)]
    if pos.size == 0:
        raise RuntimeError(f"no soft-edge radius for the hard wall at {c}")
    r = float(pos.min())
    v = _cheb_project(V.eval, c - r, r, V.degree)
    k = np.arange(1, v.size)
    return AngularMeasure(c - r, r, np.append(1.0, -k * v[1:] / 4.0))


def _seed_masses(V: Potential, eq: EquilibriumResult, nodes: np.ndarray,
                 cutoff: float) -> np.ndarray:
    """Node masses of the continuum energy minimizer on (-inf, cutoff]:
    mu_V for cutoff >= b_V, the hard-edge measure below it.  Node x_i gets
    the exact mass of [x_i - h/2, x_i + h/2] from the measure's CDF.
    """
    measure = eq.measure if cutoff >= eq.b_v else _hard_edge(V, cutoff)
    h = nodes[1] - nodes[0]
    edges = np.append(nodes - 0.5 * h, nodes[-1] + 0.5 * h)
    w = np.maximum(np.diff(measure.cdf(edges)), 0.0)
    return w / w.sum()


def _simplex_minimize(G, lin, w0):
    """Minimize f(w) = -w G w + lin.w over the probability simplex, starting
    from the support of w0.

    Active-set solve of the KKT conditions.  On the support S the gradient
    -(G + G.T) w + lin equals the multiplier lam of sum(w) = 1, and off it
    it is at least lam.  A round solves the bordered system
    [[-(G_SS + G_SS.T), -1], [1, 0]] [w_S; lam] = [-lin_S; 1]; nodes with
    w_S <= 0 leave S, and once w_S > 0, nodes with g < lam join it.
    Sigma is negative definite on signed measures of mass zero, so
    -(G_SS + G_SS.T) is positive definite on sum-zero vectors and every
    such system is regular.  Started from the support of the continuum
    minimizer, the solve meets the GAP_TOL duality-gap certificate
    g.w - min g, g = -2 G w + lin, in one to three rounds.

    Only the support block of G is gathered; no symmetrized copy of all of
    G is made.  Returns (w, value, gap, rounds) of the last feasible round.
    The gap exceeds GAP_TOL at the round cap; a singular system, or no
    feasible round, leaves it inf, with w0 and a nan value.
    """
    w = w0.astype(float)
    S = np.flatnonzero(w > 0.0)
    value, gap = math.nan, math.inf
    for rounds in range(1, ACTIVE_SET_MAX_ROUNDS + 1):
        k = S.size
        block = G[np.ix_(S, S)]
        kkt = np.empty((k + 1, k + 1))
        np.add(block, block.T, out=kkt[:k, :k])
        np.negative(kkt[:k, :k], out=kkt[:k, :k])
        kkt[:k, k] = -1.0
        kkt[k, :k] = 1.0
        kkt[k, k] = 0.0
        try:
            sol = np.linalg.solve(kkt, np.append(-lin[S], 1.0))
        except np.linalg.LinAlgError:
            break
        w_S, lam = sol[:k], sol[k]
        if np.any(w_S <= 0.0):
            S = S[w_S > 0.0]
            continue
        w = np.zeros_like(lin)
        w[S] = w_S
        Gw = G @ w
        value = float(-w @ Gw + lin @ w)
        g = -2.0 * Gw + lin
        gap = float(g @ w - g.min())
        if gap <= GAP_TOL:
            break
        S = np.union1d(S, np.flatnonzero(g < lam))
    return w, value, gap, rounds


_HARD_WALL_CACHE: dict = {}


def constrained_equilibrium(V: Potential, x: float,
                            n: int = 2048) -> ConstrainedEquilibriumResult:
    """Minimize E(mu) = -Sigma(mu) + int V dmu over measures on [L, x].

    The grid spans [L, max(x, b_V + margin)] with x exactly on a node; the
    constrained and unconstrained problems share the same kernel, and
    J^-(x) is the difference of their minima, so the discretization bias
    of the log-kernel cancels and the anchor J^-(x >= b_V) = 0 is exact.
    Walls at or left of a_V - (b_V - a_V) are refused: right of it the grid
    has at most 3.25 n cells and holds the continuum minimizer's support.

    One solve per (V, x, n) and process: the result is memoised.  Raises
    RuntimeError, memoising nothing, when either active-set solve stops
    without its duality-gap certificate (a singular system or the round
    cap); `iterations` counts the rounds of both solves.
    """
    key = (V.key(), float(x), n)
    if key in _HARD_WALL_CACHE:
        return _HARD_WALL_CACHE[key]
    eq = equilibrium_cached(V)
    a, b = eq.a_v, eq.b_v
    width = b - a
    L = a - 2.0 * width
    if x <= L + width:
        raise ValueError(
            f"cutoff {x} is at or left of the window edge {L + width}")
    h = (x - L) / n
    n_extra = 0 if x >= b else int(math.ceil((b + 0.25 * width - x) / h))
    cells = n + n_extra
    nodes, tw, G = log_kernel_mass_form(L, L + cells * h, cells)
    lin = V.eval(nodes)

    m = n + 1       # nodes of [L, x]
    w_c, val_c, gap, it = _simplex_minimize(
        G[:m, :m], lin[:m], w0=_seed_masses(V, eq, nodes[:m], x))
    val_u = val_c
    if n_extra:     # the unconstrained problem, on the whole grid
        _, val_u, gap_u, it_u = _simplex_minimize(
            G, lin, w0=_seed_masses(V, eq, nodes, nodes[-1]))
        gap, it = max(gap, gap_u), it + it_u
    if gap > GAP_TOL:
        raise RuntimeError(
            f"J^-({x}) on {n} cells: the active-set solve did not converge, "
            f"gap {gap} after {it} iterations")
    value = val_c - val_u
    if value < -1e-6:
        raise RuntimeError(
            f"constrained minimum below unconstrained: {value}")

    res = _HARD_WALL_CACHE[key] = ConstrainedEquilibriumResult(
        minimizer=GridMeasure(L, x, w_c / tw[:m]),
        value=float(max(value, 0.0)), gap=float(gap), iterations=int(it))
    return res


# -- serialization ------------------------------------------------------------

def save_equilibrium(eq: EquilibriumResult, directory: str) -> dict:
    """Write endpoints/constants JSON plus the density CSV; returns paths."""
    os.makedirs(directory, exist_ok=True)
    jpath = os.path.join(directory, f"{EQUILIBRIUM_STEM}.json")
    cpath = os.path.join(directory, f"{EQUILIBRIUM_STEM}_density.csv")
    obj = {
        "a_v": float(eq.a_v), "b_v": float(eq.b_v),
        "c_v": float(eq.c_v), "sigma": float(eq.measure.sigma),
        "potential_coeffs": list(eq.potential_coeffs),
        "cheb_u": [float(u) for u in eq.cheb_u],
        "cos_moments": [float(m) for m in eq.measure.cos_moments],
    }
    write_text_atomic(jpath, json.dumps(obj, indent=2) + "\n")
    save_measure(eq.density, cpath)
    return {"json": jpath, "density": cpath}


def load_equilibrium(directory: str) -> EquilibriumResult:
    with open(os.path.join(directory, f"{EQUILIBRIUM_STEM}.json")) as fh:
        obj = json.load(fh)
    density = load_measure(
        os.path.join(directory, f"{EQUILIBRIUM_STEM}_density.csv"))
    a, b = obj["a_v"], obj["b_v"]
    return EquilibriumResult(
        a_v=a, b_v=b, density=density, c_v=obj["c_v"],
        measure=AngularMeasure(0.5 * (a + b), 0.5 * (b - a),
                               obj["cos_moments"]),
        cheb_u=np.asarray(obj["cheb_u"]),
        potential_coeffs=tuple(obj["potential_coeffs"]))
