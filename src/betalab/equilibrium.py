"""Equilibrium measures and the variational problems behind the tail rates.

solve_equilibrium computes the one-cut equilibrium measure of a convex
polynomial potential: the support endpoints solve two moment conditions
(Newton on Gauss-Chebyshev quadrature), the density comes out as
sqrt((x-a)(b-x)) times a polynomial read off the Chebyshev coefficients of
V', and the log-energy sigma, the constant c_V, and the exterior
log-potential all have finite closed series in the same coefficients.

constrained_equilibrium minimizes the discretized energy
E(mu) = -Sigma(mu) + int V dmu over probability measures supported in
[L, x] by Frank-Wolfe on the simplex (pairwise steps, exact line search,
periodic fully corrective refinement, duality-gap certificate).  The
reported value J^-(x) is the difference between the constrained and the
unconstrained minima on the same grid, which makes nonnegativity,
monotonicity in x, and J^-(x) = 0 for x >= b_V structural rather than
numerical accidents.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from ._fsio import write_text_atomic
from .measures import GridMeasure, load_measure, log_kernel_mass_form, \
    reflect_shift, save_measure
from .potential import Potential

__all__ = [
    "EquilibriumResult", "ConstrainedEquilibriumResult",
    "solve_equilibrium", "equilibrium_cached", "nu_limit",
    "constrained_equilibrium", "effective_potential_tail",
    "equilibrium_integral",
    "save_equilibrium", "load_equilibrium",
]

CHEB_NODES = 512
NEWTON_TOL = 1e-12


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
class EquilibriumResult:
    """One-cut equilibrium measure with its derived scalars.

    cheb_u holds the Chebyshev coefficients of V'(center + radius cos theta);
    cos_moments[k] = int cos(k theta) dmu in the angular variable, the
    currency in which sigma, c_V and the exterior log-potential are exact
    finite series.
    """

    a_v: float
    b_v: float
    density: GridMeasure
    c_v: float
    sigma: float
    cheb_u: np.ndarray = field(repr=False)
    cos_moments: np.ndarray = field(repr=False)
    potential_coeffs: tuple = field(repr=False)

    def __post_init__(self):
        for name in ("cheb_u", "cos_moments"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def center(self) -> float:
        return 0.5 * (self.a_v + self.b_v)

    @property
    def radius(self) -> float:
        return 0.5 * (self.b_v - self.a_v)

    def log_potential_exterior(self, x):
        """U(x) = int ln|x - y| dmu(y) for x outside (a_v, b_v).

        Finite series in the cosine moments through the conformal variable
        w = |z| + sqrt(z^2 - 1), z = (x - center)/radius; exact up to the
        solver tolerance, no quadrature.
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


def _newton_endpoints(V: Potential, tol: float, max_iter: int) -> tuple:
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
    for _ in range(max_iter):
        if err <= tol * max(1.0, float(np.sum(np.abs(u)))):
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


def solve_equilibrium(V: Potential, n: int = 4096,
                      tol: float = NEWTON_TOL,
                      max_iter: int = 200) -> EquilibriumResult:
    """Equilibrium measure of V on its one-cut support [a_V, b_V]."""
    c, r, u = _newton_endpoints(V, tol, max_iter)
    p = V.degree
    # cosine moments <cos k theta>: finite ladder in the u_k, with u_0
    # entering as exactly 0 (the solved constraint)
    uu = np.zeros(p + 3)
    uu[1:min(u.size, p + 2)] = u[1:min(u.size, p + 2)]
    mom = np.zeros(p + 1)
    mom[0] = 1.0
    for k in range(1, p + 1):
        mom[k] = 0.125 * r * (uu[k + 1] - uu[k - 1])   # uu[0] == 0 by design
    sigma = math.log(0.5 * r) - 2.0 * sum(
        mom[k] ** 2 / k for k in range(1, p + 1))
    v = _cheb_project(V.eval, c, r, p)
    int_v = float(v @ mom[:v.size])
    c_v = -sigma + int_v

    xs = np.linspace(c - r, c + r, n + 1)
    phi = np.arccos(np.clip((xs - c) / r, -1.0, 1.0))
    dens = _angular_series(u, phi) / (2.0 * np.pi)
    density = GridMeasure(c - r, c + r, np.maximum(dens, 0.0))
    return EquilibriumResult(
        a_v=c - r, b_v=c + r, density=density, c_v=c_v, sigma=sigma,
        cheb_u=u, cos_moments=mom, potential_coeffs=V.key())


_EQ_CACHE: dict = {}


def equilibrium_cached(V: Potential, n: int = 4096) -> EquilibriumResult:
    key = (V.key(), n)
    if key not in _EQ_CACHE:
        _EQ_CACHE[key] = solve_equilibrium(V, n)
    return _EQ_CACHE[key]


def nu_limit(eq: EquilibriumResult) -> GridMeasure:
    """nu_V: the equilibrium measure seen from its right edge, on [0, b-a]."""
    return reflect_shift(eq.density, eq.b_v)


def equilibrium_integral(eq: EquilibriumResult, f, nodes: int = 2048) -> float:
    """int f dmu_V as a self-normalized midpoint rule in the angular variable.

    Dividing by the rule's own mass makes the integral of a constant exact,
    so mass cancellations downstream are exact too.
    """
    theta = (np.arange(nodes) + 0.5) * (np.pi / nodes)
    w = _angular_series(eq.cheb_u, theta) * np.sin(theta)
    x = eq.center + eq.radius * np.cos(theta)
    fw = np.dot(np.asarray(f(x), dtype=float), w)
    return float(fw / np.dot(np.ones_like(w), w))


def effective_potential_tail(eq: EquilibriumResult, V: Potential,
                             x: float) -> float:
    """Right-tail rate J^+(x) = V(x) - 2 U(x) anchored to vanish at b_V."""
    if x < eq.b_v - 1e-12:
        raise ValueError(f"effective potential tail needs x >= b_V = {eq.b_v}")
    x = max(float(x), eq.b_v)
    val = (V.eval(x) - 2.0 * eq.log_potential_exterior(x)) \
        - (V.eval(eq.b_v) - 2.0 * eq.log_potential_exterior(eq.b_v))
    return max(float(val), 0.0)


# -- constrained problem ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstrainedEquilibriumResult:
    """Minimizer of the energy over probability measures on [L, cutoff]."""

    cutoff: float
    minimizer: GridMeasure
    value: float
    gap: float
    iterations: int
    converged: bool


def _corrective_step(G, lin, w, f_of):
    """Solve the equality-constrained QP on the current support exactly.

    Classic active-set refinement: stationarity on the support S reads
    2 G_SS v + lam = lin_S with sum v = 1; negative components are driven
    out by the longest feasible move toward v.  Falls back to the incoming
    point if the linear algebra misbehaves or the energy does not improve.
    """
    w = w.copy()
    best = w.copy()
    f_best = f_of(w)
    for _ in range(40):
        S = np.flatnonzero(w > 1e-15)
        if S.size < 2:
            break
        m = S.size
        kkt = np.empty((m + 1, m + 1))
        kkt[:m, :m] = 2.0 * G[np.ix_(S, S)]
        kkt[:m, m] = 1.0
        kkt[m, :m] = 1.0
        kkt[m, m] = 0.0
        rhs = np.concatenate([lin[S], [1.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            break
        v = np.zeros_like(w)
        v[S] = sol[:m]
        if np.min(v[S]) >= 0.0:
            w = v
            break
        d = v - w
        neg = S[v[S] < 0.0]
        t = np.min(w[neg] / (w[neg] - v[neg]))
        w = w + min(max(t, 0.0), 1.0) * d
        np.maximum(w, 0.0, out=w)
        w /= w.sum()
    f_w = f_of(w)
    return (w, f_w) if f_w <= f_best else (best, f_best)


def _fw_minimize(G, lin, gap_tol: float = 1e-8, max_iter: int = 10 ** 5,
                 w0=None, correct_every: int = 512):
    """Minimize f(w) = -w G w + lin.w over the probability simplex.

    Pairwise Frank-Wolfe: the linear minimization oracle puts mass on the
    most negative gradient node, the away node gives it up, the step is the
    exact line-search optimum of the quadratic.  A fully corrective solve
    on the active support every correct_every iterations removes the
    sublinear tail of plain Frank-Wolfe; the duality gap certificate is
    always computed from the exact gradient.
    """
    m = lin.size

    def f_of(w):
        return float(-w @ (G @ w) + lin @ w)

    w = np.full(m, 1.0 / m) if w0 is None else w0.astype(float).copy()
    g = -2.0 * (G @ w) + lin
    gap = math.inf
    it = 0
    while it < max_iter:
        s = int(np.argmin(g))
        gap = float(g @ w - g[s])
        if gap <= gap_tol:
            break
        if it % correct_every == correct_every - 1:
            w, _ = _corrective_step(G, lin, w, f_of)
            g = -2.0 * (G @ w) + lin
            it += 1
            continue
        supp = np.flatnonzero(w > 0.0)
        a = supp[int(np.argmax(g[supp]))]
        if a == s:
            break
        slope = g[s] - g[a]
        d_curv = -(G[s, s] - 2.0 * G[s, a] + G[a, a])
        step_max = w[a]
        if d_curv > 0.0:
            step = min(step_max, -slope / (2.0 * d_curv))
        else:
            step = step_max
        w[s] += step
        w[a] -= step
        if w[a] < 1e-18:
            w[a] = 0.0
        g -= 2.0 * step * (G[:, s] - G[:, a])
        it += 1
        if it % 4096 == 0:
            g = -2.0 * (G @ w) + lin     # kill incremental drift
    return w, f_of(w), gap, it


def constrained_equilibrium(V: Potential, x: float,
                            n: int = 2048) -> ConstrainedEquilibriumResult:
    """Minimize E(mu) = -Sigma(mu) + int V dmu over measures on [L, x].

    The grid spans [L, max(x, b_V + margin)] with x exactly on a node; the
    constrained and unconstrained problems share the same kernel, and
    J^-(x) is the difference of their minima, so the discretization bias
    of the log-kernel cancels and the anchor J^-(x >= b_V) = 0 is exact.
    """
    eq = equilibrium_cached(V)
    a, b = eq.a_v, eq.b_v
    width = b - a
    L = a - 2.0 * width
    if x <= L + 0.02 * width:
        raise ValueError(
            f"cutoff {x} is at or left of the constrained window edge {L}")
    h = (x - L) / n
    n_extra = 0 if x >= b else int(math.ceil((b + 0.25 * width - x) / h))
    cells = n + n_extra
    nodes, tw, G = log_kernel_mass_form(L, L + cells * h, cells)
    lin = V.eval(nodes)

    dens0 = np.zeros(cells + 1)
    inside = (nodes >= a) & (nodes <= b)
    if np.any(inside):
        phi = np.arccos(np.clip((nodes[inside] - eq.center) / eq.radius,
                                -1.0, 1.0))
        dens0[inside] = np.maximum(
            _angular_series(eq.cheb_u, phi), 0.0) / (2.0 * np.pi)
    w_eq = dens0 * tw
    w_eq = w_eq / w_eq.sum() if w_eq.sum() > 0 else np.full(cells + 1,
                                                            1.0 / (cells + 1))

    def warm(mslice):
        w0 = 0.99 * w_eq[:mslice] + 0.01 / mslice
        return w0 / w0.sum()

    if n_extra == 0:
        w, val, gap, it = _fw_minimize(G, lin, w0=warm(cells + 1))
        w_c, val_c, gap_c, it_c = w, val, gap, it
        val_u = val
    else:
        mkeep = n + 1
        w_c, val_c, gap_c, it_c = _fw_minimize(
            G[:mkeep, :mkeep], lin[:mkeep], w0=warm(mkeep))
        w_u, val_u, gap_u, it_u = _fw_minimize(G, lin, w0=warm(cells + 1))
        gap_c = max(gap_c, gap_u)
        it_c = it_c + it_u
    value = val_c - val_u
    if value < -1e-6:
        raise RuntimeError(
            f"constrained minimum below unconstrained: {value}")
    value = max(value, 0.0)

    vals = np.zeros(n + 1)
    np.divide(w_c[:n + 1], tw[:n + 1], out=vals)
    minimizer = GridMeasure(L, x, vals)
    return ConstrainedEquilibriumResult(
        cutoff=float(x), minimizer=minimizer, value=float(value),
        gap=float(gap_c), iterations=int(it_c),
        converged=bool(gap_c <= 1e-8))


# -- serialization ------------------------------------------------------------

def save_equilibrium(eq: EquilibriumResult, directory: str,
                     stem: str = "equilibrium") -> dict:
    """Write endpoints/constants JSON plus the density CSV; returns paths."""
    os.makedirs(directory, exist_ok=True)
    jpath = os.path.join(directory, f"{stem}.json")
    cpath = os.path.join(directory, f"{stem}_density.csv")
    obj = {
        "a_v": float(eq.a_v), "b_v": float(eq.b_v),
        "c_v": float(eq.c_v), "sigma": float(eq.sigma),
        "potential_coeffs": list(eq.potential_coeffs),
        "cheb_u": [float(u) for u in eq.cheb_u],
        "cos_moments": [float(m) for m in eq.cos_moments],
    }
    write_text_atomic(jpath, json.dumps(obj, indent=2) + "\n")
    save_measure(eq.density, cpath)
    return {"json": jpath, "density": cpath}


def load_equilibrium(directory: str, stem: str = "equilibrium"
                     ) -> EquilibriumResult:
    with open(os.path.join(directory, f"{stem}.json")) as fh:
        obj = json.load(fh)
    density = load_measure(os.path.join(directory, f"{stem}_density.csv"))
    return EquilibriumResult(
        a_v=obj["a_v"], b_v=obj["b_v"], density=density,
        c_v=obj["c_v"], sigma=obj["sigma"],
        cheb_u=np.asarray(obj["cheb_u"]),
        cos_moments=np.asarray(obj["cos_moments"]),
        potential_coeffs=tuple(obj["potential_coeffs"]))
