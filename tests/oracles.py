"""Independent reference routes used only by the test suite.

Everything here deliberately avoids the solver paths under test: the
constrained equilibrium is solved through its hard-edge Chebyshev
structure (scalar root-find plus exact finite moment series), the
direct grid minimizations use the dense-mask kernel below and an
accelerated projected-gradient method or pairwise Frank-Wolfe instead of
an active-set KKT solve, the log-potential of a grid density is
integrated cell by cell instead of by a closed-form series, the
Metropolis chain is run site by site with np.delete instead of through
per-sweep arrays, the Jacobi-entry chain
is run one site at a time with a dense tr V(T) per proposal instead of
in colour classes, infima over c are found by golden-section search
instead of at kappa, and Wasserstein distances involving a grid measure
are integrated by the midpoint rule in u instead of in closed form.
Where a test pins a faster src loop bit for bit, the slower
straightforward loop it replaced is kept here: the dense-mask log
kernels.
"""

import math

import numpy as np

from betalab.measures import GridMeasure
from betalab.potential import Potential

# ---------------------------------------------------------------------------
# closed-form fixtures
# ---------------------------------------------------------------------------


def semicircle_grid(n: int = 4096) -> GridMeasure:
    """Semicircle density sqrt(4 - x^2) / (2 pi) on [-2, 2]."""
    x = np.linspace(-2.0, 2.0, n + 1)
    vals = np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * math.pi)
    return GridMeasure(-2.0, 2.0, vals)


def uniform_grid(lo: float, hi: float, n: int = 4096) -> GridMeasure:
    return GridMeasure(lo, hi, np.full(n + 1, 1.0 / (hi - lo)))


# ---------------------------------------------------------------------------
# hard-edge constrained equilibrium (continuum route)
# ---------------------------------------------------------------------------
# On [l, c] write x = m + r cos(theta), m = c - r.  The Euler-Lagrange
# equation forces every cosine moment of the minimizer:
#     <cos k theta> = -k v_k / 4,   k >= 1,
# where v_k are the Chebyshev coefficients of V on [l, c], so the angular
# density phi(theta) = 1 + 2 sum_k <cos k theta> cos(k theta) is a finite
# trigonometric polynomial.  A soft left edge means phi(pi) = 0, one scalar
# equation in r; the wall at c is a hard edge (phi(0) > 0 for c < b_V).
# Then Sigma(mu) = ln(r/2) - 2 sum_k <cos k theta>^2 / k and
# int V dmu = v_0 + sum_k v_k <cos k theta>, both exact finite sums.


def _cheb_v(V: Potential, m: float, r: float, kmax: int,
            nodes: int = 256) -> np.ndarray:
    theta = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    vals = V.eval(m + r * np.cos(theta))
    proj = np.cos(np.outer(np.arange(kmax + 1), theta)) @ vals * (2.0 / nodes)
    proj[0] *= 0.5
    return proj


def _phi_pi(V: Potential, c: float, r: float) -> float:
    v = _cheb_v(V, c - r, r, V.degree)
    k = np.arange(1, v.size)
    return 1.0 - 0.5 * float(np.sum(k * v[1:] * ((-1.0) ** k)))


def hard_edge_equilibrium(V: Potential, c: float) -> dict:
    """Continuum constrained equilibrium on (-inf, c] for convex V.

    Returns endpoints, the cosine moments, Sigma, int V dmu, and the exact
    cumulative-mass function (used to seed grid solvers).
    """
    r_lo, r_hi = 1e-9, 1.0
    while _phi_pi(V, c, r_hi) > 0.0:
        r_hi *= 2.0
        if r_hi > 1e6:
            raise RuntimeError("no soft-edge radius found")
    for _ in range(200):
        r_mid = 0.5 * (r_lo + r_hi)
        if _phi_pi(V, c, r_mid) > 0.0:
            r_lo = r_mid
        else:
            r_hi = r_mid
        if r_hi - r_lo <= 1e-14 * max(1.0, r_hi):
            break
    r = 0.5 * (r_lo + r_hi)
    m = c - r
    v = _cheb_v(V, m, r, V.degree)
    k = np.arange(1, v.size)
    mom = -k * v[1:] / 4.0
    theta_probe = np.linspace(0.0, math.pi, 2001)
    phi = 1.0 + 2.0 * (np.cos(np.outer(theta_probe, k)) @ mom)
    if np.min(phi) < -1e-9:
        raise RuntimeError("hard-edge density went negative")
    sigma = math.log(r / 2.0) - 2.0 * float(np.sum(mom * mom / k))
    int_v = float(v[0] + np.dot(v[1:], mom))

    def mass_below(x):
        """mu((-inf, x]) from the closed-form antiderivative of phi."""
        x = np.asarray(x, dtype=float)
        u = np.clip((x - m) / r, -1.0, 1.0)
        alpha = np.arccos(u)
        tail = (alpha + 2.0 * (np.sin(np.outer(alpha, k)) @ (mom / k))) \
            / math.pi
        return 1.0 - tail

    return {"l": m - r, "c": c, "r": r, "moments": mom, "sigma": sigma,
            "int_v": int_v, "mass_below": mass_below}


def constrained_value_continuum(V: Potential, c: float, c_v: float) -> float:
    """J_V^-(c) from the hard-edge solve: -Sigma + int V dmu - c_V."""
    sol = hard_edge_equilibrium(V, c)
    return -sol["sigma"] + sol["int_v"] - c_v


# ---------------------------------------------------------------------------
# accelerated projected gradient on the simplex (direct grid route)
# ---------------------------------------------------------------------------


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort method)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0.0
    rho = idx[cond][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def fista_simplex_min(G: np.ndarray, lin: np.ndarray, w0: np.ndarray,
                      gap_tol: float = 1e-6, max_iter: int = 30000):
    """Minimize f(w) = -w^T G w + lin . w over the simplex by FISTA.

    Monotone restart; the Frank-Wolfe gap max-coordinate certificate bounds
    f(w) - f* from above and is returned with the iterate.
    """
    def fval(w):
        return float(-w @ (G @ w) + lin @ w)

    def grad(w):
        return -2.0 * (G @ w) + lin

    # Lipschitz constant from the spectral norm of G (power iteration)
    z = np.random.default_rng(7).standard_normal(G.shape[0])
    z /= np.linalg.norm(z)
    for _ in range(60):
        z = G @ z
        z /= np.linalg.norm(z)
    step = 1.0 / (2.0 * float(abs(z @ (G @ z))))

    w = simplex_project(np.asarray(w0, dtype=float))
    y, t = w.copy(), 1.0
    f_prev = fval(w)
    gap = math.inf
    for it in range(max_iter):
        g = grad(y)
        w_new = simplex_project(y - step * g)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = w_new + ((t - 1.0) / t_new) * (w_new - w)
        w, t = w_new, t_new
        if (it + 1) % 50 == 0:
            f_cur = fval(w)
            if f_cur > f_prev:            # monotone restart
                y, t = w.copy(), 1.0
            f_prev = f_cur
            gw = grad(w)
            gap = float(gw @ w - np.min(gw))
            if gap <= gap_tol:
                break
    return w, fval(w), gap


def direct_calI_min(V: Potential, eq, c: float, n: int = 2048,
                    gap_tol: float = 1e-6) -> dict:
    """Direct minimization of calI_V(c, .) over grid measures on [0, c - L].

    Works in the reflected coordinate s = c - x on the same grid spacing the
    package's constrained solver uses, but optimizes with FISTA seeded from
    the continuum hard-edge masses.  Returns the grid minimum of
    -Sigma(nu) + int V(c - s) dnu(s) - c_V and the continuum value.
    """
    L = eq.a_v - 2.0 * (eq.b_v - eq.a_v)
    S = c - L
    nodes, tw, G = log_kernel_mass_form_reference(0.0, S, n)
    lin = V.eval(c - nodes)
    sol = hard_edge_equilibrium(V, c)
    cdf = sol["mass_below"](c - nodes)           # decreasing in s
    masses = np.maximum(cdf[:-1] - cdf[1:], 0.0)
    w0 = np.zeros(n + 1)
    w0[:-1] += 0.5 * masses
    w0[1:] += 0.5 * masses
    w0 = simplex_project(w0)
    w, fmin, gap = fista_simplex_min(G, lin, w0, gap_tol=gap_tol)
    return {
        "value_grid": fmin - eq.c_v,
        "value_continuum": -sol["sigma"] + sol["int_v"] - eq.c_v,
        "gap": gap,
        "minimizer_mass": w,
        "nodes": nodes,
    }


def direct_energy_min(V: Potential, lo: float, hi: float, n: int = 512,
                      gap_tol: float = 5e-7) -> GridMeasure:
    """Brute-force grid minimizer of -Sigma(mu) + int V dmu from a uniform
    start; independent of the Chebyshev equilibrium solve."""
    nodes, tw, G = log_kernel_mass_form_reference(lo, hi, n)
    lin = V.eval(nodes)
    w0 = np.full(n + 1, 1.0 / (n + 1))
    w, _, _ = fista_simplex_min(G, lin, w0, gap_tol=gap_tol,
                                max_iter=60000)
    vals = w / tw
    return GridMeasure(lo, hi, vals)


# ---------------------------------------------------------------------------
# golden-section search (infima over c without kappa)
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min_reference(fun, lo: float, hi: float,
                         resolution: float) -> tuple:
    """(argmin, min) of a scalar unimodal function on [lo, hi] by
    golden-section search, stopping at bracket width `resolution`."""
    a, b = lo, hi
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = fun(c1), fun(c2)
    while b - a > resolution:
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = fun(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = fun(c2)
    xm = 0.5 * (a + b)
    return xm, fun(xm)


# ---------------------------------------------------------------------------
# Wasserstein distances by midpoint quadrature in u
# ---------------------------------------------------------------------------

def wasserstein_quadrature_reference(mu, nu, p: float = 1.0,
                                     points: int = 1 << 17) -> float:
    """(int_0^1 |F_mu^{-1} - F_nu^{-1}|^p du)^{1/p} by the midpoint rule at
    `points` nodes, for any pair of measures and any p >= 1.  The nodes
    are taken in blocks, so 2^22 of them need no 2^22-float temporaries."""
    block = 1 << 16
    total = 0.0
    for start in range(0, points, block):
        u = (np.arange(start, min(start + block, points)) + 0.5) / points
        total += float(np.sum(np.abs(mu.quantile(u) - nu.quantile(u)) ** p))
    return (total / points) ** (1.0 / p)


# ---------------------------------------------------------------------------
# dense-mask log kernels (an n x n index mask zeroes the near-field pairs)
# ---------------------------------------------------------------------------
# Cell pairs that share a node are integrated exactly against the
# piecewise-linear density: _T_SAME for a cell with itself, _A_ADJ for
# neighbouring cells; every other pair uses the midpoint kernel ln|x - y|.

_LN2 = math.log(2.0)
_T_SAME = ((-7.0 / 16.0, -5.0 / 16.0), (-5.0 / 16.0, -7.0 / 16.0))
_A_ADJ = ((2.0 * _LN2 / 3.0 - 23.0 / 48.0, 1.0 / 16.0),
          (2.0 * _LN2 / 3.0 - 29.0 / 48.0, 2.0 * _LN2 / 3.0 - 23.0 / 48.0))


def _near_terms_reference(vals: np.ndarray, h: float) -> float:
    lnh = math.log(h)
    v0, v1 = vals[:-1], vals[1:]
    same = (_T_SAME[0][0] * (v0 * v0 + v1 * v1)
            + 2.0 * _T_SAME[0][1] * v0 * v1
            + lnh * 0.25 * (v0 + v1) ** 2)
    out = float(np.sum(same))
    a0, a1, b1 = vals[:-2], vals[1:-1], vals[2:]
    adj = (_A_ADJ[0][0] * a0 * a1 + _A_ADJ[0][1] * a0 * b1
           + _A_ADJ[1][0] * a1 * a1 + _A_ADJ[1][1] * a1 * b1
           + lnh * 0.25 * (a0 + a1) * (a1 + b1))
    out += 2.0 * float(np.sum(adj))
    return out * h * h


def log_energy_grid_reference(mu: GridMeasure) -> float:
    """Sigma(mu) for a grid density, far field in blocks of 1024 rows."""
    vals, h, n = mu.values, mu.h, mu.n
    mids = mu.lo + h * (np.arange(n) + 0.5)
    cmass = 0.5 * h * (vals[:-1] + vals[1:])
    total = _near_terms_reference(vals, h)
    block = 1024
    idx = np.arange(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d = np.abs(mids[start:stop, None] - mids[None, :])
        with np.errstate(divide="ignore"):
            lk = np.log(d)
        near = np.abs(idx[start:stop, None] - idx[None, :]) <= 1
        lk[near] = 0.0
        total += float(cmass[start:stop] @ lk @ cmass)
    return total


def log_kernel_mass_form_reference(lo: float, hi: float, n: int):
    """(nodes, tw, g) with Sigma(mu) ~= w^T g w in node-mass coordinates."""
    h = (hi - lo) / n
    nodes = lo + h * np.arange(n + 1)
    mids = lo + h * (np.arange(n) + 0.5)
    with np.errstate(divide="ignore"):
        lk = np.log(np.abs(mids[:, None] - mids[None, :]))
    idx = np.arange(n)
    near = np.abs(idx[:, None] - idx[None, :]) <= 1
    lk[near] = 0.0
    g = np.zeros((n + 1, n + 1))
    q = 0.25 * h * h * lk
    g[:-1, :-1] += q
    g[:-1, 1:] += q
    g[1:, :-1] += q
    g[1:, 1:] += q
    lnh = math.log(h)
    hh = h * h
    s00 = hh * (_T_SAME[0][0] + 0.25 * lnh)
    s01 = hh * (_T_SAME[0][1] + 0.25 * lnh)
    a = [[hh * (_A_ADJ[i][j] + 0.25 * lnh) for j in range(2)] for i in range(2)]
    di = np.arange(n + 1)
    dg = np.zeros(n + 1)
    dg[:-1] += s00
    dg[1:] += s00
    dg[1:-1] += 2.0 * a[1][0]
    g[di, di] += dg
    off = np.full(n, s01)
    off[:-1] += a[0][0]
    off[1:] += a[1][1]
    g[di[:-1], di[:-1] + 1] += off
    g[di[:-1] + 1, di[:-1]] += off
    off2 = np.full(n - 1, a[0][1])
    g[di[:-2], di[:-2] + 2] += off2
    g[di[:-2] + 2, di[:-2]] += off2
    tw = np.full(n + 1, h)
    tw[0] = tw[-1] = 0.5 * h
    inv = 1.0 / tw
    g *= inv[:, None]
    g *= inv[None, :]
    return nodes, tw, g


# ---------------------------------------------------------------------------
# log-potential of a grid density (Euler-Lagrange flatness checks)
# ---------------------------------------------------------------------------


def log_potential_grid(mu: GridMeasure, xs) -> np.ndarray:
    """U(x) = int ln|x-y| dmu(y), exact per cell for the PL density.

    Safe on and off the support, including at the logarithmic singularity;
    independent of the closed-form exterior series of AngularMeasure.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    y = mu.nodes
    v0, v1 = mu.values[:-1], mu.values[1:]
    h = mu.h
    out = np.empty(xs.size)
    block = 256

    def p0(s):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = s * (np.log(np.abs(s)) - 1.0)
        return np.where(s == 0.0, 0.0, r)

    def p1(s):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = s * s * (0.5 * np.log(np.abs(s)) - 0.25)
        return np.where(s == 0.0, 0.0, r)

    for start in range(0, xs.size, block):
        xb = xs[start:start + block, None]
        s0 = y[None, :-1] - xb
        s1 = y[None, 1:] - xb
        d0 = p0(s1) - p0(s0)
        d1 = p1(s1) - p1(s0)
        beta = (v1 - v0)[None, :] / h
        cell = (v0[None, :] - beta * s0) * d0 + beta * d1
        out[start:start + block] = np.sum(cell, axis=1)
    return out


# ---------------------------------------------------------------------------
# pairwise Frank-Wolfe on the grid simplex: its gap bounds the suboptimality
# of its value, so it brackets the minimum the active-set solve reaches
# ---------------------------------------------------------------------------


def pairwise_fw_reference(G: np.ndarray, lin: np.ndarray, w0: np.ndarray,
                          gap_tol: float = 1e-8, max_iter: int = 10 ** 5):
    """Minimize -w G w + lin.w over the simplex from w0 by pairwise
    Frank-Wolfe with exact line search: (w, value, gap, iterations).

    The toward node is argmin g, the away node the argmax of g over
    flatnonzero(w > 0); the gradient moves by the columns G[:, s] and
    G[:, a] and is recomputed from G @ w every 4096 steps.
    """
    w = w0.astype(float)
    g = -2.0 * (G @ w) + lin
    gap = math.inf
    it = 0
    while it < max_iter:
        s = int(np.argmin(g))
        gap = float(g @ w - g[s])
        if gap <= gap_tol:
            break
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
            g = -2.0 * (G @ w) + lin
    return w, float(-w @ (G @ w) + lin @ w), gap, it


# ---------------------------------------------------------------------------
# per-site Metropolis chain (one np.delete and two V evaluations per site)
# ---------------------------------------------------------------------------


def metropolis_chain_reference(V: Potential, beta: float, n: int, seed: int,
                               replicas) -> tuple:
    """A Metropolis chain on the eigenvalues of the log-gas, one site at a
    time: sorted eigenvalues (R, n) and acceptance rates (R,).

    The same law as sampler.sample_mcmc_batch by a different route: that
    chain moves the entries of a Jacobi matrix.  A Philox stream keyed by
    (seed, replica), uniform(-3, 3) starts, normals then uniforms in chunks
    of 64 sweeps, 20 n adaptive burn-in sweeps toward acceptance 0.35 from
    step 0.5, then acceptance measured over 10 n sweeps: O(n^3) in all.
    """
    chunk, target = 64, 0.35
    rngs = [np.random.Generator(np.random.Philox(
        key=np.array([seed % (1 << 64), r], dtype=np.uint64)))
        for r in replicas]
    R = len(rngs)
    burn = 20 * n
    sweeps = burn + 10 * n
    lam = np.empty((R, n))
    for j, rng in enumerate(rngs):
        lam[j] = np.sort(rng.uniform(-3.0, 3.0, n))
    step = np.full(R, 0.5)
    half_nb = 0.5 * n * beta
    acc_recent = np.zeros(R)
    post_accepted = np.zeros(R)
    for s in range(sweeps):
        if s % chunk == 0:
            m = min(chunk, sweeps - s)
            z = np.stack([rng.standard_normal((m, n)) for rng in rngs])
            u = np.stack([rng.random((m, n)) for rng in rngs])
        zs, us = z[:, s % chunk], u[:, s % chunk]
        for i in range(n):
            cur = lam[:, i]
            prop = cur + step * zs[:, i]
            others = np.delete(lam, i, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                dlog = beta * (
                    np.sum(np.log(np.abs(prop[:, None] - others)), axis=1)
                    - np.sum(np.log(np.abs(cur[:, None] - others)), axis=1))
            dlog -= half_nb * (V.eval(prop) - V.eval(cur))
            ok = np.isfinite(dlog) & (np.log(us[:, i]) < dlog)
            lam[ok, i] = prop[ok]
            acc_recent += ok
        if s < burn:
            step *= np.exp(0.5 * (acc_recent / n - target))
            np.clip(step, 1e-4, 10.0, out=step)
        else:
            post_accepted += acc_recent
        acc_recent[:] = 0.0
    return np.sort(lam, axis=1), post_accepted / ((sweeps - burn) * n)


# ---------------------------------------------------------------------------
# per-site Jacobi-entry chain (a dense tr V(T) per proposal)
# ---------------------------------------------------------------------------


def _dense_trace_v(V: Potential, a: np.ndarray, b: np.ndarray) -> float:
    T = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
    power, total = np.eye(a.size), V.coeffs[0] * a.size
    for c in V.coeffs[1:]:
        power = power @ T
        total += c * np.trace(power)
    return float(total)


def jacobi_chain_reference(V: Potential, beta: float, n: int, seed: int,
                           replicas) -> tuple:
    """The Metropolis chain of sampler.sample_mcmc_batch on the Jacobi
    entries, one replica and one site at a time, with tr V(T) of a dense
    matrix for every proposal: final diagonals (R, n), off-diagonals
    (R, n - 1), their eigenvalues (R, n) and the acceptance rates (R,).

    The sweep visits a_i in order of (i mod (p - 1), i), then the
    off-diagonal b_k as u_k = ln b_k in order of (k mod p, k), p = deg V:
    the order in which the batched chain's colour classes move.  Start
    a = centre, b = radius / 2 of mu_V; per 16-sweep chunk a (16, 2n - 1)
    block of normals then one of uniforms per replica; 100 sweeps adapt a
    diagonal and an off-diagonal step from 2.4 toward acceptance 0.35, and
    acceptance is measured over 50 more.  O(n^3 deg V) per site.
    """
    from betalab.equilibrium import equilibrium_cached

    chunk, target, burn, sweeps = 16, 0.35, 100, 150
    p = V.degree
    eq = equilibrium_cached(V)
    sd = 1.0 / math.sqrt(2.0 * beta * n)
    scale = np.concatenate([np.full(n, eq.measure.radius * sd),
                            sd * np.sqrt(n / np.arange(n - 1, 0, -1))])
    order = ([i for _, i in sorted((i % (p - 1), i) for i in range(n))]
             + [n + k for _, k in sorted((k % p, k) for k in range(n - 1))])
    half_nb = 0.5 * n * beta
    diags, offs, lam, rates = [], [], [], []
    for r in replicas:
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed % (1 << 64), r], dtype=np.uint64)))
        a = np.full(n, eq.measure.center)
        u = np.full(n - 1, math.log(0.5 * eq.measure.radius))
        b = np.exp(u)
        cur = _dense_trace_v(V, a, b)
        step = np.full(2, 2.4)
        post_accepted = 0
        for s in range(sweeps):
            if s % chunk == 0:
                m = min(chunk, sweeps - s)
                z = rng.standard_normal((m, 2 * n - 1))
                logu = np.log(rng.random((m, 2 * n - 1)))
            jump = z[s % chunk] * scale
            accepted = np.zeros(2)
            for site in order:
                off = site >= n
                move = jump[site] * step[int(off)]
                with np.errstate(over="ignore", invalid="ignore"):
                    if off:
                        k = site - n
                        new_u = u[k] + move
                        prop_b = b.copy()
                        prop_b[k] = np.exp(new_u)
                        new = _dense_trace_v(V, a, prop_b)
                        gain = beta * (n - 1 - k) * (new_u - u[k])
                    else:
                        prop_a = a.copy()
                        prop_a[site] += move
                        new = _dense_trace_v(V, prop_a, b)
                        gain = 0.0
                    ok = logu[s % chunk, site] < gain - half_nb * (new - cur)
                if ok:
                    if off:
                        u[k], b = new_u, prop_b
                    else:
                        a = prop_a
                    cur = new
                    accepted[int(off)] += 1
            if s < burn:
                step *= np.exp(0.5 * (accepted / [n, n - 1] - target))
                np.clip(step, 1e-3, 1e3, out=step)
            else:
                post_accepted += accepted.sum()
        diags.append(a)
        offs.append(b)
        lam.append(np.linalg.eigvalsh(
            np.diag(a) + np.diag(b, 1) + np.diag(b, -1)))
        rates.append(post_accepted / ((sweeps - burn) * (2 * n - 1)))
    return np.stack(diags), np.stack(offs), np.stack(lam), np.array(rates)
