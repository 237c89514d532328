"""Probability measures on the line: atoms, grid densities, transport, log-energy.

Two concrete representations are used everywhere in the lab:

* :class:`AtomicMeasure` -- a finite weighted point measure with sorted
  support (empirical spectra, quantile discretizations).
* :class:`GridMeasure` -- a nonnegative density sampled at ``n + 1`` uniform
  nodes on an interval, normalized so the trapezoid integral is 1
  (equilibrium densities, variational iterates).

On top of these the module provides moments and variances, the pushforward
x -> c - x, exact Wasserstein distances through quantile coupling (any
order p >= 1 between two atomic measures; W1 in closed form between an
atomic and a grid measure), quantile discretization, and the logarithmic
energy Sigma(mu) = double integral of ln|x-y|, in a regularized form for
atoms and a singularity-aware quadrature for grid densities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._fsio import fmt, write_text_atomic

__all__ = [
    "AtomicMeasure",
    "GridMeasure",
    "reflect_shift",
    "moment",
    "variance",
    "wasserstein",
    "quantile_discretize",
    "log_energy_reg",
    "log_energy_grid",
    "log_kernel_mass_form",
    "save_measure",
    "load_measure",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finite weighted point measure with strictly increasing atoms.

    Duplicate atom positions are merged on construction (weights added) and
    weights are renormalized to exact total mass 1.  Instances are immutable;
    the backing arrays are read-only.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.size == 0:
            raise ValueError("measure needs at least one atom")
        if atoms.shape != weights.shape:
            raise ValueError("atoms and weights must have equal length")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atom positions must be finite")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        total = math.fsum(weights.tolist())
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError("total mass must be positive and finite")
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        order = np.argsort(atoms, kind="stable")
        atoms, weights = atoms[order], weights[order]
        keep = weights > 0.0
        if not np.any(keep):
            raise ValueError("all weights are zero")
        atoms, weights = atoms[keep], weights[keep]
        # canonical merge of duplicate positions
        uniq, inv = np.unique(atoms, return_inverse=True)
        if uniq.size != atoms.size:
            merged = np.zeros(uniq.size)
            np.add.at(merged, inv, weights)
            atoms, weights = uniq, merged
        weights = weights / math.fsum(weights.tolist())
        object.__setattr__(self, "atoms", _readonly(atoms))
        object.__setattr__(self, "weights", _readonly(weights))

    @classmethod
    def from_points(cls, points) -> "AtomicMeasure":
        """Equal-weight measure on the given points."""
        pts = np.asarray(points, dtype=float).ravel()
        return cls(pts, np.full(pts.size, 1.0 / pts.size))

    @property
    def size(self) -> int:
        return int(self.atoms.size)

    def cdf_jumps(self) -> np.ndarray:
        """Cumulative weights F(atom_i), last entry exactly 1."""
        c = np.cumsum(self.weights)
        c[-1] = 1.0
        return c

    def quantile(self, u) -> np.ndarray:
        """Infimum quantile F^{-1}(u) for u in (0, 1], vectorized."""
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(self.cdf_jumps(), u, side="left")
        idx = np.clip(idx, 0, self.size - 1)
        return self.atoms[idx]

    def integrate(self, f) -> float:
        """Integral of a callable against the measure."""
        return float(np.dot(self.weights, f(self.atoms)))


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """Piecewise-linear probability density at n+1 uniform nodes on [lo, hi].

    Values are clipped at 0 (tiny negative quadrature noise is tolerated up
    to 1e-10 before construction fails) and rescaled so the trapezoid
    integral over [lo, hi] is exactly 1.
    """

    lo: float
    hi: float
    values: np.ndarray
    _cdf: np.ndarray = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size < 3:
            raise ValueError("grid needs n >= 2 cells (>= 3 nodes)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("density values must be finite")
        if np.any(vals < -1e-10):
            raise ValueError("density values must be nonnegative")
        vals = np.maximum(vals, 0.0)
        h = (hi - lo) / (vals.size - 1)
        mass = float(np.trapezoid(vals, dx=h))
        if mass <= 0.0:
            raise ValueError("density has zero mass")
        vals = vals / mass
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * h * (vals[1:] + vals[:-1]))])
        cdf[-1] = 1.0
        np.maximum.accumulate(cdf, out=cdf)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "_cdf", _readonly(cdf))

    @property
    def n(self) -> int:
        """Number of cells."""
        return int(self.values.size - 1)

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.lo + self.h * np.arange(self.n + 1)

    def quantile(self, u) -> np.ndarray:
        """Infimum quantile F^{-1}(u), exact per-cell inversion of the
        piecewise-quadratic CDF, vectorized."""
        u = np.asarray(u, dtype=float)
        cdf = self._cdf
        idx = np.searchsorted(cdf, u, side="left")
        idx = np.clip(idx, 1, self.n)
        i0 = idx - 1
        dq = np.maximum(u - cdf[i0], 0.0)
        v0 = self.values[i0]
        slope = (self.values[idx] - v0) / self.h
        # mass within the cell: v0*t + slope*t^2/2 = dq, stable root
        disc = np.sqrt(np.maximum(v0 * v0 + 2.0 * slope * dq, 0.0))
        denom = v0 + disc
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(denom > 0.0, 2.0 * dq / denom, 0.0)
        t = np.clip(t, 0.0, self.h)
        return self.lo + self.h * i0 + t

    def _cdf_and_first_moment(self, x) -> tuple[np.ndarray, np.ndarray]:
        """F(x) = nu((-inf, x]) and G(x) = int_{t <= x} t dnu(t), exact for
        the piecewise-linear density (G is cubic on each cell)."""
        x = np.asarray(x, dtype=float)
        h, vals, cdf = self.h, self.values, self._cdf
        cell_g = (self.nodes[:-1] * (0.5 * h) * (vals[:-1] + vals[1:])
                  + h * h * (vals[:-1] / 6.0 + vals[1:] / 3.0))
        g_nodes = np.concatenate([[0.0], np.cumsum(cell_g)])
        i0 = np.clip(np.floor((x - self.lo) / h), 0, self.n - 1).astype(int)
        x0 = self.lo + h * i0
        t = np.clip(x - x0, 0.0, h)
        v0 = vals[i0]
        slope = (vals[i0 + 1] - v0) / h
        mass = t * (v0 + 0.5 * slope * t)
        first = x0 * mass + t * t * (0.5 * v0 + slope * t / 3.0)
        return cdf[i0] + mass, g_nodes[i0] + first

    def integrate(self, f) -> float:
        """Trapezoid integral of a callable against the density."""
        x = self.nodes
        return float(np.trapezoid(f(x) * self.values, dx=self.h))


Measure = AtomicMeasure | GridMeasure


# ---------------------------------------------------------------------------
# pushforward, moments
# ---------------------------------------------------------------------------

def reflect_shift(mu: Measure, c: float):
    """Pushforward of mu under x -> c - x (an involution)."""
    if isinstance(mu, AtomicMeasure):
        return AtomicMeasure((c - mu.atoms)[::-1], mu.weights[::-1])
    return GridMeasure(c - mu.hi, c - mu.lo, mu.values[::-1])


def moment(mu: Measure, k: int) -> float:
    """k-th raw moment; exact weighted sum for atoms, trapezoid for grids."""
    if k < 0 or k != int(k):
        raise ValueError(f"moment order must be a nonnegative integer, got {k}")
    k = int(k)
    if k == 0:
        return 1.0
    return mu.integrate(lambda x: x ** k)


def variance(mu: Measure) -> float:
    """m_2 - m_1^2, clipped at 0 against rounding."""
    v = moment(mu, 2) - moment(mu, 1) ** 2
    return max(v, 0.0)


# ---------------------------------------------------------------------------
# Wasserstein distances via quantile coupling
# ---------------------------------------------------------------------------

def wasserstein(mu: Measure, nu: Measure, p=1.0) -> float:
    """d_Wp(mu, nu) = (int_0^1 |F_mu^{-1} - F_nu^{-1}|^p du)^{1/p}, exactly.

    Two routes.  Two atomic measures, any p >= 1: the quantile staircases
    are compared on their common refinement.  An atomic and a grid
    measure, in either order, p = 1 only: see :func:`_w1_atomic_grid`.
    Any other pairing raises.
    """
    q = float(p)
    if not (math.isfinite(q) and q >= 1.0):
        raise ValueError(f"Wasserstein order must be finite and >= 1, "
                         f"got {q}")
    if isinstance(mu, AtomicMeasure) and isinstance(nu, AtomicMeasure):
        edges = np.union1d(mu.cdf_jumps(), nu.cdf_jumps())
        edges = np.concatenate([[0.0], edges])
        du = np.diff(edges)
        mids = 0.5 * (edges[1:] + edges[:-1])
        diffs = np.abs(mu.quantile(mids) - nu.quantile(mids))
        return float(np.dot(du, diffs ** q) ** (1.0 / q))
    if isinstance(mu, GridMeasure):
        mu, nu = nu, mu
    if not isinstance(mu, AtomicMeasure):
        raise TypeError("wasserstein needs at least one atomic measure")
    if q != 1.0:
        raise ValueError(f"against a grid measure only W1 is exact, got p={q}")
    return _w1_atomic_grid(mu, nu)


def _w1_atomic_grid(mu: AtomicMeasure, nu: GridMeasure) -> float:
    """W1 of atoms a_j against a grid density, in closed form.

    On the quantile step (F_{j-1}, F_j] of a_j the integrand |a_j - Q_nu(u)|
    changes sign at s_j = F_nu(a_j), clipped to the step.  With
    P(u) = int_0^u Q_nu = G(Q_nu(u)), G the partial first moment of nu,
    the step contributes a_j (2 s_j - F_{j-1} - F_j) + P(F_{j-1}) + P(F_j)
    - 2 P(s_j), and P(s_j) = G(a_j) when F_nu(a_j) lies in the step (G is
    flat where nu has no mass, so an atom in a gap is exact too).
    """
    jumps = np.concatenate([[0.0], mu.cdf_jumps()])
    _, p_jumps = nu._cdf_and_first_moment(nu.quantile(jumps))
    f_atoms, g_atoms = nu._cdf_and_first_moment(mu.atoms)
    lo, hi = jumps[:-1], jumps[1:]
    s = np.clip(f_atoms, lo, hi)
    p_s = np.where(f_atoms < lo, p_jumps[:-1],
                   np.where(f_atoms > hi, p_jumps[1:], g_atoms))
    steps = (mu.atoms * (2.0 * s - lo - hi)
             + p_jumps[:-1] + p_jumps[1:] - 2.0 * p_s)
    return float(np.sum(steps))


# ---------------------------------------------------------------------------
# discretization and truncation
# ---------------------------------------------------------------------------

def quantile_discretize(nu: GridMeasure, n: int) -> AtomicMeasure:
    """Equal-weight atoms x^{1,n} < ... < x^{n-1,n} cutting nu into n slabs
    of mass 1/n each (infimum CDF inversion)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not isinstance(nu, GridMeasure):
        raise TypeError("quantile_discretize expects an atomless grid measure")
    cuts = nu.quantile(np.arange(1, n) / n)
    return AtomicMeasure.from_points(cuts)


# ---------------------------------------------------------------------------
# logarithmic energy
# ---------------------------------------------------------------------------

def log_energy_reg(mu: AtomicMeasure, m: float) -> float:
    """Regularized negative log-energy -Sigma^M(mu) = iint (-ln|x-y|) ^ M.

    Diagonal pairs contribute M (the cap of -ln 0); the result is
    nondecreasing in M and bounded above by M.
    """
    if not isinstance(mu, AtomicMeasure):
        raise TypeError("log_energy_reg expects an atomic measure")
    m = float(m)
    x, w = mu.atoms, mu.weights
    total = 0.0
    block = 2048
    for start in range(0, x.size, block):
        sl = slice(start, min(start + block, x.size))
        d = np.abs(x[sl, None] - x[None, :])
        with np.errstate(divide="ignore"):
            k = np.minimum(-np.log(d), m)
        total += float(w[sl] @ k @ w)
    return total


# exact Galerkin integrals of ln|x-y| against linear shape functions on the
# unit cell [0,1]^2 and the adjacent pair [0,1]x[1,2]; closed forms checked
# against high-precision quadrature in the test suite
_LN2 = math.log(2.0)
_T_SAME = ((-7.0 / 16.0, -5.0 / 16.0), (-5.0 / 16.0, -7.0 / 16.0))
_A_ADJ = ((2.0 * _LN2 / 3.0 - 23.0 / 48.0, 1.0 / 16.0),
          (2.0 * _LN2 / 3.0 - 29.0 / 48.0, 2.0 * _LN2 / 3.0 - 23.0 / 48.0))


def _sigma_near_terms(vals: np.ndarray, h: float) -> float:
    """Cell pairs sharing a node, integrated exactly for the PL density."""
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


def _far_log_kernel(mids: np.ndarray, start: int, stop: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Rows start:stop of ln|mids_i - mids_j|, zero where |i - j| <= 1.

    Those cell pairs share a node; the callers integrate them exactly.
    Written into the leading stop - start rows of `out` when given.
    """
    lk = np.subtract(mids[start:stop, None], mids[None, :],
                     out=None if out is None else out[:stop - start])
    np.abs(lk, out=lk)
    with np.errstate(divide="ignore"):
        np.log(lk, out=lk)
    rows = np.arange(stop - start)
    for off in (-1, 0, 1):
        cols = rows + (start + off)
        ok = (cols >= 0) & (cols < mids.size)
        lk[rows[ok], cols[ok]] = 0.0
    return lk


def log_energy_grid(mu: GridMeasure) -> float:
    """Sigma(mu) = iint ln|x-y| dmu dmu for a grid density.

    Cell pairs sharing a node are integrated analytically against the
    piecewise-linear density; all other pairs use the midpoint kernel
    against exact cell masses.
    """
    if not isinstance(mu, GridMeasure):
        raise TypeError("log_energy_grid expects a grid measure")
    vals, h, n = mu.values, mu.h, mu.n
    mids = mu.lo + h * (np.arange(n) + 0.5)
    cmass = 0.5 * h * (vals[:-1] + vals[1:])
    total = _sigma_near_terms(vals, h)
    block = 1024
    buf = np.empty((min(block, n), n))     # one kernel block at a time
    for start in range(0, n, block):
        stop = min(start + block, n)
        lk = _far_log_kernel(mids, start, stop, out=buf)
        total += float(cmass[start:stop] @ lk @ cmass)
    return total


def log_kernel_mass_form(lo: float, hi: float, n: int):
    """Quadratic form of Sigma in node-mass coordinates.

    Returns ``(nodes, tw, g)`` where ``tw`` are trapezoid weights and ``g``
    is the matrix with Sigma(mu) ~= w^T g w for ``w = tw * values`` (so
    sum(w) = 1 on probability densities).  ``g`` is symmetric only to
    roundoff: its entries differ from those of ``g.T`` by up to ~1e-15,
    because g[i, j] and g[j, i] add the same four far-field terms, and
    apply the same two scalings, in different orders.  Same singularity
    treatment as :func:`log_energy_grid`.
    """
    if n < 2:
        raise ValueError("need n >= 2 cells")
    h = (hi - lo) / n
    nodes = lo + h * np.arange(n + 1)
    mids = lo + h * (np.arange(n) + 0.5)
    # map node values to cell masses: mcell[i, :] = h/2 at nodes i, i+1
    # g_far = mcell^T lk mcell expanded by hand to stay O(n^2)
    g = np.zeros((n + 1, n + 1))
    q = _far_log_kernel(mids, 0, n)
    q *= 0.25 * h * h
    g[:-1, :-1] += q
    g[:-1, 1:] += q
    g[1:, :-1] += q
    g[1:, 1:] += q
    # near-field exact PL Galerkin blocks
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
    # convert from node-value to node-mass coordinates
    inv = 1.0 / tw
    g *= inv[:, None]
    g *= inv[None, :]
    return nodes, tw, g


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_measure(mu: Measure, path: str) -> None:
    """Write a measure to a `.csv` file, atomically."""
    if path.endswith(".csv"):
        if isinstance(mu, AtomicMeasure):
            rows = ["position,weight"]
            rows += [f"{fmt(a)},{fmt(w)}" for a, w in zip(mu.atoms, mu.weights)]
        else:
            rows = ["position,density"]
            rows += [f"{fmt(x)},{fmt(v)}" for x, v in zip(mu.nodes, mu.values)]
        write_text_atomic(path, "\n".join(rows) + "\n")
        return
    raise ValueError(f"unsupported measure file extension: {path}")


def load_measure(path: str) -> Measure:
    """Inverse of :func:`save_measure`; CSV grids rebuild [lo, hi] from the
    first and last node, which must be uniformly spaced.  Every ValueError
    names the path."""
    if not path.endswith(".csv"):
        raise ValueError(f"unsupported measure file extension: {path}")
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [line.split(",") for line in fh if line.strip()]
    try:
        if not rows:
            raise ValueError("no rows under the header")
        if any(len(r) != 2 for r in rows):
            raise ValueError("every row needs two fields")
        pos, val = np.array(rows, dtype=float).T
        if header == "position,weight":
            return AtomicMeasure(pos, val)
        if header == "position,density":
            h = (pos[-1] - pos[0]) / max(pos.size - 1, 1)
            uniform = pos[0] + h * np.arange(pos.size)
            if np.any(np.abs(pos - uniform) > 1e-9 * abs(h)):
                raise ValueError("grid nodes are not uniform")
            return GridMeasure(pos[0], pos[-1], val)
        raise ValueError(f"unrecognized measure CSV header: {header!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
