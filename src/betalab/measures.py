"""Probability measures on the line: atoms, grid densities, angular series,
transport, log-energy.

Three concrete representations are used everywhere in the lab:

* :class:`AtomicMeasure` -- a finite weighted point measure with sorted
  support (empirical spectra).
* :class:`GridMeasure` -- the piecewise-linear density through ``n + 1``
  nonnegative values at uniform nodes on an interval, of total mass 1
  (measures read from CSV files, the saved equilibrium density).
* :class:`AngularMeasure` -- a density on [center - radius, center + radius]
  given by finitely many cosine moments in the angle of
  x = center + radius cos theta (mu_V, nu_V and the hard-edge minimizers,
  exactly).

On top of these the module provides moments and variances, the pushforward
x -> c - x (exact for every representation), exact Wasserstein distances
through quantile coupling (any order p >= 1 between two atomic measures;
W1 in closed form between an atomic measure and a grid or angular one),
and the logarithmic energy Sigma(mu) = double integral of ln|x-y|: in a
regularized form for atoms, as a Chebyshev-moment series for angular
measures, and exactly for the piecewise-linear density of a grid, through a
Toeplitz cell kernel and one real FFT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from ._fsio import write_csv

__all__ = [
    "AtomicMeasure",
    "GridMeasure",
    "AngularMeasure",
    "reflect_shift",
    "moment",
    "variance",
    "wasserstein",
    "log_energy_reg",
    "log_energy_grid",
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

    def integrate(self, coeffs, shift: float = 0.0,
                  scale: float = 1.0) -> float:
        """int p(shift + scale x) dmu(x), p with ascending coefficients: a
        weighted sum of p at the atoms."""
        x = shift + scale * self.atoms
        return float(np.dot(self.weights, P.polyval(x, _polynomial(coeffs))))


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """Piecewise-linear probability density at n+1 uniform nodes on [lo, hi].

    Values are clipped at 0 (tiny negative quadrature noise is tolerated up
    to 1e-10 before construction fails) and rescaled so the trapezoid
    integral over [lo, hi], the exact mass of the piecewise-linear density,
    is 1; values already within n eps of that are kept, so a rebuild,
    reflect_shift and a save/load keep every bit.  The CDF, quantile,
    partial first moment, integrate and log_energy_grid are all exact for
    that one density.
    """

    lo: float
    hi: float
    values: np.ndarray
    _cdf: np.ndarray = field(
        default=None, init=False, repr=False, compare=False)
    _moments: np.ndarray = field(
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
        if abs(mass - 1.0) > (vals.size - 1) * np.finfo(float).eps:
            vals = vals / mass
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * h * (vals[1:] + vals[:-1]))])
        cdf[-1] = 1.0
        np.maximum.accumulate(cdf, out=cdf)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "_cdf", _readonly(cdf))
        object.__setattr__(self, "_moments", _readonly(np.ones(1)))

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

    def _central_moments(self, k: int) -> np.ndarray:
        """M_0..M_(k-1), M_j = int t^j dmu in t = (x - centre) / half-width,
        exact for the piecewise-linear density and built once per size: the
        cell moments in closed form, O(n k), normalized so M_0 = 1.

        A cell [a, b] in t, with density v0 (1 - s) + v1 s at t = a + (b - a) s,
        carries (b - a) (v0 A_j + v1 B_j) / ((j + 1)(j + 2)) of M_j, where
        A_j = sum_k (j - k + 1) a^(j-k) b^k and B_j = sum_k (k + 1) a^(j-k) b^k
        (Beta integrals of the binomial expansion).  Both follow
        A_j = b A_(j-1) + (j + 1) a^j and B_j = a B_(j-1) + (j + 1) b^j, and
        their terms share one sign on every cell that does not hold t = 0,
        so nothing cancels.  The cells are equally wide, so (b - a) drops
        out in the normalization.
        """
        if self._moments.size < k:
            n = self.n
            t = (2.0 * np.arange(n + 1) - n) / n     # t_(n-i) = -t_i exactly
            a, b = t[:-1], t[1:]
            v0, v1 = self.values[:-1], self.values[1:]
            pa, pb = np.ones(n), np.ones(n)     # a^j, b^j
            sa, sb = np.ones(n), np.ones(n)     # A_j, B_j
            mom = np.empty(k)
            mom[0] = np.add.reduce(v0 + v1) / 2.0
            for j in range(1, k):
                pa *= a
                pb *= b
                sa *= b
                sa += (j + 1) * pa
                sb *= a
                sb += (j + 1) * pb
                mom[j] = np.add.reduce(v0 * sa + v1 * sb) / ((j + 1) * (j + 2))
            mom[1:] /= mom[0]
            mom[0] = 1.0
            object.__setattr__(self, "_moments", _readonly(mom))
        return self._moments[:k]

    def integrate(self, coeffs, shift: float = 0.0,
                  scale: float = 1.0) -> float:
        """int p(shift + scale x) dmu(x), p with ascending coefficients,
        exact for the piecewise-linear density: p composed about the centre
        of [lo, hi], against the grid's central moments.  No quadrature,
        and a constant integrates to itself exactly, since M_0 = 1."""
        p = _polynomial(coeffs)
        half = 0.5 * (self.hi - self.lo)
        q = _compose(p, shift + scale * (self.lo + half), scale * half)
        return float(q @ self._central_moments(q.size))


QUANTILE_TABLE = 1024    # angle cells of AngularMeasure.quantile's start table
QUANTILE_STEP = 1e-13    # angle step at which the quantile's Newton stops
QUANTILE_MAX_ITER = 100


def _polynomial(coeffs) -> np.ndarray:
    """Ascending polynomial coefficients as a float array; a callable, an
    empty list or a non-finite coefficient is refused."""
    if callable(coeffs):
        raise TypeError("integrate takes polynomial coefficients, not a "
                        "callable")
    p = np.asarray(coeffs, dtype=float).ravel()
    if p.size == 0 or not np.all(np.isfinite(p)):
        raise ValueError(f"need finite polynomial coefficients, got {p}")
    return p


def _compose(coeffs, center: float, radius: float) -> np.ndarray:
    """Ascending coefficients of t -> p(center + radius t), by Horner's rule
    on coefficient arrays: exact to roundoff, where a quadrature of V on a
    narrow support far from 0 loses the low coefficients to |V|."""
    out = np.asarray(coeffs[-1:], dtype=float)
    for a in coeffs[-2::-1]:
        out = np.convolve(out, [center, radius])
        out[0] += a
    return out


@lru_cache(maxsize=None)
def _cheb_table(n: int) -> np.ndarray:
    """Read-only B[k, j], the Chebyshev coefficients of t^j (j < n), exact
    for j <= 56: t^j = 2^(1-j) sum_i C(j, i) T_(j-2i), the T_0 term halved."""
    B = np.zeros((n, n))
    for j in range(n):
        for i in range(j // 2 + 1):
            B[j - 2 * i, j] = math.comb(j, i) * 2.0 ** (1 - j - (2 * i == j))
    return _readonly(B)


def _cheb_coeffs(coeffs, center: float, radius: float) -> np.ndarray:
    """Chebyshev coefficients v_0..v_deg of t -> p(center + radius t), so
    p(center + radius cos theta) = sum_k v_k cos(k theta) exactly: v = B q,
    q from _compose and B from _cheb_table, summed elementwise, not by a
    BLAS product; one entry per coefficient of p, trailing zeros kept."""
    q = _compose(coeffs, center, radius)
    return np.add.reduce(_cheb_table(q.size) * q, axis=1)


def _chebyshev_rows(t0, t1, z: np.ndarray, kmax: int) -> np.ndarray:
    """Rows t_0..t_kmax of t_k = 2 z t_{k-1} - t_{k-2}: cos(k a) from
    (1, cos a) and sin(k a) from (0, sin a), where z = cos a."""
    out = np.empty((kmax + 1,) + np.shape(z))
    out[0] = t0
    if kmax:
        out[1] = t1
    two_z = 2.0 * z
    for k in range(2, kmax + 1):
        out[k] = two_z * out[k - 1] - out[k - 2]
    return out


@dataclass(frozen=True, eq=False)
class AngularMeasure:
    """Probability measure on [center - radius, center + radius] with
    angular density phi(theta) / pi = (1 + 2 sum_k mom_k cos k theta) / pi
    in x = center + radius cos theta.

    cos_moments[k] = mom_k = int cos(k theta) dmu, with mom_0 = 1.  Sigma,
    the integral of a polynomial, the CDF, the partial first moment and the
    exterior log-potential are finite series in the moments; quantiles
    invert the CDF by Newton's method in the angle.
    """

    center: float
    radius: float
    cos_moments: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cos_moments", _readonly(self.cos_moments))

    @property
    def sigma(self) -> float:
        """Sigma(mu) = ln(radius / 2) - 2 sum_k mom_k^2 / k, from ln|x - y| =
        ln(radius / 2) - sum_k (2 / k) T_k(s) T_k(t); summed left to right,
        so a moment sequence keeps its bits."""
        mom = self.cos_moments
        tail = np.add.accumulate(mom[1:] ** 2 / np.arange(1.0, mom.size))[-1]
        return math.log(0.5 * self.radius) * mom[0] ** 2 - 2.0 * float(tail)

    def energy(self, V) -> float:
        """-Sigma(mu) + int V dmu for a Potential V."""
        return -self.sigma + self.integrate(V.coeffs)

    def integrate(self, coeffs, shift: float = 0.0,
                  scale: float = 1.0) -> float:
        """int p(shift + scale x) dmu(x), p with ascending coefficients:
        sum_k v_k mom_k, v_k the Chebyshev coefficients of p on the image
        of the support.  No quadrature: the sum is exact to roundoff, and
        a constant integrates to itself exactly, since mom_0 = 1."""
        v = _cheb_coeffs(_polynomial(coeffs), shift + scale * self.center,
                         scale * self.radius)
        k = min(v.size, self.cos_moments.size)
        return float(v[:k] @ self.cos_moments[:k])

    @cached_property
    def _sine_coeffs(self) -> tuple:
        """(s, g): F(a) = 1 - (a + sum_k s_k sin k a) / pi with s_k =
        2 mom_k / k, and (1/pi) int_a^pi cos t phi(t) dt = (mom_1 (pi - a)
        - sum_j g_j sin j a) / pi with g_j = (mom_{j-1} + mom_{j+1}) / j,
        from cos t cos kt = (cos (k+1)t + cos (k-1)t) / 2; index 0 unused."""
        mom = np.concatenate([self.cos_moments, [0.0, 0.0]])
        k = np.arange(1.0, mom.size - 1)
        s = np.concatenate([[0.0], 2.0 * mom[1:-2] / k[:-1]])
        g = np.concatenate([[0.0], (mom[:-2] + mom[2:]) / k])
        return s, g

    def _cdf_at(self, a, sines) -> np.ndarray:
        s = self._sine_coeffs[0]
        return 1.0 - (a + s[1:] @ sines[1:s.size]) / np.pi

    def _cdf_and_first_moment(self, x) -> tuple[np.ndarray, np.ndarray]:
        """F(x) = mu((-inf, x]) and G(x) = int_{t <= x} t dmu(t), in the
        angle a = arccos((x - center) / radius):

            G(x) = center F(x) + (radius / pi) int_a^pi cos t phi(t) dt,

        a finite sine series in a plus mom_1 (pi - a) (see _sine_coeffs).
        sin a = sqrt((1 - z)(1 + z)) is exactly 0 at the edges, so F and G
        are exactly 0 at and left of the support."""
        z = np.clip((np.asarray(x, dtype=float) - self.center) / self.radius,
                    -1.0, 1.0)
        a = np.arccos(z)
        g = self._sine_coeffs[1]
        sines = _chebyshev_rows(0.0, np.sqrt((1.0 - z) * (1.0 + z)), z,
                                g.size - 1)
        f = self._cdf_at(a, sines)
        m1 = self.cos_moments[1] if self.cos_moments.size > 1 else 0.0
        first = self.radius * (m1 * (np.pi - a) - g[1:] @ sines[1:]) / np.pi
        return f, self.center * f + first

    def cdf(self, x) -> np.ndarray:
        """mu((-inf, x]) = 1 - (a + 2 sum_k mom_k sin(k a) / k) / pi,
        a = arccos((x - center) / radius)."""
        return self._cdf_and_first_moment(x)[0]

    @cached_property
    def _quantile_table(self) -> tuple:
        """(angles from pi down to 0, F there): nondecreasing, exactly 0
        and 1 at the ends."""
        a = np.linspace(np.pi, 0.0, QUANTILE_TABLE + 1)
        f = self._cdf_at(a, _chebyshev_rows(
            0.0, np.sin(a), np.cos(a), self.cos_moments.size - 1))
        f[0], f[-1] = 0.0, 1.0
        return a, np.maximum.accumulate(np.clip(f, 0.0, 1.0))

    def quantile(self, u) -> np.ndarray:
        """Infimum quantile F^{-1}(u), vectorized; u <= 0 and u >= 1 give
        the lower and upper edge.

        Newton's method on F in the angle (F' = -phi / pi), started by
        linear interpolation in a table of F and kept inside the bracket
        of the table cell that holds u: a step that leaves the bracket, or
        does not halve the step before it, bisects instead (safe where a
        soft edge makes phi vanish).  Stops at an angle step of
        QUANTILE_STEP; RuntimeError if QUANTILE_MAX_ITER steps do not get
        there.
        """
        u = np.asarray(u, dtype=float)
        x = np.where(u <= 0.0, self.center - self.radius,
                     self.center + self.radius)
        inner = (u > 0.0) & (u < 1.0)
        if not np.any(inner):
            return x
        v = u[inner]
        tab_a, tab_f = self._quantile_table
        i = np.clip(np.searchsorted(tab_f, v, side="left"), 1, tab_a.size - 1)
        lo, hi = tab_a[i], tab_a[i - 1]      # F(lo) >= v > F(hi), lo < hi
        df = tab_f[i] - tab_f[i - 1]
        a = lo + (hi - lo) * np.clip(
            (tab_f[i] - v) / np.where(df > 0.0, df, 1.0), 0.0, 1.0)
        kmax = self.cos_moments.size - 1
        mom = self.cos_moments[1:]
        prev = hi - lo
        out = np.empty_like(v)
        todo = np.arange(v.size)          # entries still stepping
        for _ in range(QUANTILE_MAX_ITER):
            z, s = np.cos(a), np.sin(a)
            resid = self._cdf_at(a, _chebyshev_rows(0.0, s, z, kmax)) - v
            phi = 1.0 + 2.0 * (mom @ _chebyshev_rows(1.0, z, z, kmax)[1:])
            lo = np.where(resid > 0.0, a, lo)
            hi = np.where(resid < 0.0, a, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = a + resid * np.pi / phi
            bisect = ~((newton >= lo) & (newton <= hi)) \
                | (np.abs(2.0 * (newton - a)) > np.abs(prev))
            step = np.where(bisect, 0.5 * (lo + hi), newton) - a
            a = a + step
            done = np.abs(step) <= QUANTILE_STEP
            out[todo[done]] = a[done]
            if np.all(done):
                break
            go = ~done
            todo, a, lo, hi, v, prev = \
                todo[go], a[go], lo[go], hi[go], v[go], step[go]
        else:
            raise RuntimeError(
                f"angular quantile: Newton did not reach an angle step of "
                f"{QUANTILE_STEP} in {QUANTILE_MAX_ITER} steps")
        x[inner] = self.center + self.radius * np.cos(out)
        return x

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


Measure = AtomicMeasure | GridMeasure | AngularMeasure


# ---------------------------------------------------------------------------
# pushforward, moments
# ---------------------------------------------------------------------------

def reflect_shift(mu: Measure, c: float):
    """Pushforward of mu under x -> c - x (an involution).  An angular
    measure maps exactly: theta -> pi - theta flips the sign of the odd
    cosine moments."""
    if isinstance(mu, AtomicMeasure):
        return AtomicMeasure((c - mu.atoms)[::-1], mu.weights[::-1])
    if isinstance(mu, AngularMeasure):
        sign = (-1.0) ** np.arange(mu.cos_moments.size)
        return AngularMeasure(c - mu.center, mu.radius,
                              sign * mu.cos_moments)
    return GridMeasure(c - mu.hi, c - mu.lo, mu.values[::-1])


def moment(mu: Measure, k: int) -> float:
    """k-th raw moment, the integrate of x^k: a weighted sum for atoms, and
    exact for the densities of grid and angular measures."""
    if k < 0 or k != int(k):
        raise ValueError(f"moment order must be a nonnegative integer, got {k}")
    k = int(k)
    if k == 0:
        return 1.0
    return mu.integrate(np.eye(k + 1)[k])


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
    are compared on their common refinement.  An atomic measure and a grid
    or angular one, in either order, p = 1 only: see
    :func:`_w1_atomic_density`.  Any other pairing raises.
    """
    q = float(p)
    if not (math.isfinite(q) and q >= 1.0):
        raise ValueError(f"Wasserstein order must be finite and >= 1, "
                         f"got {q}")
    if not isinstance(mu, AtomicMeasure):
        mu, nu = nu, mu
    if not isinstance(mu, AtomicMeasure):
        raise TypeError("wasserstein needs at least one atomic measure")
    if isinstance(nu, AtomicMeasure):
        edges = np.union1d(mu.cdf_jumps(), nu.cdf_jumps())
        edges = np.concatenate([[0.0], edges])
        du = np.diff(edges)
        mids = 0.5 * (edges[1:] + edges[:-1])
        diffs = np.abs(mu.quantile(mids) - nu.quantile(mids))
        return float(np.dot(du, diffs ** q) ** (1.0 / q))
    if q != 1.0:
        raise ValueError(f"against a density only W1 is exact, got p={q}")
    return _w1_atomic_density(mu, nu)


def _w1_atomic_density(mu: AtomicMeasure, nu) -> float:
    """W1 of atoms a_j against a grid or angular density, in closed form.

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


# Cell kernel of the piecewise-linear log-energy.  On cell c the density is
# v_c (1 - t) + v_(c+1) t, t in [0, 1], and two cells d apart meet through
#     C_pq(d) = iint_[0,1]^2 ln|d + s - t| psi_p(t) psi_q(s) dt ds,
# psi_0 = 1 - t, psi_1 = t.  With u = s - t this is int ln|d + u| W_pq(u) du,
# W_pq piecewise cubic with breaks at u = -1, 0, 1.  C_11 = C_00 (even in d)
# and C_pq(-d) = C_qp(d), so rows C_00, C_01, C_10 at d >= 0 give them all.
#
# Near, |d| <= KERNEL_NEAR: four integrations by parts leave
# sum_m sum_j J_mj L_m(d + u_j), L_m(x) = x^m / m! (ln|x| - H_m) the m-fold
# antiderivative of ln|x| (H_m the harmonic number), and J_mj = (-1)^m
# times the jump W_pq^(m-1)(u_j+) - W_pq^(m-1)(u_j-) (none for m = 1).  The
# terms cancel down from d^4 ln d, so they lose about 4 log10 d digits.
# Far: ln|d + u| = ln d - sum_k (-u / d)^k / k with the exact moments
# m_k = int u^k W_pq: W_00 2 / ((k+1)(k+2)(k+4)) at even k and 0 at odd k;
# W_01 1 / ((k+1)(k+4)) at even k and 1 / ((k+2)(k+3)) at odd k;
# W_10 (-1)^k times W_01's.  At d > KERNEL_NEAR, KERNEL_TERMS terms leave a
# tail below 1e-16.
KERNEL_NEAR = 3
KERNEL_TERMS = 20
# J_mj per row, [row, m - 2, j]: L_2, L_3, L_4 at d - 1, d, d + 1
_KERNEL_JUMPS = np.array([
    [[0.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [-1.0, 2.0, -1.0]],     # C_00
    [[0.0, 0.0, 1.0], [0.0, 2.0, -2.0], [1.0, -2.0, 1.0]],       # C_01
    [[1.0, 0.0, 0.0], [2.0, -2.0, 0.0], [1.0, -2.0, 1.0]],       # C_10
])


def _kernel_series_coeffs() -> np.ndarray:
    """[row, k - 1] = (-1)^(k+1) m_k / k, k = 1..KERNEL_TERMS: the
    coefficients of d^-k in C_pq(d) - ln(d) / 4."""
    k = np.arange(1.0, KERNEL_TERMS + 1)
    even = k % 2 == 0
    m00 = np.where(even, 2.0 / ((k + 1) * (k + 2) * (k + 4)), 0.0)
    m01 = np.where(even, 1.0 / ((k + 1) * (k + 4)), 1.0 / ((k + 2) * (k + 3)))
    m10 = np.where(even, m01, -m01)
    return np.stack([m00, m01, m10]) * (np.where(even, -1.0, 1.0) / k)


_KERNEL_SERIES = _kernel_series_coeffs()


def _cell_kernel(n: int) -> np.ndarray:
    """Rows C_00 (= C_11), C_01, C_10 of the cell kernel at d = 0..n-1."""
    out = np.empty((3, n))
    near = min(n, KERNEL_NEAR + 1)
    x = np.arange(near, dtype=float) + np.array([[-1.0], [0.0], [1.0]])
    ax = np.abs(x)
    lnx = np.log(np.where(ax > 0.0, ax, 1.0))       # x^m ln|x| -> 0 at 0
    lm = np.stack([x ** m / math.factorial(m) * (lnx - h)
                   for m, h in ((2, 1.5), (3, 11.0 / 6.0), (4, 25.0 / 12.0))])
    out[:, :near] = np.einsum("rmj,mjd->rd", _KERNEL_JUMPS, lm)
    d = np.arange(near, n, dtype=float)
    inv = 1.0 / d
    acc = np.zeros((3, d.size))
    for a in _KERNEL_SERIES[:, ::-1].T:
        acc += a[:, None]
        acc *= inv
    out[:, near:] = acc + 0.25 * np.log(d)
    return out


def log_energy_grid(mu: GridMeasure) -> float:
    """Sigma(mu) = iint ln|x-y| dmu dmu for a grid density, exact for its
    piecewise-linear density up to roundoff.

    With a = values[:-1] and b = values[1:] the cell weights of psi_0 and
    psi_1, Sigma = ln(h) mass^2 + h^2 sum_pq sum_d C_pq(d) r_pq(d), where
    r_pq(d) = sum_c w_p(c) w_q(c + d) are cross-correlations taken with one
    real FFT and C_pq the cell kernel above.  Since r_pq(-d) = r_qp(d), the
    sum runs over d >= 0 with doubled weights at d > 0.  The value is the
    mean of this sum on `values` and on `values[::-1]`, each row computed
    alike, so a pushforward x -> c - x that mirrors `values` at the same `h`
    keeps every bit.
    """
    if not isinstance(mu, GridMeasure):
        raise TypeError("log_energy_grid expects a grid measure")
    vals, h, n = mu.values, mu.h, mu.n
    size = 1 << (2 * n - 1).bit_length()        # no wrap-around for |d| < n
    both = np.stack([vals, vals[::-1]])
    left, right = both[:, :-1], both[:, 1:]     # weights of psi_0 and psi_1
    spec = np.fft.rfft(np.stack([left, right], axis=1), size)
    fa, fb = spec[:, 0], spec[:, 1]
    corr = np.fft.irfft(np.stack([fa.real ** 2 + fa.imag ** 2
                                  + fb.real ** 2 + fb.imag ** 2,
                                  fa.conj() * fb], axis=1), size)
    auto, cross = corr[:, 0, :n], corr[:, 1]    # r_00 + r_11; r_01 at d % size
    back = np.concatenate([cross[:, :1], cross[:, :-n:-1]], axis=1)  # r_10
    kern = _cell_kernel(n)
    kern[:, 1:] *= 2.0
    sums = (auto * kern[0] + cross[:, :n] * kern[1]
            + back * kern[2]).sum(axis=1)
    mass = 0.5 * h * (left.sum(axis=1) + right.sum(axis=1))
    sigma = math.log(h) * mass * mass + h * h * sums
    return 0.5 * float(sigma[0] + sigma[1])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_measure(mu: Measure, path: str) -> None:
    """Write a measure to a `.csv` file, atomically."""
    if isinstance(mu, AngularMeasure):
        raise TypeError("save_measure writes atomic and grid measures")
    if not path.endswith(".csv"):
        raise ValueError(f"unsupported measure file extension: {path}")
    if isinstance(mu, AtomicMeasure):
        write_csv(path, "position,weight", zip(mu.atoms, mu.weights))
    else:
        write_csv(path, "position,density", zip(mu.nodes, mu.values))


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
