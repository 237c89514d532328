"""Samplers for beta-ensemble eigenvalue configurations.

Two routes to the law  P ~ |Delta(lambda)|^beta exp(-(N beta / 2) sum V),
both through a symmetric tridiagonal (Jacobi) matrix T whose eigenvalues
are the sample: the Gaussian tridiagonal model, exact for V = x^2/2 after
a 1/sqrt(N) rescale that puts the semicircle edge at +-2, and, for general
convex polynomial V, a Metropolis chain on the entries of T, exact for
every beta > 0 (its target is log-concave only for beta >= 1).  Replicas
draw from counter-based splittable streams keyed by (seed, replica), so
batched and sequential runs are bit-identical.  A sample keeps the
matrix T it was drawn as, and what is read off it (the whole spectrum, or
an edge summary) is computed on demand.  Which route a potential may take
is decided in dos, which draws replicas in several processes: each
process reduces the samples it draws to the numbers the experiment needs,
so a sample never leaves the process that drew it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .equilibrium import equilibrium_cached
from .potential import Potential

__all__ = [
    "SpectrumSample", "EdgeSummary", "rng_for", "sample_gaussian",
    "tridiag_eigenvalues", "tridiag_power_sums", "sample_mcmc_batch",
]

MCMC_BURN_IN = 100       # adaptive sweeps, whatever N
MCMC_SWEEPS = 50         # measured sweeps at fixed steps
MCMC_CHUNK = 16          # sweeps of randomness drawn per tape refill
TARGET_ACCEPT = 0.35


def rng_for(seed: int, replica: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, replica): replicas are independent,
    order-free, and reproducible."""
    key = np.array([np.uint64(seed % (1 << 64)), np.uint64(replica)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# -- edge summaries -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EdgeSummary:
    """What a polynomial edge statistic needs from one configuration.

    power_sums[j] = sum_i lambda_i^j for j = 0..degree; with lambda_max
    this determines sum_i f(a - lambda_i) for every polynomial f of degree
    <= degree and every shift a.  in_window says whether every eigenvalue
    lies in the spectral window [-H, H] the summary was made for.
    """

    n: int
    lambda_max: float
    in_window: bool
    power_sums: np.ndarray


def _power_diagonals(diagonal, offdiagonal, degree: int) -> np.ndarray:
    """diag(T^j), j = 0..degree, of symmetric tridiagonal matrices T given
    by (..., N) diagonals and (..., N - 1) off-diagonals: an array of shape
    (degree + 1, ..., N), batched over the leading axes.

    Carries the nonzero diagonals of T^k; the next power is three shifted
    elementwise products per diagonal, so it costs O(N degree^2) and no
    eigenvalue is solved.  Only the diagonals |m| <= min(k, degree - k)
    of T^k are formed: the ones the diagonal of a later power reads.
    """
    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(offdiagonal, dtype=float)
    n, pad = d.shape[-1], degree + 1
    batch = d.size // n
    # T's entries at column c, zero-padded so shifted reads past the ends
    # see zeros: rows above[c] = T[c-1, c], main[c] = T[c, c] and
    # below[c] = T[c+1, c]
    padded = np.zeros((3, batch, n + 2 * pad))
    padded[0, :, pad + 1:pad + n] = e.reshape(batch, n - 1)
    padded[1, :, pad:pad + n] = d.reshape(batch, n)
    padded[2, :, pad:pad + n - 1] = e.reshape(batch, n - 1)
    # shifted[:, r] reads the three rows r - degree columns to the right,
    # padded[:, :, r + 1:r + 1 + n], as one view with no copy
    step = padded.itemsize
    shifted = np.ndarray((3, 2 * degree + 1, batch, n), buffer=padded,
                         offset=step, strides=(padded.strides[0], step,
                                               padded.strides[1], step))
    # row degree+1+m holds (T^k)[i, i+m]; one zero row on each side
    bands = np.zeros((2 * degree + 3, batch, n))
    bands[degree + 1] = 1.0
    out = np.empty((degree + 1, batch, n))
    out[0] = 1.0
    term = np.empty_like(bands)
    for k in range(1, degree + 1):
        w = min(k, degree - k)
        lo, hi = degree + 1 - w, degree + 2 + w
        nxt = np.zeros(bands.shape)
        acc, tmp = nxt[lo:hi], term[lo:hi]
        np.multiply(bands[lo - 1:hi - 1], shifted[0, lo - 1:hi - 1], out=acc)
        acc += np.multiply(bands[lo:hi], shifted[1, lo - 1:hi - 1], out=tmp)
        acc += np.multiply(bands[lo + 1:hi + 1], shifted[2, lo - 1:hi - 1],
                           out=tmp)
        bands = nxt
        out[k] = bands[degree + 1]
    return out.reshape((degree + 1,) + d.shape)


def tridiag_power_sums(diagonal, offdiagonal, degree: int) -> np.ndarray:
    """tr(T^j), j = 0..degree, of a symmetric tridiagonal T, in O(N degree^2)
    with no eigenvalue solved (see _power_diagonals)."""
    diags = _power_diagonals(diagonal, offdiagonal, degree)
    return np.array([float(np.sum(row)) for row in diags])


# -- samples -------------------------------------------------------------------

def tridiag_eigenvalues(diagonal, offdiagonal) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, sorted ascending."""
    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(offdiagonal, dtype=float)
    if e.size != d.size - 1:
        raise ValueError("off-diagonal must have length N-1")
    return eigh_tridiagonal(d, e, eigvals_only=True)


@dataclass(frozen=True, eq=False)
class SpectrumSample:
    """One eigenvalue configuration: the spectrum of scale * T, T the
    symmetric tridiagonal (Jacobi) matrix it was drawn as, with diagonal
    `diagonal` and off-diagonal `offdiagonal`.

    The N eigenvalues are solved, O(N^2), the first time eigenvalues,
    lambda_max or tie_breaks is read, and kept; edge_summary reads what a
    polynomial edge statistic needs off T without solving them.
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    scale: float = 1.0
    replica: int = 0
    acceptance_rate: float | None = None

    def __post_init__(self):
        # read-only views of the entries, not copies: no write through the
        # sample can change the matrix its spectrum is solved from
        d = np.asarray(self.diagonal, dtype=float).view()
        e = np.asarray(self.offdiagonal, dtype=float).view()
        if d.size < 2 or e.size != d.size - 1:
            raise ValueError("need N >= 2 diagonal and N - 1 off-diagonal "
                             "entries")
        # edge_summary's Gershgorin bound reads the off-diagonal as >= 0
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))
                and np.all(e >= 0)):
            raise ValueError("Jacobi entries must be finite, and the "
                             "off-diagonal >= 0")
        for name, entries in (("diagonal", d), ("offdiagonal", e)):
            entries.setflags(write=False)
            object.__setattr__(self, name, entries)

    @property
    def n(self) -> int:
        return self.diagonal.size

    @cached_property
    def _spectrum(self) -> tuple:
        """The eigenvalues, strictly sorted ascending, and how many ties
        were nudged upward to make them so."""
        lam = np.sort(tridiag_eigenvalues(self.diagonal, self.offdiagonal)
                      * self.scale)
        ties = 0
        if not np.all(np.diff(lam) > 0):
            for i in range(1, lam.size):
                if lam[i] <= lam[i - 1]:        # stable perturbation upward
                    lam[i] = np.nextafter(lam[i - 1], np.inf)
                    ties += 1
        lam.setflags(write=False)
        return lam, ties

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def tie_breaks(self) -> int:
        return self._spectrum[1]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def edge_summary(self, degree: int, window_h: float) -> EdgeSummary:
        """EdgeSummary of the spectrum for the window [-window_h, window_h],
        without solving for all N eigenvalues.

        Power sums are traces of powers of scale * T, O(N degree^2), and
        lambda_max is one bisection solve.  The left end of the window is
        certified by the Gershgorin bound min_i(d_i - e_(i-1) - e_i),
        lowered by a rounding margin; only when that bound falls below
        -window_h is lambda_min bisected as well.
        """
        diag, off, scale = self.diagonal, self.offdiagonal, self.scale
        n = diag.size

        def eigenvalue(index):
            return float(eigh_tridiagonal(
                diag, off, eigvals_only=True, select="i",
                select_range=(index, index))[0]) * scale

        lambda_max = eigenvalue(n - 1)
        radius = np.zeros(n)    # e_(i-1) + e_i of row i
        radius[:-1] += off
        radius[1:] += off
        # the margin, 8 N ulps of the matrix norm, covers the rounding of
        # this bound and of the bisection (LAPACK's stebz widens its own
        # Gershgorin interval by about 2 N ulps of the norm for the same
        # reason)
        norm = float(np.max(np.abs(diag) + radius))
        lower = (float(np.min(diag - radius))
                 - 8.0 * n * np.finfo(float).eps * norm) * scale
        if lower < -window_h:
            lower = eigenvalue(0)
        return EdgeSummary(
            n=n, lambda_max=lambda_max,
            in_window=max(abs(lower), abs(lambda_max)) <= window_h,
            power_sums=tridiag_power_sums(diag * scale, off * scale, degree))


def sample_gaussian(n: int, beta: float, seed: int,
                    replica: int = 0) -> SpectrumSample:
    """Gaussian beta-ensemble via its tridiagonal model.

    Diagonal N(0,1); off-diagonal k (from the top) is chi_{beta(N-k)}/sqrt2,
    drawn as sqrt(Gamma(beta(N-k)/2)).  The draws from rng_for(seed,
    replica) come in this order (normals, then gammas), which is the stream
    contract every replica relies on.  The spectrum is scaled by
    sqrt(2/(beta N)), so the empirical law converges to the semicircle on
    [-2, 2].  Nothing is solved here (see SpectrumSample).
    """
    if n < 2 or beta <= 0:
        raise ValueError("need n >= 2 and beta > 0")
    rng = rng_for(seed, replica)
    diag = rng.standard_normal(n)
    off = np.sqrt(rng.gamma(shape=0.5 * beta * np.arange(n - 1, 0, -1)))
    return SpectrumSample(diag, off, math.sqrt(2.0 / (beta * n)),
                          replica=int(replica))


# -- Metropolis on the Jacobi entries -------------------------------------------

def _potential_diagonal(coeffs: np.ndarray, diag, off) -> np.ndarray:
    """diag V(T), batched like _power_diagonals, for V with ascending
    coefficients coeffs."""
    powers = _power_diagonals(diag, off, coeffs.size - 1)
    out = np.full(powers.shape[1:], coeffs[0])
    for c, row in zip(coeffs[1:], powers[1:]):
        if c:
            out += c * row
    return out


def _colour_classes(n: int, degree: int) -> list[tuple]:
    """The Jacobi entries of an N x N matrix cut into classes whose members
    can move at once, for V of even degree p = degree.

    A row r of V(T) sees a_i only through closed walks of length <= p from
    r that take the loop at i, so only rows |r - i| <= h = p/2 - 1 change
    when a_i alone moves; b_i, the entry joining rows i and i + 1, reaches
    rows i - h .. i + 1 + h.  Diagonal entries p - 1 apart, or
    off-diagonal entries p apart, therefore own disjoint row windows that
    tile the rows: each site's change of tr V(T) is the sum of
    diag V(T)_new - diag V(T)_old over its own window, and its accept
    decision does not depend on the others'.

    Each class is (is_off, sites, starts, owner): sites is a slice of the
    diagonal (is_off False) or of the off-diagonal, starts the first row
    of each site's window, clipped at 0, as np.add.reduceat wants it, and
    owner[r] the site whose window holds row r (a row in no window keeps
    its value, so it is given to the nearest site).
    """
    h = degree // 2 - 1
    rows = np.arange(n)
    classes = []
    for is_off, count, spacing in ((False, n, degree - 1),
                                   (True, n - 1, degree)):
        for first in range(min(spacing, count)):
            starts = np.maximum(np.arange(first, count, spacing) - h, 0)
            owner = np.maximum(
                np.searchsorted(starts, rows, side="right") - 1, 0)
            classes.append((is_off, slice(first, None, spacing), starts,
                            owner))
    return classes


def _mcmc_chains(V: Potential, beta: float, n: int, seed: int,
                 replicas) -> tuple:
    """Final Jacobi entries a (R, N) and b (R, N - 1) of the chains of
    sample_mcmc_batch, and their acceptance rates (R,)."""
    if n < 2 or beta <= 0:
        raise ValueError("need n >= 2 and beta > 0")
    rngs = [rng_for(seed, r) for r in replicas]
    R = len(rngs)
    eq = equilibrium_cached(V)
    coeffs = V.coeffs
    classes = _colour_classes(n, V.degree)
    a = np.full((R, n), eq.measure.center)
    u = np.full((R, n - 1), math.log(0.5 * eq.measure.radius))
    b = np.exp(u)
    diag_v = _potential_diagonal(coeffs, a, b)
    half_nb = 0.5 * n * beta
    weight = beta * np.arange(n - 1, 0, -1)    # beta (N - k), k from the top
    # Proposal scales: for V = x^2/2 the conditional law of a_i has standard
    # deviation (radius / 2) sqrt(2 / (beta N)) and that of u_k about
    # 1 / sqrt(2 beta (N - k)); the adapted steps multiply these, and
    # start at 2.4, the best random-walk step for a Gaussian target
    sd = 1.0 / math.sqrt(2.0 * beta * n)
    scale = np.concatenate([np.full(n, eq.measure.radius * sd),
                            sd * np.sqrt(n / np.arange(n - 1, 0, -1))])
    step = np.full((R, 2), 2.4)             # columns: diagonal, off-diagonal
    sites_per_kind = np.array([n, n - 1])
    sweeps = MCMC_BURN_IN + MCMC_SWEEPS
    accepted = np.empty((R, 2))
    post_accepted = np.zeros(R)
    z = logu = None
    for s in range(sweeps):
        if s % MCMC_CHUNK == 0:
            m = min(MCMC_CHUNK, sweeps - s)
            z = np.stack([rng.standard_normal((m, 2 * n - 1))
                          for rng in rngs])
            logu = np.log(np.stack([rng.random((m, 2 * n - 1))
                                    for rng in rngs]))
        jump = z[:, s % MCMC_CHUNK] * scale
        jump[:, :n] *= step[:, :1]
        jump[:, n:] *= step[:, 1:]
        jump_a, jump_u = jump[:, :n], jump[:, n:]
        lus = logu[:, s % MCMC_CHUNK]
        lu_a, lu_u = lus[:, :n], lus[:, n:]
        accepted[:] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for is_off, sites, starts, owner in classes:
                if is_off:
                    prop_u = u[:, sites] + jump_u[:, sites]
                    prop_b = b.copy()
                    prop_b[:, sites] = np.exp(prop_u)
                    new = _potential_diagonal(coeffs, a, prop_b)
                    gain, log_u = weight[sites] * (prop_u - u[:, sites]), \
                        lu_u[:, sites]
                else:
                    prop_a = a.copy()
                    prop_a[:, sites] += jump_a[:, sites]
                    new = _potential_diagonal(coeffs, prop_a, b)
                    gain, log_u = 0.0, lu_a[:, sites]
                ok = log_u < gain - half_nb * np.add.reduceat(
                    new - diag_v, starts, axis=1)
                if is_off:
                    np.copyto(u[:, sites], prop_u, where=ok)
                    np.copyto(b[:, sites], prop_b[:, sites], where=ok)
                else:
                    np.copyto(a[:, sites], prop_a[:, sites], where=ok)
                np.copyto(diag_v, new, where=ok[:, owner])
                accepted[:, int(is_off)] += np.count_nonzero(ok, axis=1)
        if s < MCMC_BURN_IN:
            step *= np.exp(0.5 * (accepted / sites_per_kind - TARGET_ACCEPT))
            np.clip(step, 1e-3, 1e3, out=step)
        else:
            post_accepted += accepted.sum(axis=1)
    return a, b, post_accepted / (MCMC_SWEEPS * (2 * n - 1))


def sample_mcmc_batch(V: Potential, beta: float, n: int, seed: int,
                      replicas) -> list[SpectrumSample]:
    """Metropolis samples of the beta-ensemble with potential V, for several
    replicas, vectorized across chains.

    The chain runs on the entries of a Jacobi matrix T (diagonal a,
    off-diagonal b > 0), with target density proportional to
    exp(-(N beta / 2) tr V(T)) prod_k b_k^(beta (N - k) - 1), k = 1..N-1
    from the top.  T's eigenvalues then follow the beta-ensemble exactly,
    for any V and any beta > 0 (Dumitriu and Edelman, J. Math. Phys. 43
    (2002); Krishnapur, Rider and Virag, Comm. Pure Appl. Math. 69 (2016)).
    The off-diagonal moves as u = ln b, whose Jacobian cancels the -1 in
    each exponent.  For beta >= 1 the target is log-concave in (a, u): tr
    V(T) is convex in T for convex V; below 1 it need not be.

    Every chain starts from the constant profile a = centre, b = radius / 2
    of mu_V.  MCMC_BURN_IN sweeps adapt each chain's two step sizes
    (diagonal, off-diagonal) toward TARGET_ACCEPT; acceptance_rate is then
    measured over MCMC_SWEEPS sweeps at fixed steps, and the sample is the
    final T (its eigenvalues are solved when first read, see
    SpectrumSample).  A sweep moves each colour class of
    _colour_classes at once, for all replicas: 2 deg V - 1 batches of
    O(R N deg V^2) work.  Each replica has its own stream, and its
    randomness is drawn in fixed chunks (normals then uniforms per chunk),
    so a batch of size one reproduces any replica of a larger batch bit for
    bit.
    """
    a, b, acc = _mcmc_chains(V, beta, n, seed, replicas)
    return [
        SpectrumSample(a[j], b[j], replica=int(r),
                       acceptance_rate=float(acc[j]))
        for j, r in enumerate(replicas)
    ]

