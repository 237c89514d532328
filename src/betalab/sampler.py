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
is decided in dos._map_replicas, the one map that draws replicas, in
several processes: each process reduces the samples it draws to the
numbers the experiment needs, so a sample never leaves the process that
drew it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import eigh_tridiagonal

from .equilibrium import equilibrium_cached
from .potential import Potential

__all__ = [
    "SpectrumSample", "EdgeSummary", "rng_for", "sample_gaussian",
    "tridiag_power_sums", "sample_mcmc_batch",
]

MCMC_BURN_IN = 100       # adaptive sweeps, whatever N
MCMC_SWEEPS = 50         # measured sweeps at fixed steps
MCMC_CHUNK = 16          # sweeps of randomness drawn per tape refill
TARGET_ACCEPT = 0.35


def rng_for(seed: int, replica: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, replica): replicas are independent,
    order-free, and reproducible; the seed must lie in [0, 2^64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    key = np.array([np.uint64(seed), np.uint64(replica)], dtype=np.uint64)
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


def _sum_of_products(left, right, product, out) -> np.ndarray:
    """out = sum over the first axis of left * right, through product."""
    return np.add.reduce(np.multiply(left, right, out=product), axis=0,
                         out=out)


class _JacobiBands:
    """Workspace for diag(T^k), k = 0..degree, of R symmetric tridiagonal
    N x N matrices T, made once and recomputed in place.

    The batch is laid end to end as one tridiagonal matrix with zero
    couplings between blocks, whose powers are block diagonal, so each
    product runs once over all R N entries.  Row m of band j holds
    (T^j)[c - m, c] at column c.  Band 1 is the entries, above[c] =
    T[c-1, c], main[c] = T[c, c] and below[c] = T[c+1, c]: rows 2-4 of a
    buffer with two zero rows on each side and h zero columns at each end,
    so shifted reads past the ends see zeros (a block's first above and
    last below are the zero couplings).  They are written in place through
    `diagonal` (R, N) and `couplings` (2, R, N - 1), one strided view of
    both copies of the off-diagonal, above and below.

    T is symmetric, so diag(T^k)_c = sum_m (T^j)[c-m, c] (T^(k-j))[c-m, c]
    with j = k // 2: the bands j <= h = ceil(degree / 2) are enough.  With
    P = T^(j-1), (T^j)[c-m, c] = below[c-m-1] P[c-m-1, c] + main[c-m]
    P[c-m, c] + above[c-m+1] P[c-m+1, c] for |m| <= min(j, degree - j):
    one multiply of a window of band j - 1 by an overlapping view of the
    entries' shifted columns, and one sum of its three slices; the rows
    beyond stay zero.  In all O(N degree^2), and no eigenvalue is solved.
    """

    def __init__(self, diagonal, offdiagonal, degree: int):
        d = np.asarray(diagonal, dtype=float)
        e = np.asarray(offdiagonal, dtype=float)
        n, size = d.shape[-1], d.size
        h = max(1, -(-degree // 2))
        entries = np.zeros((7, size + 2 * h))
        blocks = entries[2:5, h:h + size].reshape(3, -1, n)
        self.diagonal = blocks[1]
        item, row = entries.itemsize, entries.strides[0]
        # above[c + 1], two rows and one column from below[c]: the planes
        # of couplings are above[:, 1:] and below[:, :-1]
        self.couplings = np.ndarray(
            (2, size // n, n - 1), buffer=entries,
            offset=2 * row + (h + 1) * item,
            strides=(2 * row - item, n * item, item))
        self.offdiagonal = blocks[2, :, :-1]
        self.diagonal[:] = d.reshape(-1, n)
        self.couplings[:] = e.reshape(-1, n - 1)
        # row m of band j is bands[j][mid[j] - m]
        mid = [0, 3] + [h + 1] * (h - 1)
        bands = [np.ones((1, size)), entries[:, h:h + size]] + [
            np.zeros((2 * h + 3, size)) for _ in range(h - 1)]
        scratch = np.empty((6 * h + 3, size))
        self._steps = []
        for j in range(2, h + 1):
            w, prev, top = min(j, degree - j), bands[j - 1], mid[j - 1]
            # row m = w - i of band j: window[t, i] is row m + 1 - t of band
            # j - 1, shifted[t, i] column c - m - 1 + t of buffer row 4 - t
            shape = (3, 2 * w + 1, size)
            window = as_strided(prev[top - w - 1:], shape,
                                (prev.strides[0], prev.strides[0], item))
            shifted = as_strided(entries.ravel()[4 * row // item + h - w - 1:],
                                 shape, (item - row, item, item))
            self._steps.append((window, shifted,
                                scratch[:3 * (2 * w + 1)].reshape(shape),
                                bands[j][mid[j] - w:mid[j] + w + 1]))
        self._diagonals = np.empty((degree + 1, size))
        self._products = [tuple(bands[i][mid[i] - k // 2:mid[i] + k // 2 + 1]
                                for i in (k // 2, k - k // 2))
                          + (scratch[:k // 2 * 2 + 1], self._diagonals[k])
                          for k in range(degree + 1)]
        self._potential, self._term = np.empty(d.shape), np.empty(size)

    def power_diagonals(self) -> np.ndarray:
        """diag(T^k), k = 0..degree, of the entries as they stand: flat
        (R N,) rows of the workspace, overwritten by the next call."""
        for step in self._steps + self._products:
            _sum_of_products(*step)
        return self._diagonals

    def potential_diagonal(self, coeffs: np.ndarray) -> np.ndarray:
        """diag V(T) (R, N), V with ascending coefficients coeffs: c_0 plus
        c_k diag(T^k) for each c_k != 0 in k order, overwritten next call.
        With c_0 = 0 the sum starts at the first term (0.0 + x == x)."""
        for step in self._steps:
            _sum_of_products(*step)
        out = self._potential.reshape(-1)
        begun = coeffs[0] != 0.0
        if begun:
            out.fill(coeffs[0])
        for c, step in zip(coeffs[1:], self._products[1:]):
            if c and begun:
                out += np.multiply(c, _sum_of_products(*step), out=self._term)
            elif c:
                np.multiply(c, _sum_of_products(*step), out=out)
                begun = True
        return self._potential


def tridiag_power_sums(diagonal, offdiagonal, degree: int) -> np.ndarray:
    """tr(T^j), j = 0..degree, of a symmetric tridiagonal T, in O(N degree^2)
    with no eigenvalue solved (see _JacobiBands)."""
    return _JacobiBands(diagonal, offdiagonal, degree).power_diagonals().sum(
        axis=1)


# -- samples -------------------------------------------------------------------

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
        lam = np.sort(eigh_tridiagonal(self.diagonal, self.offdiagonal,
                                       eigvals_only=True) * self.scale)
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
    sample_mcmc_batch, and their acceptance rates (R,).

    The chains' state is one _JacobiBands workspace, made once per call.
    Every site moves exactly once per sweep, so what a proposal needs from
    the state before the sweep (a + jump, exp(u + jump), the gain
    beta (N - k) (u_new - u), the entries to restore) is formed once per
    sweep over all 2 N - 1 sites.  A class then writes its proposals into
    the entries in place (both copies of b in one call), reads diag V(T)
    off the workspace, restores the sites that reject, and keeps the rows
    of diag V(T) that the accepted sites own: 10 numpy calls plus the
    power kernel (5 for a quartic), into buffers and views made once per
    call.  A class costs
    O(R N deg V^2) arithmetic (20 products per entry for V = x^4), in
    calls that grow with deg V but not with R or N.
    """
    if n < 2 or beta <= 0:
        raise ValueError("need n >= 2 and beta > 0")
    rngs = [rng_for(seed, r) for r in replicas]
    R, sites = len(rngs), 2 * n - 1
    eq = equilibrium_cached(V)
    coeffs = V.coeffs
    u = np.full((R, n - 1), math.log(0.5 * eq.measure.radius))
    bands = _JacobiBands(np.full((R, n), eq.measure.center), np.exp(u),
                         V.degree)
    diag_v = bands.potential_diagonal(coeffs).copy()
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
    kind_starts, sites_per_kind = np.array([0, n]), np.array([n, n - 1])
    sweeps = MCMC_BURN_IN + MCMC_SWEEPS
    normals, uniforms = (np.empty((R, MCMC_CHUNK, sites)) for _ in range(2))
    # one sweep's rows over the sites, a_0 .. a_(N-1) then b_0 .. b_(N-2):
    # the entries as the sweep found them, the proposed entries, the
    # jumps, log U, the gains (0 on the diagonal) and the accepts
    entries, proposal, jump, log_u = (np.empty((R, sites)) for _ in range(4))
    gain = np.zeros((R, sites))
    taken = np.empty((R, sites), dtype=bool)
    prop_u = np.empty((R, n - 1))
    a, b = entries[:, :n], entries[:, n:]
    prop_a, prop_b = proposal[:, :n], proposal[:, n:]
    jump_a, jump_u = jump[:, :n], jump[:, n:]
    step_a, step_u = step[:, :1], step[:, 1:]
    gain_u, taken_u = gain[:, n:], taken[:, n:]
    diff, owned = np.empty((R, n)), np.empty((R, n), dtype=bool)
    # per class: where its proposals go in the workspace (both copies of
    # b), its columns of the sweep's rows, and buffers for its sums and
    # rejections
    plan = []
    for is_off, where, starts, owner in _colour_classes(n, V.degree):
        if is_off:
            dest = bands.couplings[:, :, where]
            cols = slice(n + where.start, None, where.step)
        else:
            dest = bands.diagonal[None, :, where]
            cols = slice(where.start, n, where.step)
        plan.append((dest, proposal[:, cols], entries[:, cols],
                     gain[:, cols], log_u[:, cols], taken[:, cols],
                     np.empty((R, starts.size)),
                     np.empty((R, starts.size), dtype=bool), starts, owner))
    post_accepted = np.zeros(R)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(sweeps):
            row = s % MCMC_CHUNK
            if row == 0:
                m = min(MCMC_CHUNK, sweeps - s)
                for rng, z in zip(rngs, normals):
                    rng.standard_normal(out=z[:m])
                for rng, lu in zip(rngs, uniforms):
                    rng.random(out=lu[:m])
                np.log(uniforms[:, :m], out=uniforms[:, :m])
            np.copyto(a, bands.diagonal)
            np.copyto(b, bands.offdiagonal)
            np.multiply(normals[:, row], scale, out=jump)
            jump_a *= step_a
            jump_u *= step_u
            np.add(a, jump_a, out=prop_a)
            np.add(u, jump_u, out=prop_u)
            np.exp(prop_u, out=prop_b)
            np.multiply(weight, np.subtract(prop_u, u, out=gain_u),
                        out=gain_u)
            np.copyto(log_u, uniforms[:, row])
            for (dest, prop, kept, gain_c, lu, ok, sums, reject, starts,
                 owner) in plan:
                np.copyto(dest, prop)
                new = bands.potential_diagonal(coeffs)
                np.add.reduceat(np.subtract(new, diag_v, out=diff), starts,
                                axis=1, out=sums)
                np.subtract(gain_c, np.multiply(half_nb, sums, out=sums),
                            out=sums)
                np.less(lu, sums, out=ok)
                np.copyto(dest, kept, where=np.logical_not(ok, out=reject))
                np.copyto(diag_v, new,
                          where=ok.take(owner, 1, owned, "clip"))
            np.copyto(u, prop_u, where=taken_u)
            accepted = np.add.reduceat(taken, kind_starts, axis=1, dtype=int)
            if s < MCMC_BURN_IN:
                step *= np.exp(0.5 * (accepted / sites_per_kind
                                      - TARGET_ACCEPT))
                np.clip(step, 1e-3, 1e3, out=step)
            else:
                post_accepted += accepted.sum(axis=1)
    return (bands.diagonal.copy(), bands.offdiagonal.copy(),
            post_accepted / (MCMC_SWEEPS * sites))


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
    SpectrumSample).  A sweep moves each colour class of _colour_classes
    at once, for all replicas: 2 deg V - 1 batches of O(R N deg V^2) work,
    15 numpy calls each for a quartic, on one workspace that the whole
    batch of chains shares (see _mcmc_chains).
    Each replica has its own stream, and its randomness is drawn in fixed
    chunks (normals then uniforms per chunk), so a batch of size one
    reproduces any replica of a larger batch bit for bit.
    """
    a, b, acc = _mcmc_chains(V, beta, n, seed, replicas)
    return [
        SpectrumSample(a[j], b[j], replica=int(r),
                       acceptance_rate=float(acc[j]))
        for j, r in enumerate(replicas)
    ]

