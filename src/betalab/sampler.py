"""Samplers for beta-ensemble eigenvalue configurations.

Two routes to the law  P ~ |Delta(lambda)|^beta exp(-(N beta / 2) sum V):
a tridiagonal matrix model, exact for V = x^2/2 after a 1/sqrt(N) rescale
that puts the semicircle edge at +-2, and a Metropolis chain on the log-gas
for general convex polynomial V.  Replicas draw from counter-based
splittable streams keyed by (seed, replica), so batched and sequential
runs are bit-identical.  Which route a potential may take is decided in
dos, which draws replicas in several processes: each process reduces the
samples it draws to the numbers the experiment needs, so a sample never
leaves the process that drew it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .potential import Potential

__all__ = [
    "SpectrumSample", "EdgeSummary", "rng_for", "sample_gaussian",
    "gaussian_edge_summary", "tridiag_eigenvalues", "tridiag_power_sums",
    "sample_mcmc_batch",
]

MCMC_CHUNK = 64          # sweeps of randomness drawn per tape refill
TARGET_ACCEPT = 0.35
MCMC_STEP0 = 0.5         # initial proposal scale of every chain


def rng_for(seed: int, replica: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, replica): replicas are independent,
    order-free, and reproducible."""
    key = np.array([np.uint64(seed % (1 << 64)), np.uint64(replica)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class SpectrumSample:
    """One eigenvalue configuration, strictly sorted ascending."""

    eigenvalues: np.ndarray
    n: int
    replica: int = 0
    acceptance_rate: float | None = None
    tie_breaks: int = field(default=0, init=False)  # ties nudged upward

    def __post_init__(self):
        lam = np.sort(np.asarray(self.eigenvalues, dtype=float))
        if lam.size != self.n or self.n < 2:
            raise ValueError("need N >= 2 eigenvalues")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        ties = 0
        if not np.all(np.diff(lam) > 0):
            for i in range(1, lam.size):
                if lam[i] <= lam[i - 1]:        # stable perturbation upward
                    lam[i] = np.nextafter(lam[i - 1], np.inf)
                    ties += 1
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "tie_breaks", ties)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def tridiag_eigenvalues(diagonal, offdiagonal) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, sorted ascending."""
    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(offdiagonal, dtype=float)
    if e.size != d.size - 1:
        raise ValueError("off-diagonal must have length N-1")
    if d.size == 1:
        return d.copy()
    return eigh_tridiagonal(d, e, eigvals_only=True)


def _gaussian_tridiagonal(n: int, beta: float, seed: int,
                          replica: int) -> tuple:
    """Unscaled diagonal and off-diagonal of the Gaussian tridiagonal model.

    Diagonal N(0,1); off-diagonal k (from the top) is chi_{beta(N-k)}/sqrt2,
    drawn as sqrt(Gamma(beta(N-k)/2)).  The draws from rng_for(seed,
    replica) come in this order (normals, then gammas), which is the stream
    contract every replica of every route relies on.
    """
    if n < 2 or beta <= 0:
        raise ValueError("need n >= 2 and beta > 0")
    rng = rng_for(seed, replica)
    diag = rng.standard_normal(n)
    shapes = 0.5 * beta * np.arange(n - 1, 0, -1)
    off = np.sqrt(rng.gamma(shape=shapes))
    return diag, off


def sample_gaussian(n: int, beta: float, seed: int,
                    replica: int = 0) -> SpectrumSample:
    """Gaussian beta-ensemble via its tridiagonal model.

    Eigenvalues of the tridiagonal draw are scaled by sqrt(2/(beta N)) so
    the empirical law converges to the semicircle on [-2, 2].  All N
    eigenvalues are solved: O(N^2) per replica.
    """
    diag, off = _gaussian_tridiagonal(n, beta, seed, replica)
    lam = tridiag_eigenvalues(diag, off) * math.sqrt(2.0 / (beta * n))
    return SpectrumSample(eigenvalues=lam, n=n, replica=int(replica))


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

    @classmethod
    def from_eigenvalues(cls, eigenvalues, degree: int,
                         window_h: float) -> "EdgeSummary":
        """Summary of an explicit spectrum (any sampler), sorted ascending."""
        lam = np.asarray(eigenvalues, dtype=float)
        sums = np.array([np.sum(lam ** j) for j in range(degree + 1)])
        return cls(n=lam.size, lambda_max=float(lam[-1]),
                   in_window=bool(max(abs(lam[0]), abs(lam[-1])) <= window_h),
                   power_sums=sums)


def tridiag_power_sums(diagonal, offdiagonal, degree: int) -> np.ndarray:
    """tr(T^j), j = 0..degree, of a symmetric tridiagonal T.

    Carries the 2k+1 nonzero diagonals of T^k; the next power is three
    shifted elementwise products per diagonal, so each trace costs
    O(N degree) and no eigenvalue is solved.
    """
    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(offdiagonal, dtype=float)
    n, pad = d.size, degree + 1
    # T's entries at column c, zero-padded so shifted reads past the ends
    # see zeros: rows above[c] = T[c-1, c], main[c] = T[c, c] and
    # below[c] = T[c+1, c]
    padded = np.zeros((3, n + 2 * pad))
    padded[0, pad + 1:pad + n] = e
    padded[1, pad:pad + n] = d
    padded[2, pad:pad + n - 1] = e
    # shifted[:, r] reads the three rows r - degree columns to the right,
    # padded[:, r + 1:r + 1 + n], as one view with no copy: a copy is
    # 15 rows of N, which costs more than the products at N = 2000
    step = padded.itemsize
    shifted = np.ndarray((3, 2 * degree + 1, n), buffer=padded,
                         offset=step, strides=(padded.strides[0], step, step))
    # row degree+1+m holds (T^k)[i, i+m]; one zero row on each side
    bands = np.zeros((2 * degree + 3, n))
    bands[degree + 1] = 1.0
    sums = [float(n)]
    for _ in range(degree):
        nxt = np.zeros_like(bands)
        nxt[1:-1] = (bands[:-2] * shifted[0] + bands[1:-1] * shifted[1]
                     + bands[2:] * shifted[2])
        bands = nxt
        sums.append(float(np.sum(bands[degree + 1])))
    return np.array(sums)


def gaussian_edge_summary(n: int, beta: float, seed: int, replica: int = 0,
                          degree: int = 2, *, window_h: float) -> EdgeSummary:
    """EdgeSummary, for the window [-window_h, window_h], of the spectrum
    sample_gaussian(n, beta, seed, replica) would return, without solving
    for all N eigenvalues.

    Power sums are traces of powers of the scaled tridiagonal matrix,
    O(N degree), and lambda_max is one bisection solve.  The left end of
    the window is certified by the Gershgorin bound min_i(d_i - |e_(i-1)|
    - |e_i|), lowered by a rounding margin; only when that bound falls
    below -window_h is lambda_min bisected as well.
    """
    diag, off = _gaussian_tridiagonal(n, beta, seed, replica)
    scale = math.sqrt(2.0 / (beta * n))

    def eigenvalue(index):
        return float(eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i",
            select_range=(index, index))[0]) * scale

    lambda_max = eigenvalue(n - 1)
    radius = np.zeros(n)    # |e_(i-1)| + |e_i| of row i (chi draws: e >= 0)
    radius[:-1] += off
    radius[1:] += off
    # the margin, 8 N ulps of the matrix norm, covers the rounding of this
    # bound and of the bisection (LAPACK's stebz widens its own Gershgorin
    # interval by about 2 N ulps of the norm for the same reason)
    norm = float(np.max(np.abs(diag) + radius))
    lower = (float(np.min(diag - radius))
             - 8.0 * n * np.finfo(float).eps * norm) * scale
    if lower < -window_h:
        lower = eigenvalue(0)
    return EdgeSummary(
        n=n, lambda_max=lambda_max,
        in_window=max(abs(lower), abs(lambda_max)) <= window_h,
        power_sums=tridiag_power_sums(diag * scale, off * scale, degree))


# -- Metropolis log-gas --------------------------------------------------------

def sample_mcmc_batch(V: Potential, beta: float, n: int, seed: int,
                      replicas) -> list[SpectrumSample]:
    """Metropolis samples for several replicas, vectorized across chains.

    20 N burn-in sweeps adapt each chain's step toward TARGET_ACCEPT, then
    acceptance_rate is measured over 10 N sweeps at a fixed step.  Per
    sweep and site, all replicas propose and accept/reject together.  Each
    replica has its own stream, and its randomness is drawn in fixed chunks
    (normals then uniforms per chunk), so a batch of size one reproduces
    any replica of a larger batch bit for bit.

    Site i changes only on its own turn, so when its turn comes its value
    is still the one it had at the start of the sweep.  The proposals, the
    potential term (N beta / 2)(V(prop) - V(cur)) and log u are therefore
    computed once per sweep, as (R, N) arrays.  A site visit only sums
    log|x - l_j| over the other sites j, for x the proposal and the current
    value together.  The other sites sit in a buffer in np.delete order
    (site i's new value replaces site i+1's at column i after its turn),
    so the sums, and the chain, are the same bit for bit as a per-site
    np.delete loop.
    """
    rngs = [rng_for(seed, r) for r in replicas]
    R = len(rngs)
    burn = 20 * n
    sweeps = burn + 10 * n
    lam = np.empty((R, n))
    for j, rng in enumerate(rngs):
        lam[j] = np.sort(rng.uniform(-3.0, 3.0, n))
    step = np.full(R, MCMC_STEP0)
    half_nb = 0.5 * n * beta

    # pair[i] = (proposal, current) at site i, as columns against the other
    # sites, which near = rest[:, :-1] holds in np.delete order
    pair = np.empty((n, 2, R, 1))
    rest = np.empty((R, n))
    near = rest[:, :-1]
    logs = np.empty((2, R, n - 1))
    sums = np.empty((2, R))
    dlog = np.empty(R)
    finite = np.empty(R, dtype=bool)
    ok = np.empty((n, R), dtype=bool)
    post_accepted = np.zeros(R)
    z = logu = None
    for s in range(sweeps):
        if s % MCMC_CHUNK == 0:
            m = min(MCMC_CHUNK, sweeps - s)
            z = np.stack([rng.standard_normal((m, n)) for rng in rngs])
            logu = np.log(np.stack([rng.random((m, n)) for rng in rngs]))
        zs, lus = z[:, s % MCMC_CHUNK], logu[:, s % MCMC_CHUNK].T
        prop = lam + step[:, None] * zs
        dpot = (half_nb * (V.eval(prop) - V.eval(lam))).T
        pair[:, 0, :, 0] = prop.T
        pair[:, 1, :, 0] = lam.T
        near[...] = lam[:, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(n):
                np.subtract(pair[i], near, out=logs)
                np.abs(logs, out=logs)
                np.log(logs, out=logs)
                np.add.reduce(logs, axis=2, out=sums)
                np.subtract(sums[0], sums[1], out=dlog)
                dlog *= beta
                dlog -= dpot[i]
                np.isfinite(dlog, out=finite)
                np.less(lus[i], dlog, out=ok[i])
                ok[i] &= finite
                np.copyto(lam[:, i], pair[i, 0, :, 0], where=ok[i])
                rest[:, i] = lam[:, i]     # one of the others of site i+1
        accepted = np.count_nonzero(ok, axis=0)
        if s < burn:
            step *= np.exp(0.5 * (accepted / n - TARGET_ACCEPT))
            np.clip(step, 1e-4, 10.0, out=step)
        else:
            post_accepted += accepted
    acc = post_accepted / ((sweeps - burn) * n)
    return [
        SpectrumSample(eigenvalues=lam[j], n=n, replica=int(r),
                       acceptance_rate=float(acc[j]))
        for j, r in enumerate(replicas)
    ]
