"""Spectrum-from-the-right-edge statistics and fluctuation experiments.

The central object is the near-extreme measure mu_N with atoms
lambda_max - lambda_(k), k < N.  The module builds it from samples, runs
convergence studies against nu_V, evaluates the edge-CLT constants
(Chebyshev coefficients, limit variance, Gaussian bias measure), and runs
ensemble fluctuation experiments with regime detection, window
diagnostics, and the Taylor bookkeeping identity checked on every replica.
Every per-replica term comes from the replica's power sums (edge_terms);
the routes that read the same terms off a full spectrum are test oracles
(tests/oracles.py).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as P

from .equilibrium import EquilibriumResult, equilibrium_cached, nu_limit
from .measures import AngularMeasure, AtomicMeasure, _cheb_coeffs, \
    _compose, wasserstein
from .potential import GAUSSIAN_KEY, Potential
from .sampler import (
    EdgeSummary, SpectrumSample, sample_gaussian, sample_mcmc_batch,
)

__all__ = [
    "TestFunction", "dos_measure", "nu_quadrature", "cheb_coefficients",
    "clt_variance", "gaussian_bias", "remainder_bound_constant",
    "ks_distance", "EdgeTerms", "edge_terms", "fluctuation_ensemble",
    "dos_convergence", "draw_spectra",
]


@dataclass(frozen=True)
class TestFunction:
    """Polynomial test function f(x) = sum_j coeffs[j] (x - center)^j.

    f is a callable derived from the coefficients, and derivative() is f'
    as a TestFunction, so f'' is derivative().derivative().  Expanding
    about `center` evaluates (x - b)^2 as accurately near b as the direct
    formula.  A polynomial statistic needs only the power sums
    and lambda_max of a spectrum (an EdgeSummary), which the tridiagonal
    model gives in O(N deg) per replica.

    window_h is the spectral window H used by the diagnostics: remainder
    bounds are only asserted on configurations with all |lambda_i| <= H,
    which the EdgeSummary records as in_window.  The coefficients and the
    center must be finite and window_h a positive finite number; anything
    else raises ValueError.
    """

    __test__ = False        # not a pytest collectable despite the name

    coeffs: tuple
    center: float = 0.0
    window_h: float = 3.0
    name: str = "f"

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("a test function needs at least one coefficient")
        if not all(map(math.isfinite, coeffs + (self.center,))):
            raise ValueError("a test function needs finite coefficients "
                             f"and center, got {coeffs} about {self.center}")
        if not (math.isfinite(self.window_h) and self.window_h > 0):
            raise ValueError("window_h must be a positive finite number, "
                             f"got {self.window_h}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self) -> "TestFunction":
        return self._derivative

    @cached_property
    def _derivative(self) -> "TestFunction":
        # built once per instance, so a derivative chain walked for every
        # replica is built once per test function
        return replace(self, coeffs=tuple(P.polyder(self.coeffs)),
                       name=f"({self.name})'")

    @property
    def f(self):
        coeffs, center = self.coeffs, self.center
        return lambda x: P.polyval(np.asarray(x, dtype=float) - center, coeffs)

    def spectral_sum(self, summary: EdgeSummary, a: float) -> float:
        """sum_i f(a - lambda_i) from the summary's power sums, O(deg^2):
        q holds the coefficients of f(a - x) in powers of x, the Taylor
        shift of measures._compose."""
        q = _compose(self.coeffs, a - self.center, -1.0)
        return float(np.dot(q, summary.power_sums[:q.size]))

    @classmethod
    def identity(cls, window_h: float = 3.0) -> "TestFunction":
        return cls(coeffs=(0.0, 1.0), window_h=window_h, name="x")

    @classmethod
    def square_about(cls, center: float,
                     window_h: float = 3.0) -> "TestFunction":
        return cls(coeffs=(0.0, 0.0, 1.0), center=center, window_h=window_h,
                   name=f"(x-{center})^2")

    @classmethod
    def constant(cls, value: float = 1.0,
                 window_h: float = 3.0) -> "TestFunction":
        return cls(coeffs=(value,), window_h=window_h, name=str(value))


def dos_measure(sample: SpectrumSample) -> AtomicMeasure:
    """mu_N := (1/(N-1)) sum_k delta_{lambda_max - lambda_(k)}, k < N: the
    spectrum seen from its rightmost particle."""
    lam = sample.eigenvalues
    return AtomicMeasure.from_points(lam[-1] - lam[:-1])


def nu_quadrature(eq: EquilibriumResult, f: TestFunction) -> float:
    """nu_V(f) = int f(b_V - x) dmu_V(x), f's coefficients integrated
    against mu_V's moment series (AngularMeasure.integrate): exact to
    roundoff, and nu(const) = const exactly."""
    return eq.measure.integrate(f.coeffs, eq.b_v - f.center, -1.0)


# -- CLT constants --------------------------------------------------------------

def cheb_coefficients(f: TestFunction, a_v: float, b_v: float,
                      count: int) -> np.ndarray:
    """a_k = (2/pi) int_0^pi f((b-a)/2 (1 - cos t)) cos(k t) dt, k < count.

    The Chebyshev coefficients of x -> f(r - x) on [-r, r], r = (b-a)/2,
    exact for the polynomial f, with a_0 doubled to match the (2/pi)
    normalization; zero past f's degree.
    """
    r = 0.5 * (b_v - a_v)
    v = _cheb_coeffs(f.coeffs, r - f.center, -r)[:count]
    a = np.pad(v, (0, count - v.size))
    a[0] *= 2.0
    return a


def clt_variance(coeffs, beta: float) -> float:
    """sigma_V^2(f) = (1/(2 beta)) sum_k k a_k^2 over the supplied ladder.

    The limit variance of sum_i f(b_V - lambda_i) (Johansson 1998), with
    a_k from cheb_coefficients.  Check against the sampler's law: f(x) = x
    has a_1 = -2 alone, giving 2/beta, which is Var tr(H) exactly.
    """
    a = np.asarray(coeffs, dtype=float)
    k = np.arange(a.size)
    return float(np.sum(k * a * a) / (2.0 * beta))


def gaussian_bias(f: TestFunction, beta: float,
                  V: Potential | None = None) -> float:
    """m_V(f) = (2/beta - 1)[f(4)/4 + f(0)/4 - (1/2pi) int f(2-t)/sqrt(4-t^2) dt].

    Gaussian potential only: the bias measure has no closed form for other
    potentials here.
    """
    if V is not None and V.key() != GAUSSIAN_KEY:
        raise ValueError("bias measure implemented for the Gaussian potential only")
    arcsine = AngularMeasure(2.0, 2.0, [1.0]).integrate(f.coeffs, -f.center)
    atoms = 0.25 * float(f.f(4.0)) + 0.25 * float(f.f(0.0))
    return (2.0 / beta - 1.0) * (atoms - 0.5 * arcsine)


def remainder_bound_constant(f: TestFunction) -> float:
    """M = max(sup|f|, sup|x f'|, sup|f''|/2) over [-2H, 2H], from the
    coefficients.

    Each sup is the largest |g| over the endpoints and the real parts of
    the roots of g', clipped to the interval.  These points include every
    critical point inside, and every one of them lies in the interval, so
    the max is the sup to roundoff.
    """
    h, c = f.window_h, f.center
    fp = f.derivative()
    fpp = fp.derivative()
    # each g with its coefficients in powers of y = x - c: x f' = (c + y) f'
    terms = ((f.f, f.coeffs),
             (lambda x: x * fp.f(x), P.polymul((c, 1.0), fp.coeffs)),
             (lambda x: 0.5 * fpp.f(x), fpp.coeffs))
    sup = 0.0
    for g, coeffs in terms:
        critical = P.polyroots(P.polyder(coeffs)).real + c
        x = np.concatenate(([-2.0 * h, 2.0 * h],
                            np.clip(critical, -2.0 * h, 2.0 * h)))
        sup = max(sup, float(np.max(np.abs(g(x)))))
    return sup


class EdgeTerms(NamedTuple):
    """One replica's edge statistic and bookkeeping-identity terms."""

    mu_f: float              # mu_N(f)
    epsilon: float           # lambda_max - b_V
    remainder: float         # R_N(f)
    residual: float          # bookkeeping-identity residual
    in_window: bool          # all |lambda_i| <= H


def edge_terms(summary: EdgeSummary, eq: EquilibriumResult, f: TestFunction,
               nu_f: float, nu_fprime: float) -> EdgeTerms:
    """mu_N(f), R_N(f), the bookkeeping residual and the window indicator
    from an EdgeSummary, in O(deg^2) once the power sums are known.  The
    indicator is the summary's in_window, for the window it was made for
    (f.window_h in fluctuation_ensemble).

    The spectrum-based references, which read LAPACK eigenvalues instead
    of power sums, are test oracles (tests/oracles.py).  Here every sum
    over the spectrum is a spectral_sum: S_N(f) expands f about
    lambda_max, the Delta terms expand f and f' about b_V, and R_N(f) is
    the Taylor tail sum_{j>=2} eps^j/j! sum_i f^(j)(b_V - lambda_i), minus
    f(0) for the rightmost particle.  The residual thus checks the two
    expansions against each other.
    """
    n, b = summary.n, eq.b_v
    eps = summary.lambda_max - b
    f0 = float(f.f(0.0))
    fp = f.derivative()
    s_n = f.spectral_sum(summary, summary.lambda_max) - f0
    delta_f = f.spectral_sum(summary, b) - n * nu_f
    delta_fp = fp.spectral_sum(summary, b) - n * nu_fprime
    remainder = -f0
    fj, factorial = fp, 1.0
    for j in range(2, f.degree + 1):
        fj = fj.derivative()
        factorial *= j
        remainder += eps ** j / factorial * fj.spectral_sum(summary, b)
    lhs = s_n - n * nu_f
    rhs = n * eps * nu_fprime + delta_f + eps * delta_fp + remainder
    return EdgeTerms(
        mu_f=s_n / (n - 1), epsilon=eps, remainder=remainder,
        residual=float(lhs - rhs), in_window=summary.in_window)


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance of raw empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    ca = np.searchsorted(a, grid, side="right") / a.size
    cb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))


# -- ensemble experiments --------------------------------------------------------

REGIME_ZERO = 1e-8
REGIME_AMBIGUOUS = 1e-4


def _replica_chunks(replicas: int, workers: int) -> list[range]:
    """range(replicas) cut into contiguous chunks of near-equal length, at
    most `workers` of them, and never more than there are replicas or CPUs
    this process may run on (all of them where the OS cannot say)."""
    count = max(1, min(workers, replicas))
    if count > 1:
        count = min(count, len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
    bounds = [replicas * k // count for k in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


_pool_draw = None        # the draw of the pool this worker process serves


def _install_draw(draw) -> None:
    global _pool_draw
    _pool_draw = draw


def _pool_task(n: int, chunk: range) -> list:
    return _pool_draw(n, chunk)


def _draw_chunk(V: Potential, beta: float, seed: int, method: str, reduce,
                n: int, chunk: range) -> list:
    """reduce(sample) for each replica of chunk, in replica order.  A
    Gaussian replica is reduced as soon as it is drawn, so no chunk's
    matrices are held at once; an MCMC chunk is one batch of chains."""
    if method == "mcmc":
        return [reduce(s) for s in sample_mcmc_batch(V, beta, n, seed, chunk)]
    return [reduce(sample_gaussian(n, beta, seed, replica=r)) for r in chunk]


def _map_replicas(V: Potential, beta: float, seed: int, method: str, reduce,
                  sizes, replicas: int, workers: int = 1) -> list:
    """[(n, [reduce(sample) for replicas 0..replicas-1]) for n in sizes]:
    the one way replicas are drawn.  reduce gives the value the caller
    aggregates, so no spectrum leaves the process that drew it.

    The method is checked first (tridiagonal needs the Gaussian potential;
    mcmc takes any V), so a bad one raises before any process starts.
    Chunk 0 of range(replicas) runs in this process and the others in
    forked worker processes (processes, since the LAPACK eigensolver
    holds the GIL), one pool for all sizes and none for one chunk
    (workers = 1).  The workers inherit reduce, and whatever it closes
    over, through the fork, so a task carries only (n, chunk).
    """
    if method not in ("tridiagonal", "mcmc"):
        raise ValueError(f"method: unknown {method!r}")
    if method == "tridiagonal" and V.key() != GAUSSIAN_KEY:
        raise ValueError("method: tridiagonal requires potential=0,0,0.5")
    draw = partial(_draw_chunk, V, beta, seed, method, reduce)
    sizes = [int(n) for n in sizes]
    chunks = _replica_chunks(replicas, workers)
    pool = None
    if len(chunks) > 1:
        # fork, not spawn: a spawned worker would import numpy and scipy
        # again (about 0.4 s); a fork pool forks every worker before it
        # starts threads
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(
            len(chunks) - 1, mp_context=multiprocessing.get_context("fork"),
            initializer=_install_draw, initargs=(draw,))
    try:        # chunks[1:] is empty when there is no pool
        pending = [[pool.submit(_pool_task, n, chunk) for chunk in chunks[1:]]
                   for n in sizes]
        out = []
        for n, futures in zip(sizes, pending):
            items = draw(n, chunks[0])
            for future in futures:
                items.extend(future.result())
            out.append((n, items))
        return out
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def draw_spectra(V: Potential, beta: float, n: int, seed: int,
                 replicas: int, method: str) -> list[SpectrumSample]:
    """Replicas 0..replicas-1 of size n, in replica order, drawn in this
    process.  Replica r depends only on (seed, r), and an MCMC batch
    reproduces any of its replicas bit for bit, so the experiments below,
    which draw chunks of replicas in several processes, see the same
    spectra."""
    [(_, samples)] = _map_replicas(V, beta, seed, method, lambda s: s, [n],
                                   replicas)
    return samples


def fluctuation_ensemble(V: Potential, beta: float, f: TestFunction, sizes,
                         replicas: int, seed: int, method: str = "tridiagonal",
                         workers: int = 1) -> dict:
    """Rescaled-statistic ensembles of mu_N(f) across sizes.

    Regime from nu_V(f'): edge scale N^(2/3) when it is nonzero, CLT scale
    N when it vanishes; ambiguity below 1e-4 flagged.
    Every replica also gets the bookkeeping-identity residual, the window
    indicator, and the remainder bound check.  All of them come from the
    replica's EdgeSummary (see edge_terms), read off its tridiagonal
    matrix: the Gaussian model's, or the final Jacobi matrix of an MCMC
    chain.  A replica so costs O(N deg^2) plus the bisection of lambda_max
    instead of an O(N^2) solve (lambda_min is bisected too only when the
    Gershgorin bound cannot place the spectrum inside the window, see
    SpectrumSample.edge_summary).  Up to `workers` processes draw the
    replicas, and each reduces a replica to its EdgeTerms where it is
    drawn (see _map_replicas); the result is the same for every
    `workers`.
    """
    eq = equilibrium_cached(V)
    nu_f = nu_quadrature(eq, f)
    nu_fp = nu_quadrature(eq, f.derivative())
    regime = "edge" if abs(nu_fp) > REGIME_ZERO else "clt"
    ambiguous = REGIME_ZERO < abs(nu_fp) < REGIME_AMBIGUOUS
    bound_m = remainder_bound_constant(f)

    draws = _map_replicas(
        V, beta, seed, method,
        lambda s: edge_terms(s.edge_summary(f.degree, f.window_h), eq, f,
                             nu_f, nu_fp),
        sizes, replicas, workers)
    per_n = {}
    for n, terms in draws:
        scale = float(n) ** (2.0 / 3.0) if regime == "edge" else float(n)
        mu_f, eps, remainder, residuals, in_window = map(np.array, zip(*terms))
        stats = scale * (mu_f - nu_f)
        bound_ok = ~in_window | (
            np.abs(remainder) <= bound_m * (n * eps * eps + np.abs(eps) + 1.0))
        counts, edges = np.histogram(stats, bins="fd")
        per_n[n] = {
            "mean": math.fsum(stats) / replicas,
            "variance": float(np.var(stats, ddof=1)),
            "histogram": {"edges": edges.tolist(),
                          "counts": counts.tolist()},
            "stats": stats.tolist(),
            "max_bookkeeping_residual": float(np.max(np.abs(residuals))),
            "window_violation_rate":
                float(1.0 - np.count_nonzero(in_window) / replicas),
            "remainder_bound_ok": bool(np.all(bound_ok)),
        }
    sizes = [n for n, _ in draws]
    ks = {
        f"{n1}->{n2}": ks_distance(per_n[n1]["stats"], per_n[n2]["stats"])
        for n1, n2 in zip(sizes, sizes[1:])
    }
    return {
        "regime": regime, "ambiguous": ambiguous,
        "nu_f": nu_f, "nu_fprime": nu_fp,
        "test_function": f.name,
        "beta": beta, "replicas": replicas, "seed": seed,
        "per_n": per_n, "ks_stabilization": ks,
    }


def dos_convergence(V: Potential, beta: float, sizes, replicas: int,
                    seed: int, method: str = "tridiagonal",
                    workers: int = 1) -> dict:
    """Mean d_W1(mu_N, nu_V) per size: the weak-convergence experiment.

    W1 needs every eigenvalue, so each replica is a full sample, reduced
    to its W1 in the process that drew it.  Up to `workers` processes draw
    the replicas (see _map_replicas; capped at `replicas` and at the CPUs
    this process may use); replica r depends only on (seed, r), so the
    result is the same for every `workers`.
    """
    nu_v = nu_limit(equilibrium_cached(V))
    out = {}
    for n, w1 in _map_replicas(V, beta, seed, method,
                               lambda s: wasserstein(dos_measure(s), nu_v),
                               sizes, replicas, workers):
        out[n] = {
            "mean_w1": math.fsum(w1) / replicas,
            "std_w1": float(np.std(w1, ddof=1)),
            "w1": w1,
        }
    return out
