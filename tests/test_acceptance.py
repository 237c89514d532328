"""Acceptance gate: ten numbered criteria, one printed line each.

Run with -s to see every line; a failing criterion prints its line in the
captured output either way.
"""
import math
import time

import numpy as np

from betalab.dos import (
    TestFunction, cheb_coefficients, clt_variance, dos_convergence,
    dos_measure, fluctuation_ensemble, gaussian_bias, nu_quadrature,
)
from betalab.equilibrium import (
    constrained_equilibrium, equilibrium_cached, solve_equilibrium,
)
from betalab.measures import (
    AtomicMeasure, GridMeasure, log_energy_grid, reflect_shift, variance,
    wasserstein,
)
from betalab.potential import Potential, kappa
from betalab.rates import projection_J, rate_IDOS
from betalab.sampler import sample_gaussian, sample_mcmc_batch
from oracles import (
    direct_calI_min, log_kernel_mass_form_reference, log_potential_grid,
    quantile_discretize,
)

GAUSS = Potential.gaussian()


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def _semicircle(n: int = 4097) -> GridMeasure:
    x = np.linspace(-2.0, 2.0, n)
    return GridMeasure(-2.0, 2.0,
                       np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2 * math.pi))


def test_criterion_01_equilibrium_gold_values():
    t0 = time.perf_counter()
    eq = solve_equilibrium(GAUSS)
    elapsed = time.perf_counter() - t0
    ok = (abs(eq.a_v + 2.0) <= 1e-6 and abs(eq.b_v - 2.0) <= 1e-6
          and abs(eq.c_v - 0.75) <= 1e-4 and elapsed < 1.0)
    _report(1, ok, f"endpoints ({eq.a_v:.8f}, {eq.b_v:.8f}), "
                   f"c_V = {eq.c_v:.8f}, solve time {elapsed * 1e3:.0f} ms")
    assert ok


def test_criterion_02_log_energy_gold_value():
    sigma = log_energy_grid(_semicircle())
    ok = abs(sigma + 0.25) <= 1e-4
    _report(2, ok, f"Sigma(semicircle) = {sigma:.8f} (target -0.25 +- 1e-4)")
    assert ok


def test_criterion_03_dos_rate_zero_set():
    eq = equilibrium_cached(GAUSS)
    vals, gaps = [], []
    for b in (2.0, 2.5, 3.0):
        nu = reflect_shift(eq.density, b)
        ev = rate_IDOS(eq, GAUSS, nu)
        shortcut = ev.sigma_term + 0.5 * variance(nu) - 0.75
        vals.append(abs(ev.value))
        gaps.append(abs(ev.value - shortcut))
    ok = max(vals) <= 1e-4 and max(gaps) <= 1e-6
    _report(3, ok, f"max |I_DOS(tau_b mu_V)| = {max(vals):.2e}, "
                   f"max shortcut gap = {max(gaps):.2e}")
    assert ok


def test_criterion_04_kappa_exactness():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        nu = AtomicMeasure(rng.normal(0.0, rng.uniform(0.3, 3.0), n),
                           rng.dirichlet(np.ones(n)))
        worst = max(worst, abs(kappa(GAUSS, nu) - nu.integrate([0.0, 1.0])))
    ok = worst <= 1e-10
    _report(4, ok, f"max |kappa - mean| over 100 atomics = {worst:.2e}")
    assert ok


def test_criterion_05_dos_convergence():
    t0 = time.perf_counter()
    # replica r depends only on (seed, r), so two workers draw the same W1s
    conv = dos_convergence(GAUSS, 2.0, (100, 1000), replicas=200, seed=0,
                           workers=2)
    elapsed = time.perf_counter() - t0
    m100, m1000 = conv[100]["mean_w1"], conv[1000]["mean_w1"]
    ok = m1000 <= 0.1 and m1000 < m100 and elapsed <= 300.0
    _report(5, ok, f"mean W1: N=100 -> {m100:.4f}, N=1000 -> {m1000:.4f}, "
                   f"runtime {elapsed:.0f} s")
    assert ok


def test_criterion_06_constrained_consistency():
    eq = equilibrium_cached(GAUSS)
    gaps = []
    for c in (1.0, 1.5, 1.9):
        solved = projection_J(GAUSS, c).value
        direct = direct_calI_min(GAUSS, eq, c)
        gaps.append(max(abs(solved - direct["value_grid"]),
                        abs(solved - direct["value_continuum"])))
    at_edge = constrained_equilibrium(GAUSS, 2.0).value
    scan = [projection_J(GAUSS, c).value for c in np.linspace(1.0, 2.0, 11)]
    monotone = all(a >= b - 1e-12 for a, b in zip(scan, scan[1:]))
    ok = max(gaps) <= 5e-3 and at_edge <= 1e-4 and monotone
    _report(6, ok, f"max |closed form - direct| = {max(gaps):.2e}, "
                   f"J-(2) = {at_edge:.2e}, scan monotone = {monotone}")
    assert ok


# Tracy-Widom GUE law of N^(2/3)(lambda_max - 2): mean and variance
# (Tracy and Widom 1994; digits from Bornemann, Markov Process. Related
# Fields 16, 2010).
TW2_MEAN, TW2_VARIANCE = -1.7710868074, 0.8131947928


def test_criterion_07_clt_regime_constants():
    # mu_N has weight 1/(N-1), so N (mu_N(f) - nu_V(f)) = N/(N-1) [S_N(f)
    # - N nu_V(f) + nu_V(f)]; with nu_V(f') = 0 the bookkeeping identity
    # gives S_N(f) - N nu_V(f) = Delta_N(f) - f(0) + o(1).  The limit mean
    # is m_V(f) - f(0) + nu_V(f) = 0 - 4 + 1 = -3 and the limit variance
    # is sigma_V^2(f) = 4/beta.  At finite N, R_N(f) keeps
    # (N-1) eps^2 nu_V(f''/2), whose mean is N^(-1/3) E[TW_2^2].
    n, beta, replicas = 1000, 2.0, 500
    f = TestFunction.square_about(2.0)
    eq = equilibrium_cached(GAUSS)
    limit_mean = (gaussian_bias(f, beta) - float(f.f(0.0))
                  + nu_quadrature(eq, f))
    limit_var = clt_variance(cheb_coefficients(f, eq.a_v, eq.b_v, 16), beta)
    assert abs(limit_mean + 3.0) <= 1e-9
    assert abs(limit_var - 4.0 / beta) <= 1e-9
    edge_term = n ** (-1.0 / 3.0) * (TW2_MEAN ** 2 + TW2_VARIANCE)
    target_mean = n / (n - 1) * (-3.0 + edge_term)
    target_var = 4.0 / beta

    # S_N(f) = sum_i f(lambda_max - lambda_i) - f(0) from the power sums of
    # each replica, without its full spectrum
    def statistic(sample):
        summary = sample.edge_summary(f.degree, f.window_h)
        s_n = f.spectral_sum(summary, summary.lambda_max) - float(f.f(0.0))
        return n * (s_n / (n - 1) - 1.0)

    t0 = time.perf_counter()
    stats = np.array([statistic(sample_gaussian(n, beta, 0, replica=r))
                      for r in range(replicas)])
    elapsed = time.perf_counter() - t0
    # the same statistic from the full spectrum, on the first 20 replicas
    cross = max(abs(n * (dos_measure(sample_gaussian(n, beta, 0, replica=r))
                         .integrate(f.coeffs, -f.center) - 1.0) - stats[r])
                for r in range(20))
    mean, var = float(np.mean(stats)), float(np.var(stats, ddof=1))
    ok = abs(mean - target_mean) <= 0.15 \
        and abs(var - target_var) <= 0.15 * target_var and elapsed <= 600.0 \
        and cross <= 1e-10
    _report(7, ok, f"mean = {mean:.4f} (target {target_mean:.4f} +- 0.15), "
                   f"variance = {var:.4f} (target {target_var:.4f} +- 15%), "
                   f"max |power sums - spectrum| over 20 = {cross:.1e}, "
                   f"runtime {elapsed:.1f} s")
    assert ok, (f"ensemble mean {mean:.4f} and variance {var:.4f} vs "
                f"{target_mean:.4f} +- 0.15 and {target_var:.4f} +- 15%, "
                f"routes {cross:.1e} apart")


def test_criterion_08_edge_scale_stabilization():
    out = fluctuation_ensemble(
        GAUSS, beta=2.0, f=TestFunction.identity(),
        sizes=(500, 2000), replicas=500, seed=0)
    ks = out["ks_stabilization"]["500->2000"]
    ok = out["regime"] == "edge" and ks <= 0.08
    _report(8, ok, f"KS(N=500 vs N=2000, 500 replicas) = {ks:.4f} "
                   f"at the N^(2/3) scale")
    assert ok


def test_criterion_09_sampler_oracle_equivalence():
    trid = np.concatenate([
        sample_gaussian(50, 2.0, 17, replica=r).eigenvalues
        for r in range(100)])
    mcmc = np.concatenate([
        s.eigenvalues
        for s in sample_mcmc_batch(GAUSS, 2.0, 50, 18, range(100))])
    d = wasserstein(AtomicMeasure(trid, np.full(trid.size, 1 / trid.size)),
                    AtomicMeasure(mcmc, np.full(mcmc.size, 1 / mcmc.size)))
    ok = d <= 0.05
    _report(9, ok, f"W1(MCMC ESD, tridiagonal ESD) = {d:.4f} "
                   f"(100 replicas each, N = 50)")
    assert ok


def test_criterion_10_property_suites():
    rng = np.random.default_rng(1010)
    checks = {}

    # Wasserstein metric axioms and order monotonicity
    ms = [AtomicMeasure(rng.normal(0, 1, 12), rng.dirichlet(np.ones(12)))
          for _ in range(3)]
    axioms = all(
        wasserstein(a, a) == 0.0
        and wasserstein(a, b) == wasserstein(b, a)
        and wasserstein(a, b) <= wasserstein(a, c) + wasserstein(c, b) + 1e-12
        for a in ms for b in ms for c in ms)
    order = all(
        wasserstein(a, b, p=1.0) <= wasserstein(a, b, p=q) + 1e-12
        for a, b in [(ms[0], ms[1]), (ms[1], ms[2])] for q in (1.5, 2.0, 3.0))
    checks["metric"] = axioms and order

    # tau_c involution and Sigma-invariance
    m = ms[0]
    twice = reflect_shift(reflect_shift(m, 1.3), 1.3)
    grid = _semicircle(2049)
    checks["tau"] = (np.max(np.abs(twice.atoms - m.atoms)) <= 2e-15
                     and np.array_equal(twice.weights, m.weights)
                     and log_energy_grid(reflect_shift(grid, 0.7))
                     == log_energy_grid(grid))

    # quantile-discretization convergence
    sc = _semicircle()
    qd = [wasserstein(quantile_discretize(sc, n), sc)
          for n in (100, 1000, 10000)]
    checks["quantile"] = qd[0] > qd[1] > qd[2] and qd[2] <= 1e-3

    # Euler-Lagrange flatness, both reference potentials
    flat = []
    for V in (GAUSS, Potential.quartic()):
        eq = equilibrium_cached(V)
        xs = eq.density.nodes[1:-1]
        u = 2.0 * log_potential_grid(eq.density, xs) - V.eval(xs)
        flat.append(np.max(u) - np.min(u))
    checks["flatness"] = max(flat) <= 1e-4

    # finite-difference gradient of the discretized constrained objective
    # that criterion 6's direct minimization runs on
    n = 256
    nodes, _, kernel = log_kernel_mass_form_reference(-10.0, 1.5, n)
    lin = GAUSS.eval(nodes)
    ok_fd = True
    for _ in range(5):
        w = rng.dirichlet(np.ones(n + 1)) + 0.2
        w /= w.sum()
        d = rng.normal(0.0, 1.0, n + 1)
        d -= d.mean()
        d /= np.linalg.norm(d)
        grad = float((-2.0 * kernel @ w + lin) @ d)
        h = 1e-5
        wp, wm = w + h * d, w - h * d
        fd = (float(-wp @ kernel @ wp + lin @ wp)
              - float(-wm @ kernel @ wm + lin @ wm)) / (2 * h)
        ok_fd &= abs(fd - grad) <= 1e-6 * max(1.0, abs(grad))
    checks["gradient"] = ok_fd

    # bookkeeping identity and remainder bound on every replica
    out = fluctuation_ensemble(
        GAUSS, beta=2.0, f=TestFunction.square_about(2.0),
        sizes=(200,), replicas=40, seed=5)
    pn = out["per_n"][200]
    checks["bookkeeping"] = (pn["max_bookkeeping_residual"] <= 1e-10 * 200
                             and pn["remainder_bound_ok"])

    ok = all(checks.values())
    _report(10, ok, "properties " + ", ".join(
        f"{name}={'ok' if good else 'FAIL'}"
        for name, good in checks.items()))
    assert ok, checks