import math
import os

import numpy as np
import pytest

from betalab import dos
from betalab.dos import (
    TestFunction, bookkeeping_residual, cheb_coefficients,
    clt_variance, delta_statistic, dos_convergence,
    dos_measure, edge_terms, fluctuation_ensemble, gaussian_bias, ks_distance,
    linear_statistic, nu_quadrature, remainder_bound_constant, remainder_term,
)
from betalab.potential import Potential
from betalab.sampler import SpectrumSample, sample_gaussian, sample_mcmc_batch


def _sample(values):
    # the spectrum of a diagonal Jacobi matrix is its diagonal
    return SpectrumSample(np.asarray(values, float), np.zeros(len(values) - 1))


# ---------------------------------------------------------------------------
# mu_N construction and linear statistics
# ---------------------------------------------------------------------------

def test_dos_measure_three_points():
    s = _sample([0.0, 1.0, 3.0])
    mu = dos_measure(s)
    assert np.array_equal(mu.atoms, [2.0, 3.0])
    assert np.array_equal(mu.weights, [0.5, 0.5])
    assert s.lambda_max == 3.0


def test_dos_measure_pair_is_gap_atom():
    mu = dos_measure(_sample([1.2, 1.9]))
    assert np.array_equal(mu.atoms, [0.7])
    assert np.array_equal(mu.weights, [1.0])


def test_dos_measure_largest_atom_is_range(rng):
    lam = np.sort(rng.normal(0.0, 1.0, 40))
    assert dos_measure(_sample(lam)).atoms[-1] == lam[-1] - lam[0]


def test_linear_statistic_counts_and_sums():
    s = _sample([0.0, 1.0, 3.0])
    assert linear_statistic(s, TestFunction.constant(1.0)) == 2.0
    assert linear_statistic(s, TestFunction.identity()) \
        == pytest.approx(5.0, abs=1e-12)


def test_delta_statistic_of_constant_is_exactly_zero(eq_gauss):
    s = sample_gaussian(150, 2.0, 3)
    assert delta_statistic(s, eq_gauss, TestFunction.constant(1.0)) == 0.0


def test_nu_quadrature_moments(eq_gauss):
    assert nu_quadrature(eq_gauss, lambda x: np.ones_like(x)) == 1.0
    assert nu_quadrature(eq_gauss, lambda x: x) == pytest.approx(2.0, abs=1e-12)
    # second moment about the mean of nu_V is the semicircle variance
    assert nu_quadrature(eq_gauss, lambda x: (x - 2.0) ** 2) \
        == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# CLT constants
# ---------------------------------------------------------------------------

def test_cheb_coefficients_constant():
    a = cheb_coefficients(lambda x: np.ones_like(x), -2.0, 2.0, 6)
    assert a[0] == pytest.approx(2.0, abs=1e-14)
    assert np.max(np.abs(a[1:])) <= 1e-14


def test_cheb_coefficients_identity():
    a = cheb_coefficients(lambda x: x, -2.0, 2.0, 6)
    assert a[0] == pytest.approx(4.0, abs=1e-13)
    assert a[1] == pytest.approx(-2.0, abs=1e-13)
    assert np.max(np.abs(a[2:])) <= 1e-13


def test_cheb_coefficients_square_about_edge():
    a = cheb_coefficients(lambda x: (x - 2.0) ** 2, -2.0, 2.0, 8)
    assert a[0] == pytest.approx(4.0, abs=1e-12)
    assert a[2] == pytest.approx(2.0, abs=1e-12)
    assert abs(a[1]) <= 1e-12 and np.max(np.abs(a[3:])) <= 1e-12


def test_cheb_coefficients_degree_truncation():
    a = cheb_coefficients(lambda x: x ** 4 - 0.3 * x, -2.0, 2.0, 12)
    assert np.max(np.abs(a[5:])) <= 1e-11


def test_clt_variance_values():
    flat = cheb_coefficients(lambda x: np.ones_like(x), -2.0, 2.0, 8)
    assert clt_variance(flat, 2.0) == pytest.approx(0.0, abs=1e-28)
    # sum_k k a_k^2 / (2 beta): f(x) = x has a_1 = -2 alone, so the value
    # at beta = 1 is Var tr(H) = 2/beta = 2, exact for the tridiagonal
    # model (its diagonal is N(0, 2/(beta N)))
    sq = cheb_coefficients(lambda x: (x - 2.0) ** 2, -2.0, 2.0, 16)
    assert clt_variance(sq, 2.0) == pytest.approx(2.0, abs=1e-12)
    ident = cheb_coefficients(lambda x: x, -2.0, 2.0, 16)
    assert clt_variance(ident, 1.0) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_clt_variance_matches_sampler_ensemble(beta):
    # ensemble variances of sum lambda and sum lambda^2 - N; the exact
    # finite-N values are 2/beta and (4/beta)(1 - 1/N) + 8/(beta^2 N)
    n, replicas = 200, 2000
    sums = np.array([sample_gaussian(n, beta, 0, replica=r)
                     .edge_summary(2, 3.0).power_sums
                     for r in range(replicas)])
    for stat, f in ((sums[:, 1], lambda x: 2.0 - x),
                    (sums[:, 2] - n, lambda x: (2.0 - x) ** 2)):
        limit = clt_variance(cheb_coefficients(f, -2.0, 2.0, 8), beta)
        assert np.var(stat, ddof=1) == pytest.approx(limit, rel=0.10)


def test_gaussian_bias_values():
    sq = lambda x: (np.asarray(x, float) - 2.0) ** 2
    assert gaussian_bias(sq, 2.0) == 0.0                  # prefactor vanishes
    assert gaussian_bias(lambda x: np.ones_like(np.asarray(x, float)), 1.0) \
        == 0.0                                            # atoms cancel arcsine
    assert gaussian_bias(sq, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert gaussian_bias(sq, 4.0) == pytest.approx(-0.5, abs=1e-9)


def test_gaussian_bias_rejects_other_potentials(quartic):
    with pytest.raises(ValueError):
        gaussian_bias(lambda x: x, 2.0, V=quartic)


@pytest.mark.parametrize("call, needle", [
    (lambda V: dos.draw_spectra(V, 2.0, 8, 1, 2, "lanczos"),
     "unknown 'lanczos'"),
    (lambda V: dos_convergence(V, 2.0, [8], 2, 1, method="lanczos"),
     "unknown 'lanczos'"),
    (lambda V: fluctuation_ensemble(V, 2.0, TestFunction.identity(3.0), [8],
                                    2, 1, method="lanczos"),
     "unknown 'lanczos'"),
    (lambda V: TestFunction(()), "at least one coefficient"),
])
def test_dos_refuses_bad_input(gauss, call, needle):
    with pytest.raises(ValueError, match=needle):
        call(gauss)


def test_bias_constant_matches_beta_shift_of_ensemble_means(eq_gauss):
    # the beta-dependence of the CLT-scaled mean is the bias measure; the
    # beta-independent part cancels in the difference
    f = TestFunction.square_about(2.0)
    nu_f = nu_quadrature(eq_gauss, f.f)
    means = {}
    for beta in (2.0, 1.0):
        vals = [500 * (dos_measure(sample_gaussian(500, beta, 21, replica=r))
                       .integrate(f.f) - nu_f)
                for r in range(300)]
        means[beta] = np.mean(vals)
    expect = gaussian_bias(f.f, 1.0) - gaussian_bias(f.f, 2.0)
    assert abs((means[1.0] - means[2.0]) - expect) <= 0.45


# ---------------------------------------------------------------------------
# bookkeeping identity and remainder bound
# ---------------------------------------------------------------------------

def test_bookkeeping_residual_is_roundoff(eq_gauss):
    for seed in range(5):
        s = sample_gaussian(200, 2.0, seed)
        for f in (TestFunction.identity(), TestFunction.square_about(2.0)):
            assert abs(bookkeeping_residual(s, eq_gauss, f)) <= 1e-11


def test_remainder_bound_constant_square():
    # on [-2H, 2H] with H = 3: sup|f| = 64, sup|x f'| = 96, sup|f''|/2 = 1
    m = remainder_bound_constant(TestFunction.square_about(2.0))
    assert m == pytest.approx(96.0, rel=1e-3)


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------

def test_ks_distance_hand_values():
    assert ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_distance([0.0, 1.0], [2.0, 3.0]) == 1.0
    assert ks_distance([0.0, 2.0], [1.0, 3.0]) == 0.5


def test_ks_distance_symmetric(rng):
    a, b = rng.normal(0, 1, 40), rng.normal(0.2, 1.1, 55)
    assert ks_distance(a, b) == ks_distance(b, a)


# ---------------------------------------------------------------------------
# ensemble experiments
# ---------------------------------------------------------------------------

def test_fluctuation_identity_is_edge_regime(gauss):
    out = fluctuation_ensemble(
        gauss, beta=2.0, f=TestFunction.identity(),
        sizes=(100, 200), replicas=40, seed=1)
    assert out["regime"] == "edge" and not out["ambiguous"]
    assert abs(out["nu_fprime"] - 1.0) <= 1e-12
    assert list(out["ks_stabilization"]) == ["100->200"]
    for n in (100, 200):
        pn = out["per_n"][n]
        assert pn["max_bookkeeping_residual"] <= 1e-11
        assert pn["remainder_bound_ok"]
        assert pn["window_violation_rate"] == 0.0
        assert "alt_stats" not in pn
        assert len(pn["stats"]) == 40
        assert sum(pn["histogram"]["counts"]) == 40


def test_fluctuation_square_is_clt_regime(gauss):
    out = fluctuation_ensemble(
        gauss, beta=2.0, f=TestFunction.square_about(2.0),
        sizes=(100,), replicas=30, seed=2)
    assert out["regime"] == "clt"
    assert abs(out["nu_fprime"]) <= 1e-12


def test_fluctuation_constant_is_degenerate(gauss):
    out = fluctuation_ensemble(
        gauss, beta=2.0, f=TestFunction.constant(2.5),
        sizes=(64,), replicas=10, seed=3)
    pn = out["per_n"][64]
    assert out["regime"] == "clt"
    assert pn["variance"] == 0.0
    assert max(abs(v) for v in pn["stats"]) <= 1e-12


def test_dos_convergence_shrinks(gauss):
    conv = dos_convergence(gauss, 2.0, (100, 300), replicas=25, seed=4)
    assert set(conv) == {100, 300}
    assert conv[100]["mean_w1"] > conv[300]["mean_w1"]
    assert conv[300]["mean_w1"] <= 0.05
    assert len(conv[100]["w1"]) == 25 and conv[100]["std_w1"] > 0.0


# ---------------------------------------------------------------------------
# replicas drawn by several processes
# ---------------------------------------------------------------------------

def test_replica_chunks_are_capped_and_contiguous(monkeypatch):
    # a pure function: no process is started here
    cpus = len(os.sched_getaffinity(0))
    chunks = dos._replica_chunks(40, 1000)
    assert 1 <= len(chunks) <= cpus
    assert [r for c in chunks for r in c] == list(range(40))
    assert dos._replica_chunks(40, 1) == [range(40)]
    monkeypatch.setattr(dos.os, "sched_getaffinity",
                        lambda pid: set(range(64)))
    assert dos._replica_chunks(3, 1000) == [range(0, 1), range(1, 2),
                                            range(2, 3)]
    assert dos._replica_chunks(10, 3) == [range(0, 3), range(3, 6),
                                          range(6, 10)]


def _experiments(potential, method, sizes, workers):
    f = TestFunction.square_about(2.0)
    return (dos_convergence(potential, 2.0, sizes, 5, 7, method=method,
                            workers=workers),
            fluctuation_ensemble(potential, 2.0, f, sizes, 5, 7,
                                 method=method, workers=workers))


@pytest.mark.parametrize("method,potential,sizes", [
    ("tridiagonal", Potential.gaussian(), (64, 32)),
    ("mcmc", Potential.quartic(), (10, 8)),
])
def test_experiments_same_for_any_worker_count(monkeypatch, method,
                                               potential, sizes):
    monkeypatch.setattr(dos.os, "sched_getaffinity", lambda pid: {0, 1})
    assert _experiments(potential, method, sizes, 1) \
        == _experiments(potential, method, sizes, 2)


@pytest.mark.parametrize("workers,pools", [(1, 0), (2, 1)])
def test_one_pool_per_experiment_and_no_sample_pickled(monkeypatch, gauss,
                                                       workers, pools):
    import concurrent.futures

    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    def refuse(self, protocol):
        raise AssertionError("a SpectrumSample was pickled")

    monkeypatch.setattr(dos.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    monkeypatch.setattr(SpectrumSample, "__reduce_ex__", refuse)
    dos_convergence(gauss, 2.0, (16, 24), 4, 1, workers=workers)
    assert len(started) == pools
    fluctuation_ensemble(gauss, 2.0, TestFunction.identity(), (16, 24), 4, 1,
                         workers=workers)
    assert len(started) == 2 * pools


# ---------------------------------------------------------------------------
# edge summaries against the full spectrum
# ---------------------------------------------------------------------------

def _test_functions(b_v):
    return (TestFunction.identity(), TestFunction.square_about(b_v),
            TestFunction.constant(2.5),
            TestFunction(coeffs=(0.3, -1.0, 0.5, 0.0, 1.0), center=b_v,
                         name="quartic"))


def test_test_function_derivatives_are_polynomial():
    f = TestFunction(coeffs=(1.0, -2.0, 0.0, 3.0), center=0.5)
    x = np.linspace(-2.0, 2.0, 9)
    y = x - 0.5
    assert np.allclose(f.f(x), 1.0 - 2.0 * y + 3.0 * y ** 3, rtol=0, atol=1e-14)
    assert np.allclose(f.fprime(x), -2.0 + 9.0 * y ** 2, rtol=0, atol=1e-14)
    assert np.allclose(f.fsecond(x), 18.0 * y, rtol=0, atol=1e-14)
    assert f.degree == 3 and f.derivative().degree == 2


@pytest.mark.parametrize("n", [64, 500, 2000])
def test_edge_terms_match_eigenvalue_route(eq_gauss, n):
    for f in _test_functions(eq_gauss.b_v):
        nu_f = nu_quadrature(eq_gauss, f.f)
        nu_fp = nu_quadrature(eq_gauss, f.fprime)
        for seed, replica in ((3, 0), (3, 5), (41, 2)):
            sample = sample_gaussian(n, 2.0, seed, replica=replica)
            summary = sample.edge_summary(f.degree, f.window_h)
            lam = sample.eigenvalues
            assert abs(summary.lambda_max - lam[-1]) <= 1e-13
            for j in range(f.degree + 1):
                # odd power sums cancel, so the relative scale is
                # sum |lambda|^j (which is p_j itself for even j)
                scale = np.sum(np.abs(lam) ** j)
                assert abs(summary.power_sums[j] - np.sum(lam ** j)) \
                    <= 1e-12 * scale
            terms = edge_terms(summary, eq_gauss, f, nu_f, nu_fp)
            mu = dos_measure(sample).integrate(f.f)
            assert abs(terms.mu_f - mu) <= 1e-13 * max(1.0, abs(mu))
            assert abs(n * (terms.mu_f - nu_f) - n * (mu - nu_f)) \
                <= 1e-12 * n
            ref_r = remainder_term(sample, eq_gauss, f)
            assert abs(terms.remainder - ref_r) <= 1e-11 * max(1.0, abs(ref_r))
            assert abs(terms.residual) <= 1e-10 * n
            assert terms.in_window == bool(np.max(np.abs(lam)) <= f.window_h)


def _eigenvalue_route(f, eq, samples_by_n):
    """fluctuation_ensemble's per-replica quantities from full spectra."""
    nu_f = nu_quadrature(eq, f.f)
    nu_fp = nu_quadrature(eq, f.fprime)
    regime = "edge" if abs(nu_fp) > 1e-8 else "clt"
    bound_m = remainder_bound_constant(f)
    out = {}
    for n, samples in samples_by_n.items():
        scale = n ** (2.0 / 3.0) if regime == "edge" else float(n)
        stats, residuals, window, bound = [], [], [], []
        for sample in samples:
            stats.append(scale * (dos_measure(sample).integrate(f.f) - nu_f))
            residuals.append(bookkeeping_residual(sample, eq, f))
            window.append(
                bool(np.max(np.abs(sample.eigenvalues)) <= f.window_h))
            eps = sample.lambda_max - eq.b_v
            rn = remainder_term(sample, eq, f)
            bound.append(not window[-1] or
                         abs(rn) <= bound_m * (n * eps * eps + abs(eps) + 1))
        out[n] = {"stats": stats, "residual": max(map(abs, residuals)),
                  "window_violation_rate": 1.0 - sum(window) / len(window),
                  "remainder_bound_ok": all(bound)}
    return regime, out


def _assert_same_ensemble(V, f, eq, samples_by_n, **kwargs):
    got = fluctuation_ensemble(V, beta=2.0, f=f, sizes=tuple(samples_by_n),
                               **kwargs)
    regime, ref = _eigenvalue_route(f, eq, samples_by_n)
    assert got["regime"] == regime
    for n, r in ref.items():
        pn = got["per_n"][n]
        assert np.max(np.abs(np.subtract(pn["stats"], r["stats"]))) \
            <= 1e-12 * n
        assert pn["window_violation_rate"] == r["window_violation_rate"]
        assert pn["remainder_bound_ok"] == r["remainder_bound_ok"]
        assert pn["max_bookkeeping_residual"] <= 1e-10 * n
        assert r["residual"] <= 1e-10 * n


def test_fluctuation_ensemble_matches_eigenvalue_route(gauss, eq_gauss):
    sizes, replicas, seed = (64, 500, 2000), 6, 13
    samples = {n: [sample_gaussian(n, 2.0, seed, replica=r)
                   for r in range(replicas)] for n in sizes}
    fs = _test_functions(eq_gauss.b_v) \
        + (TestFunction.square_about(eq_gauss.b_v, window_h=2.0),)
    for f in fs:
        _assert_same_ensemble(gauss, f, eq_gauss, samples,
                              replicas=replicas, seed=seed)


def test_fluctuation_ensemble_mcmc_matches_eigenvalue_route(quartic,
                                                           eq_quartic):
    samples = {16: sample_mcmc_batch(quartic, 2.0, 16, 5, range(3))}
    for f in (TestFunction.identity(),
              TestFunction.square_about(eq_quartic.b_v)):
        _assert_same_ensemble(quartic, f, eq_quartic, samples, replicas=3,
                              seed=5, method="mcmc")


@pytest.mark.parametrize("window_h, solves", [(3.0, 1), (1.9, 2)])
def test_fluctuation_eigensolves_per_replica(gauss, eigensolve_calls,
                                             window_h, solves):
    # at N = 500 the Gershgorin bound, about -2.2, certifies the left end of
    # the window H = 3, so only lambda_max is bisected; H = 1.9 cuts the
    # spectrum and lambda_min is bisected as well
    replicas = 6
    fluctuation_ensemble(gauss, 2.0, TestFunction.identity(window_h), (500,),
                         replicas=replicas, seed=4)
    assert len(eigensolve_calls) == solves * replicas
    assert eigensolve_calls.count((499, 499)) == replicas
