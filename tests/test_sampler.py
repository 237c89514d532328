import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from betalab.equilibrium import equilibrium_cached
from betalab.measures import AtomicMeasure, GridMeasure, wasserstein
from betalab.potential import Potential
from betalab.sampler import (
    SpectrumSample, _colour_classes, _JacobiBands, _mcmc_chains, rng_for,
    sample_gaussian, sample_mcmc_batch, tridiag_power_sums,
)
from oracles import (
    _power_diagonals, colour_class_chain_reference, jacobi_chain_reference,
    metropolis_chain_reference,
)


def esd(sample_or_values):
    lam = getattr(sample_or_values, "eigenvalues", sample_or_values)
    return AtomicMeasure(lam, np.full(lam.size, 1.0 / lam.size))


def semicircle():
    xs = np.linspace(-2.0, 2.0, 4097)
    return GridMeasure(
        -2.0, 2.0, np.sqrt(np.maximum(4.0 - xs * xs, 0.0)) / (2 * math.pi))


# ---------------------------------------------------------------------------
# tridiagonal eigenvalues
# ---------------------------------------------------------------------------

def test_tridiag_diagonal_matrix():
    lam = SpectrumSample([2.0, 2.0, 2.0], [0.0, 0.0]).eigenvalues
    assert np.allclose(lam, [2.0, 2.0, 2.0], atol=1e-14)


def test_tridiag_two_by_two_closed_form():
    lam = SpectrumSample([1.0, 3.0], [2.0]).eigenvalues
    s5 = math.sqrt(5.0)
    assert np.allclose(lam, [2.0 - s5, 2.0 + s5], atol=1e-12)


def test_tridiag_rejects_length_mismatch():
    with pytest.raises(ValueError):
        SpectrumSample([1.0, 2.0, 3.0], [0.5])


def test_tridiag_matches_dense_solver(rng):
    d = rng.normal(0.0, 1.0, 50)
    e = rng.uniform(0.1, 2.0, 49)
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.max(np.abs(SpectrumSample(d, e).eigenvalues
                         - np.linalg.eigvalsh(dense))) <= 1e-10


# ---------------------------------------------------------------------------
# streams and the gaussian sampler
# ---------------------------------------------------------------------------

def test_rng_streams_reproducible_and_distinct():
    a = rng_for(42, 0).random(8)
    b = rng_for(42, 0).random(8)
    c = rng_for(42, 1).random(8)
    d = rng_for(43, 0).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c) and not np.array_equal(a, d)


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 42])
def test_rng_for_refuses_seeds_outside_the_key_range(seed):
    # the seed is one 64-bit key word: reducing it would alias seed % 2^64
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
        rng_for(seed)
    top = rng_for((1 << 64) - 1).random(4)
    assert not np.array_equal(top, rng_for(0).random(4))


def test_sample_gaussian_deterministic():
    s1 = sample_gaussian(200, 2.0, 9)
    s2 = sample_gaussian(200, 2.0, 9)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert not np.array_equal(
        s1.eigenvalues, sample_gaussian(200, 2.0, 10).eigenvalues)


def test_sample_gaussian_stream_contract():
    # replica r draws N normals, then N-1 gammas, from rng_for(seed, r);
    # every tridiagonal route relies on this order
    n, beta, seed, replica = 300, 2.0, 17, 4
    rng = rng_for(seed, replica)
    diag = rng.standard_normal(n)
    off = np.sqrt(rng.gamma(shape=0.5 * beta * np.arange(n - 1, 0, -1)))
    expect = eigh_tridiagonal(diag, off, eigvals_only=True) \
        * math.sqrt(2.0 / (beta * n))
    got = sample_gaussian(n, beta, seed, replica=replica).eigenvalues
    assert np.array_equal(got, expect)


def test_tridiag_power_sums_match_dense_traces(rng):
    for n in (2, 3, 7, 40):
        d = rng.normal(0.0, 1.0, n)
        e = rng.normal(0.0, 1.0, n - 1)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        expect = [np.trace(np.linalg.matrix_power(dense, j))
                  for j in range(7)]
        got = tridiag_power_sums(d, e, 6)
        assert np.allclose(got, expect, rtol=1e-13, atol=1e-13)


def _dense_power_diagonals(a, b, degree):
    """diag(T^k), k = 0..degree, (degree + 1, R, N), one dense block per
    row of a (R, N) and b (R, N - 1)."""
    out = np.empty((degree + 1,) + a.shape)
    for j in range(a.shape[0]):
        T = np.diag(a[j]) + np.diag(b[j], 1) + np.diag(b[j], -1)
        for k in range(degree + 1):
            out[k, j] = np.diag(np.linalg.matrix_power(T, k))
    return out


def _assert_dense_diagonals(got, a, b, degree):
    want = _dense_power_diagonals(a, b, degree)
    for k in range(degree + 1):
        assert np.allclose(got[k].reshape(a.shape), want[k], rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(want[k])))


@pytest.mark.parametrize("n", [2, 3, 11])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 8])
def test_band_workspace_matches_dense_powers(rng, degree, n):
    # three blocks laid end to end with zero couplings between them: each
    # block's diagonals are those of its own powers
    a = rng.normal(0.0, 1.0, (3, n))
    b = rng.uniform(0.3, 1.5, (3, n - 1))
    bands = _JacobiBands(a, b, degree)
    first = [row.copy() for row in bands.power_diagonals()]
    _assert_dense_diagonals(first, a, b, degree)
    # against the oracle's powers of every order: up to T^2 the workspace
    # forms the same products in the same order, and above it the two
    # routes round differently, each within about k ulps of diag(|T|^k)
    got = np.stack(first).reshape((degree + 1,) + a.shape)
    want = _power_diagonals(a, b, degree)
    if degree <= 2:
        assert np.array_equal(got, want)
    ulps = np.spacing(_dense_power_diagonals(np.abs(a), b, degree))
    for k in range(degree + 1):
        assert np.all(np.abs(got[k] - want[k]) <= k * ulps[k])
    # a proposal written in place is read by the next call, and restoring
    # the kept entries gives back the same bits
    sites = slice(n % 2, None, 2)
    kept_a, kept_b = a[:, sites].copy(), b[:, sites].copy()
    moved_a, moved_b = a.copy(), b.copy()
    moved_a[:, sites] += 0.5
    moved_b[:, sites] *= 1.5
    bands.diagonal[:, sites] = moved_a[:, sites]
    bands.couplings[:, :, sites] = moved_b[:, sites]
    _assert_dense_diagonals(bands.power_diagonals(), moved_a, moved_b,
                            degree)
    np.copyto(bands.diagonal[:, sites], kept_a)
    bands.couplings[:, :, sites] = kept_b
    assert np.array_equal(bands.diagonal, a)
    assert np.array_equal(bands.offdiagonal, b)
    again = bands.power_diagonals()
    assert all(np.array_equal(x, y) for x, y in zip(again, first))


def test_sample_gaussian_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_gaussian(1, 2.0, 0)
    with pytest.raises(ValueError):
        sample_gaussian(10, 0.0, 0)


@pytest.mark.parametrize("n, beta", [(1, 2.0), (10, 0.0), (10, -1.0)])
def test_sample_mcmc_batch_rejects_bad_args(quartic, n, beta):
    with pytest.raises(ValueError, match="need n >= 2 and beta > 0"):
        sample_mcmc_batch(quartic, beta, n, 0, range(2))


def test_esd_near_semicircle():
    sc = semicircle()
    w = [wasserstein(esd(sample_gaussian(2000, 2.0, s)), sc)
         for s in range(20)]
    assert np.mean(w) <= 0.01
    assert max(w) <= 0.02


def test_esd_semicircle_for_all_beta():
    sc = semicircle()
    for beta in (1.0, 4.0):
        w = wasserstein(esd(sample_gaussian(1000, beta, 3)), sc)
        assert w <= 0.02


def test_lambda_max_near_edge():
    mx = [sample_gaussian(500, 2.0, s).lambda_max for s in range(50)]
    assert abs(np.mean(mx) - 2.0) <= 0.1


def test_edge_bias_shrinks_with_n():
    bias = []
    for n in (100, 400, 1600):
        mx = [sample_gaussian(n, 2.0, s).lambda_max for s in range(60)]
        bias.append(abs(np.mean(mx) - 2.0))
    assert bias[0] > bias[1] > bias[2]
    assert bias[2] <= 0.03


# ---------------------------------------------------------------------------
# edge summaries
# ---------------------------------------------------------------------------

def _windows(lam):
    """Windows just inside and just outside each end of a spectrum, so each
    cuts it on one side or keeps it whole, plus the default H = 3."""
    ends = (abs(lam[0]), abs(lam[-1]))
    return [e * (1.0 + s) for e in ends for s in (-1e-6, 1e-6)] + [3.0]


@pytest.mark.parametrize("n", [2, 3, 12, 50, 500])
def test_gaussian_in_window_matches_full_spectrum(eigensolve_calls, n):
    paths = set()
    for replica in range(8):
        sample = sample_gaussian(n, 2.0, 7, replica=replica)
        lam = sample.eigenvalues
        for h in _windows(lam):
            eigensolve_calls.clear()
            summary = sample.edge_summary(2, h)
            assert summary.in_window == bool(np.max(np.abs(lam)) <= h)
            paths.add(len(eigensolve_calls))
    # one solve: the Gershgorin bound certified the left end of the window;
    # two: it could not, and lambda_min was bisected
    assert paths == {1, 2}


def test_edge_summary_of_chain_matrix_matches_spectrum(quartic):
    for sample in sample_mcmc_batch(quartic, 2.0, 12, 5, range(3)):
        lam = sample.eigenvalues
        for h in _windows(lam):
            summary = sample.edge_summary(4, h)
            assert summary.in_window == bool(np.max(np.abs(lam)) <= h)
            assert abs(summary.lambda_max - lam[-1]) <= 1e-14 * abs(lam[-1])
            assert np.allclose(summary.power_sums,
                               [np.sum(lam ** j) for j in range(5)],
                               rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# SpectrumSample invariants
# ---------------------------------------------------------------------------

def _mk(values, **kw):
    # the spectrum of a diagonal Jacobi matrix is its diagonal
    return SpectrumSample(np.asarray(values, float),
                          np.zeros(max(len(values) - 1, 0)), **kw)


def test_sample_sorts_input():
    s = _mk([3.0, 1.0, 2.0])
    assert np.array_equal(s.eigenvalues, [1.0, 2.0, 3.0])
    assert s.lambda_max == 3.0


def test_sample_breaks_ties_upward():
    s = _mk([1.0, 1.0, 1.0])
    assert s.tie_breaks == 2
    assert s.eigenvalues[0] == 1.0
    assert s.eigenvalues[1] == np.nextafter(1.0, np.inf)
    assert s.eigenvalues[2] == np.nextafter(s.eigenvalues[1], np.inf)
    assert np.all(np.diff(s.eigenvalues) > 0)


def test_sample_rejects_bad_input():
    with pytest.raises(ValueError):
        _mk([1.0])
    with pytest.raises(ValueError):
        _mk([1.0, math.inf])
    with pytest.raises(ValueError):
        _mk([1.0, math.nan])
    with pytest.raises(ValueError):
        SpectrumSample(np.array([0.0, 1.0]), np.array([-0.5]))


def test_sample_is_immutable():
    s = _mk([1.0, 2.0])
    with pytest.raises(ValueError):
        s.eigenvalues[0] = 5.0
    with pytest.raises(ValueError):
        s.diagonal[0] = 5.0


@pytest.mark.parametrize("draw", [
    lambda: [sample_gaussian(300, 2.0, 3, replica=1)],
    lambda: sample_mcmc_batch(Potential.quartic(), 2.0, 12, 5, range(2)),
], ids=["gaussian", "mcmc"])
def test_sample_solves_its_spectrum_once_when_read(eigensolve_calls, draw):
    samples = draw()
    assert eigensolve_calls == []
    for sample in samples:
        eigensolve_calls.clear()
        for _ in range(2):
            assert sample.lambda_max == sample.eigenvalues[-1]
            assert sample.tie_breaks == 0
        assert eigensolve_calls == [None]     # one full solve, no select


# ---------------------------------------------------------------------------
# MCMC sampling
# ---------------------------------------------------------------------------

def test_mcmc_batch_matches_sequential(quartic):
    one = sample_mcmc_batch(quartic, 2.0, 40, 5, [2])[0]
    bat = sample_mcmc_batch(quartic, 2.0, 40, 5, [0, 2, 7])
    assert one.replica == bat[1].replica == 2
    assert np.array_equal(one.eigenvalues, bat[1].eigenvalues)
    assert one.acceptance_rate == bat[1].acceptance_rate


@pytest.mark.parametrize("coeffs, n, replicas", [
    ((0, 0, 0, 0, 1), 40, [2]),
    ((0, 0, 0, 0, 1), 40, [0, 2, 7]),
    ((0, 0, 0.5), 12, [0, 1]),
    ((0, 0.3, 0.5, 0.1, 0.2), 20, [0, 1, 2]),
], ids=["quartic-one", "quartic-three", "gaussian", "asymmetric"])
def test_mcmc_kernel_matches_reference_chain(coeffs, n, replicas):
    # the colour-class sweep, batched over sites and replicas, against the
    # same chain moved one site and one replica at a time
    V = Potential(coeffs)
    a, b, lam, acc = jacobi_chain_reference(V, 2.0, n, 5, replicas)
    got_a, got_b, got_acc = _mcmc_chains(V, 2.0, n, 5, replicas)
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
    got = sample_mcmc_batch(V, 2.0, n, 5, replicas)
    assert [s.replica for s in got] == replicas
    assert [s.acceptance_rate for s in got] == list(acc) == list(got_acc)
    assert np.allclose(np.stack([s.eigenvalues for s in got]), lam,
                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("coeffs, beta, n, replicas, seed", [
    ((0, 0, 0, 0, 1), 2.0, 50, 16, 1),
    ((0, 0, 0, 0, 1), 2.0, 50, 16, 2),
    ((0, 0, 0, 0, 1), 2.0, 50, 16, 3),
    ((0, 0.3, 0.5, 0.1, 0.2), 2.0, 20, 3, 5),
    ((1, 0, 0, 0, 0, 0, 1), 1.0, 30, 4, 5),
    ((0, 0, 0, 0, 1), 4.0, 400, 4, 5),
    ((0, 0.3, 0.5, 0.1, 0.2), 0.5, 2, 50, 5),
    ((0, 0, 0.5), 2.0, 30, 4, 5),
], ids=["quartic-seed1", "quartic-seed2", "quartic-seed3", "asymmetric",
        "sextic-beta1", "quartic-n400-beta4", "asymmetric-n2-beta05",
        "gaussian"])
def test_sweep_matches_colour_class_reference(coeffs, beta, n, replicas,
                                              seed):
    # the sweep on one persistent band workspace against the same sweep
    # with diag V(T) rebuilt from every power afresh for every proposal:
    # the same bits at degree 2 and within a few ulps above it (see
    # test_band_workspace_matches_dense_powers), which moves no accept
    # decision on these chains, so every entry agrees bit for bit
    V = Potential(coeffs)
    a, b, acc = colour_class_chain_reference(V, beta, n, seed,
                                             range(replicas))
    got_a, got_b, got_acc = _mcmc_chains(V, beta, n, seed, range(replicas))
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
    assert list(got_acc) == list(acc)


def test_sweep_matches_colour_class_reference_when_exp_overflows():
    # at beta = 1e-4 the steps grow until some u + jump passes ln of the
    # largest double: exp gives inf, which the sweep forms for all sites
    # at once; each such site must reject and get its kept b back
    V, beta, n, replicas, seed = Potential((0, 0, 0, 0, 1)), 1e-4, 8, 3, 1
    overflows = []
    a, b, acc = colour_class_chain_reference(
        V, beta, n, seed, range(replicas),
        on_overflow=lambda *args: overflows.append(args))
    assert overflows
    got_a, got_b, got_acc = _mcmc_chains(V, beta, n, seed, range(replicas))
    assert np.all(np.isfinite(got_b))
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
    assert list(got_acc) == list(acc)


@pytest.mark.parametrize("coeffs", [(0, 0, 0, 0, 1), (0, 0.3, 0.5, 0.1, 0.2)],
                         ids=["quartic", "asymmetric"])
def test_mcmc_matches_eigenvalue_chain(coeffs):
    # the oracle is a Metropolis chain on the eigenvalues themselves, one
    # site at a time: the same law by a different route
    V, n, replicas = Potential(coeffs), 50, 32
    lam, _ = metropolis_chain_reference(V, 2.0, n, 1, range(replicas))
    got = np.stack([s.eigenvalues
                    for s in sample_mcmc_batch(V, 2.0, n, 2, range(replicas))])
    assert wasserstein(esd(lam.ravel()), esd(got.ravel())) <= 0.015
    top, ref = got[:, -1], lam[:, -1]
    se = math.sqrt((np.var(top, ddof=1) + np.var(ref, ddof=1)) / replicas)
    assert abs(np.mean(top) - np.mean(ref)) <= 3.0 * se


def _two_point_moments(V, beta):
    """E[lambda_max] and E[lambda^2] (over both eigenvalues) of the N = 2
    law |l1 - l2|^beta exp(-beta (V(l1) + V(l2))), by a 2-D trapezoid rule
    on [-4, 4]^2, where the weight is below e^-30 outside."""
    x = np.linspace(-4.0, 4.0, 1601)
    l1, l2 = np.meshgrid(x, x, indexing="ij")
    w = np.abs(l1 - l2) ** beta * np.exp(-beta * (V(l1) + V(l2)))
    mass = np.sum(w)
    return (np.sum(w * np.maximum(l1, l2)) / mass,
            np.sum(w * 0.5 * (l1 * l1 + l2 * l2)) / mass)


@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("coeffs", [(0, 0, 0, 0, 1), (0, 0.3, 0.5, 0.1, 0.2)],
                         ids=["quartic", "asymmetric"])
def test_mcmc_two_point_law_is_exact(coeffs, beta):
    # at N = 2 the chain moves a_1, a_2 and b_1, whose weight b^(beta - 1)
    # and the factor N beta / 2 = beta in front of tr V(T) set both moments
    V, replicas = Potential(coeffs), 2000
    lam = np.stack([s.eigenvalues for s in
                    sample_mcmc_batch(V, beta, 2, 3, range(replicas))])
    top, square = lam[:, 1], np.mean(lam * lam, axis=1)
    want_top, want_square = _two_point_moments(V, beta)
    for got, want in ((top, want_top), (square, want_square)):
        se = np.std(got, ddof=1) / math.sqrt(replicas)
        assert abs(np.mean(got) - want) <= 3.0 * se


@pytest.mark.parametrize("coeffs", [(0, 0, 0.5), (0, 0.3, 0.5, 0.1, 0.2),
                                    (1, 0, 0, 0, 0, 0, 1)],
                         ids=["gaussian", "asymmetric", "sextic"])
def test_colour_class_deltas_are_single_site_changes(rng, coeffs):
    V, n = Potential(coeffs), 13
    a = rng.normal(0.0, 1.0, n)
    b = rng.uniform(0.3, 1.5, n - 1)

    def trace_v(d, e):
        return tridiag_power_sums(d, e, V.degree) @ V.coeffs

    def with_entries(is_off, entries):
        return (a, entries) if is_off else (entries, b)

    # one workspace, its entries rewritten in place for every state read
    bands = _JacobiBands(a, b, V.degree)

    def diag_v(d, e):
        bands.diagonal[:] = d
        bands.couplings[:] = e
        return bands.potential_diagonal(V.coeffs).copy()

    base = diag_v(a, b)
    tol = 1e-12 * np.sum(np.abs(base))
    seen = {False: [], True: []}
    for is_off, sites, starts, owner in _colour_classes(n, V.degree):
        entries = b if is_off else a
        idx = np.arange(entries.size)[sites]
        seen[is_off] += list(idx)
        moved = entries.copy()
        moved[idx] *= rng.uniform(0.5, 1.5, idx.size)
        new = diag_v(*with_entries(is_off, moved))
        delta = np.add.reduceat(new - base, starts)
        for k, i in enumerate(idx):
            alone = entries.copy()
            alone[i] = moved[i]
            want = trace_v(*with_entries(is_off, alone)) - trace_v(a, b)
            assert abs(delta[k] - want) <= tol
        # taking the moved rows of the sites that accept gives diag V(T) of
        # the state where those sites alone moved
        ok = rng.random(idx.size) < 0.5
        kept = entries.copy()
        kept[idx[ok]] = moved[idx[ok]]
        merged = base.copy()
        np.copyto(merged, new, where=ok[owner])
        assert np.array_equal(
            merged, diag_v(*with_entries(is_off, kept)))
    assert sorted(seen[False]) == list(range(n))
    assert sorted(seen[True]) == list(range(n - 1))


def test_mcmc_quartic_reaches_equilibrium_profile(quartic, eq_quartic):
    reps = sample_mcmc_batch(quartic, 2.0, 100, 11, range(8))
    for s in reps:
        assert 0.2 <= s.acceptance_rate <= 0.6
    atoms = np.concatenate([s.eigenvalues for s in reps])
    pooled = AtomicMeasure(atoms, np.full(atoms.size, 1.0 / atoms.size))
    assert wasserstein(pooled, eq_quartic.density) <= 0.05

