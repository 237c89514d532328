import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from betalab.dos import TestFunction, dos_measure
from betalab.equilibrium import _hard_edge, constrained_equilibrium, \
    equilibrium_cached, nu_limit
from betalab.measures import (
    AngularMeasure, AtomicMeasure, GridMeasure, _cell_kernel, _cheb_coeffs,
    _cheb_table, _compose,
    load_measure, log_energy_grid, log_energy_reg,
    moment, reflect_shift, save_measure, variance, wasserstein,
)
from betalab.potential import Potential
from betalab.sampler import SpectrumSample, sample_gaussian
from oracles import (
    angular_cdf_quadrature, angular_first_moment_quadrature, angular_grid,
    angular_integral_midpoint,
    angular_quantile_brentq, cell_kernel_reference, grid_integral_gauss,
    log_energy_grid_dense_reference, log_energy_grid_reference,
    log_kernel_mass_form_reference, quantile_discretize, semicircle_grid,
    uniform_grid, wasserstein_quadrature_reference,
)


def random_atomic(rng, n=None):
    n = n or int(rng.integers(2, 12))
    atoms = rng.normal(0.0, 2.0, n)
    w = rng.random(n) + 0.05
    return AtomicMeasure(atoms, w / math.fsum(w.tolist()))


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_atomic_merges_duplicates_and_sorts():
    mu = AtomicMeasure([1.0, -1.0, 1.0], [0.25, 0.5, 0.25])
    assert mu.atoms.tolist() == [-1.0, 1.0]
    assert mu.weights.tolist() == [0.5, 0.5]
    assert np.all(np.diff(mu.atoms) > 0)


@pytest.mark.parametrize("build", [
    lambda: GridMeasure(0.0, 1.0, np.ones(3), _cdf=np.zeros(3)),
    lambda: Potential([0.0, 0.0, 0.5], _d1=np.zeros(2)),
    lambda: Potential([0.0, 0.0, 0.5], _d2=np.zeros(1)),
    lambda: SpectrumSample(np.array([0.0, 1.0]), np.zeros(1), tie_breaks=3),
    lambda: SpectrumSample(np.array([0.0, 1.0]), np.zeros(1),
                           eigenvalues=np.array([0.0, 1.0])),
])
def test_derived_fields_are_not_constructor_parameters(build):
    # __post_init__ computes these; a passed value would be thrown away
    with pytest.raises(TypeError):
        build()


def test_atomic_rejects_bad_weights():
    with pytest.raises(ValueError):
        AtomicMeasure([0.0, 1.0], [0.6, 0.6])
    with pytest.raises(ValueError):
        AtomicMeasure([0.0, 1.0], [-0.1, 1.1])
    with pytest.raises(ValueError):
        AtomicMeasure([0.0, np.inf], [0.5, 0.5])


def test_grid_measure_normalizes_and_validates():
    g = GridMeasure(0.0, 1.0, [1.0, 3.0, 1.0])
    assert abs(np.trapezoid(g.values, dx=g.h) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        GridMeasure(1.0, 0.0, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        GridMeasure(0.0, 1.0, [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        GridMeasure(0.0, 1.0, [1.0, 1.0])


def test_grid_normalization_is_idempotent(tmp_path, rng):
    # one normalization leaves the trapezoid mass within n eps of 1, so a
    # rebuild, a double reflect_shift and a save/load/save keep every bit
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    for i in range(200):
        n = int(rng.integers(2, 5001))
        g = GridMeasure(rng.normal(), 10.0 + rng.normal(),
                        rng.random(n + 1) * rng.exponential(3.0))
        assert np.array_equal(GridMeasure(g.lo, g.hi, g.values).values,
                              g.values)
        twice = reflect_shift(reflect_shift(g, 1.3), 1.3)
        assert np.array_equal(twice.values, g.values)
        if i % 10 == 0:
            save_measure(g, str(first))
            save_measure(load_measure(str(first)), str(second))
            assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("call, error, needle", [
    (lambda: AtomicMeasure([], []), ValueError, "at least one atom"),
    (lambda: AtomicMeasure([0.0, 1.0], [1.0]), ValueError, "equal length"),
    (lambda: AtomicMeasure([0.0, 1.0], [0.0, 0.0]), ValueError,
     "total mass must be positive"),
    (lambda: GridMeasure(0.0, 1.0, [1.0, np.nan, 1.0]), ValueError,
     "must be finite"),
    (lambda: GridMeasure(0.0, 1.0, [0.0, 0.0, 0.0]), ValueError,
     "zero mass"),
    (lambda: moment(AtomicMeasure.from_points([1.0, 2.0]), 1.5), ValueError,
     "nonnegative integer"),
    (lambda: quantile_discretize(AtomicMeasure.from_points([1.0, 2.0]), 4),
     TypeError, "atomless grid measure"),
    (lambda: log_energy_reg(uniform_grid(0.0, 1.0, 8), 2.0), TypeError,
     "expects an atomic measure"),
    (lambda: log_energy_grid(AtomicMeasure.from_points([1.0, 2.0])),
     TypeError, "expects a grid measure"),
    (lambda: save_measure(AtomicMeasure.from_points([1.0, 2.0]),
                          "measure.json"), ValueError,
     "unsupported measure file extension"),
    (lambda: save_measure(AngularMeasure(0.0, 1.0, [1.0]), "measure.csv"),
     TypeError, "atomic and grid"),
])
def test_measures_refuse_bad_input(call, error, needle):
    with pytest.raises(error, match=needle):
        call()


# ---------------------------------------------------------------------------
# reflect_shift
# ---------------------------------------------------------------------------

def test_reflect_point_mass():
    mu = AtomicMeasure([1.0], [1.0])
    assert reflect_shift(mu, 0.0).atoms.tolist() == [-1.0]


def test_reflect_is_involution(rng):
    mu = random_atomic(rng)
    back = reflect_shift(reflect_shift(mu, 3.7), 3.7)
    # c - (c - x) re-rounds once per application, so atoms agree to one ulp
    # of the shift scale; weights and ordering are untouched
    assert np.max(np.abs(back.atoms - mu.atoms)) <= 2e-15
    assert np.array_equal(back.weights, mu.weights)


def test_reflect_semicircle_closed_form():
    nu = reflect_shift(semicircle_grid(2048), 2.0)
    assert (nu.lo, nu.hi) == (0.0, 4.0)
    x = nu.nodes
    expect = np.sqrt(np.maximum(4.0 * x - x * x, 0.0)) / (2.0 * math.pi)
    # nodal values match up to the constructor's mass renormalization
    assert np.max(np.abs(nu.values - expect)) <= 1e-5


def test_reflect_moment_and_variance_identities(rng):
    mu = random_atomic(rng)
    c = 1.3
    tau = reflect_shift(mu, c)
    assert abs(moment(tau, 1) - (c - moment(mu, 1))) <= 1e-13
    assert abs(variance(tau) - variance(mu)) <= 1e-13


# ---------------------------------------------------------------------------
# moments and variance
# ---------------------------------------------------------------------------

def test_moment_two_point():
    mu = AtomicMeasure([0.0, 2.0], [0.5, 0.5])
    assert moment(mu, 1) == 1.0
    assert moment(mu, 0) == 1.0


def test_moment_semicircle_quadrature():
    sc = semicircle_grid()
    # trapezoid error is O(h^{3/2}) at the sqrt edges, ~1e-5 at n = 4096
    assert abs(moment(sc, 2) - 1.0) <= 1e-4
    nu = reflect_shift(sc, 2.0)
    assert abs(moment(nu, 1) - 2.0) <= 1e-10


def test_variance_examples():
    assert variance(AtomicMeasure([2.5], [1.0])) == 0.0
    assert abs(variance(AtomicMeasure([0.0, 2.0], [0.5, 0.5])) - 1.0) <= 1e-15
    assert abs(variance(semicircle_grid()) - 1.0) <= 1e-4


def test_variance_pair_representation_identity(rng):
    # Var(mu) = 1/2 iint (x - y)^2 dmu dmu, exact on atoms
    for _ in range(10):
        mu = random_atomic(rng)
        d = mu.atoms[:, None] - mu.atoms[None, :]
        w2 = np.outer(mu.weights, mu.weights)
        rep = 0.5 * float(np.sum(w2 * d * d))
        assert abs(variance(mu) - rep) <= 1e-12 * max(1.0, rep)


# ---------------------------------------------------------------------------
# wasserstein
# ---------------------------------------------------------------------------

def test_w1_point_masses():
    a = AtomicMeasure([0.0], [1.0])
    b = AtomicMeasure([1.0], [1.0])
    assert wasserstein(a, b, 1.0) == 1.0


def test_w2_two_atoms_matches_brute_force():
    a = AtomicMeasure([0.0, 2.0], [0.5, 0.5])
    b = AtomicMeasure([1.0, 3.0], [0.5, 0.5])
    # only two couplings of two equal-weight atoms: sorted and crossed
    sorted_cost = math.sqrt(0.5 * (1.0 ** 2) + 0.5 * (1.0 ** 2))
    crossed_cost = math.sqrt(0.5 * (3.0 ** 2) + 0.5 * (1.0 ** 2))
    assert sorted_cost < crossed_cost
    assert abs(wasserstein(a, b, 2.0) - sorted_cost) <= 1e-12


def test_wasserstein_rejects_low_order():
    a = AtomicMeasure([0.0], [1.0])
    with pytest.raises(ValueError):
        wasserstein(a, a, 0.5)


def test_metric_axioms_on_random_atomics(rng):
    for _ in range(25):
        a, b, c = (random_atomic(rng) for _ in range(3))
        dab, dba = wasserstein(a, b), wasserstein(b, a)
        assert dab == dba
        assert wasserstein(a, a) <= 1e-12
        assert dab > 0.0
        assert dab <= wasserstein(a, c) + wasserstein(c, b) + 1e-12


def test_order_monotonicity_w1_below_wq(rng):
    for _ in range(100):
        a, b = random_atomic(rng), random_atomic(rng)
        d1 = wasserstein(a, b, 1.0)
        for q in (1.5, 2.0, 3.0):
            assert d1 <= wasserstein(a, b, q) + 1e-12


def test_w1_against_uniform_gold_values():
    # int_0^1 |a - u| du: a^2 - a + 1/2 on [0, 1], |a - 1/2| outside
    unif = uniform_grid(0.0, 1.0, 64)
    for a in np.linspace(-1.5, 2.5, 33):
        expect = a * a - a + 0.5 if 0.0 <= a <= 1.0 else abs(a - 0.5)
        got = wasserstein(AtomicMeasure([a], [1.0]), unif)
        assert abs(got - expect) <= 1e-15
    halves = AtomicMeasure([0.0, 1.0], [0.5, 0.5])
    assert abs(wasserstein(halves, unif) - 0.25) <= 1e-15


def test_w1_atoms_outside_support_and_in_gap_match_quadrature():
    vals = np.ones(41)
    vals[15:26] = 0.0                      # no mass on [0.5, 1.5]
    nu = GridMeasure(-1.0, 3.0, vals)
    # atoms below, inside the gap, on its edge and above the support; the
    # dyadic weights put every jump of F_mu on a boundary of the
    # quadrature's cells, where the midpoint rule has no step error
    mu = AtomicMeasure([-2.0, 0.9, 1.5, 1.8, 4.5],
                       [0.125, 0.25, 0.25, 0.25, 0.125])
    ref = wasserstein_quadrature_reference(mu, nu, points=1 << 22)
    assert abs(wasserstein(mu, nu) - ref) <= 1e-7


@pytest.mark.parametrize("n", [100, 1000])
def test_w1_gaussian_spectrum_matches_quadrature(eq_gauss, n):
    mu = dos_measure(sample_gaussian(n, 2.0, 3))
    nu = reflect_shift(eq_gauss.density, eq_gauss.b_v)
    ref = wasserstein_quadrature_reference(mu, nu, points=1 << 22)
    assert abs(wasserstein(mu, nu) - ref) <= 1e-7


def test_w1_atomic_grid_is_symmetric(rng):
    nu = semicircle_grid()
    for _ in range(5):
        mu = random_atomic(rng, 50)
        assert wasserstein(nu, mu) == wasserstein(mu, nu)


def test_wasserstein_refuses_pairs_without_exact_route(rng):
    nu = semicircle_grid()
    with pytest.raises(TypeError):
        wasserstein(nu, uniform_grid(-1.0, 1.0))
    for pair in ((random_atomic(rng), nu), (nu, random_atomic(rng))):
        with pytest.raises(ValueError):
            wasserstein(*pair, 2.0)
    # W_inf of {0, 1} against {5, 9} is 8; the p-th root route would read 1
    atoms = AtomicMeasure([0.0, 1.0], [0.5, 0.5])
    for order in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            wasserstein(atoms, AtomicMeasure([5.0, 9.0], [0.5, 0.5]), order)


# ---------------------------------------------------------------------------
# quantile discretization (and its convergence)
# ---------------------------------------------------------------------------

def test_quantile_discretize_uniform_thirds():
    u = uniform_grid(0.0, 1.0, 64)
    atoms = quantile_discretize(u, 3).atoms
    assert np.allclose(atoms, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_quantile_discretize_two_is_median():
    u = uniform_grid(0.0, 1.0, 64)
    atoms = quantile_discretize(u, 2).atoms
    assert atoms.size == 1 and abs(atoms[0] - 0.5) <= 1e-12


def test_quantile_discretize_rejects_small_n():
    with pytest.raises(ValueError):
        quantile_discretize(uniform_grid(0.0, 1.0, 8), 1)


def test_quantile_discretize_semicircle_converges():
    sc = semicircle_grid()
    dists, moment_errs = [], []
    for n in (100, 1000, 10000):
        mu_n = quantile_discretize(sc, n)
        dists.append(wasserstein(mu_n, sc))
        moment_errs.append(abs(moment(mu_n, 2) - moment(sc, 2)))
    assert dists[0] > dists[1] > dists[2]
    assert moment_errs[0] > moment_errs[1] > moment_errs[2]
    assert dists[2] <= 1e-3


# ---------------------------------------------------------------------------
# log energies
# ---------------------------------------------------------------------------

def test_log_energy_reg_single_atom_is_cap():
    mu = AtomicMeasure([0.0], [1.0])
    assert log_energy_reg(mu, 7.25) == 7.25


def test_log_energy_reg_two_atoms():
    mu = AtomicMeasure([0.0, 1.0], [0.5, 0.5])
    # diagonal mass 1/2 at the cap, off-diagonal -ln 1 = 0
    assert log_energy_reg(mu, 10.0) == pytest.approx(5.0, abs=1e-12)


def test_log_energy_reg_semicircle_discretization():
    mu = quantile_discretize(semicircle_grid(), 2000)
    val = log_energy_reg(mu, 20.0)
    # frozen quadrature value; the diagonal cap M/(N-1) = 0.01 keeps it
    # 6.7e-3 above the continuum -Sigma = 1/4
    assert val == pytest.approx(0.2567036550667882, rel=1e-9)
    assert abs(val - 0.25) <= 1e-2


def test_log_energy_reg_monotone_in_cap(rng):
    mu = random_atomic(rng, 8)
    vals = [log_energy_reg(mu, m) for m in (0.5, 1.0, 2.0, 5.0, 20.0)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_log_energy_reg_converges_to_grid_energy():
    sc = semicircle_grid()
    target = -log_energy_grid(sc)
    errs = []
    for n in (250, 1000, 4000):
        mu = quantile_discretize(sc, n)
        errs.append(abs(log_energy_reg(mu, 2.0 * math.log(n)) - target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 2e-2


def test_log_energy_grid_semicircle():
    assert abs(log_energy_grid(semicircle_grid()) + 0.25) <= 1e-4


def test_log_energy_grid_uniform_unit():
    assert abs(log_energy_grid(uniform_grid(0.0, 1.0)) + 1.5) <= 1e-4


def test_log_energy_grid_reflect_invariant_exactly():
    # only grids whose reflection reverses `values` exactly at equal `h`
    # count: GridMeasure's renormalisation moves a value on some seeds
    mirrored = 0
    for seed in range(200):
        vals = np.random.default_rng(seed).random(257) + 0.1
        mu = GridMeasure(-0.375, 1.125, vals)
        tau = reflect_shift(mu, 1.25)
        if tau.h == mu.h and np.array_equal(tau.values, mu.values[::-1]):
            mirrored += 1
            assert log_energy_grid(tau) == log_energy_grid(mu)
    assert mirrored >= 100


def test_log_energy_grid_reflect_one_ulp_wider_within_8_ulp():
    # tau_1.3 widens [-0.4, 1.1] by one ulp, so h differs and the two
    # values need not be equal bit for bit
    for seed in range(100):
        vals = np.random.default_rng(seed).random(257) + 0.1
        mu = GridMeasure(-0.4, 1.1, vals)
        tau = reflect_shift(mu, 1.3)
        assert tau.hi - tau.lo != mu.hi - mu.lo
        sigma = log_energy_grid(mu)
        assert abs(log_energy_grid(tau) - sigma) <= 8 * np.spacing(abs(sigma))


@pytest.mark.parametrize("n", [2, 3, 64, 1024, 4096])
def test_log_energy_grid_uniform_gold(n):
    # the piecewise-linear grid holds the uniform density exactly
    assert abs(log_energy_grid(uniform_grid(0.0, 1.0, n)) + 1.5) <= 1e-14


# values 0, 1, 0 on [0, 2]: the Irwin-Hall density of two uniforms, whose
# Sigma is (4/3) ln 2 - 25/12
HAT_SIGMA = -1.1591370925867396


def test_log_energy_grid_two_cell_hat_gold():
    hat = GridMeasure(0.0, 2.0, [0.0, 1.0, 0.0])
    assert abs(log_energy_grid(hat) - HAT_SIGMA) <= 1e-15


def test_log_kernel_mass_form_exact_on_two_cell_hat():
    # every cell pair of two cells shares a node: Galerkin terms only
    _, tw, g = log_kernel_mass_form_reference(0.0, 2.0, 2)
    w = tw * np.array([0.0, 1.0, 0.0])
    assert abs(w @ g @ w - HAT_SIGMA) <= 1e-15


def test_log_energy_grid_semicircle_within_1e_5():
    assert abs(log_energy_grid(semicircle_grid()) + 0.25) <= 1e-5


def test_log_energy_grid_stable_under_doubling_nodes():
    # the same piecewise-linear density on 4x finer cells: both values are
    # exact for it, so they agree to roundoff
    mu = GridMeasure(-1.0, 1.0, np.random.default_rng(512).random(513))
    fine = np.linspace(-1.0, 1.0, 4 * mu.n + 1)
    mu4 = GridMeasure(-1.0, 1.0, np.interp(fine, mu.nodes, mu.values))
    assert abs(log_energy_grid(mu4) - log_energy_grid(mu)) <= 1e-14


def test_log_energy_grid_peak_memory():
    eq = equilibrium_cached(Potential.gaussian())
    nu = reflect_shift(eq.density, eq.b_v)
    assert nu.n == 4096
    tracemalloc.start()
    try:
        log_energy_grid(nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the FFT route holds a few arrays of 2 n; an angular rule on 2^16 or
    # more nodes would need several times this
    assert peak <= 3 * 2 ** 20


# the smallest grids, where a neighbour column falls off both ends of most
# rows, and large ones
@pytest.mark.parametrize("n", [2, 3, 1023, 1024, 1025, 2049, 4096])
def test_log_kernels_match_dense_mask_reference(n):
    # the node-mass quadratic form that the FISTA and Frank-Wolfe oracles
    # minimize is the near/far reference Sigma to roundoff, and within the
    # reference's 0.2 / n of the library's exact value
    vals = np.random.default_rng(n).random(n + 1) + 0.05
    mu = GridMeasure(-10.0, 1.5, vals)
    _, tw, g = log_kernel_mass_form_reference(mu.lo, mu.hi, n)
    w = tw * mu.values
    quadratic = float(w @ g @ w)
    near_far = log_energy_grid_reference(mu)
    assert abs(quadratic - near_far) <= 1e-13 * max(1.0, abs(near_far))
    assert abs(quadratic - log_energy_grid(mu)) <= 0.2 / n


def _kernel_2x2(rows: np.ndarray, d: int) -> np.ndarray:
    """C_pq(d) from the library's rows C_00 = C_11, C_01, C_10 at |d|, by
    its stated symmetry C_pq(-d) = C_qp(d)."""
    c00, c01, c10 = rows[:, abs(d)]
    return np.array([[c00, c01], [c10, c00]] if d >= 0
                    else [[c00, c10], [c01, c00]])


def test_cell_kernel_matches_quadrature_reference():
    # -64..64 covers the closed-form / series switch at KERNEL_NEAR
    ds = list(range(-64, 65)) + [-4095, -1023, 1023, 4095]
    ref = cell_kernel_reference(ds)
    rows = _cell_kernel(4096)
    for i, d in enumerate(ds):
        assert np.abs(_kernel_2x2(rows, d) - ref[:, :, i]).max() <= 1e-14, d


@pytest.mark.parametrize("n", [2, 3, 17, 257])
def test_log_energy_grid_matches_dense_form(n):
    vals = np.random.default_rng(n).random(n + 1) + 0.05
    mu = GridMeasure(-1.3, 2.1, vals)
    dense = log_energy_grid_dense_reference(mu)
    assert abs(log_energy_grid(mu) - dense) <= 1e-13 * abs(dense)


@pytest.mark.parametrize("n", [2, 3, 1023, 1024, 1025, 2049, 4096])
def test_log_energy_grid_near_far_reference_within_bound(n):
    # two independent routes: the reference's midpoint far field is
    # 0.027 / n to 0.11 / n off on these grids
    vals = np.random.default_rng(n).random(n + 1) + 0.05
    mu = GridMeasure(-1.3, 2.1, vals)
    assert abs(log_energy_grid(mu) - log_energy_grid_reference(mu)) <= 0.2 / n


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_atomic_roundtrip_bit_exact(tmp_path, rng):
    mu = random_atomic(rng)
    path = str(tmp_path / "atomic.csv")
    save_measure(mu, path)
    back = load_measure(path)
    assert np.array_equal(back.atoms, mu.atoms)
    assert np.array_equal(back.weights, mu.weights)


def test_grid_roundtrip_bit_exact(tmp_path):
    mu = semicircle_grid(512)
    path = str(tmp_path / "grid.csv")
    save_measure(mu, path)
    back = load_measure(path)
    assert back.lo == mu.lo and back.hi == mu.hi
    assert np.array_equal(back.values, mu.values)


@pytest.mark.parametrize("mu, text", [
    (AtomicMeasure([0.1, 2.0], [0.25, 0.75]),
     "position,weight\n0.1,0.25\n2.0,0.75\n"),
    (GridMeasure(-1.0, 2.0, [1.0, 1.0, 1.0]),
     "position,density\n-1.0,0.3333333333333333\n0.5,0.3333333333333333\n"
     "2.0,0.3333333333333333\n"),
], ids=["atomic", "grid"])
def test_save_measure_writes_the_csv_format(tmp_path, mu, text):
    # a header, then each row's floats in their shortest round-trip form
    # joined by commas, then a final newline
    path = tmp_path / "measure.csv"
    save_measure(mu, str(path))
    assert path.read_bytes() == text.encode()


# ---------------------------------------------------------------------------
# angular measures: CDF, partial first moment, quantile, W1, reflection
# ---------------------------------------------------------------------------

ANGULAR_POTENTIALS = ["0,0,0.5", "0,0,0,0,1", "0,0.3,0.5,0.1,0.2"]


def angular_measure(coeffs: str, kind: str) -> AngularMeasure:
    """mu_V, nu_V, or the hard-edge minimizer below a wall at mid-support."""
    V = Potential.from_string(coeffs)
    eq = equilibrium_cached(V)
    if kind == "mu_V":
        return eq.measure
    if kind == "nu_V":
        return nu_limit(eq)
    return constrained_equilibrium(V, 0.5 * (eq.a_v + eq.b_v)).minimizer


ANGULAR_CASES = pytest.mark.parametrize(
    "coeffs, kind", [(c, k) for c in ANGULAR_POTENTIALS
                     for k in ("mu_V", "nu_V", "hard_edge")])


@ANGULAR_CASES
def test_angular_cdf_and_first_moment_match_quadrature(coeffs, kind):
    m = angular_measure(coeffs, kind)
    lo, hi = m.center - m.radius, m.center + m.radius
    xs = np.concatenate([[lo - 0.5, lo], np.linspace(lo, hi, 41)[1:-1],
                         [hi, hi + 0.5]])
    f, g = m._cdf_and_first_moment(xs)
    assert np.array_equal(m.cdf(xs), f)
    assert f[0] == f[1] == 0.0 and g[0] == g[1] == 0.0
    assert f[-1] == f[-2] == 1.0
    for x, fx, gx in zip(xs, f, g):
        assert abs(fx - angular_cdf_quadrature(m, x)) <= 1e-14
        assert abs(gx - angular_first_moment_quadrature(m, x)) <= 1e-13


@ANGULAR_CASES
def test_angular_quantile_inverts_quadrature_cdf(coeffs, kind):
    m = angular_measure(coeffs, kind)
    lo, hi = m.center - m.radius, m.center + m.radius
    assert m.quantile([0.0, 1.0]).tolist() == [lo, hi]
    # floats resolve z = (x - center) / radius to about eps, and next to a
    # hard edge 1 - F is like sqrt(1 - z): u = 1 - 1e-6 is still resolved
    us = np.array([1e-12, 1e-9, 1e-4, 0.01, 0.3, 0.5, 0.77, 0.99, 0.999,
                   1.0 - 1e-6])
    q = m.quantile(us)
    assert np.all(np.diff(q) > 0.0)
    dx = 4.0 * np.finfo(float).eps * m.radius
    for u, x in zip(us, q):
        # Q(u) -+ dx, a few steps of z either side, bracket u
        assert angular_cdf_quadrature(m, x - dx) <= u + 1e-14
        assert angular_cdf_quadrature(m, x + dx) >= u - 1e-14
        if 0.01 <= u <= 0.99:
            assert abs(x - angular_quantile_brentq(m, u)) <= 1e-13


@pytest.mark.parametrize("n", [100, 1000])
def test_w1_angular_matches_fine_grid_quadrature(eq_gauss, n):
    # the oracle integrates in u against a 2^17-cell grid of the closed-form
    # density, sharing no code with the angular CDF, moment or quantile
    sample = sample_gaussian(n, 2.0, 3)
    for mu, nu in ((dos_measure(sample), nu_limit(eq_gauss)),
                   (AtomicMeasure.from_points(sample.eigenvalues),
                    eq_gauss.measure)):
        ref = wasserstein_quadrature_reference(
            mu, angular_grid(nu, 1 << 17), points=1 << 22)
        assert abs(wasserstein(mu, nu) - ref) <= 1e-6


def test_w1_angular_quartic_matches_fine_grid_quadrature(rng, eq_quartic):
    for _ in range(3):
        mu = AtomicMeasure.from_points(rng.uniform(-1.5, 1.5, 200))
        ref = wasserstein_quadrature_reference(
            mu, angular_grid(eq_quartic.measure, 1 << 17), points=1 << 22)
        assert abs(wasserstein(mu, eq_quartic.measure) - ref) <= 1e-6


@ANGULAR_CASES
def test_w1_atomic_angular_is_symmetric(rng, coeffs, kind):
    nu = angular_measure(coeffs, kind)
    for _ in range(3):
        mu = random_atomic(rng, 50)
        assert wasserstein(nu, mu) == wasserstein(mu, nu)
    with pytest.raises(ValueError, match="only W1"):
        wasserstein(mu, nu, 2.0)
    with pytest.raises(TypeError, match="at least one atomic"):
        wasserstein(nu, nu)


@ANGULAR_CASES
def test_reflect_shift_angular_twice_keeps_moments(coeffs, kind):
    m = angular_measure(coeffs, kind)
    tau = reflect_shift(m, 0.7)
    assert tau.radius == m.radius
    assert tau.center == 0.7 - m.center
    assert np.array_equal(np.abs(tau.cos_moments), np.abs(m.cos_moments))
    assert tau.sigma == m.sigma
    back = reflect_shift(tau, 0.7)
    assert back.cos_moments.tobytes() == m.cos_moments.tobytes()
    # the reflection is the pushforward: F_tau(c - x) = 1 - F(x)
    xs = np.linspace(m.center - m.radius, m.center + m.radius, 17)[1:-1]
    assert np.max(np.abs(tau.cdf(0.7 - xs) - (1.0 - m.cdf(xs)))) <= 1e-14


def test_angular_integrate_same_moments_same_bits(eq_quartic):
    # a fresh measure with the same moments integrates a polynomial to the
    # same bits, call after call
    m = eq_quartic.measure
    fresh = AngularMeasure(m.center, m.radius, m.cos_moments.copy())
    p = (0.3, -1.0, 0.0, 2.0, 0.5, -0.25)
    assert m.integrate(p, 0.2, -1.5) == fresh.integrate(p, 0.2, -1.5) \
        == fresh.integrate(p, 0.2, -1.5)


@pytest.mark.parametrize("coeffs", ["0,0,0.5", "0,0,0,0,1",
                                    "0,0.3,0.5,0.1,0.2"])
def test_angular_integrate_matches_midpoint_rule(coeffs):
    # the exact moment series against the midpoint rule in the angle, on
    # mu_V, nu_V and a hard-edge minimizer, for every integrand src uses
    V = Potential.from_string(coeffs)
    eq = equilibrium_cached(V)
    c = eq.b_v + 0.3
    f = TestFunction((0.5, -1.0, 0.25, 2.0), center=0.7)
    cases = [((V.coeffs,), V.eval),
             ((V.coeffs, c, -1.0), lambda x: V.eval(c - x)),
             ((V._d1, c, -1.0), lambda x: V.deriv(c - x)),
             ((f.coeffs, -f.center), f.f)]
    cases += [((np.eye(k + 1)[k],), lambda x, k=k: x ** k)
              for k in (1, 2, 3, 4)]
    for mu in (eq.measure, nu_limit(eq), _hard_edge(V, eq.b_v - 0.5)):
        for args, g in cases:
            ref = angular_integral_midpoint(mu, g)
            assert abs(mu.integrate(*args) - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("n", [2, 3, 17, 1024, 4096])
def test_grid_integrate_matches_cellwise_gauss(n):
    # the central moments against Gauss-Legendre on every cell, on seeded
    # random grids and polynomials of degree <= 8 with shift and scale: the
    # two routes agree within 1e-13 of int |p| dmu (about 2e-15 seen)
    rng = np.random.default_rng(3700 + n)
    for _ in range(40):
        lo = rng.uniform(-3.0, 3.0)
        mu = GridMeasure(lo, lo + rng.uniform(0.01, 5.0), rng.random(n + 1))
        p = rng.standard_normal(int(rng.integers(1, 10)))
        shift, scale = rng.standard_normal(), 2.0 * rng.standard_normal()
        ref, scale_ref = grid_integral_gauss(mu, p, shift, scale)
        assert abs(mu.integrate(p, shift, scale) - ref) <= 1e-13 * scale_ref


def test_cheb_table_columns_are_poly2cheb_of_unit_vectors():
    # column j is t^j in the Chebyshev basis: numpy's Horner route through
    # chebmulx makes the same dyadic numbers, so they agree exactly
    for n in range(1, 33):
        B = _cheb_table(n)
        assert B.shape == (n, n) and not B.flags.writeable
        for j in range(n):
            want = C.poly2cheb(np.eye(n)[j])
            assert np.array_equal(B[:want.size, j], want)
            assert not np.any(B[want.size:, j])


def test_cheb_coeffs_match_poly2cheb():
    # the table product against poly2cheb of the composed coefficients, on
    # seeded cases with trailing and signed zeros, zero radius and all-zero
    # polynomials: within 8 eps sum |q|, and always len(coeffs) entries
    rng = np.random.default_rng(38)
    cases = 2000
    coeffs = rng.standard_normal((cases, 9))
    sizes = rng.integers(1, 10, cases)
    kind = rng.integers(8, size=cases)
    cut = rng.random((cases, 9)) < 0.5
    coeffs[kind == 0] *= ~cut[kind == 0]                  # zeros, trailing too
    coeffs[(kind == 1)[:, None] & cut] = -0.0             # signed zeros
    coeffs[kind == 2] = -0.0                              # all -0.0
    centers = np.where(kind == 3, -0.0, 3.0 * rng.standard_normal(cases))
    radii = np.where(kind == 4, 0.0, 2.0 * rng.standard_normal(cases))
    eps = np.finfo(float).eps
    for i in range(cases):
        p = coeffs[i, :sizes[i]]
        q = _compose(p, centers[i], radii[i])
        got = _cheb_coeffs(p, centers[i], radii[i])
        trimmed = C.poly2cheb(q)
        want = np.zeros(p.size)
        want[:trimmed.size] = trimmed
        assert got.size == p.size
        assert np.max(np.abs(got - want)) <= 8 * eps * np.sum(np.abs(q))


@pytest.mark.parametrize("mu", [
    AtomicMeasure.from_points([0.5, 1.0, 2.0]),
    GridMeasure(0.0, 1.0, np.ones(9)),
    AngularMeasure(0.0, 2.0, [1.0, 0.0, -0.5]),
], ids=["atomic", "grid", "angular"])
def test_integrate_refuses_what_is_not_a_polynomial(mu):
    # the old callable form must not turn into an object array
    with pytest.raises(TypeError, match="not a callable"):
        mu.integrate(lambda x: x)
    for bad in ([], [1.0, np.nan], [np.inf], [0.0, -np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite polynomial"):
            mu.integrate(bad)
