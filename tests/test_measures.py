import math

import numpy as np
import pytest

from betalab.dos import dos_measure
from betalab.equilibrium import nu_limit
from betalab.measures import (
    AtomicMeasure, GridMeasure,
    load_measure, log_energy_grid, log_energy_reg, log_kernel_mass_form,
    moment, quantile_discretize, reflect_shift, save_measure, variance,
    wasserstein,
)
from betalab.potential import Potential
from betalab.sampler import SpectrumSample, sample_gaussian
from oracles import (
    log_energy_grid_reference, log_kernel_mass_form_reference,
    semicircle_grid, uniform_grid, wasserstein_quadrature_reference,
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
    nu = nu_limit(eq_gauss)
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


def test_log_energy_grid_reflect_invariant_exactly(rng):
    vals = rng.random(257) + 0.1
    mu = GridMeasure(-0.4, 1.1, vals)
    assert log_energy_grid(reflect_shift(mu, 1.3)) == log_energy_grid(mu)


# sizes at the edges of Sigma's 1024-row blocks, plus the smallest grids,
# where a neighbour column falls off both ends of most rows
@pytest.mark.parametrize("n", [2, 3, 1023, 1024, 1025, 2049, 4096])
def test_log_kernels_match_dense_mask_reference(n):
    vals = np.random.default_rng(n).random(n + 1) + 0.05
    mu = GridMeasure(-1.3, 2.1, vals)
    assert log_energy_grid(mu) == log_energy_grid_reference(mu)
    got = log_kernel_mass_form(-10.0, 1.5, n)
    ref = log_kernel_mass_form_reference(-10.0, 1.5, n)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


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
