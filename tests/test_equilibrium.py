import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

import betalab.equilibrium as equilibrium
from betalab.cli import main
from betalab.equilibrium import (
    ConstrainedEquilibriumResult, constrained_equilibrium,
    equilibrium_cached,
    effective_potential_tail,
    equilibrium_files, nu_limit, solve_equilibrium,
)
from betalab.measures import (
    AngularMeasure, AtomicMeasure, GridMeasure, _cheb_coeffs,
    load_measure, log_energy_grid, log_energy_reg,
)
from betalab.potential import Potential
from betalab.rates import projection_J
from oracles import (
    cheb_midpoint, constrained_value_continuum, direct_energy_min,
    hard_edge_equilibrium,
    log_kernel_mass_form_reference, log_potential_grid,
    log_potential_quadrature, pairwise_fw_reference,
    wasserstein_quadrature_reference,
)

QUARTIC_B = 1.0745699318235422          # (4/3)^(1/4)
QUARTIC_SIGMA = -0.7462266624470001     # ln(4/3)/4 - ln 2 - 1/8


def j_minus_dean_majumdar(c):
    """Left-tail rate of the semicircle, 2 Phi_-(c / sqrt 2) (Dean and
    Majumdar, PRE 77, 041108 (2008)).  For w < 0 the cancelling pairs are
    rewritten with w + s = 6 / (s - w), so far walls keep their digits."""
    w = c / math.sqrt(2.0)
    s = math.sqrt(w * w + 6.0)
    if w >= 0.0:
        phi = (36.0 * w * w - w ** 4 - (15.0 * w + w ** 3) * s
               + 27.0 * (math.log(18.0) - 2.0 * math.log(w + s))) / 108.0
    else:
        a = -w
        phi = (36.0 * a * a + 15.0 * a * s + 6.0 * a ** 3 / (s + a)
               + 27.0 * (math.log(18.0) - 2.0 * math.log(6.0 / (s + a)))) \
            / 108.0
    return 2.0 * phi


def j_plus_closed(x):
    """Right-tail rate of the semicircle: int_2^x sqrt(t^2 - 4) dt."""
    s = math.sqrt(x * x - 4.0)
    return 0.5 * x * s - 2.0 * math.log(0.5 * (x + s))


# ---------------------------------------------------------------------------
# unconstrained solve
# ---------------------------------------------------------------------------

def test_gaussian_gold_values(gauss):
    t0 = time.perf_counter()
    eq = solve_equilibrium(gauss)
    elapsed = time.perf_counter() - t0
    # exact Chebyshev coefficients of V' put Newton on the semicircle itself
    assert eq.a_v == -2.0 and eq.b_v == 2.0
    assert eq.measure.cos_moments.tolist() == [1.0, 0.0, -0.5]
    assert abs(eq.c_v - 0.75) <= 1e-10
    assert abs(eq.measure.sigma + 0.25) <= 1e-10
    assert elapsed < 1.0


def test_gaussian_density_is_semicircle(eq_gauss):
    x = eq_gauss.density.nodes
    expect = np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * math.pi)
    # trapezoid mass normalization shifts nodal values by ~4e-6 relative
    assert np.max(np.abs(eq_gauss.density.values - expect)) <= 2e-6


def test_density_grid_is_built_on_first_read(gauss):
    # a solve builds no grid; the first read builds it once, of n cells
    eq = solve_equilibrium(gauss, 64)
    assert "density" not in vars(eq)
    assert eq.density is eq.density and eq.density.n == 64
    with pytest.raises(ValueError, match="n >= 2 cells"):
        solve_equilibrium(gauss, 1)


def test_quartic_gold_values(eq_quartic):
    assert abs(eq_quartic.b_v - QUARTIC_B) <= 1e-10
    assert abs(eq_quartic.a_v + QUARTIC_B) <= 1e-10
    assert abs(eq_quartic.measure.sigma - QUARTIC_SIGMA) <= 1e-10
    assert abs(eq_quartic.c_v - (0.25 - QUARTIC_SIGMA)) <= 1e-10


def test_quartic_endpoints_match_direct_grid_minimizer(quartic, eq_quartic):
    mopt = direct_energy_min(quartic, -1.3, 1.3, n=512)
    assert wasserstein_quadrature_reference(mopt, eq_quartic.density) <= 2e-3


def test_energy_identity_at_minimizer(gauss, quartic):
    for V in (gauss, quartic):
        eq = equilibrium_cached(V)
        assert eq.c_v == -eq.measure.sigma + eq.measure.integrate(V.coeffs)


def test_integrate_constant_is_exact(quartic, eq_quartic):
    # a constant is its own Chebyshev series, and mom_0 = 1; a grid's
    # central moment M_0 is exactly 1 too
    for measure in (eq_quartic.measure, equilibrium._hard_edge(quartic, 0.8),
                    eq_quartic.density,
                    GridMeasure(0.5, 2.0, [0.3, 1.0, 0.2, 0.7])):
        assert measure.integrate([1.0]) == 1.0
        assert measure.integrate([2.0], 0.3, -1.7) == 2.0


@pytest.mark.parametrize("coeffs", ["0,0,0.5", "0,0,0,0,1",
                                    "0,0.3,0.5,0.1,0.2"])
def test_integrate_potential_matches_moment_series(coeffs):
    # c_V = -Sigma + sum_k v_k mom_k, the same sum integrate takes
    V = Potential.from_string(coeffs)
    eq = equilibrium_cached(V)
    assert eq.c_v == -eq.measure.sigma + eq.measure.integrate(V.coeffs)


@pytest.mark.parametrize("coeffs, c", [("0,0,0.5", 1.5), ("0,0,0,0,1", 0.8),
                                       ("0,0.3,0.5,0.1,0.2", -1.0)])
def test_hard_edge_mean_is_first_cosine_moment(coeffs, c):
    measure = equilibrium._hard_edge(Potential.from_string(coeffs), c)
    mean = measure.center + measure.radius * measure.cos_moments[1]
    assert abs(measure.integrate([0.0, 1.0]) - mean) <= 1e-14


@pytest.mark.parametrize("coeffs", ["0,0,0.5", "0,0,0,0,1",
                                    "0,0.3,0.5,0.1,0.2",
                                    "0,0,0.5,0,0.1,0,0.01"])
def test_newton_coefficients_match_midpoint_rule(coeffs):
    # Newton's u (of V') and s (of V'') by composition, at the solution and
    # off it, against the midpoint rule in the angle
    V = Potential.from_string(coeffs)
    m = equilibrium_cached(V).measure
    for c, r in ((m.center, m.radius), (m.center + 0.3, 0.7 * m.radius),
                 (m.center - 1.0, 1.5 * m.radius)):
        for d, g in ((V._d1, V.deriv), (V._d2, lambda x: V.deriv(x, 2))):
            exact = _cheb_coeffs(d, c, r)
            ref = cheb_midpoint(g, c, r, exact.size - 1)
            assert np.max(np.abs(exact - ref)) \
                <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_density_vanishes_like_sqrt(eq_gauss):
    rho = eq_gauss.density
    h = rho.h
    for edge in (rho.values[1], rho.values[-2]):
        assert 0.2 <= edge / math.sqrt(h) <= 0.45
    assert abs(rho.values[0]) <= 1e-15 and abs(rho.values[-1]) <= 1e-15
    # one more step in, the sqrt profile grows by sqrt(2)
    assert rho.values[-3] / rho.values[-2] == pytest.approx(
        math.sqrt(2.0), rel=0.05)


def test_euler_lagrange_flatness(gauss, quartic):
    for V in (gauss, quartic):
        eq = equilibrium_cached(V)
        xs = eq.density.nodes[1:-1]
        u = 2.0 * log_potential_grid(eq.density, xs) - V.eval(xs)
        assert np.max(u) - np.min(u) <= 1e-4


def test_exterior_log_potential_closed_form(eq_gauss):
    # for the semicircle: U(x) = x^2/4 - 1/2 - int_2^x sqrt(t^2-4)/2 dt
    for x in (2.0, 2.5, 3.0, 5.0):
        expect = x * x / 4.0 - 0.5 - 0.5 * j_plus_closed(x)
        assert eq_gauss.measure.log_potential_exterior(x) == pytest.approx(
            expect, abs=1e-12)


@pytest.mark.parametrize("x", [0.0, 1.9, -1.5, [2.5, 1.0]])
def test_exterior_log_potential_refuses_the_support(eq_gauss, x):
    with pytest.raises(ValueError, match="needs x outside the support"):
        eq_gauss.measure.log_potential_exterior(x)


def test_cached_solve_is_shared(gauss):
    assert equilibrium_cached(gauss) is equilibrium_cached(gauss)


def _check_saved_mu_v(eq, tmp_path):
    """equilibrium_files carries mu_V exactly: the JSON's cos_moments
    rebuild a measure with the stored sigma bit for bit, the CSV reads back
    as the density grid, and a second call gives the same text."""
    files = equilibrium_files(eq)
    assert files == equilibrium_files(eq)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    obj = json.loads(files["equilibrium.json"])
    assert (obj["a_v"], obj["b_v"], obj["c_v"]) == (eq.a_v, eq.b_v, eq.c_v)
    assert tuple(obj["potential_coeffs"]) == eq.potential_coeffs
    a, b = obj["a_v"], obj["b_v"]
    measure = AngularMeasure(0.5 * (a + b), 0.5 * (b - a), obj["cos_moments"])
    assert measure.sigma == obj["sigma"] == eq.measure.sigma
    for f in dataclasses.fields(AngularMeasure):
        assert np.array_equal(getattr(measure, f.name),
                              getattr(eq.measure, f.name)), f.name
    assert measure.cos_moments.flags.writeable is False
    density = load_measure(str(tmp_path / "equilibrium_density.csv"))
    assert np.array_equal(density.values, eq.density.values)


def test_equilibrium_roundtrip(tmp_path, eq_gauss):
    _check_saved_mu_v(eq_gauss, tmp_path)


@pytest.mark.parametrize("coeffs", ["0,0,0,0,1", "0,0.3,0.5,0.1,0.2"])
def test_non_gaussian_equilibrium_roundtrip(tmp_path, coeffs):
    _check_saved_mu_v(equilibrium_cached(Potential.from_string(coeffs)),
                      tmp_path)


# ---------------------------------------------------------------------------
# nu_limit
# ---------------------------------------------------------------------------

def test_nu_limit_gaussian_closed_form(eq_gauss):
    # the semicircle on [0, 4]: F(2 + y) = 1/2 + y sqrt(4 - y^2) / (4 pi)
    # + arcsin(y / 2) / pi, and mean 2
    nu = nu_limit(eq_gauss)
    assert isinstance(nu, AngularMeasure)
    assert nu.center - nu.radius == 0.0
    assert abs(nu.center + nu.radius - 4.0) <= 1e-10
    y = np.linspace(-2.0, 2.0, 201)
    expect = 0.5 + y * np.sqrt(4.0 - y * y) / (4.0 * math.pi) \
        + np.arcsin(0.5 * y) / math.pi
    f, g = nu._cdf_and_first_moment(2.0 + y)
    assert np.max(np.abs(f - expect)) <= 1e-12
    assert abs(g[-1] - 2.0) <= 1e-12
    assert nu.integrate([0.0, 1.0]) == 2.0


def test_nu_limit_lower_edge_always_zero(eq_quartic):
    for eq in (eq_quartic, equilibrium_cached(Potential.gaussian()),
               equilibrium_cached(Potential.from_string("0,0.3,0.5,0.1,0.2"))):
        nu = nu_limit(eq)
        assert abs(nu.center - nu.radius) <= math.ulp(nu.radius)
        assert nu.cdf(0.0) == 0.0


# ---------------------------------------------------------------------------
# right tail J^+
# ---------------------------------------------------------------------------

def test_tail_anchored_at_edge(eq_gauss, gauss):
    assert effective_potential_tail(eq_gauss, gauss, eq_gauss.b_v) == 0.0


def test_tail_rejects_interior(eq_gauss, gauss):
    with pytest.raises(ValueError):
        effective_potential_tail(eq_gauss, gauss, 1.5)


def test_tail_matches_quadrature_oracle(eq_gauss, gauss):
    for x in (2.5, 3.0, 4.0):
        assert effective_potential_tail(eq_gauss, gauss, x) == pytest.approx(
            j_plus_closed(x), abs=1e-9)


def test_tail_monotone_scan(eq_gauss, gauss):
    vals = [effective_potential_tail(eq_gauss, gauss, x)
            for x in (2.0, 2.5, 3.0, 4.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_tail_dominated_by_potential_growth(eq_gauss, gauss):
    ratios = [effective_potential_tail(eq_gauss, gauss, x) / gauss.eval(x)
              for x in (5.0, 8.0, 12.0)]
    assert ratios[0] < ratios[1] < ratios[2] <= 1.0
    assert ratios[2] >= 0.9


# ---------------------------------------------------------------------------
# hard-edge measure in closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [-1.0, 0.0, 0.5, 1.0, 1.5, 1.9, 1.99])
def test_hard_edge_energy_matches_dean_majumdar(gauss, eq_gauss, c):
    j_minus = equilibrium._hard_edge(gauss, c).energy(gauss) - eq_gauss.c_v
    assert abs(j_minus - j_minus_dean_majumdar(c)) <= 2e-15


def test_hard_edge_third_order_coefficient(gauss):
    # J^-(c) ~ (2 - c)^3 / 12 as the wall reaches b_V = 2 (Majumdar and
    # Schehr, J. Stat. Mech. (2014) P01012), within 1 %
    c = 1.99
    j_minus = constrained_equilibrium(gauss, c).value
    assert abs(j_minus / (2.0 - c) ** 3 - 1.0 / 12.0) <= 0.01 / 12.0


@pytest.mark.parametrize("coeffs, c", [("0,0,0,0,1", 0.8),
                                       ("0,0.3,0.5,0.1,0.2", 0.9)])
def test_hard_edge_sigma_and_int_v_match_oracle(coeffs, c):
    V = Potential.from_string(coeffs)
    measure = equilibrium._hard_edge(V, c)
    ref = hard_edge_equilibrium(V, c)
    assert abs(measure.sigma - ref["sigma"]) <= 1e-12
    assert abs(measure.energy(V) + measure.sigma - ref["int_v"]) <= 1e-12


@pytest.mark.parametrize("coeffs, c", [("0,0,0.5", 1.5), ("0,0,0.5", -1.0),
                                       ("0,0,0,0,1", 0.8)])
def test_hard_edge_effective_potential_falls_to_soft_edge(coeffs, c):
    # Euler-Lagrange left of the support: V - 2 U is at least its support
    # value there, so it does not increase on the way in to the soft edge
    V = Potential.from_string(coeffs)
    measure = equilibrium._hard_edge(V, c)
    soft = measure.center - measure.radius
    xs = np.linspace(soft - 3.0, soft, 601)
    f = V.eval(xs) - 2.0 * measure.log_potential_exterior(xs)
    assert np.max(np.diff(f)) <= 1e-12


# ---------------------------------------------------------------------------
# constrained equilibrium J^-
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [-1000.0, -100.0, -10.0, -1.0, 0.0, 1.0, 1.5,
                               1.9, 1.99])
def test_constrained_matches_dean_majumdar(gauss, eq_gauss, c):
    # c = -10 is 5.5 support widths left of b_V: any wall has a minimizer;
    # at -100 and -1000, where J^- is 5e3 and 5e5, the bound is relative
    res = constrained_equilibrium(gauss, c)
    expect = j_minus_dean_majumdar(c)
    tol = 1e-12 * (abs(expect) if c <= -100.0 else 1.0)
    assert abs(res.value - expect) <= tol
    assert projection_J(gauss, c).value == res.value
    assert res.gap <= 1e-12


def test_constrained_inactive_beyond_edge(gauss, eq_gauss):
    for x in (2.0, 2.3):
        res = constrained_equilibrium(gauss, x)
        assert isinstance(res, ConstrainedEquilibriumResult)
        assert res.value == 0.0
        assert res.gap <= 1e-12
        assert res.iterations == 0
        assert res.minimizer is eq_gauss.measure


def test_constrained_strictly_positive_below_edge(gauss):
    res = constrained_equilibrium(gauss, 1.5)
    assert res.value > 1e-3
    assert res.minimizer.center + res.minimizer.radius <= 1.5 + 1e-12
    assert res.gap <= 1e-12


def test_constrained_peak_memory(gauss, eq_gauss):
    # a closed-form wall holds a few moment arrays; the grid solve it
    # replaced peaked at 12 MiB on 2048 cells
    tracemalloc.start()
    try:
        constrained_equilibrium(gauss, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_constrained_monotone_ten_point_scan(gauss):
    xs = np.linspace(0.9, 2.1, 10)
    vals = [constrained_equilibrium(gauss, float(x)).value for x in xs]
    for a, b in zip(vals, vals[1:]):
        assert a >= b - 1e-12
    assert vals[-1] == 0.0


def signed_minimizer(V, c):
    """In _hard_edge's place: angular density 1 - cos t - 2 cos 2t on
    [-100, 100], zero at the left edge but negative at the right, so no
    measure; its Gaussian energy 1.5 - ln 50 is below c_V = 3/4."""
    return AngularMeasure(0.0, 100.0, np.array([1.0, -0.5, -1.0]))


def test_constrained_below_unconstrained_is_a_solver_failure(
        gauss, eq_gauss, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(equilibrium, "_hard_edge", signed_minimizer)
    with pytest.raises(RuntimeError, match="below unconstrained"):
        constrained_equilibrium(gauss, 1.5)
    assert main(["rate", "projection", "--c", "1.5",
                 "--out", str(tmp_path / "o")]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_unconverged_endpoint_newton_is_a_solver_failure(tmp_path, capsys):
    # V = 1e-300 x^2 has radius sqrt(2e300); from its start at r = 1,
    # Newton does not reach it within NEWTON_MAX_ITER steps
    with pytest.raises(RuntimeError, match="endpoint Newton did not converge"):
        solve_equilibrium(Potential([0.0, 0.0, 1e-300]))
    out = tmp_path / "o"
    assert main(["equilibrium", "--potential", "0,0,1e-300",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "solver failure: endpoint Newton did not converge" in err
    assert list(out.iterdir()) == []


def bad_soft_edge_roots(monkeypatch, failure):
    """Make _hard_edge's polynomial root-find return no positive root, or
    the true roots 1 % off, so the soft-edge residual is far above
    GAP_TOL."""
    roots = equilibrium.P.polyroots
    if failure == "no root":
        def fake(coeffs):
            return -np.abs(roots(coeffs))
    else:
        def fake(coeffs):
            return 1.01 * roots(coeffs)
    monkeypatch.setattr(equilibrium.P, "polyroots", fake)


@pytest.mark.parametrize("failure, message", [
    ("no root", "no soft-edge radius"),
    ("off root", "soft-edge residual"),
], ids=["no root", "off root"])
def test_unconverged_soft_edge_root_is_a_solver_failure(
        gauss, eq_gauss, failure, message, monkeypatch, tmp_path, capsys):
    bad_soft_edge_roots(monkeypatch, failure)
    with pytest.raises(RuntimeError, match=message):
        constrained_equilibrium(gauss, 1.5)
    assert main(["rate", "projection", "--c", "1.5",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and message in err


@pytest.mark.parametrize("coeffs, c", [
    ("0,0,0,0,1", -100.0), ("0,0,0,0,1", -1000.0),
    ("0,0.3,0.5,0.1,0.2", -300.0), ("0,0.3,0.5,0.1,0.2", -1000.0),
    ("0,0,0.5", -1e5), ("0,0,0.5", -1e6),
])
def test_far_left_walls_are_certified(coeffs, c):
    # supports about 1e-6 wide where |V| reaches 1e12: the exact Chebyshev
    # coefficients of V and the Newton-polished radius keep the soft edge
    res = constrained_equilibrium(Potential.from_string(coeffs), c)
    assert res.gap <= 1e-12
    assert math.isclose(res.minimizer.center + res.minimizer.radius, c,
                        rel_tol=1e-15)


@pytest.mark.parametrize("coeffs", ["0,0,0,0,1", "0,0.3,0.5,0.1,0.2"])
def test_constrained_non_gaussian_walls(coeffs):
    V = Potential.from_string(coeffs)
    eq = equilibrium_cached(V)
    vals = []
    for frac in (0.5, 0.75, 0.95):
        c = eq.a_v + frac * (eq.b_v - eq.a_v)
        res = constrained_equilibrium(V, c)
        assert res.gap <= 1e-12
        assert abs(res.value - constrained_value_continuum(V, c, eq.c_v)) \
            <= 1e-10
        vals.append(res.value)
    assert vals[0] > vals[1] > vals[2] > 0.0


@pytest.mark.parametrize("coeffs, frac", [("0,0,0.5", 0.875),     # c = 1.5
                                          ("0,0,0,0,1", 0.75)])
def test_hard_wall_seed_matches_oracle_cdf(coeffs, frac):
    V = Potential.from_string(coeffs)
    eq = equilibrium_cached(V)
    c = eq.a_v + frac * (eq.b_v - eq.a_v)
    L = eq.a_v - 2.0 * (eq.b_v - eq.a_v)
    nodes = np.linspace(L, c, 1025)
    cdf = hard_edge_equilibrium(V, c)["mass_below"](nodes)
    assert np.max(np.abs(equilibrium._hard_edge(V, c).cdf(nodes) - cdf)) \
        <= 1e-10
    # at and beyond b_V the minimizer is mu_V, the hard-edge measure at
    # c = b_V
    wide = np.linspace(L, eq.b_v + 1.0, 1025)
    mu_v = hard_edge_equilibrium(V, eq.b_v)["mass_below"](wide)
    for cutoff in (eq.b_v, eq.b_v + 0.5):
        minimizer = constrained_equilibrium(V, cutoff).minimizer
        assert np.max(np.abs(minimizer.cdf(wide) - mu_v)) <= 1e-10


# walls as fractions of [a_V, b_V]: the Gaussian at 1.1, 1.45 and 1.75.
# "constrained" is the wall itself, "unconstrained" its mirror image
# b_V + (1 - frac) (b_V - a_V), where the minimizer is mu_V
FW_WALLS = [("0,0,0.5", 0.775), ("0,0,0.5", 0.8625), ("0,0,0.5", 0.9375),
            ("0,0,0,0,1", 0.6), ("0,0,0,0,1", 0.85),
            ("0,0.3,0.5,0.1,0.2", 0.7)]


def wall_case(coeffs, frac, solve):
    """(V, wall, closed-form minimizer) of one FW_WALLS case."""
    V = Potential.from_string(coeffs)
    eq = equilibrium_cached(V)
    width = eq.b_v - eq.a_v
    x = (eq.a_v + frac * width if solve == "constrained"
         else eq.b_v + (1.0 - frac) * width)
    return V, x, constrained_equilibrium(V, x).minimizer


@pytest.mark.parametrize("solve", ["constrained", "unconstrained"])
@pytest.mark.parametrize("coeffs, frac", FW_WALLS)
def test_fw_matches_reference_loop(coeffs, frac, solve):
    # the grid problem on [L, x], 1024 cells of the dense reference kernel,
    # by pairwise Frank-Wolfe from the closed form's cell masses: the
    # closed form is within 5e-5 of the grid minimum and its CDF within
    # 4e-3 of the grid minimizer's.  A radius 1 % off misses the minimum
    # by 1e-4 to 4e-4
    V, x, minimizer = wall_case(coeffs, frac, solve)
    eq = equilibrium_cached(V)
    L = eq.a_v - 2.0 * (eq.b_v - eq.a_v)
    nodes, _, G = log_kernel_mass_form_reference(L, x, 1024)
    h = nodes[1] - nodes[0]
    edges = np.append(nodes - 0.5 * h, nodes[-1] + 0.5 * h)
    w0 = np.maximum(np.diff(minimizer.cdf(edges)), 0.0)
    w0 /= w0.sum()
    lin = V.eval(nodes)
    w, ref_value, ref_gap, _ = pairwise_fw_reference(G, lin, w0)
    assert ref_gap <= 1e-8
    assert float(-w0 @ G @ w0 + lin @ w0) - ref_value <= 5e-5
    assert np.max(np.abs(np.cumsum(w) - minimizer.cdf(edges[1:]))) <= 4e-3


@pytest.mark.parametrize("solve", ["constrained", "unconstrained"])
@pytest.mark.parametrize("coeffs, frac", FW_WALLS)
def test_simplex_minimum_meets_kkt_conditions(coeffs, frac, solve):
    # KKT of min E over the simplex of probability measures on (-inf, x],
    # from a log-potential by adaptive quadrature: the density is
    # nonnegative, V - 2 U is constant on the support and no smaller on
    # the rest of (-inf, x]
    V, x, minimizer = wall_case(coeffs, frac, solve)
    mom = minimizer.cos_moments
    t = np.linspace(0.0, np.pi, 2001)
    k = np.arange(1, mom.size)
    assert mom[0] == 1.0
    assert np.min(1.0 + 2.0 * np.cos(np.outer(t, k)) @ mom[1:]) >= -1e-12
    lo = minimizer.center - minimizer.radius
    hi = minimizer.center + minimizer.radius

    def effective(xs):
        return np.array([V.eval(y) - 2.0 * log_potential_quadrature(
            minimizer, y) for y in xs])

    on = effective(lo + (hi - lo) * (np.arange(17) + 0.5) / 17)
    # a wall below b_V is the support's right end
    right = np.linspace(hi, x, 5)[1:] if solve == "unconstrained" else []
    off = effective(np.concatenate([lo - np.geomspace(0.01, 2.0, 8), right]))
    assert np.ptp(on) <= 1e-11
    assert np.min(off) >= on.mean() - 1e-12


# ---------------------------------------------------------------------------
# energy convexity
# ---------------------------------------------------------------------------

def test_energy_convex_on_grid_pairs(rng, gauss):
    for _ in range(10):
        va = rng.random(129) + 0.05
        vb = rng.random(129) + 0.05
        a = GridMeasure(-1.5, 1.5, va)
        b = GridMeasure(-1.5, 1.5, vb)
        mid = GridMeasure(-1.5, 1.5, 0.5 * (a.values + b.values))

        def energy(m):
            return -log_energy_grid(m) + m.integrate(gauss.coeffs)

        assert energy(mid) <= 0.5 * energy(a) + 0.5 * energy(b) + 1e-12


def test_energy_convex_with_regularized_sigma(rng, gauss):
    atoms = np.sort(rng.normal(0.0, 1.0, 24))
    for _ in range(10):
        wa = rng.dirichlet(np.ones(24))
        wb = rng.dirichlet(np.ones(24))
        a = AtomicMeasure(atoms, wa)
        b = AtomicMeasure(atoms, wb)
        mid = AtomicMeasure(atoms, 0.5 * (wa + wb))

        def energy(m):
            return log_energy_reg(m, 10.0) + m.integrate(gauss.coeffs)

        assert energy(mid) <= 0.5 * energy(a) + 0.5 * energy(b) + 1e-12