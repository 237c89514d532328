import json
import math

import numpy as np
import pytest

import betalab.equilibrium as equilibrium
import betalab.rates as rates
from betalab.cli import main
from betalab.equilibrium import constrained_equilibrium, nu_limit
from betalab.measures import (
    AtomicMeasure, GridMeasure, reflect_shift, variance,
)
from betalab.potential import Potential, kappa
from betalab.rates import (
    calI_inf_over_c, projection_J, rate_calI, rate_calJ, rate_IDOS, rate_IV,
    rate_report,
)
from oracles import golden_min_reference, quantile_discretize

UNIF01 = lambda n=4097: GridMeasure(0.0, 1.0, np.ones(n))


# ---------------------------------------------------------------------------
# I_V
# ---------------------------------------------------------------------------

def test_iv_vanishes_at_equilibrium(eq_gauss, gauss):
    ev = rate_IV(eq_gauss, gauss, eq_gauss.density)
    assert abs(ev.value) <= 1e-4
    assert ev.regularization is None


def test_iv_positive_off_equilibrium(eq_gauss, gauss):
    shifted = GridMeasure(-1.5, 2.5, eq_gauss.density.values)
    assert rate_IV(eq_gauss, gauss, shifted).value > 0.1


def test_iv_uniform_closed_form(eq_gauss, gauss):
    # -Sigma(unif[-1,1]) = 3/2 - ln 2, potential term 1/6, c_V = 3/4
    expect = 1.5 - math.log(2.0) + 1.0 / 6.0 - 0.75
    ev = rate_IV(eq_gauss, gauss, GridMeasure(-1.0, 1.0, np.ones(4097)))
    assert ev.value == pytest.approx(expect, abs=1e-4)


def test_iv_atomic_reports_default_regularization(eq_gauss, gauss):
    a = AtomicMeasure(np.array([0.3, 1.1, 2.0]), np.array([0.2, 0.5, 0.3]))
    assert rate_IV(eq_gauss, gauss, a).regularization == 2.0 * math.log(3)
    assert rate_IV(eq_gauss, gauss, a, m=12.0).regularization == 12.0


# ---------------------------------------------------------------------------
# calI
# ---------------------------------------------------------------------------

def test_cali_vanishes_at_edge_view(eq_gauss, gauss):
    # exact: nu_V is the reflected angular series of mu_V, not a grid
    ev = rate_calI(eq_gauss, gauss, 2.0, nu_limit(eq_gauss))
    assert abs(ev.value) <= 1e-14


def test_cali_agrees_with_iv_of_reflected(eq_gauss, gauss):
    nu = GridMeasure(0.0, 1.5, np.exp(-np.linspace(0.0, 1.5, 2049)))
    for c in (0.7, 1.5, 3.0):
        direct = rate_IV(eq_gauss, gauss, reflect_shift(nu, c)).value
        assert rate_calI(eq_gauss, gauss, c, nu).value == pytest.approx(
            direct, abs=1e-13)


def test_cali_rejects_negative_support(eq_gauss, gauss):
    with pytest.raises(ValueError):
        rate_calI(eq_gauss, gauss, 1.0, GridMeasure(-0.5, 1.0, np.ones(65)))


# a measure of each representation whose support starts at `start` (the
# angular one is nu_V shifted)
SUPPORT_FROM = {
    "atomic": lambda eq, start: AtomicMeasure.from_points([start, 0.5, 1.0]),
    "grid": lambda eq, start: GridMeasure(start, start + 1.0, np.ones(65)),
    "angular": lambda eq, start: reflect_shift(eq.measure, eq.b_v + start),
}


@pytest.mark.parametrize("kind", sorted(SUPPORT_FROM))
def test_rates_refuse_support_left_of_zero(eq_gauss, gauss, kind):
    # the R+ check tolerates 1e-9 of rounding left of 0, and no more
    evaluators = (lambda nu: rate_calI(eq_gauss, gauss, 1.5, nu),
                  lambda nu: rate_IDOS(eq_gauss, gauss, nu),
                  lambda nu: rate_calJ(eq_gauss, gauss, 1.5, nu))
    refused = SUPPORT_FROM[kind](eq_gauss, -1e-8)
    accepted = SUPPORT_FROM[kind](eq_gauss, -1e-10)
    for evaluate in evaluators:
        with pytest.raises(ValueError, match="supported in R\\+"):
            evaluate(refused)
        assert math.isfinite(evaluate(accepted).value)


def test_cali_positive_away_from_minimizer(eq_gauss, gauss):
    assert rate_calI(eq_gauss, gauss, 3.0, UNIF01()).value > 0.5


@pytest.mark.parametrize("coeffs", ["0,0,0.5", "0,0,0,0,1",
                                    "0,0.3,0.5,0.1,0.2"])
def test_rates_vanish_exactly_on_mu_v_and_nu_v(coeffs):
    # I^DOS is 0 at nu_V and positive elsewhere; through the old 4096-cell
    # grid the Gaussian value read -7.9e-8, a rate below 0 at its own zero
    V = Potential.from_string(coeffs)
    eq = equilibrium.equilibrium_cached(V)
    nu = nu_limit(eq)
    assert nu.sigma == eq.measure.sigma
    # kappa solves int V'(c - x) dnu_V(x) = 0, and at c = b_V that integral
    # is int V' dmu_V, the endpoint Newton residual, which Newton drives to
    # roundoff: kappa lands within a few ulps of b_V
    assert abs(kappa(V, nu) - eq.b_v) <= 4.0 * math.ulp(eq.b_v)
    for ev in (rate_IDOS(eq, V, nu), rate_calI(eq, V, eq.b_v, nu),
               rate_IV(eq, V, eq.measure)):
        assert abs(ev.value) <= 1e-14
        assert -ev.sigma_term == eq.measure.sigma
        assert ev.regularization is None


@pytest.mark.parametrize("coeffs", ["0,0,0.5", "0,0,0,0,1",
                                    "0,0.3,0.5,0.1,0.2"])
def test_grid_rates_are_nonnegative(coeffs):
    # a rate is I_V of a probability measure, so >= 0; a grid's integrate
    # and Sigma both read its piecewise-linear density exactly, so its
    # rates stay above -1e-13 (roundoff), on grids of mu_V and on random
    # positive grids in R+
    V = Potential.from_string(coeffs)
    eq = equilibrium.equilibrium_cached(V)
    rng = np.random.default_rng(22)
    grids = [equilibrium.solve_equilibrium(V, n).density
             for n in (16, 64, 256, 1024, 4096)]
    for n in (2, 17, 256, 4096):
        lo = rng.uniform(0.0, 2.0)
        grids.append(GridMeasure(lo, lo + rng.uniform(0.1, 4.0),
                                 rng.random(n + 1) + 0.01))
    for mu in grids:
        nu = reflect_shift(mu, mu.hi)              # the same density on R+
        k = kappa(V, nu)
        evs = [rate_IV(eq, V, mu), rate_IDOS(eq, V, nu)]
        evs += [rate_calI(eq, V, c, nu)
                for c in (k - 0.5, k, k + 0.3, eq.b_v, eq.b_v + 1.0)]
        assert min(ev.value for ev in evs) >= -1e-13


@pytest.mark.parametrize("coeffs", ["0,0,0.5", "0,0,0,0,1",
                                    "0,0.3,0.5,0.1,0.2"])
def test_grid_iv_of_mu_v_falls_to_zero_from_above(coeffs):
    # I_V of the n-cell grid of mu_V is positive and falls as n doubles
    # (about 8x a doubling): 16 to 4096 cells
    V = Potential.from_string(coeffs)
    eq = equilibrium.equilibrium_cached(V)
    values = [rate_IV(eq, V, equilibrium.solve_equilibrium(V, n).density)
              .value for n in 16 * 2 ** np.arange(9)]
    assert values[-1] > 0.0
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# I_DOS
# ---------------------------------------------------------------------------

def test_idos_flat_directions(eq_gauss, gauss):
    vals = [rate_IDOS(eq_gauss, gauss, reflect_shift(eq_gauss.density, b)).value
            for b in (2.0, 2.2, 2.5, 2.75, 3.0)]
    assert all(abs(v) <= 1e-4 for v in vals)
    assert max(vals) - min(vals) <= 1e-12   # shift drops out exactly


def test_idos_gaussian_shortcut(eq_gauss, gauss):
    # for quadratic V the inner infimum is attained at the mean, leaving
    # -Sigma(nu) + Var(nu)/2 - c_V
    for nu in (UNIF01(), reflect_shift(eq_gauss.density, 2.5)):
        ev = rate_IDOS(eq_gauss, gauss, nu)
        shortcut = ev.sigma_term + 0.5 * variance(nu) - 0.75
        assert abs(ev.value - shortcut) <= 1e-6


def test_idos_uniform_closed_form(eq_gauss, gauss):
    # 3/2 + Var/2 - 3/4 with Var = 1/12
    ev = rate_IDOS(eq_gauss, gauss, UNIF01())
    assert ev.value == pytest.approx(1.5 + 1.0 / 24.0 - 0.75, abs=1e-4)


def test_idos_matches_scan_over_c(eq_gauss, gauss):
    for nu in (UNIF01(2049), reflect_shift(eq_gauss.density, 2.5)):
        ev = rate_IDOS(eq_gauss, gauss, nu)
        _, scanned = calI_inf_over_c(eq_gauss, gauss, nu)
        assert abs(ev.value - scanned) <= 1e-9


def test_idos_nonnegative_on_random_atomics(rng, eq_gauss, gauss):
    for _ in range(100):
        n = int(rng.integers(5, 81))
        atoms = np.abs(rng.normal(0.0, rng.uniform(0.2, 3.0), n)) \
            + rng.uniform(0.0, 4.0) * rng.random()
        nu = AtomicMeasure(atoms, rng.dirichlet(np.ones(n)))
        assert rate_IDOS(eq_gauss, gauss, nu).value >= -1e-9


def test_idos_quantile_discretization_converges(eq_gauss, gauss):
    nu = reflect_shift(eq_gauss.density, 2.0)
    vals = [rate_IDOS(eq_gauss, gauss, quantile_discretize(nu, N)).value
            for N in (50, 200, 800)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert vals[2] <= 0.01


def test_idos_not_convex(eq_gauss, gauss):
    # half-half mixture of two flat directions leaves the zero set
    xs = np.linspace(0.0, 5.0, 4097)

    def sc(t):
        return np.sqrt(np.maximum(4.0 - t * t, 0.0)) / (2.0 * math.pi)

    mix = GridMeasure(0.0, 5.0, 0.5 * sc(xs - 2.0) + 0.5 * sc(xs - 3.0))
    assert rate_IDOS(eq_gauss, gauss, mix).value >= 0.015


# ---------------------------------------------------------------------------
# J^- and calJ
# ---------------------------------------------------------------------------

def test_projection_zero_at_and_beyond_edge():
    # at and right of b_V the wall is inactive: the certified minimizer is
    # mu_V itself, with J^- exactly 0
    for coeffs in ("0,0,0.5", "0,0,0,0,1", "0,0.3,0.5,0.1,0.2"):
        V = Potential.from_string(coeffs)
        eq = equilibrium.equilibrium_cached(V)
        for c in (eq.b_v, eq.b_v + 1.0):
            res = projection_J(V, c)
            assert res.minimizer is eq.measure
            assert res.value == 0.0
            assert res.gap <= 1e-12


def test_projection_equals_constrained_value(gauss):
    direct = constrained_equilibrium(gauss, 1.5).value
    assert projection_J(gauss, 1.5).value == direct


def test_projection_refuses_unconverged_hard_wall_solve(
        gauss, monkeypatch, tmp_path, capsys):
    # a soft-edge radius 1 % off the root leaves a residual far above
    # GAP_TOL: every command that reads J^- of the wall exits 3
    roots = equilibrium.P.polyroots
    monkeypatch.setattr(equilibrium.P, "polyroots",
                        lambda coeffs: 1.01 * roots(coeffs))
    with pytest.raises(RuntimeError, match="soft-edge residual"):
        projection_J(gauss, 1.5)
    for argv in (["rate", "projection", "--c", "1.5"],
                 ["rate", "calj", "--c", "1.5"],
                 ["tail-scan", "--left", "1.5"]):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "solver failure" in err
        assert "soft-edge residual" in err


def grid_of(measure, n: int) -> GridMeasure:
    """A closed-form measure on n cells of its support: node i holds half
    the mass of each cell it bounds, from measure.cdf."""
    lo, hi = measure.center - measure.radius, measure.center + measure.radius
    cells = np.diff(measure.cdf(np.linspace(lo, hi, n + 1)))
    w = 0.5 * (np.append(cells, 0.0) + np.append(0.0, cells))
    tw = np.full(n + 1, (hi - lo) / n)       # trapezoid weights
    tw[0] = tw[-1] = 0.5 * tw[1]
    return GridMeasure(lo, hi, w / tw)


def test_calj_vanishes_at_conditional_minimizer(eq_gauss, gauss):
    res = rates.constrained_equilibrium(gauss, 1.5)
    nu_star = reflect_shift(grid_of(res.minimizer, 2048), 1.5)
    ev = rate_calJ(eq_gauss, gauss, 1.5, nu_star)
    assert abs(ev.value) <= 1e-3
    assert ev.offset_term == -projection_J(gauss, 1.5).value


def test_calj_positive_off_minimizer(eq_gauss, gauss):
    assert rate_calJ(eq_gauss, gauss, 1.5, UNIF01(2049)).value > 0.5
    assert rate_calJ(eq_gauss, gauss, 1.5, UNIF01(1025)).value > 0.5


def test_calj_is_constant_shift_of_cali(rng, eq_gauss, gauss):
    # ordering of measures is unchanged by conditioning on the edge
    shift = projection_J(gauss, 1.5).value
    base = np.exp(-np.linspace(0.0, 1.0, 513))
    evals = []
    for _ in range(5):
        nu = GridMeasure(0.0, 1.0, base + 0.3 * rng.random(513))
        i = rate_calI(eq_gauss, gauss, 1.5, nu).value
        j = rate_calJ(eq_gauss, gauss, 1.5, nu).value
        assert j == pytest.approx(i - shift, abs=1e-14)
        evals.append((i, j))
    by_i = sorted(range(5), key=lambda k: evals[k][0])
    by_j = sorted(range(5), key=lambda k: evals[k][1])
    assert by_i == by_j


def test_calj_rejects_edge_and_beyond(eq_gauss, gauss):
    for c in (2.0, 2.5):
        with pytest.raises(ValueError):
            rate_calJ(eq_gauss, gauss, c, UNIF01(65))


# ---------------------------------------------------------------------------
# the infimum over c
# ---------------------------------------------------------------------------

def test_rates_evaluate_sigma_once(eq_gauss, gauss, monkeypatch):
    calls = []
    grid_sigma = rates.log_energy_grid

    def counted(mu):
        calls.append(mu)
        return grid_sigma(mu)

    monkeypatch.setattr(rates, "log_energy_grid", counted)
    nu = UNIF01(257)
    for evaluate in (
            lambda: rate_calI(eq_gauss, gauss, 0.2, nu),
            lambda: rate_IDOS(eq_gauss, gauss, nu),
            lambda: rate_calJ(eq_gauss, gauss, 0.2, nu),
            lambda: calI_inf_over_c(eq_gauss, gauss, nu)):
        calls.clear()
        evaluate()
        assert len(calls) == 1


def test_cali_inf_is_idos_at_kappa(eq_gauss, gauss):
    atoms = AtomicMeasure.from_points(np.linspace(0.0, 3.0, 40) ** 1.3)
    for nu, m in ((UNIF01(257), None), (atoms, None), (atoms, 3.0)):
        k = kappa(gauss, nu)
        argmin, value = calI_inf_over_c(eq_gauss, gauss, nu, m)
        assert argmin == k
        assert value == rate_IDOS(eq_gauss, gauss, nu, m).value
        spread = 1.0 + math.sqrt(variance(nu))
        _, golden = golden_min_reference(
            lambda c: rate_calI(eq_gauss, gauss, c, nu, m).value,
            k - spread, k + spread, 1e-6)
        assert value <= golden <= value + 1e-12


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_rate_report_structure_and_stable_hash(eq_gauss, gauss):
    nu = UNIF01(257)
    ev = rate_calI(eq_gauss, gauss, 1.5, nu)
    rep = rate_report("calI", ev, gauss, {"c": 1.5, "measure": "nu_V"})
    again = rate_report("calI", ev, gauss, {"c": 1.5, "measure": "nu_V"})
    other = rate_report("calI", ev, gauss, {"c": 1.6, "measure": "nu_V"})
    assert rep == again
    assert rep["inputs_hash"] != other["inputs_hash"]
    assert set(rep) == {"functional", "inputs_hash", "terms", "value", "M"}
    assert rep["M"] == "exact-grid"
    assert rep["terms"]["offset_term"] == 0.0
    json.dumps(rep)    # fully serializable