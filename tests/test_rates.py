import json
import math

import numpy as np
import pytest

import betalab.equilibrium as equilibrium
import betalab.rates as rates
from betalab.cli import main
from betalab.equilibrium import constrained_equilibrium, nu_limit
from betalab.measures import (
    AtomicMeasure, GridMeasure, quantile_discretize, reflect_shift, variance,
)
from betalab.potential import kappa
from betalab.rates import (
    calI_inf_over_c, projection_J, rate_calI, rate_calI_delta, rate_calJ,
    rate_calJ_delta, rate_IDOS, rate_IV, rate_report,
)
from oracles import golden_min_reference

UNIF01 = lambda n=4097: GridMeasure(0.0, 1.0, np.ones(n))


# ---------------------------------------------------------------------------
# I_V
# ---------------------------------------------------------------------------

def test_iv_vanishes_at_equilibrium(eq_gauss, gauss):
    ev = rate_IV(eq_gauss, gauss, eq_gauss.density)
    assert abs(ev.value) <= 1e-4
    assert ev.regularization is None
    assert ev.identity_residual() == 0.0


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
    ev = rate_calI(eq_gauss, gauss, 2.0, nu_limit(eq_gauss))
    assert abs(ev.value) <= 1e-4


def test_cali_agrees_with_iv_of_reflected(eq_gauss, gauss):
    nu = GridMeasure(0.0, 1.5, np.exp(-np.linspace(0.0, 1.5, 2049)))
    for c in (0.7, 1.5, 3.0):
        direct = rate_IV(eq_gauss, gauss, reflect_shift(nu, c)).value
        assert rate_calI(eq_gauss, gauss, c, nu).value == pytest.approx(
            direct, abs=1e-13)


def test_cali_rejects_negative_support(eq_gauss, gauss):
    with pytest.raises(ValueError):
        rate_calI(eq_gauss, gauss, 1.0, GridMeasure(-0.5, 1.0, np.ones(65)))


def test_cali_positive_away_from_minimizer(eq_gauss, gauss):
    assert rate_calI(eq_gauss, gauss, 3.0, UNIF01()).value > 0.5


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

def test_projection_zero_at_and_beyond_edge(eq_gauss, gauss):
    assert projection_J(eq_gauss, gauss, eq_gauss.b_v) == 0.0
    assert projection_J(eq_gauss, gauss, eq_gauss.b_v + 1.0) == 0.0


def test_projection_equals_constrained_value(eq_gauss, gauss):
    direct = constrained_equilibrium(gauss, 1.5, n=1024).value
    assert projection_J(eq_gauss, gauss, 1.5, n=1024) == direct


def test_projection_refuses_unconverged_hard_wall_solve(
        eq_gauss, gauss, monkeypatch, tmp_path, capsys, empty_hard_wall_memo):
    # both solves of the wall stop short of the certificate, and the
    # unconstrained minimum (more cells) comes out the larger: the solver
    # reports the missing certificate before "below unconstrained"
    def stalled_solve(G, lin, w0):
        return w0, float(lin.size), 1e-3, 7

    monkeypatch.setattr(equilibrium, "_simplex_minimize", stalled_solve)
    with pytest.raises(RuntimeError, match="gap 0.001 after 14 iterations"):
        projection_J(eq_gauss, gauss, 1.5, n=64)
    assert equilibrium._HARD_WALL_CACHE == {}
    for argv in (["rate", "projection", "--c", "1.5"],
                 ["rate", "calj", "--c", "1.5"],
                 ["tail-scan", "--left", "1.5"]):
        assert main(argv + ["--grid", "64", "--out", str(tmp_path / "o")]) \
            == 3
        err = capsys.readouterr().err
        assert "solver failure" in err
        assert "gap 0.001 after 14 iterations" in err
    assert equilibrium._HARD_WALL_CACHE == {}


def test_calj_vanishes_at_conditional_minimizer(eq_gauss, gauss, monkeypatch,
                                                empty_hard_wall_memo):
    # the direct solve, rate_calJ and projection_J share one solve of the
    # c = 1.5 wall: one constrained and one unconstrained simplex solve
    runs = []
    solve = equilibrium._simplex_minimize

    def counted(G, lin, w0):
        runs.append(lin.size)
        return solve(G, lin, w0)

    monkeypatch.setattr(equilibrium, "_simplex_minimize", counted)
    res = rates.constrained_equilibrium(gauss, 1.5, 2048)
    nu_star = reflect_shift(res.minimizer, 1.5)
    ev = rate_calJ(eq_gauss, gauss, 1.5, nu_star)
    assert abs(ev.value) <= 1e-3
    assert ev.offset_term == -projection_J(eq_gauss, gauss, 1.5)
    assert ev.identity_residual() == 0.0
    assert len(runs) == 2 and runs[0] == 2049 < runs[1]


def test_calj_positive_off_minimizer(eq_gauss, gauss):
    assert rate_calJ(eq_gauss, gauss, 1.5, UNIF01(2049)).value > 0.5
    assert rate_calJ(eq_gauss, gauss, 1.5, UNIF01(1025)).value > 0.5


def test_calj_is_constant_shift_of_cali(rng, eq_gauss, gauss):
    # ordering of measures is unchanged by conditioning on the edge
    shift = projection_J(eq_gauss, gauss, 1.5)
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
# delta relaxations
# ---------------------------------------------------------------------------

def test_cali_delta_monotone(eq_gauss, gauss):
    nu = UNIF01(2049)
    c = 0.2          # inner minimizer sits at the mean, to the right
    base = rate_calI(eq_gauss, gauss, c, nu).value
    v20 = rate_calI_delta(eq_gauss, gauss, c, 0.2, nu)
    v10 = rate_calI_delta(eq_gauss, gauss, c, 0.1, nu)
    v05 = rate_calI_delta(eq_gauss, gauss, c, 0.05, nu)
    assert v20 < v10 < v05 < base


def test_scans_evaluate_sigma_once(eq_gauss, gauss, monkeypatch):
    calls = []
    grid_sigma = rates.log_energy_grid

    def counted(mu):
        calls.append(mu)
        return grid_sigma(mu)

    monkeypatch.setattr(rates, "log_energy_grid", counted)
    nu = UNIF01(257)
    for scan in (
            lambda: calI_inf_over_c(eq_gauss, gauss, nu),
            lambda: rate_calI_delta(eq_gauss, gauss, 0.2, 0.1, nu),
            lambda: rate_calJ_delta(eq_gauss, gauss, 0.2, 0.1, nu)):
        calls.clear()
        scan()
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


def test_cali_delta_is_exact_minimum(eq_gauss, gauss, eq_quartic, quartic):
    # kappa right of, inside (off every scan point) and left of [c, c + 0.2]
    atoms = AtomicMeasure.from_points(np.linspace(0.0, 3.0, 40) ** 1.3)
    for eq, V in ((eq_gauss, gauss), (eq_quartic, quartic)):
        for nu in (UNIF01(257), atoms):
            k = kappa(V, nu)
            for c in (k - 0.3, k - 0.137, k + 0.05):
                got = rate_calI_delta(eq, V, c, 0.2, nu)
                _, want = golden_min_reference(
                    lambda a: rate_calI(eq, V, a, nu).value,
                    c, c + 0.2, 1e-13)
                scan = min(rate_calI(eq, V, float(a), nu).value
                           for a in np.linspace(c, c + 0.2, 33))
                assert abs(got - want) <= 1e-12
                assert got <= scan


def test_calj_delta_monotone(eq_gauss, gauss):
    nu = UNIF01(2049)
    c = 0.2
    base = rate_calJ(eq_gauss, gauss, c, nu, n=512).value
    vals = [rate_calJ_delta(eq_gauss, gauss, c, d, nu) for d in (0.2, 0.1, 0.05)]
    assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9
    assert vals[2] <= base + 1e-9


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