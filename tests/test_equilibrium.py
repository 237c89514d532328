import dataclasses
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

import betalab.equilibrium as equilibrium
from betalab.cli import main
from betalab.equilibrium import (
    AngularMeasure, ConstrainedEquilibriumResult, constrained_equilibrium,
    equilibrium_cached,
    effective_potential_tail, equilibrium_integral, load_equilibrium,
    nu_limit, save_equilibrium, solve_equilibrium,
)
from betalab.measures import (
    AtomicMeasure, GridMeasure, LogKernel, log_energy_grid, log_energy_reg,
)
from betalab.potential import Potential
from oracles import (
    constrained_value_continuum, direct_energy_min, hard_edge_equilibrium,
    log_kernel_mass_form_reference, log_potential_grid,
    pairwise_fw_reference,
    wasserstein_quadrature_reference,
)

QUARTIC_B = 1.0745699318235422          # (4/3)^(1/4)
QUARTIC_SIGMA = -0.7462266624470001     # ln(4/3)/4 - ln 2 - 1/8


def j_minus_dean_majumdar(c):
    """Left-tail rate of the semicircle, 2 Phi_-(c / sqrt 2) (Dean and
    Majumdar, PRE 77, 041108 (2008))."""
    w = c / math.sqrt(2.0)
    s = math.sqrt(w * w + 6.0)
    phi = (36.0 * w * w - w ** 4 - (15.0 * w + w ** 3) * s
           + 27.0 * (math.log(18.0) - 2.0 * math.log(w + s))) / 108.0
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
    assert abs(eq.a_v + 2.0) <= 1e-10
    assert abs(eq.b_v - 2.0) <= 1e-10
    assert abs(eq.c_v - 0.75) <= 1e-10
    assert abs(eq.measure.sigma + 0.25) <= 1e-10
    assert elapsed < 1.0


def test_gaussian_density_is_semicircle(eq_gauss):
    x = eq_gauss.density.nodes
    expect = np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * math.pi)
    # trapezoid mass normalization shifts nodal values by ~4e-6 relative
    assert np.max(np.abs(eq_gauss.density.values - expect)) <= 2e-6


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
        int_v = equilibrium_integral(eq, V.eval)
        assert abs(eq.c_v - (-eq.measure.sigma + int_v)) <= 1e-12


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


def test_equilibrium_roundtrip(tmp_path, eq_gauss):
    save_equilibrium(eq_gauss, str(tmp_path))
    back = load_equilibrium(str(tmp_path))
    assert back.a_v == eq_gauss.a_v and back.b_v == eq_gauss.b_v
    assert back.c_v == eq_gauss.c_v
    assert back.measure.sigma == eq_gauss.measure.sigma
    assert np.array_equal(back.density.values, eq_gauss.density.values)


@pytest.mark.parametrize("coeffs", ["0,0,0,0,1", "0,0.3,0.5,0.1,0.2"])
def test_non_gaussian_equilibrium_roundtrip(tmp_path, coeffs):
    eq = equilibrium_cached(Potential.from_string(coeffs))
    first, second = tmp_path / "first", tmp_path / "second"
    paths = save_equilibrium(eq, str(first))
    back = load_equilibrium(str(first))
    save_equilibrium(back, str(second))
    for path in paths.values():
        name = path.rsplit("/", 1)[-1]
        assert (first / name).read_bytes() == (second / name).read_bytes()
    for f in dataclasses.fields(AngularMeasure):
        assert np.array_equal(getattr(back.measure, f.name),
                              getattr(eq.measure, f.name)), f.name
    assert back.measure.cos_moments.flags.writeable is False


def test_load_refuses_tampered_sigma(tmp_path, eq_gauss):
    paths = save_equilibrium(eq_gauss, str(tmp_path))
    obj = json.loads(open(paths["json"]).read())
    obj["sigma"] = 123.0
    with open(paths["json"], "w") as fh:
        json.dump(obj, fh)
    with pytest.raises(ValueError, match=re.escape(paths["json"]) + ".*sigma"):
        load_equilibrium(str(tmp_path))


# ---------------------------------------------------------------------------
# nu_limit
# ---------------------------------------------------------------------------

def test_nu_limit_gaussian_closed_form(eq_gauss):
    nu = nu_limit(eq_gauss)
    assert nu.lo == 0.0
    assert abs(nu.hi - 4.0) <= 1e-10
    x = nu.nodes
    expect = np.sqrt(np.maximum(4.0 * x - x * x, 0.0)) / (2.0 * math.pi)
    assert np.max(np.abs(nu.values - expect)) <= 2e-6
    assert nu.integrate(lambda t: t) == pytest.approx(2.0, abs=1e-9)


def test_nu_limit_lower_edge_always_zero(eq_quartic):
    assert nu_limit(eq_quartic).lo == 0.0


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


def test_hard_edge_third_order_coefficient(gauss, eq_gauss):
    # J^-(c) ~ (2 - c)^3 / 12 as the wall reaches b_V = 2
    c = 1.99
    j_minus = equilibrium._hard_edge(gauss, c).energy(gauss) - eq_gauss.c_v
    assert abs(j_minus / (2.0 - c) ** 3 - 1.0 / 12.0) <= 1e-3


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

def test_constrained_inactive_beyond_edge(gauss, eq_gauss):
    for x in (2.0, 2.3):
        res = constrained_equilibrium(gauss, x, n=1024)
        assert isinstance(res, ConstrainedEquilibriumResult)
        assert res.value == 0.0
        assert res.gap <= 1e-8
        w1 = wasserstein_quadrature_reference(res.minimizer, eq_gauss.density)
        assert w1 <= 2e-3


def test_constrained_strictly_positive_below_edge(gauss):
    res = constrained_equilibrium(gauss, 1.5, n=1024)
    assert res.value > 1e-3
    assert res.minimizer.hi <= 1.5 + 1e-12
    assert res.gap <= 1e-8


def test_constrained_peak_memory(gauss, eq_gauss, empty_hard_wall_memo):
    # the kernel is an O(n) operator: a dense one on the 2317-node grid of
    # this wall is 41 MiB, and the solve's peak was 82 MiB with it
    tracemalloc.start()
    try:
        constrained_equilibrium(gauss, 1.5, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20


def test_constrained_monotone_ten_point_scan(gauss):
    xs = np.linspace(0.9, 2.1, 10)
    vals = [constrained_equilibrium(gauss, float(x), n=768).value for x in xs]
    for a, b in zip(vals, vals[1:]):
        assert a >= b - 1e-12
    assert vals[-1] == 0.0


def test_constrained_below_unconstrained_is_a_solver_failure(
        gauss, monkeypatch, tmp_path, capsys, empty_hard_wall_memo):
    # the fake minimum grows with the cell count, so the unconstrained
    # problem (more cells) reports the larger one
    def fake_solve(K, lin, w0=None, **kwargs):
        return w0, float(lin.size), 0.0, 1

    monkeypatch.setattr(equilibrium, "_simplex_minimize", fake_solve)
    with pytest.raises(RuntimeError, match="below unconstrained"):
        constrained_equilibrium(gauss, 1.5, n=64)
    assert main(["rate", "projection", "--c", "1.5", "--grid", "64",
                 "--out", str(tmp_path / "o")]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_constrained_refuses_walls_left_of_window(
        gauss, eq_gauss, monkeypatch, tmp_path, capsys):
    # a wall this far left once asked for a 22.9 GiB kernel
    width = eq_gauss.b_v - eq_gauss.a_v
    wall = eq_gauss.a_v - 2.0 * width + 0.03 * width

    def no_kernel(*args):
        raise AssertionError("kernel built for a refused wall")

    monkeypatch.setattr(equilibrium, "LogKernel", no_kernel)
    with pytest.raises(ValueError, match="window edge"):
        constrained_equilibrium(gauss, wall, n=512)
    assert main(["rate", "projection", "--c", repr(wall), "--grid", "512",
                 "--out", str(tmp_path / "o")]) == 2
    assert "window edge" in capsys.readouterr().err


@pytest.mark.parametrize("coeffs", ["0,0,0,0,1", "0,0.3,0.5,0.1,0.2"])
def test_constrained_non_gaussian_walls(coeffs):
    V = Potential.from_string(coeffs)
    eq = equilibrium_cached(V)
    vals = []
    for frac in (0.5, 0.75, 0.95):
        c = eq.a_v + frac * (eq.b_v - eq.a_v)
        res = constrained_equilibrium(V, c, n=1024)
        assert res.gap <= 1e-8
        assert abs(res.value - constrained_value_continuum(V, c, eq.c_v)) \
            <= 5e-3
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
    h = nodes[1] - nodes[0]
    seed = equilibrium._seed_masses(V, eq, nodes, c)
    cdf = hard_edge_equilibrium(V, c)["mass_below"](nodes + 0.5 * h)
    assert np.max(np.abs(np.cumsum(seed) - cdf)) <= 1e-10
    # at and beyond b_V the seed is mu_V, the hard-edge measure at c = b_V
    wide = np.linspace(L, eq.b_v + 1.0, 1025)
    mu_v = hard_edge_equilibrium(V, eq.b_v)["mass_below"](
        wide + 0.5 * (wide[1] - wide[0]))
    for cutoff in (eq.b_v, eq.b_v + 0.5):
        seed = equilibrium._seed_masses(V, eq, wide, cutoff)
        assert np.max(np.abs(np.cumsum(seed) - mu_v)) <= 1e-10


# walls as fractions of [a_V, b_V]: the Gaussian at 1.1, 1.45 and 1.75
FW_WALLS = [("0,0,0.5", 0.775), ("0,0,0.5", 0.8625), ("0,0,0.5", 0.9375),
            ("0,0,0,0,1", 0.6), ("0,0,0,0,1", 0.85),
            ("0,0.3,0.5,0.1,0.2", 0.7)]


def recorded_solves(monkeypatch, coeffs, frac):
    """((K, lin, w0), (w, value, gap, rounds)) of the constrained and the
    unconstrained solve of the wall at a_V + frac (b_V - a_V), n = 1024."""
    V = Potential.from_string(coeffs)
    eq = equilibrium_cached(V)
    solves = []
    solve = equilibrium._simplex_minimize

    def recorded(K, lin, w0):
        solves.append(((K, lin, w0.copy()), solve(K, lin, w0)))
        return solves[-1][1]

    monkeypatch.setattr(equilibrium, "_simplex_minimize", recorded)
    constrained_equilibrium(V, eq.a_v + frac * (eq.b_v - eq.a_v), n=1024)
    assert len(solves) == 2
    return dict(zip(("constrained", "unconstrained"), solves))


@pytest.mark.parametrize("solve", ["constrained", "unconstrained"])
@pytest.mark.parametrize("coeffs, frac", FW_WALLS)
def test_fw_matches_reference_loop(coeffs, frac, solve, monkeypatch,
                                  empty_hard_wall_memo):
    # the Frank-Wolfe gap of the reference loop bounds its suboptimality,
    # so an exact minimum lies at most ref_gap below ref_value; the loop
    # runs on the dense reference kernel of the same grid, the leading
    # lin.size nodes of it for the constrained solve
    (K, lin, w0), (_, value, _, _) = recorded_solves(
        monkeypatch, coeffs, frac)[solve]
    m = lin.size
    G = log_kernel_mass_form_reference(K.lo, K.hi, K.n)[2][:m, :m]
    _, ref_value, ref_gap, _ = pairwise_fw_reference(G, lin, w0)
    assert ref_gap <= 1e-8
    assert value <= ref_value + 1e-12
    assert ref_value - value <= ref_gap


@pytest.mark.parametrize("solve", ["constrained", "unconstrained"])
@pytest.mark.parametrize("coeffs, frac", FW_WALLS)
def test_simplex_minimum_meets_kkt_conditions(coeffs, frac, solve,
                                              monkeypatch,
                                              empty_hard_wall_memo):
    # KKT of min -w G w + lin.w on the simplex, from the gradient of the
    # symmetric kernel: constant on the support, no smaller off it
    (K, lin, _), (w, value, gap, _) = recorded_solves(
        monkeypatch, coeffs, frac)[solve]
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-13
    g = -2.0 * K.matvec(w) + lin
    on = w > 0.0
    lam = g[on].mean()
    assert np.ptp(g[on]) <= 1e-10
    assert np.all(g[~on] >= lam - 1e-10)
    assert gap <= 1e-12 and float(g @ w - g.min()) <= 1e-12
    assert value == float(-w @ K.matvec(w) + lin @ w)


def one_node_seed(V, eq, nodes, cutoff):
    """A seed for _seed_masses' place: all mass on the node nearest 0."""
    w = np.zeros(nodes.size)
    w[np.argmin(np.abs(nodes))] = 1.0
    return w


@pytest.mark.parametrize("wall", [-1.0, 1.5, 2.3])
def test_simplex_solve_grows_support_from_one_node(gauss, wall, monkeypatch,
                                                   empty_hard_wall_memo):
    # every node but one must join the support through g < lam
    seeded = constrained_equilibrium(gauss, wall, n=256)
    monkeypatch.setattr(equilibrium, "_HARD_WALL_CACHE", {})
    monkeypatch.setattr(equilibrium, "_seed_masses", one_node_seed)
    grown = constrained_equilibrium(gauss, wall, n=256)
    assert grown.gap <= 1e-8
    assert grown.iterations > seeded.iterations
    assert abs(grown.value - seeded.value) <= 1e-12


@pytest.mark.parametrize("failure", ["singular", "round cap"])
def test_unconverged_simplex_solve_is_a_solver_failure(
        gauss, failure, monkeypatch, tmp_path, capsys, empty_hard_wall_memo):
    if failure == "singular":
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        message = "gap inf after 2 iterations"
    else:
        # a one-node seed needs more than the one round allowed
        monkeypatch.setattr(equilibrium, "ACTIVE_SET_MAX_ROUNDS", 1)
        monkeypatch.setattr(equilibrium, "_seed_masses", one_node_seed)
        message = r"gap [\d.e+-]+ after 2 iterations"
    with pytest.raises(RuntimeError, match=message):
        constrained_equilibrium(gauss, 1.5, n=64)
    assert equilibrium._HARD_WALL_CACHE == {}
    assert main(["rate", "projection", "--c", "1.5", "--grid", "64",
                 "--out", str(tmp_path / "o")]) == 3
    assert "solver failure" in capsys.readouterr().err
    assert equilibrium._HARD_WALL_CACHE == {}


# ---------------------------------------------------------------------------
# discretized objective: gradient and convexity
# ---------------------------------------------------------------------------

def test_constrained_objective_gradient_matches_fd(rng, gauss):
    n = 256
    kernel = LogKernel(-10.0, 1.5, n)
    lin = gauss.eval(kernel.nodes)

    def f(w):
        return float(-w @ kernel.matvec(w) + lin @ w)

    for _ in range(20):
        w = rng.dirichlet(np.ones(n + 1)) + 0.2
        w /= w.sum()
        d = rng.normal(0.0, 1.0, n + 1)
        d -= d.mean()                      # stay on the mass-1 affine hull
        d /= np.linalg.norm(d)
        grad_d = float((-2.0 * kernel.matvec(w) + lin) @ d)
        h = 1e-5
        fd = (f(w + h * d) - f(w - h * d)) / (2.0 * h)
        assert abs(fd - grad_d) <= 1e-6 * max(1.0, abs(grad_d))


def test_energy_convex_on_grid_pairs(rng, gauss):
    for _ in range(10):
        va = rng.random(129) + 0.05
        vb = rng.random(129) + 0.05
        a = GridMeasure(-1.5, 1.5, va)
        b = GridMeasure(-1.5, 1.5, vb)
        mid = GridMeasure(-1.5, 1.5, 0.5 * (a.values + b.values))

        def energy(m):
            return -log_energy_grid(m) + m.integrate(gauss.eval)

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
            return log_energy_reg(m, 10.0) + m.integrate(gauss.eval)

        assert energy(mid) <= 0.5 * energy(a) + 0.5 * energy(b) + 1e-12