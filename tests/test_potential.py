import math
from fractions import Fraction

import numpy as np
import pytest

from betalab.cli import main
from betalab.measures import AtomicMeasure, variance, wasserstein
from betalab.potential import (
    Potential, g_value, kappa, validate_convex,
)
from oracles import semicircle_grid
from betalab.measures import reflect_shift


def random_atomic(rng, n=8):
    atoms = rng.normal(0.0, 1.5, n)
    w = rng.random(n) + 0.05
    return AtomicMeasure(atoms, w / math.fsum(w.tolist()))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_gaussian_at_three(gauss):
    assert gauss.eval(3.0) == 4.5
    assert gauss(3.0) == 4.5


def test_deriv_gaussian(gauss):
    assert gauss.deriv(-2.0) == -2.0
    assert gauss.deriv(-2.0, 2) == 1.0


def test_quartic_values(quartic):
    assert quartic.eval(2.0) == 16.0
    assert quartic.deriv(2.0, 2) == 48.0


# ---------------------------------------------------------------------------
# convexity validation
# ---------------------------------------------------------------------------

def test_validate_convex_accepts():
    ok, _ = validate_convex([0.0, 0.0, 0.5])
    assert ok
    ok, _ = validate_convex([0.0, 0.0, 1.0, 0.0, 1.0])   # x^4 + x^2
    assert ok


def test_validate_convex_rejects_with_witness():
    ok, witness = validate_convex([0.0, 0.0, -3.0, 0.0, 1.0])  # x^4 - 3 x^2
    assert not ok
    vpp = 12.0 * witness ** 2 - 6.0
    assert vpp < 0.0


def test_constructor_enforces_assumptions():
    with pytest.raises(ValueError):
        Potential((0.0, 0.0, -3.0, 0.0, 1.0))     # non-convex
    with pytest.raises(ValueError):
        Potential((0.0, 0.0, 0.0, 1.0))           # odd degree
    with pytest.raises(ValueError):
        Potential((0.0, 0.0, -1.0))               # negative leading
    with pytest.raises(ValueError):
        Potential((1.0,))                         # degree < 2


@pytest.mark.parametrize("call, needle", [
    (lambda: Potential((0.0, 0.0, np.inf, 0.0, 1.0)), "must be finite"),
    (lambda: Potential.from_string("0,x,0.5"), "bad potential string"),
    (lambda: Potential.gaussian().deriv(1.0, 3), "order must be 1 or 2"),
])
def test_potential_refuses_bad_input(call, needle):
    with pytest.raises(ValueError, match=needle):
        call()


def test_parse_and_json_roundtrip():
    V = Potential.from_string("0, 0, 0.5")
    assert V.key() == Potential.gaussian().key()


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------

def test_kappa_quadratic_is_mean_exact(rng, gauss):
    for _ in range(20):
        nu = random_atomic(rng)
        mean = float(np.dot(nu.weights, nu.atoms))
        assert kappa(gauss, nu) == pytest.approx(mean, abs=1e-14)


def test_kappa_quartic_symmetric_pair(quartic):
    nu = AtomicMeasure([-1.0, 1.0], [0.5, 0.5])
    assert kappa(quartic, nu) == 0.0


def test_kappa_quartic_point_mass(quartic):
    for a in (-1.7, 0.3, 2.4):
        nu = AtomicMeasure([a], [1.0])
        assert kappa(quartic, nu) == pytest.approx(a, abs=1e-9)


def test_kappa_on_grid_measure(gauss):
    nu = reflect_shift(semicircle_grid(), 2.0)
    assert kappa(gauss, nu) == pytest.approx(2.0, abs=1e-8)


def test_kappa_shift_equivariance(rng, quartic):
    for _ in range(10):
        nu = random_atomic(rng)
        s = float(rng.normal(0.0, 1.0))
        shifted = AtomicMeasure(nu.atoms + s, nu.weights)
        assert kappa(quartic, shifted) == pytest.approx(
            kappa(quartic, nu) + s, abs=1e-10)


def _exact_g(V, nu, c):
    """int V'(c - x) dnu(x) in rational arithmetic, from V's coefficients."""
    d1 = [Fraction(float(a)) * j for j, a in enumerate(V.coeffs)][1:]
    return sum(Fraction(float(w)) * sum(b * (c - Fraction(float(x))) ** j
                                        for j, b in enumerate(d1))
               for x, w in zip(nu.atoms, nu.weights))


def test_kappa_exact_sign_oracle(rng, gauss, quartic):
    # the exact integral changes sign within 4 ulp of the float root
    for V in (gauss, quartic, Potential.from_string("0,0.3,0.5,0.1,0.2")):
        for _ in range(20):
            nu = random_atomic(rng)
            k = kappa(V, nu)
            d = Fraction(4.0 * math.ulp(max(abs(k), 1.0)))
            assert _exact_g(V, nu, Fraction(k) - d) <= 0
            assert _exact_g(V, nu, Fraction(k) + d) >= 0


def test_kappa_integrand_calls_bounded(rng, quartic, eq_quartic,
                                       monkeypatch):
    # roots at 0 stop at ulps of 1, not in the subnormals
    calls = [0]
    deriv = Potential.deriv

    def counted(self, x, order=1):
        calls[0] += 1
        return deriv(self, x, order)

    monkeypatch.setattr(Potential, "deriv", counted)
    half = rng.uniform(0.1, 2.0, 5)
    cases = [(AtomicMeasure(np.concatenate([-half, half]),
                            np.full(10, 0.1)), 0.0),
             # atoms of size 1e-100: the root is 0 to ulps of 1, and a
             # bracket sized by ulps of the root would take ~390 halvings
             (AtomicMeasure([-2e-100, 1e-100], [0.25, 0.75]), 0.0),
             (eq_quartic.density, 0.0),
             (reflect_shift(eq_quartic.density, 2.5), 2.5)]
    for nu, root in cases:
        calls[0] = 0
        assert kappa(quartic, nu) == pytest.approx(root, abs=1e-12)
        assert calls[0] <= 120


def test_kappa_bracket_failure_is_a_solver_failure(
        gauss, eq_gauss, monkeypatch, tmp_path, capsys):
    # V' = 1 makes int V'(c - x) dnu(x) = 1 for every c: no sign change to
    # bracket.  The CLI takes mu_V from the cache eq_gauss filled.
    deriv = Potential.deriv
    monkeypatch.setattr(
        Potential, "deriv",
        lambda self, x, order=1: np.ones_like(np.asarray(x, dtype=float))
        if order == 1 else deriv(self, x, order))
    with pytest.raises(RuntimeError, match="could not bracket"):
        kappa(gauss, AtomicMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5])))
    assert main(["rate", "idos", "--measure", "nu_V",
                 "--out", str(tmp_path / "o")]) == 3
    assert "solver failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# G_V
# ---------------------------------------------------------------------------

def test_g_value_quadratic_is_half_variance(rng, gauss):
    for _ in range(10):
        nu = random_atomic(rng)
        assert g_value(gauss, nu) == pytest.approx(
            0.5 * variance(nu), rel=1e-12, abs=1e-14)


def test_g_value_point_mass_zero(gauss, quartic):
    nu = AtomicMeasure([1.9], [1.0])
    assert g_value(gauss, nu) == pytest.approx(0.0, abs=1e-16)
    assert g_value(quartic, nu) == pytest.approx(0.0, abs=1e-16)


def test_g_value_quartic_pair(quartic):
    nu = AtomicMeasure([-1.0, 1.0], [0.5, 0.5])
    assert g_value(quartic, nu) == 1.0


def test_g_value_shift_invariant(rng, quartic):
    nu = random_atomic(rng)
    shifted = AtomicMeasure(nu.atoms + 0.8, nu.weights)
    assert g_value(quartic, shifted) == pytest.approx(
        g_value(quartic, nu), rel=1e-10)


def test_g_value_is_infimum_over_shifts(rng, gauss, quartic):
    for V in (gauss, quartic):
        for _ in range(3):
            nu = random_atomic(rng)
            g = g_value(V, nu)
            for _ in range(50):
                c = float(rng.normal(kappa(V, nu), 1.5))
                tau = reflect_shift(nu, c)
                assert g <= tau.integrate(V.eval) + 1e-10


def test_kappa_continuity_under_perturbation(rng, quartic):
    nu = random_atomic(rng, 12)
    base = kappa(quartic, nu)
    last = math.inf
    for eps in (0.1, 0.01, 0.001, 0.0001):
        shaken = AtomicMeasure(
            nu.atoms + eps * rng.normal(0.0, 1.0, nu.size), nu.weights)
        # kappa moves by at most O(d_W(p-1)); the drift shrinks with eps
        drift = abs(kappa(quartic, shaken) - base)
        assert drift <= max(10.0 * eps, 1e-12)
        assert drift <= last + 1e-12
        last = drift
