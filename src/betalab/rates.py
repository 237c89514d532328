"""Rate functionals for the spectrum and for the view from its right edge.

calI_V, I_V^DOS (calI at kappa_V(nu)) and calJ_V (calI less J^-(c)) share
one evaluator, rate_calI, taken at one c: no scan over c.  Every
RateEvaluation's value is the sum of the terms,

    value = sigma_term + potential_term + offset_term - c_V.

sigma_term is -Sigma for angular measures (exact: their own moment series,
so nu_V and mu_V cost no grid), -Sigma for grid measures (exact for the
piecewise-linear density), or -Sigma^M for atomic measures, with the M
used always reported; offset_term is zero except for the conditional
functional, where it carries -J^-(c).  J^-(c) is the value of
projection_J(V, c), the certified constrained minimizer, one solve per
wall.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

from .equilibrium import ConstrainedEquilibriumResult, EquilibriumResult, \
    constrained_equilibrium
from .measures import AngularMeasure, AtomicMeasure, Measure, \
    log_energy_grid, log_energy_reg
from .potential import Potential, kappa

__all__ = [
    "RateEvaluation", "rate_IV", "rate_calI", "rate_IDOS", "rate_calJ",
    "projection_J", "calI_inf_over_c", "rate_report",
]


@dataclass(frozen=True)
class RateEvaluation:
    """One rate-functional evaluation, split into its defining terms."""

    sigma_term: float
    potential_term: float
    c_v: float
    regularization: float | None   # M for atomic inputs, None = exact
    offset_term: float = 0.0

    @property
    def value(self) -> float:
        return (self.sigma_term + self.potential_term + self.offset_term
                - self.c_v)


def _sigma_term(mu: Measure, m: float | None) -> tuple[float, float | None]:
    """(-Sigma of mu, regularization used).  Atomic inputs get -Sigma^M with
    the default M = 2 ln N, under which the forced diagonal contribution
    M/(N-1) vanishes as N grows."""
    if isinstance(mu, AtomicMeasure):
        if m is None:
            m = 2.0 * math.log(mu.size)
        return log_energy_reg(mu, m), float(m)
    if isinstance(mu, AngularMeasure):
        return -mu.sigma, None
    return -log_energy_grid(mu), None


def rate_IV(eq: EquilibriumResult, V: Potential, mu: Measure,
            m: float | None = None) -> RateEvaluation:
    """I_V(mu) = -Sigma(mu) + int V dmu - c_V."""
    sig, reg = _sigma_term(mu, m)
    return RateEvaluation(sigma_term=sig, potential_term=mu.integrate(V.coeffs),
                          c_v=eq.c_v, regularization=reg)


def rate_calI(eq: EquilibriumResult, V: Potential, c: float, nu: Measure,
              m: float | None = None) -> RateEvaluation:
    """calI_V(c, nu) = I_V(tau_c nu) for nu on R+, using the invariance of
    Sigma under the reflect-shift: -Sigma(nu) + int V(c - x) dnu - c_V."""
    lo = float(nu.quantile(0.0))
    if lo < -1e-9:
        raise ValueError(f"measure must be supported in R+, support starts at {lo}")
    sig, reg = _sigma_term(nu, m)
    return RateEvaluation(sigma_term=sig,
                          potential_term=nu.integrate(V.coeffs, c, -1.0),
                          c_v=eq.c_v, regularization=reg)


def rate_IDOS(eq: EquilibriumResult, V: Potential, nu: Measure,
              m: float | None = None) -> RateEvaluation:
    """I_V^DOS(nu) = inf_c calI_V(c, nu) = -Sigma(nu) + G_V(nu) - c_V,
    calI taken at its minimizer kappa_V(nu)."""
    return rate_calI(eq, V, kappa(V, nu), nu, m)


def projection_J(V: Potential, c: float) -> ConstrainedEquilibriumResult:
    """J_V^-(c) as the certified minimizer over measures on (-inf, c]: its
    .value is J^-(c), zero with mu_V at and right of b_V, and its .gap the
    soft-edge residual; raises when uncertified.  Every J^- solve goes
    through this binding, which the benchmark traces (ROADMAP item 20)."""
    return constrained_equilibrium(V, c)


def rate_calJ(eq: EquilibriumResult, V: Potential, c: float, nu: Measure,
              m: float | None = None) -> RateEvaluation:
    """calJ_V(c, nu) = calI_V(c, nu) - J_V^-(c), the conditional rate given
    that the rightmost particle sits at c < b_V."""
    if c >= eq.b_v:
        raise ValueError(
            f"calJ needs c < b_V = {eq.b_v}; use the unconditional rate")
    return replace(rate_calI(eq, V, c, nu, m),
                   offset_term=-projection_J(V, c).value)


def calI_inf_over_c(eq: EquilibriumResult, V: Potential, nu: Measure,
                    m: float | None = None) -> tuple[float, float]:
    """(argmin, min) of c -> calI_V(c, nu): (kappa_V(nu), I_V^DOS(nu)).
    calI depends on c only through int V(c - x) dnu, convex in c and least
    at kappa_V(nu), so the minimum is one evaluation there, not a scan."""
    k = kappa(V, nu)
    return k, rate_calI(eq, V, k, nu, m).value


# -- reports -------------------------------------------------------------------

def rate_report(functional: str, evaluation: RateEvaluation,
                V: Potential, inputs: dict) -> dict:
    """JSON-ready record of one evaluation with a content hash of its inputs.

    The hash covers the inputs as given, which must be plain JSON values: a
    measure is named by its spec (``nu_V``, ``mu_V`` or a CSV path), so a
    file measure is hashed by its path, not by its contents.
    """
    blob = json.dumps(
        {"functional": functional, "coeffs": list(V.key()), **inputs},
        sort_keys=True)
    return {
        "functional": functional,
        "inputs_hash": hashlib.sha256(blob.encode()).hexdigest()[:16],
        "terms": {
            "sigma_term": evaluation.sigma_term,
            "potential_term": evaluation.potential_term,
            "offset_term": evaluation.offset_term,
            "c_v": evaluation.c_v,
        },
        "value": evaluation.value,
        "M": "exact-grid" if evaluation.regularization is None
             else evaluation.regularization,
    }
