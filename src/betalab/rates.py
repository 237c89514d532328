"""Rate functionals for the spectrum and for the view from its right edge.

Every evaluator decomposes its value as

    value = sigma_term + potential_term + offset_term - c_V

held as an exact arithmetic identity in RateEvaluation.  sigma_term is
-Sigma for grid measures (singularity-aware kernel) or -Sigma^M for atomic
measures, with the M used always reported; offset_term is zero except for
the conditional functional, where it carries -J^-(c).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumResult, constrained_equilibrium
from .measures import AtomicMeasure, Measure, log_energy_grid, log_energy_reg
from .potential import Potential, kappa

__all__ = [
    "RateEvaluation", "rate_IV", "rate_calI", "rate_IDOS", "rate_calJ",
    "projection_J", "rate_calI_delta", "rate_calJ_delta", "calI_inf_over_c",
    "rate_report",
]


@dataclass(frozen=True)
class RateEvaluation:
    """One rate-functional evaluation, split into its defining terms."""

    sigma_term: float
    potential_term: float
    c_v: float
    value: float
    regularization: float | None   # M for atomic inputs, None = exact grid
    offset_term: float = 0.0

    def identity_residual(self) -> float:
        """value - (sigma + potential + offset - c_V); zero by construction."""
        return self.value - (self.sigma_term + self.potential_term
                             + self.offset_term - self.c_v)


def _sigma_term(mu: Measure, m: float | None) -> tuple[float, float | None]:
    """(-Sigma of mu, regularization used).  Atomic inputs get -Sigma^M with
    the default M = 2 ln N, under which the forced diagonal contribution
    M/(N-1) vanishes as N grows."""
    if isinstance(mu, AtomicMeasure):
        if m is None:
            m = 2.0 * math.log(mu.size)
        return log_energy_reg(mu, m), float(m)
    return -log_energy_grid(mu), None


def _check_nonneg_support(nu: Measure) -> None:
    lo = nu.atoms[0] if isinstance(nu, AtomicMeasure) else nu.lo
    if lo < -1e-9:
        raise ValueError(f"measure must be supported in R+, support starts at {lo}")


def _evaluation(eq: EquilibriumResult, sig: float, reg: float | None,
                pot: float, off: float = 0.0) -> RateEvaluation:
    return RateEvaluation(sigma_term=sig, potential_term=pot, c_v=eq.c_v,
                          value=sig + pot + off - eq.c_v, regularization=reg,
                          offset_term=off)


def _calI_of_c(eq: EquilibriumResult, V: Potential, nu: Measure,
               m: float | None):
    """(c, offset) -> calI_V(c, nu) + offset.  The support check and the
    Sigma term, which does not depend on c, run once per call of this
    function; each c costs only the potential term int V(c - x) dnu(x)."""
    _check_nonneg_support(nu)
    sig, reg = _sigma_term(nu, m)

    def at(c: float, off: float = 0.0) -> RateEvaluation:
        return _evaluation(eq, sig, reg,
                           nu.integrate(lambda x: V.eval(c - x)), off)

    return at


def rate_IV(eq: EquilibriumResult, V: Potential, mu: Measure,
            m: float | None = None) -> RateEvaluation:
    """I_V(mu) = -Sigma(mu) + int V dmu - c_V."""
    sig, reg = _sigma_term(mu, m)
    return _evaluation(eq, sig, reg, mu.integrate(V.eval))


def rate_calI(eq: EquilibriumResult, V: Potential, c: float, nu: Measure,
              m: float | None = None) -> RateEvaluation:
    """calI_V(c, nu) = I_V(tau_c nu) for nu on R+, using the invariance of
    Sigma under the reflect-shift: -Sigma(nu) + int V(c - x) dnu - c_V."""
    return _calI_of_c(eq, V, nu, m)(c)


def rate_IDOS(eq: EquilibriumResult, V: Potential, nu: Measure,
              m: float | None = None) -> RateEvaluation:
    """I_V^DOS(nu) = inf_c calI_V(c, nu) = -Sigma(nu) + G_V(nu) - c_V,
    calI taken at its minimizer kappa_V(nu)."""
    return _calI_of_c(eq, V, nu, m)(kappa(V, nu))


def projection_J(eq: EquilibriumResult, V: Potential, c: float,
                 n: int = 2048) -> float:
    """J_V^-(c): zero at and right of b_V, else the constrained minimum of
    the memoised hard-wall solve, which raises when it is uncertified."""
    return 0.0 if c >= eq.b_v else constrained_equilibrium(V, c, n).value


def rate_calJ(eq: EquilibriumResult, V: Potential, c: float, nu: Measure,
              m: float | None = None, n: int = 2048) -> RateEvaluation:
    """calJ_V(c, nu) = calI_V(c, nu) - J_V^-(c), the conditional rate given
    that the rightmost particle sits at c < b_V."""
    if c >= eq.b_v:
        raise ValueError(
            f"calJ needs c < b_V = {eq.b_v}; use the unconditional rate")
    return _calI_of_c(eq, V, nu, m)(c, -projection_J(eq, V, c, n))


# -- infima over c ------------------------------------------------------------

CALJ_SCAN = 9            # scan points of rate_calJ_delta, one solve each
CALJ_GRID = 512          # cells of each rate_calJ_delta hard-wall solve


def calI_inf_over_c(eq: EquilibriumResult, V: Potential, nu: Measure,
                    m: float | None = None) -> tuple[float, float]:
    """(argmin, min) of c -> calI_V(c, nu): (kappa_V(nu), I_V^DOS(nu)).

    calI depends on c only through int V(c - x) dnu, convex in c and least
    at kappa_V(nu), so the Sigma term is computed once and the minimum is
    read off there, as rate_IDOS reads it.
    """
    k = kappa(V, nu)
    return k, _calI_of_c(eq, V, nu, m)(k).value


def rate_calI_delta(eq: EquilibriumResult, V: Potential, c: float,
                    delta: float, nu: Measure,
                    m: float | None = None) -> float:
    """calI^delta(c, nu) = inf over a in [c, c+delta] of calI(a, nu): calI
    depends on a only through int V(a - x) dnu, convex in a and least at
    kappa_V(nu), so the infimum is at kappa clipped to the interval."""
    cal = _calI_of_c(eq, V, nu, m)
    return cal(min(max(kappa(V, nu), c), c + delta)).value


def rate_calJ_delta(eq: EquilibriumResult, V: Potential, c: float,
                    delta: float, nu: Measure,
                    m: float | None = None) -> float:
    """calJ^delta(c, nu) = inf over a in [c, c+delta] of calJ(a, nu), by scan.

    Each scan point needs its own constrained solve, so the scan is coarse
    (CALJ_SCAN points) and the grid moderate (CALJ_GRID cells).
    """
    cal = _calI_of_c(eq, V, nu, m)
    out = math.inf
    for a in np.linspace(c, c + delta, CALJ_SCAN):
        a = float(min(a, eq.b_v - 1e-9))
        out = min(out, cal(a, -projection_J(eq, V, a, CALJ_GRID)).value)
    return out


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
