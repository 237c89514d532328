"""Convex polynomial potentials V and the centering functional kappa_V.

A potential is a polynomial of even degree p >= 2 with positive leading
coefficient and V'' >= 0 on all of R (checked exactly at construction via
the roots of V'').  The module also provides kappa_V(nu), the unique root
of c -> int V'(c - x) dnu(x), found by bisection on that integral, and
G_V(nu) = int V(kappa - x) dnu(x), the infimum over c of the potential
term of a reflected measure.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt, ulp

import numpy as np
from numpy.polynomial import polynomial as P

from .measures import Measure, moment, variance

__all__ = ["Potential", "GAUSSIAN_KEY", "validate_convex", "kappa",
           "g_value"]


def validate_convex(coeffs) -> tuple[bool, float | None]:
    """Exact convexity test for a polynomial given by ascending coefficients.

    Returns ``(True, None)`` when V'' >= 0 on all of R, else
    ``(False, x)`` with a witness point where V''(x) < 0.  Sign analysis is
    done on the real roots of V'' (companion-matrix eigenvalues), not by
    sampling.
    """
    c = np.asarray(coeffs, dtype=float)
    d2 = P.polyder(c, 2)
    if d2.size == 0 or not np.any(d2):
        return True, None          # V affine: V'' = 0 everywhere
    roots = P.polyroots(d2)
    real = np.sort(np.real(roots[np.abs(np.imag(roots)) < 1e-9]))
    # probe midpoints between consecutive real roots and beyond the extremes
    probes = [real[0] - 1.0, real[-1] + 1.0] if real.size else [0.0]
    probes += [0.5 * (real[i] + real[i + 1]) for i in range(real.size - 1)]
    for x in probes:
        if P.polyval(x, d2) < 0.0:
            return False, float(x)
    return True, None


@dataclass(frozen=True, eq=False)
class Potential:
    """Convex polynomial potential, coefficients in ascending degree."""

    coeffs: np.ndarray
    _d1: np.ndarray = field(
        default=None, init=False, repr=False, compare=False)
    _d2: np.ndarray = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float).ravel()
        c = np.trim_zeros(c, "b")
        if c.size < 3:
            raise ValueError("potential degree must be >= 2")
        p = c.size - 1
        if p % 2 != 0:
            raise ValueError(f"potential degree must be even, got {p}")
        if c[-1] <= 0.0:
            raise ValueError("leading coefficient must be positive")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        ok, witness = validate_convex(c)
        if not ok:
            raise ValueError(
                f"potential is not convex: V''({witness}) < 0")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        for name, order in (("_d1", 1), ("_d2", 2)):
            d = P.polyder(c, order)
            d.setflags(write=False)
            object.__setattr__(self, name, d)

    # -- construction helpers ------------------------------------------------
    @classmethod
    def from_string(cls, text: str) -> "Potential":
        """Parse the config form "c0,c1,...,cp" (ascending degree)."""
        try:
            coeffs = [float(t) for t in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad potential string {text!r}: {exc}") from exc
        return cls(np.asarray(coeffs))

    @classmethod
    def gaussian(cls) -> "Potential":
        """V(x) = x^2 / 2."""
        return cls(np.array([0.0, 0.0, 0.5]))

    @classmethod
    def quartic(cls) -> "Potential":
        """V(x) = x^4."""
        return cls(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))

    # -- evaluation -----------------------------------------------------------
    @property
    def degree(self) -> int:
        return int(self.coeffs.size - 1)

    def eval(self, x):
        return P.polyval(np.asarray(x, dtype=float), self.coeffs)

    __call__ = eval

    def deriv(self, x, order: int = 1):
        if order == 1:
            return P.polyval(np.asarray(x, dtype=float), self._d1)
        if order == 2:
            return P.polyval(np.asarray(x, dtype=float), self._d2)
        raise ValueError(f"derivative order must be 1 or 2, got {order}")

    def key(self) -> tuple:
        """Hashable identity used for caching equilibrium artifacts."""
        return tuple(float(c) for c in self.coeffs)


GAUSSIAN_KEY = Potential.gaussian().key()   # built once: V(x) = x^2 / 2


def kappa(V: Potential, nu: Measure) -> float:
    """The unique root of the nondecreasing map g(c) = int V'(c - x) dnu(x).

    A bracket grows geometrically from the mean of nu; bisection on g itself
    then shrinks it to a few ulps of max(|lo|, |hi|, 1), the floor keeping a
    root at 0 out of the subnormals.  g is evaluated as the integral, not
    expanded through the moments of nu, so its sign stays reliable next to
    a multiple root.  A bracket that cannot be found is a solver failure
    (RuntimeError).
    """
    def g(c: float) -> float:
        return nu.integrate(lambda x: V.deriv(c - x))

    step = 1.0 + sqrt(variance(nu))
    lo = hi = moment(nu, 1)
    glo = ghi = g(lo)
    for _ in range(200):
        if glo <= 0.0 <= ghi:
            break
        if glo > 0.0:
            lo -= step
            glo = g(lo)
        if ghi < 0.0:
            hi += step
            ghi = g(hi)
        step *= 2.0
    else:
        raise RuntimeError("could not bracket the root of the kappa equation")
    while hi - lo > 4.0 * ulp(max(abs(lo), abs(hi), 1.0)):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if gm > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def g_value(V: Potential, nu: Measure) -> float:
    """G_V(nu) = int V(kappa_V(nu) - x) dnu(x) = inf_c int V d tau_c nu."""
    k = kappa(V, nu)
    return nu.integrate(lambda x: V.eval(k - x))
