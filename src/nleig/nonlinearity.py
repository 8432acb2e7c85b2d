"""Superlinear nonlinearities f with antiderivative F.

All families satisfy f(0) = 0, f'(0) = alpha > 0, f''(0) = beta > 0, and the
superlinearity conditions f(lam r) >= lam f(r) for lam >= 1 and
f'(r) r >= 2 F(r) on their domain [0, sup_domain).  The singular family
f(s) = (1-s)^(-(m+1)) - 1 lives on [0, 1) and raises DomainBreachError when
evaluated at or beyond s = 1; nothing is clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import REQUIRED, as_number, read_fields, string
from .errors import DomainBreachError


def _parameter(name: str, value: float) -> float:
    """value as a float; a ValueError naming it unless positive and finite."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


class Nonlinearity:
    """Vectorized evaluators for f, f', and F with a domain guard.

    F_rounding(r), when given, bounds in units of eps the rounding of
    evaluating the antiderivative's formula at r, for a formula whose terms
    cancel; None means a formula without cancellation."""

    def __init__(self, kind, alpha, beta, f, f_prime, antiderivative,
                 sup_domain=np.inf, m=None, F_rounding=None):
        self.kind = kind
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.sup_domain = float(sup_domain)
        self.m = m
        self.F_rounding = F_rounding
        self._f = f
        self._f_prime = f_prime
        self._F = antiderivative

    def _guard(self, r):
        r = np.asarray(r, dtype=np.float64)
        if self.sup_domain != np.inf:
            sup = float(np.max(r)) if r.size else 0.0
            if sup >= self.sup_domain:
                raise DomainBreachError(sup, self.sup_domain)
        return r

    def f(self, r):
        return self._f(self._guard(r))

    def f_prime(self, r):
        return self._f_prime(self._guard(r))

    def F(self, r):
        return self._F(self._guard(r))

    def __repr__(self):
        return (f"Nonlinearity(kind={self.kind!r}, alpha={self.alpha:g}, "
                f"beta={self.beta:g})")


def exp_nonlinearity() -> Nonlinearity:
    """f(r) = e^r - 1, F(r) = e^r - r - 1; alpha = beta = 1."""
    return Nonlinearity(
        kind="exp",
        alpha=1.0,
        beta=1.0,
        f=np.expm1,
        f_prime=np.exp,
        antiderivative=lambda r: np.expm1(r) - r,
        # expm1(r) and r cancel to second order at small r
        F_rounding=lambda r: np.abs(np.expm1(r)) + np.abs(r),
    )


def quadratic_nonlinearity(alpha: float, beta: float) -> Nonlinearity:
    """f(r) = alpha r + (beta/2) r^2, the minimal superlinear polynomial."""
    a, b = _parameter("alpha", alpha), _parameter("beta", beta)
    return Nonlinearity(
        kind="quadratic",
        alpha=a,
        beta=b,
        f=lambda r: a * r + 0.5 * b * r * r,
        f_prime=lambda r: a + b * r,
        antiderivative=lambda r: r * r * (0.5 * a + (b / 6.0) * r),
    )


def singular_nonlinearity(m: float) -> Nonlinearity:
    """f(s) = (1-s)^(-(m+1)) - 1 on [0, 1); alpha = m+1, beta = (m+1)(m+2)."""
    m = _parameter("m", m)

    def f(s):
        return (1.0 - s) ** (-(m + 1.0)) - 1.0

    def f_prime(s):
        return (m + 1.0) * (1.0 - s) ** (-(m + 2.0))

    def power_term(s):  # ((1-s)^(-m) - 1)/m, with no 1/m cancellation at small m
        return np.expm1(-m * np.log1p(-s)) / m

    def antiderivative(s):
        return power_term(s) - s

    def F_rounding(s):  # the two terms cancel to second order at small s
        return np.abs(power_term(s)) + np.abs(s)

    return Nonlinearity(
        kind="singular",
        alpha=m + 1.0,
        beta=(m + 1.0) * (m + 2.0),
        f=f,
        f_prime=f_prime,
        antiderivative=antiderivative,
        sup_domain=1.0,
        m=m,
        F_rounding=F_rounding,
    )


@dataclass(frozen=True)
class SuperlinearityReport:
    """Worst margins of the two superlinearity inequalities over a sample set.

    scaling_margin: min of f(lam r) - lam f(r) over sampled lam >= 1, r.
    moment_margin:  min of f'(r) r - 2 F(r) over sampled r.
    Both are >= -_SUPERLINEARITY_TOL for admissible nonlinearities.
    """

    scaling_margin: float
    moment_margin: float

    @property
    def passed(self) -> bool:
        return (self.scaling_margin >= -_SUPERLINEARITY_TOL
                and self.moment_margin >= -_SUPERLINEARITY_TOL)


# the scaling factors lam >= 1 and the margin below zero that still passes
_SCALINGS = (1.0, 1.5, 2.0, 4.0, 8.0)
_SUPERLINEARITY_TOL = 1e-12


def check_superlinearity(nl: Nonlinearity) -> SuperlinearityReport:
    """Probe f(lam r) >= lam f(r) and f'(r) r >= 2 F(r) at 40 points r
    geometrically spaced from 1e-3 to 1 (to 0.9 of the domain's end for a
    singular f), for each lam of _SCALINGS.

    Points lam r landing outside the domain are excluded (the caller sees
    only in-domain behavior); margins are absolute.
    """
    upper = 1.0 if nl.sup_domain == np.inf else 0.9 * nl.sup_domain
    rs = np.geomspace(1e-3, upper, 40)

    scaling_margin = np.inf
    for lam in _SCALINGS:
        inside = lam * rs < nl.sup_domain
        if not np.any(inside):
            continue
        r = rs[inside]
        margin = np.min(nl.f(lam * r) - lam * nl.f(r))
        scaling_margin = min(scaling_margin, float(margin))
    moment_margin = float(np.min(nl.f_prime(rs) * rs - 2.0 * nl.F(rs)))
    return SuperlinearityReport(scaling_margin, moment_margin)


# each kind's factory and the names of its parameters, which are both the
# factory's keyword arguments and the Nonlinearity attributes they set
_KINDS = {
    "exp": (exp_nonlinearity, ()),
    "quadratic": (quadratic_nonlinearity, ("alpha", "beta")),
    "singular": (singular_nonlinearity, ("m",)),
}


def nonlinearity_from_config(cfg: dict) -> Nonlinearity:
    # the kind names the section's parameters, so a kind given but unknown
    # is reported before read_fields checks the keys
    kind = cfg.get("kind", REQUIRED) if isinstance(cfg, dict) else REQUIRED
    if kind is not REQUIRED and not (isinstance(kind, str) and kind in _KINDS):
        raise ValueError(
            f"unknown nonlinearity kind {kind!r}; expected exp, quadratic, or singular"
        )
    _, names = _KINDS.get(kind, (None, ()))
    table = {"kind": (string, REQUIRED), **{name: (as_number, REQUIRED) for name in names}}
    values = read_fields(cfg, table, "nonlinearity section")
    factory, _ = _KINDS[values.pop("kind")]
    return factory(**values)


def nonlinearity_to_config(nl: Nonlinearity) -> dict:
    _, names = _KINDS[nl.kind]
    return {"kind": nl.kind, **{name: getattr(nl, name) for name in names}}
