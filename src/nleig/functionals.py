"""Energy functionals of the constrained maximization problem.

P(V) = integral F(b*V) is maximized on the sphere K(V) = (1/2)||V||^2 = K;
Q(V) = (f'(0)/2) integral (b*V)^2 is the quadratic part of P, so P > Q on
nonzero cone profiles quantifies the superlinear energy gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalOverflowError
from .grid import Profile, inner_product
from .kernels import Kernel
from .nonlinearity import Nonlinearity


@dataclass(frozen=True)
class EnergyRecord:
    """Snapshot of the energies of one profile."""

    P: float
    K: float
    Q: float
    sup_U: float


def eval_K(v: Profile) -> float:
    """Constraint functional K(V) = (1/2) ||V||_2^2."""
    return 0.5 * inner_product(v, v)


def p_of_u(u: Profile, nl: Nonlinearity) -> float:
    """P = h sum F(U); raises DomainBreachError when U reaches the
    nonlinearity's domain boundary."""
    return float(u.grid.spacing * np.sum(nl.F(u.samples)))


def q_of_u(u: Profile, alpha: float) -> float:
    """Q = (alpha/2) h sum U^2."""
    return float(0.5 * alpha * u.grid.spacing * np.sum(u.samples**2))


def grad_p_of_u(u: Profile, kernel: Kernel, nl: Nonlinearity) -> Profile:
    """L2 gradient of P, b * f(U), using the kernel's evenness; raises
    NumericalOverflowError when f(U) is not finite."""
    try:
        f_profile = Profile(u.grid, nl.f(u.samples))
    except ValueError:
        # Profile's finiteness check is the only pass over a finite f(U), whose
        # samples are freed before the convolution allocates its own
        if np.all(np.isfinite(nl.f(u.samples))):
            raise
        raise NumericalOverflowError(
            f"f(U) is not finite at max U = {u.max:.6g}; U overflowed f"
        ) from None
    return kernel.convolve(f_profile)


def energies_of_u(v: Profile, u: Profile, P: float, alpha: float) -> EnergyRecord:
    """EnergyRecord of V with U = b*V and P = p_of_u(U) already known."""
    return EnergyRecord(P=P, K=eval_K(v), Q=q_of_u(u, alpha), sup_U=u.max)


def eval_P(v: Profile, kernel: Kernel, nl: Nonlinearity) -> float:
    """Energy P(V) = integral F(b*V)."""
    return p_of_u(kernel.convolve(v), nl)


def eval_Q(v: Profile, kernel: Kernel, alpha: float) -> float:
    """Quadratic energy Q(V) = (alpha/2) integral (b*V)^2."""
    return q_of_u(kernel.convolve(v), alpha)


def grad_P(v: Profile, kernel: Kernel, nl: Nonlinearity) -> Profile:
    """L2 gradient of P: b * f(b*V)."""
    return grad_p_of_u(kernel.convolve(v), kernel, nl)


def energy_record(v: Profile, kernel: Kernel, nl: Nonlinearity) -> EnergyRecord:
    u = kernel.convolve(v)
    return energies_of_u(v, u, p_of_u(u, nl), nl.alpha)
