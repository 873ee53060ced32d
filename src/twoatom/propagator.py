"""Closed-form propagation and the stationary-state map.

At g = 1 the collective jump operator S = sA + sB annihilates both the
antisymmetric Bell state and the doubly-ground state, so the generator
decomposes in the basis {|11>, symmetric, antisymmetric, |00>}: populations
cascade |11> -> symmetric -> |00> at rate 2*gamma0 while the antisymmetric
sector and its coherence with |00> are frozen.  Re-expanding in the product
basis gives the ten matrix-element formulas implemented verbatim in
:func:`evolve_g1`; its t -> infinity limit is the two-parameter stationary
family of :func:`asymptotic_state`.

For g < 1 the semigroup is uniquely relaxing to |00><00|; the two special
initial states with known closed forms (one atom excited / symmetric and
antisymmetric Bell states) are provided, together with the time and height
of the transient entanglement peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LOWER = np.tril_indices(4, -1)


class DegenerateRatesError(ValueError):
    """Peak formulas require 0 < gamma < gamma0 (the peak time diverges otherwise)."""


@dataclass(frozen=True)
class AsymptoticParams:
    """Parameters (alpha, beta) of the g = 1 stationary family.

    alpha in [0, 1/2] is the weight on the antisymmetric Bell projector;
    beta is its coherence with the ground state.
    """

    alpha: float
    beta: complex

    def __post_init__(self):
        if not -1e-12 <= self.alpha <= 0.5 + 1e-12:
            raise ValueError(f"alpha must lie in [0, 1/2], got {self.alpha}")


def evolve_g1(rho0: np.ndarray, gamma0: float, t) -> np.ndarray:
    """Closed-form state at time t for equal rates (g = 1).

    Implements the ten independent matrix-element formulas, including the
    secular gamma0*t*exp(-2*gamma0*t) feeding of the one-excitation sector
    from the doubly excited population; the lower triangle follows by
    hermiticity of the initial state.  An array ``t`` of shape S gives the
    states stacked to shape S + (4, 4).
    """
    r = np.asarray(rho0, dtype=complex)
    t = np.asarray(t, dtype=float)
    e1 = np.exp(-gamma0 * t)
    e2 = np.exp(-2.0 * gamma0 * t)
    sec = gamma0 * t * e2
    r11, r12, r13, r14 = r[0, 0], r[0, 1], r[0, 2], r[0, 3]
    r22, r23, r24 = r[1, 1], r[1, 2], r[1, 3]
    r33, r34, r44 = r[2, 2], r[2, 3], r[3, 3]
    r32 = np.conj(r23)
    re23 = r23.real
    sym = r22 + r33 + 2.0 * re23   # symmetric-sector population (x2)
    asym = r22 + r33 - 2.0 * re23  # antisymmetric-sector population (x2)

    out = np.empty(t.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = e2 * r11
    out[..., 0, 1] = 0.5 * (e2 * (r12 + r13) + e1 * (r12 - r13))
    out[..., 0, 2] = 0.5 * (e2 * (r12 + r13) + e1 * (r13 - r12))
    out[..., 0, 3] = e1 * r14
    out[..., 1, 1] = 0.25 * e2 * sym + 0.5 * e1 * (r22 - r33) + sec * r11 + 0.25 * asym
    out[..., 1, 2] = 0.25 * e2 * sym + 0.5 * e1 * (r23 - r32) + sec * r11 - 0.25 * asym
    out[..., 1, 3] = (
        -e2 * (r12 + r13)
        + 0.5 * e1 * (2.0 * r12 + 2.0 * r13 + r24 + r34)
        + 0.5 * (r24 - r34)
    )
    out[..., 2, 2] = 0.25 * e2 * sym - 0.5 * e1 * (r22 - r33) + sec * r11 + 0.25 * asym
    out[..., 2, 3] = (
        -e2 * (r12 + r13)
        + 0.5 * e1 * (2.0 * r12 + 2.0 * r13 + r24 + r34)
        - 0.5 * (r24 - r34)
    )
    out[..., 3, 3] = (
        -0.5 * e2 * (1.0 + r11 - r44 + 2.0 * re23)
        - 2.0 * sec * r11
        + 0.5 * (1.0 + r11 + r44 + 2.0 * re23)
    )
    out[..., _LOWER[0], _LOWER[1]] = out[..., _LOWER[1], _LOWER[0]].conj()
    return out


def asymptotic_params(rho0: np.ndarray) -> AsymptoticParams:
    """(alpha, beta) of the g = 1 stationary state reached from rho0."""
    r = np.asarray(rho0, dtype=complex)
    alpha = 0.25 * (r[1, 1] + r[2, 2] - 2.0 * r[1, 2].real).real
    beta = 0.5 * (r[1, 3] - r[2, 3])
    return AsymptoticParams(alpha=float(np.clip(alpha, 0.0, 0.5)), beta=complex(beta))


def stationary_matrix(params: AsymptoticParams) -> np.ndarray:
    """The stationary density matrix for given (alpha, beta)."""
    a, b = params.alpha, params.beta
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = a
    m[2, 2] = a
    m[1, 2] = -a
    m[2, 1] = -a
    m[1, 3] = b
    m[2, 3] = -b
    m[3, 1] = np.conj(b)
    m[3, 2] = -np.conj(b)
    m[3, 3] = 1.0 - 2.0 * a
    return m


def asymptotic_state(rho0: np.ndarray) -> np.ndarray:
    """t -> infinity limit of the g = 1 evolution started from rho0."""
    return stationary_matrix(asymptotic_params(rho0))


def evolve_excited_ground_general(gamma0: float, gamma: float, t) -> np.ndarray:
    """State at time t for one atom excited, one ground, at exchange rate gamma < gamma0.

    The initial excitation sits on atom A (entry (2,2) at t = 0); swapping
    the atoms relabels indices 2 <-> 3 and leaves the concurrence unchanged.
    An array ``t`` of shape S gives the states stacked to shape S + (4, 4).
    """
    if not 0.0 <= gamma < gamma0:
        raise ValueError(f"need 0 <= gamma < gamma0, got gamma={gamma}, gamma0={gamma0}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"t must be nonnegative, got {t}")
    e = np.exp(-gamma0 * t)
    ch = np.cosh(gamma * t)
    sh = np.sinh(gamma * t)
    m = np.zeros(t.shape + (4, 4), dtype=complex)
    m[..., 1, 1] = 0.5 * e * (ch + 1.0)
    m[..., 2, 2] = 0.5 * e * (ch - 1.0)
    m[..., 1, 2] = -0.5 * e * sh
    m[..., 2, 1] = -0.5 * e * sh
    m[..., 3, 3] = 1.0 - e * ch
    return m


def evolve_bell_general(sign: int, gamma0: float, gamma: float, t) -> np.ndarray:
    """State at time t for a one-excitation Bell start at exchange rate gamma.

    ``sign`` +1 selects the symmetric (superradiant) state decaying at
    gamma0 + gamma, -1 the antisymmetric (subradiant) state decaying at
    gamma0 - gamma.  The central off-diagonal keeps the sign of the initial
    Bell state, as required by the generator (the superradiant/subradiant
    sectors are eigenspaces of the exchange operator, so the coherence
    pattern is preserved while the population drains to the ground state).
    An array ``t`` of shape S gives the states stacked to shape S + (4, 4).
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not 0.0 <= gamma <= gamma0:
        raise ValueError(f"need 0 <= gamma <= gamma0, got gamma={gamma}, gamma0={gamma0}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"t must be nonnegative, got {t}")
    e = np.exp(-(gamma0 + sign * gamma) * t)
    m = np.zeros(t.shape + (4, 4), dtype=complex)
    m[..., 1, 1] = 0.5 * e
    m[..., 2, 2] = 0.5 * e
    m[..., 1, 2] = sign * 0.5 * e
    m[..., 2, 1] = sign * 0.5 * e
    m[..., 3, 3] = 1.0 - e
    return m


def _require_peak_rates(gamma0: float, gamma: float) -> None:
    if gamma >= gamma0:
        raise DegenerateRatesError(
            f"peak formulas need gamma < gamma0, got gamma={gamma}, gamma0={gamma0}"
        )
    if gamma <= 0:
        raise DegenerateRatesError(f"peak formulas need gamma > 0, got gamma={gamma}")


def t_gamma(gamma0: float, gamma: float) -> float:
    """Time of maximal transient concurrence for the excited-ground start."""
    _require_peak_rates(gamma0, gamma)
    return float(np.log((gamma0 + gamma) / (gamma0 - gamma)) / (2.0 * gamma))


def c_max(gamma0: float, gamma: float) -> float:
    """Peak value of the transient concurrence exp(-gamma0 t) sinh(gamma t)."""
    _require_peak_rates(gamma0, gamma)
    ratio = (gamma0 + gamma) / (gamma0 - gamma)
    return float(gamma / (gamma0 - gamma) * ratio ** (-(gamma0 + gamma) / (2.0 * gamma)))
