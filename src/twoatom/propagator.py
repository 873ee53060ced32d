"""The exact propagator for every g, every start and every time.

The generator of :mod:`twoatom.model` is a sum of two collective channels:
the superradiant jump S+ = (sA + sB)/sqrt2 at rate gamma0 + gamma and the
subradiant jump S- = (sA - sB)/sqrt2 at rate gamma0 - gamma.  In the Dicke
basis {|11>, |s>, |a>, |00>}, with |s> = (|10> + |01>)/sqrt2 and
|a> = (|10> - |01>)/sqrt2, they are the two ladders |11> -> |s> -> |00> and
|11> -> -|a> -> |00> (Ficek & Tanas, Phys. Rep. 372, 369 (2002)).  The
levels decay at G = (2 gamma0, gamma0 + gamma, gamma0 - gamma, 0), each
Dicke-basis element (i, j) at (G_i + G_j)/2, and |s><s|, |a><a|, |s><00|
and |a><00| are also fed from above (:func:`evolve`).

As t -> infinity only the elements whose two levels are both dark (G = 0)
keep their value, and no feed survives: the feeds into |s><s| and |s><00|
land on decaying elements, and those into |a><a| and |a><00| carry weight
gamma0 - gamma, which is 0 exactly when |a> is dark.  So the limit,
:func:`asymptotic_state`, is the dark part P rho P (P the projector onto
the dark levels) with the rest of the trace on |00><00|.  At g = 1 |a> is
dark and the state keeps its weight on |a> and its |a><00| coherence, the
stationary family (alpha, beta) of :func:`asymptotic_params`.  For g < 1
every state relaxes to |00><00|, and the excited x ground start has a
transient entanglement peak whose time and height are :func:`t_gamma` and
:func:`c_max`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .model import ModelParams, ParameterError

__all__ = [
    "AsymptoticParams", "DegenerateRatesError", "asymptotic_params", "asymptotic_state",
    "c_max", "evolve", "t_gamma",
]

_HALF_SQRT2 = np.sqrt(0.5)
#: product-basis projectors onto the Dicke levels |11>, |s>, |a>, |00> (exact)
_LEVEL_PROJECTORS = np.array([
    np.diag([1.0, 0.0, 0.0, 0.0]),
    0.5 * np.array([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]]),
    0.5 * np.array([[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]]),
    np.diag([0.0, 0.0, 0.0, 1.0]),
], dtype=complex)


class DegenerateRatesError(ParameterError):
    """Peak formulas require 0 < gamma < gamma0 (the peak time diverges otherwise)."""


@dataclass(frozen=True)
class AsymptoticParams:
    """Parameters (alpha, beta) of the g = 1 stationary family.

    alpha in [0, 1/2] is the weight on the antisymmetric Bell projector;
    beta is its coherence with the ground state.
    """

    alpha: float
    beta: complex


def _dicke(m: np.ndarray) -> np.ndarray:
    """U m U for the real symmetric U = U^-1 that maps the product basis to the
    Dicke basis and back; it mixes only indices 1 and 2 of each axis."""
    m = np.array(m, dtype=complex)
    a, b = _HALF_SQRT2 * m[..., 1, :], _HALF_SQRT2 * m[..., 2, :]
    m[..., 1, :], m[..., 2, :] = a + b, a - b
    a, b = _HALF_SQRT2 * m[..., :, 1], _HALF_SQRT2 * m[..., :, 2]
    m[..., :, 1], m[..., :, 2] = a + b, a - b
    return m


def _fed(a: float, b: float, t: np.ndarray) -> np.ndarray:
    """(e^{-bt} - e^{-at})/(a - b), the divided difference that a level decaying
    at rate a holds when fed at unit rate by a level decaying at rate b.

    The factored form is t e^{-at} at a = b (the secular term at g = 1), is
    accurate for a near b, and does not overflow for large t.
    """
    d = abs(a - b)
    return np.exp(-min(a, b) * t) * (-np.expm1(-d * t) / d if d else t)


def _level_rates(params: ModelParams) -> np.ndarray:
    """Decay rates G = (2 gamma0, gamma0 + gamma, gamma0 - gamma, 0) of the Dicke levels."""
    g0, gamma = params.gamma0, params.gamma
    return np.array([2.0 * g0, g0 + gamma, g0 - gamma, 0.0])


def evolve(rho0: np.ndarray, params: ModelParams, t) -> np.ndarray:
    """Exact state at time t >= 0 started from rho0 (any 4x4 density matrix).

    Dicke element (i, j) decays at (G_i + G_j)/2 (:func:`_level_rates`);
    |11><11| feeds |s><s| at rate G_1 and |a><a| at G_2, |11><s| feeds |s><00|
    at G_1 and |11><a| feeds |a><00| at -G_2.
    An array ``t`` of shape S gives S + (4, 4) stacked states, a scalar one 4x4.
    """
    t = np.asarray(t, dtype=float)
    bad = ~((t >= 0) & (t < np.inf))
    if bad.any():
        raise ParameterError(f"t must be nonnegative and finite, got {t[bad][0]}")
    G = _level_rates(params)
    rate = 0.5 * (G[:, None] + G)
    r = _dicke(rho0)
    # a rate times a large t may overflow to inf, whose exponential is 0
    with np.errstate(over="ignore"):
        out = r * np.exp(-rate * t[..., None, None])
        for (i, j), source, w in (((1, 1), (0, 0), G[1]), ((2, 2), (0, 0), G[2]),
                                  ((1, 3), (0, 1), G[1]), ((2, 3), (0, 2), -G[2])):
            fed = w * r[source] * _fed(rate[i, j], rate[source], t)
            out[..., i, j] += fed
            if i != j:
                out[..., j, i] += fed.conj()
    # |00> collects what the excited levels lose
    excited = r[0, 0] + r[1, 1] + r[2, 2]
    out[..., 3, 3] = r[3, 3] + (excited - (out[..., 0, 0] + out[..., 1, 1] + out[..., 2, 2]))
    return _dicke(out)


def asymptotic_params(rho0: np.ndarray) -> AsymptoticParams:
    """(alpha, beta) of the g = 1 stationary state reached from rho0, one 4x4 state;
    any other shape raises ``qmat.InvalidStateError``."""
    (_, r11, r12, r13), (_, _, r22, r23) = qmat._as_states(rho0, stack=False)[1:3].tolist()
    alpha = 0.25 * (r11.real + r22.real - 2.0 * r12.real)
    return AsymptoticParams(alpha=min(max(alpha, 0.0), 0.5), beta=0.5 * (r13 - r23))


#: P for each pattern of dark levels, keyed by g == 1: G_a = gamma0 - gamma is 0 at g = 1 only
_DARK = {g == 1.0: _LEVEL_PROJECTORS[_level_rates(ModelParams(1.0, g)) == 0.0].sum(0)
         for g in (0.0, 1.0)}


def asymptotic_state(rho0: np.ndarray, g: float = 1.0) -> np.ndarray:
    """t -> infinity limit of the evolution at exchange ratio g started from rho0.

    The dark part P rho0 P, P the projector onto the levels with G = 0
    (|00>, and |a> at g = 1), with |00><00| raised to the trace of rho0.
    A stack of shape S + (4, 4) gives the limit of each of its states, in the
    same shape; any other shape raises ``qmat.InvalidStateError``.
    """
    dark = _DARK[ModelParams(1.0, g).gamma == 1.0]
    r = qmat._as_states(rho0)
    out = dark @ r @ dark
    out[..., 3, 3] += r.trace(0, -2, -1) - out.trace(0, -2, -1)
    return out


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
    # log((gamma0 + gamma)/(gamma0 - gamma)), accurate where the ratio rounds to 1
    return float(np.log1p(2.0 * gamma / (gamma0 - gamma)) / (2.0 * gamma))


def c_max(gamma0: float, gamma: float) -> float:
    """Peak value of the transient concurrence exp(-gamma0 t) sinh(gamma t)."""
    t = t_gamma(gamma0, gamma)
    # (gamma0 + gamma) * t: the quotient (gamma0 + gamma) / (2 gamma) overflows for a subnormal gamma
    return float(gamma / (gamma0 - gamma) * np.exp(-(gamma0 + gamma) * t))
