"""Constructors for the state families whose dissipative evolution is studied.

Every factory returns a validated 4x4 density matrix in the fixed product
basis e1=|1>|1>, e2=|1>|0>, e3=|0>|1>, e4=|0>|0>.
"""

from __future__ import annotations

import numpy as np

from . import qmat

BELL_NAMES = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


class InvalidWeightsError(ValueError):
    """Bell-diagonal weights must be a probability vector."""


def _check_normalized(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(2)
    norm2 = float(np.vdot(v, v).real)
    if abs(norm2 - 1.0) > 1e-12:
        raise ValueError(f"{name} must be normalized, |{name}|^2 = {norm2!r}")
    return v


def product_state(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Projector onto psi x phi (atom A in psi, atom B in phi)."""
    psi = _check_normalized(psi, "psi")
    phi = _check_normalized(phi, "phi")
    vec = qmat.kron(psi, phi)
    return np.outer(vec, vec.conj())


def bell_vector(which: str) -> np.ndarray:
    """Bell ket: phi_pm = (|00> +- |11>)/sqrt2, psi_pm = (|10> +- |01>)/sqrt2."""
    e = qmat.EXCITED
    g = qmat.GROUND
    if which == "phi_plus":
        v = qmat.kron(g, g) + qmat.kron(e, e)
    elif which == "phi_minus":
        v = qmat.kron(g, g) - qmat.kron(e, e)
    elif which == "psi_plus":
        v = qmat.kron(e, g) + qmat.kron(g, e)
    elif which == "psi_minus":
        v = qmat.kron(e, g) - qmat.kron(g, e)
    else:
        raise ValueError(f"unknown Bell state {which!r}; expected one of {BELL_NAMES}")
    return v / np.sqrt(2.0)


def bell(which: str) -> np.ndarray:
    """Projector onto the named Bell state."""
    v = bell_vector(which)
    return np.outer(v, v.conj())


def mes(a: float, theta1: float, theta2: float) -> np.ndarray:
    """Maximally entangled pure state of the (a, theta1, theta2) family.

    Built entry by entry rather than from a ket so that the rank-1 check in
    the tests independently confirms the construction.  a in [0, 1], phases
    in radians; a = 0, theta1 = theta2 = 0 reduces to the symmetric Bell
    state psi_plus.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0, 1], got {a}")
    b = np.sqrt(1.0 - a * a)
    half_a2 = 0.5 * a * a
    half_b2 = 0.5 * b * b
    half_ab = 0.5 * a * b
    p1 = np.exp(-1j * theta1)
    p2 = np.exp(-1j * theta2)
    m = np.empty((4, 4), dtype=complex)
    m[0, 0] = half_a2
    m[0, 1] = half_ab * p1
    m[0, 2] = half_ab * p2
    m[0, 3] = -half_a2 * p1 * p2
    m[1, 1] = half_b2
    m[1, 2] = half_b2 * np.conj(p1) * p2  # exp(+i(theta1 - theta2))
    m[1, 3] = -half_ab * p2
    m[2, 2] = half_b2
    m[2, 3] = -half_ab * p1
    m[3, 3] = half_a2
    for j in range(4):
        for k in range(j):
            m[j, k] = np.conj(m[k, j])
    return m


def bell_diagonal(p1: float, p2: float, p3: float, p4: float) -> np.ndarray:
    """Convex mixture p1 phi+ + p2 phi- + p3 psi+ + p4 psi-."""
    p = np.array([p1, p2, p3, p4], dtype=float)
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-12:
        raise InvalidWeightsError(f"weights must be a probability vector, got {p.tolist()}")
    rho = np.zeros((4, 4), dtype=complex)
    for w, name in zip(p, BELL_NAMES):
        rho += w * bell(name)
    return rho


def werner(p: float) -> np.ndarray:
    """(1 - p) I/4 + p phi+: isotropic mixture of noise and a Bell state."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return (1.0 - p) * qmat.IDENTITY_4 / 4.0 + p * bell("phi_plus")


def mems_h(delta):
    """Weight function of the maximally-entangled-mixed family.

    Piecewise 1/3 on [0, 2/3] and delta/2 on [2/3, 1]; continuous at 2/3.
    A float for a scalar delta, an array for an array of deltas.
    """
    delta = np.asarray(delta, dtype=float)
    if not np.all((0.0 <= delta) & (delta <= 1.0)):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    h = np.where(delta <= 2.0 / 3.0, 1.0 / 3.0, delta / 2.0)
    return h if h.ndim else float(h)


def mems(delta) -> np.ndarray:
    """Maximally entangled mixed state at corner weight delta/2.

    Conjectured to maximize concurrence at fixed purity tr(rho^2).  An
    array of deltas of shape S gives the states stacked to shape S + (4, 4).
    """
    delta = np.asarray(delta, dtype=float)
    h = mems_h(delta)
    m = np.zeros(delta.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = h
    m[..., 1, 1] = 1.0 - 2.0 * h
    m[..., 3, 3] = h
    m[..., 0, 3] = delta / 2.0
    m[..., 3, 0] = delta / 2.0
    return m


def purity(rho: np.ndarray):
    """tr(rho^2), from 1/4 (maximally mixed) to 1 (pure).

    A float for one 4x4 state, an array for a stack of states.
    """
    rho = np.asarray(rho, dtype=complex)
    p = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    return p if p.ndim else float(p)
