"""Constructors for the state families whose dissipative evolution is studied.

Every factory returns a validated 4x4 density matrix in the fixed product
basis e1=|1>|1>, e2=|1>|0>, e3=|0>|1>, e4=|0>|0>.
"""

from __future__ import annotations

import numpy as np

from . import qmat

__all__ = [
    "bell", "bell_diagonal", "mems", "mems_h", "mes", "product_state", "purity", "werner",
]

_BELL_KETS = {  # in the basis |11>, |10>, |01>, |00>
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0),
    "phi_minus": np.array([-1, 0, 0, 1], dtype=complex) / np.sqrt(2.0),
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0),
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0),
}
BELL_NAMES = tuple(_BELL_KETS)


def _check_normalized(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(2)
    norm2 = float(np.vdot(v, v).real)
    if not abs(norm2 - 1.0) <= 1e-12:
        raise ValueError(f"{name} must be normalized, |{name}|^2 = {norm2!r}")
    return v


def product_state(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Projector onto psi x phi (atom A in psi, atom B in phi)."""
    psi = _check_normalized(psi, "psi")
    phi = _check_normalized(phi, "phi")
    vec = np.kron(psi, phi)
    return np.outer(vec, vec.conj())


def bell(which: str) -> np.ndarray:
    """Projector onto phi_pm = (|00> +- |11>)/sqrt2 or psi_pm = (|10> +- |01>)/sqrt2, by name."""
    # a tuple test, not a dict one, so that an unhashable name is unknown too
    if which not in BELL_NAMES:
        raise ValueError(f"unknown Bell state {which!r}; expected one of {BELL_NAMES}")
    v = _BELL_KETS[which]
    return np.outer(v, v.conj())


def mes(a: float, theta1: float, theta2: float) -> np.ndarray:
    """Maximally entangled pure state of the (a, theta1, theta2) family.

    |v><v| / 2 for v = (a, b e^{i theta1}, b e^{i theta2}, -a e^{i(theta1 + theta2)}),
    b = sqrt(1 - a^2).  a in [0, 1], phases in radians; a = 0,
    theta1 = theta2 = 0 reduces to the symmetric Bell state psi_plus.
    """
    if not (0.0 <= a <= 1.0 and abs(theta1) < np.inf and abs(theta2) < np.inf):
        raise ValueError(f"need a in [0, 1] and finite phases, got {a=}, {theta1=}, {theta2=}")
    b = np.sqrt(1.0 - a * a)
    p1, p2 = np.exp(1j * theta1), np.exp(1j * theta2)
    v = np.array([a, b * p1, b * p2, -a * p1 * p2])
    return 0.5 * np.outer(v, v.conj())


def bell_diagonal(p1: float, p2: float, p3: float, p4: float) -> np.ndarray:
    """Convex mixture p1 phi+ + p2 phi- + p3 psi+ + p4 psi-."""
    p = np.array([p1, p2, p3, p4], dtype=float)
    with np.errstate(over="ignore"):  # an overflowing sum is inf, which fails the check
        if not (np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12):
            raise ValueError(f"weights must be a probability vector, got {p.tolist()}")
    return sum(w * np.outer(v, v.conj()) for w, v in zip(p, _BELL_KETS.values()))


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
        raise ValueError(f"delta must lie in [0, 1], got {delta.tolist()}")
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
