"""Entanglement measures and separability tests for two-qubit states.

Concurrence is the workhorse mixed-state measure here; the entropy of
entanglement is provided for pure states only, and the partial-transpose
criterion gives the exact separability decision in 2x2 dimensions.
"""

from __future__ import annotations

import numpy as np

from . import qmat

#: sigma_2 x sigma_2, the spin-flip sandwich (real orthogonal symmetric)
SPIN_FLIP_OP = qmat.kron(qmat.SIGMA_2, qmat.SIGMA_2)

#: concurrences below this are treated as zero when classifying states
ZERO_BAND = 1e-7


class NotPureError(ValueError):
    """Entropy of entanglement is defined for pure states only."""


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """Spin-flipped state (sigma2 x sigma2) conj(rho) (sigma2 x sigma2)."""
    rho = np.asarray(rho, dtype=complex)
    return SPIN_FLIP_OP @ rho.conj() @ SPIN_FLIP_OP


def wootters_lambdas(rho: np.ndarray) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho * spin_flip(rho), shape (..., 4).

    Computed as the singular values of sqrt(rho) (s2 x s2) conj(sqrt(rho)),
    which carries the same spectrum but is backward stable: true-zero
    lambdas come out at machine precision instead of sqrt(eps).
    """
    s = qmat.sqrt_psd(rho)
    return np.linalg.svd(s @ SPIN_FLIP_OP @ s.conj(), compute_uv=False)


def concurrence(rho: np.ndarray):
    """Concurrence C(rho) = max(0, l1 - l2 - l3 - l4) in [0, 1].

    The l_i are the descending square roots of the spectrum of
    rho * spin_flip(rho); 0 for separable states, 1 for maximally
    entangled pure states.  A float for one 4x4 state, an array of shape S
    for a stack of shape S + (4, 4).
    """
    lam = wootters_lambdas(rho)
    c = np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)
    return c if c.ndim else float(c)


def asymptotic_concurrence(rho0: np.ndarray):
    """Concurrence of the g = 1 stationary state, from initial matrix elements.

    Equals 2|alpha| = |rho22 + rho33 - 2 Re rho23| / 2; validated against the
    full concurrence of the constructed stationary state in the test suite.
    A float for one 4x4 state, an array for a stack of states.
    """
    r = np.asarray(rho0, dtype=complex)
    c = 0.5 * np.abs((r[..., 1, 1] + r[..., 2, 2] - 2.0 * r[..., 1, 2].real).real)
    return c if c.ndim else float(c)


def product_asymptotic_concurrence(psi: np.ndarray, phi: np.ndarray) -> float:
    """Stationary concurrence (1 - |<psi, phi>|^2) / 2 for a product start."""
    overlap = np.vdot(np.asarray(psi, dtype=complex), np.asarray(phi, dtype=complex))
    return float(0.5 * (1.0 - abs(overlap) ** 2))


def mes_asymptotic_concurrence(a: float, theta1: float, theta2: float) -> float:
    """Stationary concurrence (1 - a^2)(1 - cos(theta1 - theta2)) / 2
    for a maximally entangled start from the (a, theta1, theta2) family."""
    return float(0.5 * (1.0 - a**2) * (1.0 - np.cos(theta1 - theta2)))


def is_ppt_separable(rho: np.ndarray, tol: float = qmat.TOL_STRUCTURAL) -> bool:
    """Exact 2x2 separability: is the partial transpose still a state?"""
    pt = qmat.partial_transpose_a(rho)
    min_eig = float(np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))[0])
    return min_eig >= -tol


def entropy_of_entanglement(rho: np.ndarray, purity_tol: float = 1e-9) -> float:
    """Base-2 von Neumann entropy of the reduced state of a pure rho.

    Raises ``NotPureError`` unless tr(rho^2) >= 1 - purity_tol; the mixed-state
    extension (minimization over decompositions) is out of scope, use
    :func:`concurrence` instead.
    """
    rho = np.asarray(rho, dtype=complex)
    pur = float(np.trace(rho @ rho).real)
    if pur < 1.0 - purity_tol:
        raise NotPureError(f"tr(rho^2) = {pur:.12f} below purity threshold")
    reduced = qmat.partial_trace(rho, "A")
    p = np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))
    p = np.clip(p.real, 0.0, 1.0)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())
