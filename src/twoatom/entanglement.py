"""Entanglement measures and separability tests for two-qubit states.

Concurrence is the workhorse mixed-state measure here; the entropy of
entanglement is provided for pure states only, and the partial-transpose
criterion gives the exact separability decision in 2x2 dimensions.
"""

from __future__ import annotations

import numpy as np

from . import qmat

__all__ = ["asymptotic_concurrence", "concurrence", "entropy_of_entanglement", "is_ppt_separable"]


class NotPureError(ValueError):
    """Entropy of entanglement is defined for pure states only."""


def wootters_lambdas(rho: np.ndarray) -> np.ndarray:
    """Descending square roots of the spectrum of rho s conj(rho) s, s = s2 x s2, shape (..., 4).

    Computed as the singular values of X^T (s2 x s2) X for any factor
    rho = X X^H: the complex conjugate of Wootters' tau = X^H (s2 x s2) conj(X)
    (PRL 80, 2245 (1998)), so the same spectrum without forming sqrt(rho).
    X is :func:`qmat._factor` of :func:`qmat._psd_check` (a Hermitian PSD state).
    The singular values come from one complex ``svd`` (LAPACK ``zgesdd``), which
    is backward stable, but a true-zero lambda still comes out as large as
    about 2e-8 (on random pure product states).  l1 - l2 - l3 - l4 cancels
    them: the concurrence of such a state is about 1e-15 at most.
    """
    x = qmat._factor(qmat._psd_check(rho))
    # s2 x s2 is anti-diagonal, signs (-1, 1, 1, -1): X^T (s2 x s2) X = a + a^T
    a = x[..., 1, :, None] * x[..., 2, None, :] - x[..., 0, :, None] * x[..., 3, None, :]
    return np.linalg.svd(a + a.swapaxes(-1, -2), compute_uv=False)


def concurrence(rho: np.ndarray):
    """Concurrence C(rho) = max(0, l1 - l2 - l3 - l4) in [0, 1].

    The l_i are :func:`wootters_lambdas`; 0 for separable states, 1 for
    maximally entangled pure states.  A float for one 4x4 state, an array of
    shape S for a stack of shape S + (4, 4).

    One of three paths measures rho, each after the hermiticity and PSD checks
    of :func:`qmat._psd_check`, with one verdict per state on every path:
      * X states, when no state of the input has a nonzero entry off the
        diagonal and the anti-diagonal: the checks and the Hermitian part h
        come from the X entries alone (:func:`qmat._psd_check_x`), and the
        closed form 2 max(0, |h14| - sqrt(h22 h33), |h23| - sqrt(h11 h44))
        (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)), each h_ii clamped
        at 0, needs no LAPACK call.  Collective decay keeps an X state an X
        state, entry for entry, and every start of the paper is one.
      * any other stack: a pivoted Cholesky factor and a complex ``svd``;
      * any other single state: an ``eigh`` factor and a complex ``svd``.
    The last two are :func:`wootters_lambdas`.
    """
    m = np.asarray(rho, dtype=complex)
    h = qmat._psd_check_x(m)
    if h is None:
        lam = wootters_lambdas(m)
        c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    else:
        # h11, h22, h44, h33, h14, h23; |h14| - sqrt(h22 h33) and |h23| - sqrt(h11 h44)
        d = np.maximum(h[..., :4].real, 0.0)
        c = 2.0 * (abs(h[..., 4:]) - np.sqrt(d[..., :2] * d[..., 2:])[..., ::-1]).max(-1)
    c = np.minimum(np.maximum(c, 0.0), 1.0)
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


def is_ppt_separable(rho: np.ndarray) -> bool:
    """Exact 2x2 separability: no partial-transpose eigenvalue below -qmat.TOL_STRUCTURAL,
    for a rho that passes the checks of :func:`concurrence` (else their error)."""
    pt = qmat.partial_transpose_a(qmat._psd_check(rho))
    return bool(np.linalg.eigvalsh(pt)[0] >= -qmat.TOL_STRUCTURAL)


def entropy_of_entanglement(rho: np.ndarray) -> float:
    """Base-2 von Neumann entropy of the reduced state of a pure rho.

    Checks rho as :func:`concurrence` does, then raises ``qmat.InvalidStateError``
    naming the trace unless |tr rho - 1| <= qmat.TOL_STRUCTURAL, as
    :func:`qmat.validate_state` does, and ``NotPureError`` unless
    tr(rho^2) >= 1 - qmat.TOL_STRUCTURAL; the mixed-state extension (minimization
    over decompositions) is out of scope, use :func:`concurrence` instead.
    """
    h = qmat._psd_check(rho)
    trace_defect = float(abs(np.trace(np.asarray(rho)) - 1.0))
    if not trace_defect <= qmat.TOL_STRUCTURAL:
        raise qmat.InvalidStateError({"trace": trace_defect})
    pur = float(np.trace(h @ h).real)
    if pur < 1.0 - qmat.TOL_STRUCTURAL:
        raise NotPureError(f"tr(rho^2) = {pur:.12f} below purity threshold")
    p = np.clip(np.linalg.eigvalsh(qmat.partial_trace(h, "A")), 0.0, 1.0)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())
