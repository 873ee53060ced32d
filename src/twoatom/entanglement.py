"""Entanglement measures and separability tests for two-qubit states.

Concurrence is the measure of the paper, for pure and mixed states alike
(for a pure state every other entanglement monotone is a function of it);
the partial-transpose criterion gives the exact separability decision in
2x2 dimensions, an independent check of concurrence's zero set.
"""

from __future__ import annotations

import numpy as np

from . import qmat

__all__ = ["asymptotic_concurrence", "concurrence", "is_ppt_separable"]


def _lambdas(h: np.ndarray) -> np.ndarray:
    """:func:`wootters_lambdas` of a checked Hermitian part h: one state or a stack."""
    x = qmat._factor(h)
    # s2 x s2 is anti-diagonal, signs (-1, 1, 1, -1): X^T (s2 x s2) X = a + a^T
    a = x[..., 1, :, None] * x[..., 2, None, :]
    a -= x[..., 0, :, None] * x[..., 3, None, :]
    return np.linalg.svd(a + a.swapaxes(-1, -2), compute_uv=False)


def _wootters_form(h: np.ndarray) -> np.ndarray:
    lam = _lambdas(h)
    return lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]


def _x_form(h: np.ndarray) -> np.ndarray:
    # h11, h22, h44, h33, h14, h23; |h14| - sqrt(h22 h33) and |h23| - sqrt(h11 h44)
    d = np.maximum(h[..., :4].real, 0.0)
    return 2.0 * (abs(h[..., 4:]) - np.sqrt(d[..., :2] * d[..., 2:])[..., ::-1]).max(-1)


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
    return qmat._psd_check(rho, _lambdas)


def concurrence(rho: np.ndarray):
    """Concurrence C(rho) = max(0, l1 - l2 - l3 - l4) in [0, 1].

    The l_i are :func:`wootters_lambdas`; 0 for separable states, 1 for
    maximally entangled pure states.  A float for one 4x4 state, an array of
    shape S for a stack of shape S + (4, 4).

    One of three paths measures rho, each after the shape, hermiticity and PSD
    checks of :func:`qmat._psd_check`, with one verdict per state on every path:
      * X states, when no state of the input has a nonzero entry off the
        diagonal and the anti-diagonal: the checks and the Hermitian part h
        come from the X entries alone, and the closed form
        2 max(0, |h14| - sqrt(h22 h33), |h23| - sqrt(h11 h44))
        (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)), each h_ii clamped
        at 0, needs no LAPACK call.  Collective decay keeps an X state an X
        state, entry for entry, and every start of the paper is one.
      * any other stack: a pivoted Cholesky factor and a complex ``svd``;
      * any other single state: an ``eigh`` factor and a complex ``svd``.
    The last two are :func:`wootters_lambdas`.  A stack is checked and measured in
    blocks of ``qmat._BLOCK`` states: each result, verdict and error is one pass's,
    bit for bit, in working memory that does not grow with the stack.
    """
    c = qmat._psd_check(rho, _wootters_form, _x_form)
    np.minimum(np.maximum(c, 0.0, out=c), 1.0, out=c)
    return c if c.ndim else float(c)


def asymptotic_concurrence(rho0: np.ndarray):
    """Concurrence of the g = 1 stationary state, from initial matrix elements.

    Equals 2|alpha| = |rho22 + rho33 - 2 Re rho23| / 2; validated against the
    full concurrence of the constructed stationary state in the test suite.
    A float for one 4x4 state, an array for a stack of states; any other shape
    raises ``qmat.InvalidStateError``.
    """
    r = qmat._as_states(rho0)
    c = 0.5 * np.abs((r[..., 1, 1] + r[..., 2, 2] - 2.0 * r[..., 1, 2].real).real)
    return c if c.ndim else float(c)


def _ppt(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(qmat.partial_transpose_a(h))[..., 0] >= -qmat.TOL_STRUCTURAL


def is_ppt_separable(rho: np.ndarray):
    """Exact 2x2 separability: no partial-transpose eigenvalue below -qmat.TOL_STRUCTURAL,
    for a rho that passes the checks of :func:`concurrence` (else their error).
    A bool for one 4x4 state, a bool array of shape S for a stack of shape S + (4, 4)."""
    ok = qmat._psd_check(rho, _ppt)
    return ok if ok.ndim else bool(ok)
