"""Dense complex linear algebra for the two-atom (4-level) system.

Everything operates on plain numpy arrays: 2x2 matrices for a single atom,
4x4 matrices for the pair.  The product basis is fixed once and for all as

    e1 = |1>|1>,  e2 = |1>|0>,  e3 = |0>|1>,  e4 = |0>|0>

with the single-atom convention |1> = (1, 0) (excited) and |0> = (0, 1)
(ground).  This is the ordering produced by ``numpy.kron`` on these kets,
it places the doubly excited population at entry (1,1) and the ground-state
population at entry (4,4), and it is the unique ordering consistent with
the product-state parametrization used throughout (see README,
"Conventions").
"""

from __future__ import annotations

import reprlib

import numpy as np

__all__ = [
    "InvalidStateError", "NotHermitianError", "NotPSDError", "hermitian_eigenvalues",
    "partial_trace", "partial_transpose_a", "validate_state",
]

# Structural tolerance (hermiticity / trace / positivity of states): the slack of
# the Hermitian and PSD checks, of the PPT test and of the RK4 positivity guard,
# and the default of validate_state(atol).
TOL_STRUCTURAL = 1e-9

#: single-atom basis kets, |1> excited, |0> ground
EXCITED = np.array([1.0, 0.0], dtype=complex)
GROUND = np.array([0.0, 1.0], dtype=complex)

#: sigma_plus = |1><0|, sigma_minus = |0><1|
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)

#: flat indices: off the X pattern (diagonal, anti-diagonal); m11 m22 m44 m33 m14 m23; transposes
_OFF_X = np.array([1, 2, 4, 7, 8, 11, 13, 14])
_X_UPPER = np.array([0, 5, 15, 10, 3, 6])
_X_LOWER = np.array([0, 5, 15, 10, 12, 9])


class NotHermitianError(ValueError):
    """Raised when a Hermitian matrix was expected."""


class NotPSDError(ValueError):
    """Raised when a positive semidefinite matrix was expected."""


class InvalidStateError(ValueError):
    """A matrix failed the density-matrix invariants.

    ``violations`` maps each failed invariant name (``"hermiticity"``, ``"trace"``,
    ``"positivity"``) to its magnitude; a ``detail`` text replaces them in the message.
    """

    def __init__(self, violations: dict[str, float], detail: str | None = None):
        self.violations = violations
        detail = detail or ", ".join(f"{k}={v:.3e}" for k, v in violations.items())
        super().__init__(f"not a valid density matrix: {detail}")


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def partial_trace(rho: np.ndarray, subsystem: str) -> np.ndarray:
    """Trace out one atom, returning the 2x2 reduced state of the other.

    ``subsystem`` names the atom that is traced *out*: ``"A"`` leaves the
    state of atom B, ``"B"`` leaves the state of atom A.
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if subsystem == "A":
        return np.trace(r, axis1=0, axis2=2)
    if subsystem == "B":
        return np.trace(r, axis1=1, axis2=3)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def partial_transpose_a(rho: np.ndarray) -> np.ndarray:
    """Transpose the atom-A indices only.

    The result is Hermitian with the same trace but may be indefinite;
    its spectrum is the content of the separability criterion.
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return r.transpose(2, 1, 0, 3).reshape(4, 4)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, or of each in a stack, sorted descending.

    Raises ``NotHermitianError`` if some matrix is not Hermitian within TOL_STRUCTURAL.
    """
    defect, _, spectrum = state_health(m)
    defect = defect.max(initial=0.0)
    if not defect <= TOL_STRUCTURAL:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {TOL_STRUCTURAL:.1e}")
    return spectrum[..., ::-1]


def _x_blocks_pd(e: np.ndarray) -> np.ndarray:
    """Per X state, from ``e`` = m11, m22, m44, m33, m41, m32 (or conjugates): whether
    its blocks {1,4}, {2,3} plus TOL_STRUCTURAL * I have Cholesky factors, d1 > 0 and
    d4 - |m41|^2 / d1 > 0 for d_i = Re m_ii + TOL_STRUCTURAL.  Real steps, rounded per
    entry, give a state the same bits in any stack; only a failing state overflows."""
    d = e[..., :4].real + TOL_STRUCTURAL
    with np.errstate(all="ignore"):
        s = np.sqrt(d[..., :2])
        return (d[..., 2:] - (e[..., 4:].real / s) ** 2 - (e[..., 4:].imag / s) ** 2 > 0.0).all(-1)


def _psd_min_eigenvalues(m: np.ndarray):
    """None when ``m``, one state or a stack, passes the PSD check, else the
    minimum eigenvalue of each state's Hermitian part (NaN for a non-finite state).

    A finite input passes at once when every state shifted by TOL_STRUCTURAL * I
    is positive definite, as it is exactly when its minimum eigenvalue exceeds
    -TOL_STRUCTURAL, up to rounding at the threshold.  An X state (no nonzero
    entry off the diagonal and the anti-diagonal) is decided by its 2x2 blocks
    (:func:`_x_blocks_pd`), any other by one stacked Cholesky factor, both from
    the lower triangle.  Only an input that fails pays for the spectra of
    :func:`state_health`; in a stack, each state they reject is asked alone, up
    to the first that fails alone, and one that passes reads +inf.  So a state
    gets one verdict alone, in any stack and from the RK4 guard.
    """
    if np.isfinite(m).all():
        flat = m.reshape(m.shape[:-2] + (16,))
        x = flat[..., 1] == 0  # a nonzero m12 rules a state out, at an eighth of the cost
        if x.any():
            x &= ~flat[..., _OFF_X].any(-1)
        other = m[~x] if x.any() else m
        if other is m or (_x_blocks_pd(flat[..., _X_LOWER]) | ~x).all():
            try:
                if other.size:
                    np.linalg.cholesky(other + TOL_STRUCTURAL * IDENTITY_4)
                return None
            except np.linalg.LinAlgError:
                pass
    min_eig = state_health(m)[2][..., 0]
    if m.ndim > 2:
        for i in zip(*np.nonzero(~(min_eig >= -TOL_STRUCTURAL))):
            alone = _psd_min_eigenvalues(m[i])
            if alone is not None and not alone >= -TOL_STRUCTURAL:
                break
            min_eig[i] = np.inf
    return min_eig


def _psd_check(m: np.ndarray) -> np.ndarray:
    """The Hermitian part of a PSD state, or of each in a stack.  Raises
    ``NotHermitianError`` for a hermiticity defect above TOL_STRUCTURAL, and
    ``NotPSDError`` when :func:`_psd_min_eigenvalues` (the RK4 guard's call, one
    rule per state: X blocks, else Cholesky) rejects ``m``: one verdict everywhere."""
    m = np.asarray(m, dtype=complex)
    return _checked_half_sum(m, dag(m), lambda: _psd_min_eigenvalues(m))


def _psd_check_x(m: np.ndarray) -> np.ndarray | None:
    """None when some state of the complex input ``m`` has a nonzero entry off the X
    pattern (diagonal, anti-diagonal), else :func:`_psd_check` from its X entries
    alone: h11, h22, h44, h33, h14, h23 per state, shape S + (6,).  Off-X entries
    add 0 to the defect and nothing to h, so both match the general check's bit for
    bit; past the defect check every entry is finite: the X rule applies."""
    flat = m.reshape(m.shape[:-2] + (16,))
    if flat[..., _OFF_X].any():
        return None
    a, b = flat[..., _X_UPPER], flat[..., _X_LOWER].conj()
    return _checked_half_sum(
        a, b, lambda: None if _x_blocks_pd(b).all() else _psd_min_eigenvalues(m)
    )


def _checked_half_sum(a: np.ndarray, b: np.ndarray, min_eigenvalues) -> np.ndarray:
    """0.5 a + 0.5 b (b: conjugates of a's transposes) once max|a - b| and the verdict pass."""
    # inf - inf and overflow make the defect NaN or inf, which fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        defect = abs(a - b).max(initial=0.0)
    if not defect <= TOL_STRUCTURAL:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {TOL_STRUCTURAL:.1e}")
    min_eig = min_eigenvalues()
    if min_eig is not None and not min_eig.min() >= -TOL_STRUCTURAL:
        raise NotPSDError(f"minimum eigenvalue {min_eig.min():.3e} below -{TOL_STRUCTURAL:.1e}")
    return 0.5 * a + 0.5 * b


def _factor(h: np.ndarray) -> np.ndarray:
    """A factor X with X X^H = h, for h the output of :func:`_psd_check`.

    A single 4x4 state takes X = V sqrt(max(w, 0)) from one complex ``eigh``.
    A stack takes four steps of left-looking Cholesky with diagonal pivoting,
    each over the whole stack, which costs less than an ``eigh`` per state:
    the largest remaining diagonal entry p is the pivot, and the column
    h[:, p] - X[:, :k] X[p, :k]^H over its square root is column k.
    A pivot at most eps tr(h) gives a zero column, so a rank-r state has
    4 - r of them; this is a backward-stable factor of a semidefinite matrix
    (Higham, "Analysis of the Cholesky decomposition of a semi-definite
    matrix", 1990).  The cut is not larger because concurrence is not
    Lipschitz at a small eigenvalue (``TestPsdFactor`` pins a state of an
    RK4 trajectory that a 16 eps tr(h) cut moves by 1e-7).
    """
    if h.ndim == 2:
        w, v = np.linalg.eigh(h)
        return v * np.sqrt(np.where(w < 0.0, 0.0, w))
    hs = h.reshape(-1, 4, 4)
    rows = np.arange(len(hs))
    x = np.zeros_like(hs)
    d = hs.diagonal(0, -2, -1).real.copy()
    tiny = np.finfo(float).eps * d.sum(-1)
    for k in range(4):
        p = d.argmax(-1)
        pivot = d[rows, p]
        col = hs[rows, :, p]
        if k:
            col -= (x[:, :, :k] @ x[rows, p, :k, None].conj())[..., 0]
        col *= (1.0 / np.sqrt(np.where(pivot > tiny, pivot, np.inf)))[:, None]
        x[:, :, k] = col
        d -= col.real**2 + col.imag**2
        d[rows, p] = -np.inf
    return x.reshape(h.shape)


def state_health(m: np.ndarray) -> tuple:
    """Per state: hermiticity defect max|m - m^H|, trace defect |tr m - 1| and
    the ascending spectrum of the Hermitian part, of shapes S, S and S + (4,)
    for a stack of shape S + (4, 4).  A state with a non-finite entry reads
    NaN in all three, with no arithmetic on it; entries near the float maximum
    read an infinite defect or trace, with no warning (they are halved first).
    """
    m = np.asarray(m, dtype=complex)
    finite = np.isfinite(m)
    if np.count_nonzero(finite) < finite.size:
        finite = finite.all(axis=(-2, -1))
        defect, trace, spectrum = state_health(np.where(finite[..., None, None], m, 0.0))
        spectrum[~finite] = np.nan
        return np.where(finite, defect, np.nan), np.where(finite, trace, np.nan), spectrum
    half = 0.5 * m
    h = dag(half)
    with np.errstate(over="ignore"):
        spectrum = np.linalg.eigvalsh(half + h)
        return 2.0 * abs(half - h).max((-2, -1)), abs(m.trace(0, -2, -1) - 1.0), spectrum


def validate_state(m: np.ndarray, atol: float = TOL_STRUCTURAL) -> np.ndarray:
    """Check the three density-matrix invariants and return the matrix.

    Raises ``InvalidStateError`` naming every violated invariant (hermiticity,
    unit trace, positivity) with its magnitude, the non-finite entries or the shape.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        detail = f"shape {reprlib.repr(m.shape)}, expected (4, 4)"
        raise InvalidStateError({"shape": float(m.size)}, detail)
    defect, trace_defect, spectrum = state_health(m)
    measured = {"hermiticity": defect, "trace": trace_defect, "positivity": -spectrum[0]}
    violations = {k: float(v) for k, v in measured.items() if not v <= atol}
    if violations:
        if np.isnan(defect):
            bad = ", ".join(f"rho{i // 4 + 1}{i % 4 + 1}" for i in np.flatnonzero(~np.isfinite(m)))
            raise InvalidStateError(violations, f"non-finite entries {bad}")
        raise InvalidStateError(violations)
    return m


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state rho = G G^dag / tr(G G^dag), G complex Gaussian."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ dag(g)
    return rho / np.trace(rho).real
