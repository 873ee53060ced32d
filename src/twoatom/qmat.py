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
    "InvalidStateError", "NotHermitianError", "NotPSDError", "partial_transpose_a",
    "validate_state",
]

# Structural tolerance (hermiticity / trace / positivity of states): the one slack
# of the Hermitian and PSD checks, of validate_state, of the PPT test and of the
# RK4 positivity guard.
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

#: states per block of a pass over a stack: 64 KiB per complex temporary, which the heap reuses
_BLOCK = 256


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


def _as_states(m, stack: bool = True) -> np.ndarray:
    """``m`` as a complex array: one 4x4 state or, if ``stack``, a stack of shape S + (4, 4).
    Any other shape raises ``InvalidStateError`` naming it and the shape expected."""
    m = np.asarray(m, dtype=complex)
    if (m.shape[-2:] if stack else m.shape) != (4, 4):
        detail = f"shape {reprlib.repr(m.shape)}, expected {'(..., 4, 4)' if stack else '(4, 4)'}"
        raise InvalidStateError({"shape": float(m.size)}, detail)
    return m


def partial_transpose_a(rho: np.ndarray) -> np.ndarray:
    """Transpose the atom-A indices only, of one state or of each state of a stack.

    The result is Hermitian with the same trace but may be indefinite;
    its spectrum is the content of the separability criterion.
    """
    r = np.asarray(rho, dtype=complex)
    return r.reshape(r.shape[:-2] + (2, 2, 2, 2)).swapaxes(-4, -2).reshape(r.shape)


def _x_blocks_pd(e: np.ndarray) -> np.ndarray:
    """Per X state, from ``e`` = m11, m22, m44, m33, m41, m32 (or conjugates): whether
    its blocks {1,4}, {2,3} plus TOL_STRUCTURAL * I have Cholesky factors, d1 > 0 and
    d4 - |m41|^2 / d1 > 0 for d_i = Re m_ii + TOL_STRUCTURAL.  Real steps, rounded per
    entry, give a state the same bits in any stack; only a failing state overflows."""
    d = e[..., :4].real + TOL_STRUCTURAL
    with np.errstate(all="ignore"):
        s = np.sqrt(d[..., :2])
        return (d[..., 2:] - (e[..., 4:].real / s) ** 2 - (e[..., 4:].imag / s) ** 2 > 0.0).all(-1)


def _blocks(a: np.ndarray) -> list:
    """Views of a stack: one under 2 * _BLOCK states, else _BLOCK states each but a shorter last."""
    return [a] if len(a) < 2 * _BLOCK else [a[s : s + _BLOCK] for s in range(0, len(a), _BLOCK)]


def _psd_min_eigenvalues(m: np.ndarray):
    """None when ``m``, one state or a stack, passes the PSD check, else the
    minimum eigenvalue of each state's Hermitian part (NaN for a non-finite state).

    A finite input passes at once when every state shifted by TOL_STRUCTURAL * I is positive
    definite, as it is exactly when its minimum eigenvalue exceeds -TOL_STRUCTURAL, up to
    rounding at the threshold.  An X state (no nonzero entry off the diagonal and the
    anti-diagonal) is decided by its 2x2 blocks (:func:`_x_blocks_pd`), any other by a
    stacked Cholesky factor, both from the lower triangle, in blocks of :data:`_BLOCK`
    states: one pass's verdict, in working memory that does not grow with the stack.  Only a
    failing input pays for :func:`state_health`'s spectra; in a stack, each state they
    reject is asked alone, up to the first that fails alone, and one that passes reads +inf:
    one verdict per state, in any stack or guard.
    """
    for f in _blocks(m.reshape(-1, 16)):
        if not np.isfinite(f).all():
            break
        x = f[:, 1] == 0  # a nonzero m12 rules a state out, at an eighth of the cost
        if x.any():
            x &= ~f[:, _OFF_X].any(-1)
        other = f[~x] if x.any() else f
        if not (other is f or (_x_blocks_pd(f[:, _X_LOWER]) | ~x).all()):
            break
        try:
            if other.size:
                np.linalg.cholesky(other.reshape(-1, 4, 4) + TOL_STRUCTURAL * IDENTITY_4)
        except np.linalg.LinAlgError:
            break
    else:
        return None
    min_eig = state_health(m)[2][..., 0]
    if m.ndim > 2:
        for i in zip(*np.nonzero(~(min_eig >= -TOL_STRUCTURAL))):
            alone = _psd_min_eigenvalues(m[i])
            if alone is not None and not alone >= -TOL_STRUCTURAL:
                break
            min_eig[i] = np.inf
    return min_eig


def _psd_check(m, measure=np.asarray, measure_x=None) -> np.ndarray:
    """``measure(h)`` of the Hermitian part h of ``m``, one state or a stack of shape
    S + (4, 4), in shape S + the measure's own (by default h).  ``measure_x`` (if given)
    takes h11, h22, h44, h33, h14, h23 instead when no entry off the X pattern is nonzero.
    Raises ``InvalidStateError`` for any other shape, ``NotHermitianError`` for a defect
    max|m - m^H| above TOL_STRUCTURAL, ``NotPSDError`` when :func:`_psd_min_eigenvalues`
    rejects ``m``, each naming the whole input's extreme.  Blocks give one pass's bits."""
    m = _as_states(m)
    # views of m as it is laid out: the factor's rounding follows the layout
    blocks = _blocks(m.reshape(-1, 4, 4))
    x = measure_x is not None and not any(s.reshape(-1, 16)[:, _OFF_X].any() for s in blocks)

    def pair(s):  # a block's entries that h halves, and the conjugates of their transposes
        f = s.reshape(-1, 16)
        return (f[:, _X_UPPER], f[:, _X_LOWER].conj()) if x else (s, dag(s))
    # off-X entries, all 0 on the X path, add nothing to the defect or to h: the same bits
    defect, x_pd = 0.0, x
    # inf - inf and overflow make the defect NaN or inf, which fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        for s in blocks:
            held = a, c = pair(s)
            defect = abs(a - c).max(initial=defect)
            x_pd = x_pd and _x_blocks_pd(c).all()
    if not defect <= TOL_STRUCTURAL:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {TOL_STRUCTURAL:.1e}")
    min_eig = None if x_pd else _psd_min_eigenvalues(m)
    if min_eig is not None and not min_eig.min() >= -TOL_STRUCTURAL:
        raise NotPSDError(f"minimum eigenvalue {min_eig.min():.3e} below -{TOL_STRUCTURAL:.1e}")
    for i, s in enumerate(blocks):
        a, c = held if len(blocks) == 1 else pair(s)
        h = 0.5 * a
        h += 0.5 * c
        held = a = c = None  # free the block's copies before it is measured
        r = np.asarray((measure_x if x else measure)(h if m.ndim > 2 else h[0]))
        if len(blocks) == 1:
            return r.reshape(m.shape[:-2] + r.shape[m.ndim > 2 :])
        out = np.empty((m.size // 16,) + r.shape[1:], r.dtype) if i == 0 else out
        out[i * _BLOCK : i * _BLOCK + len(r)] = r
    return out.reshape(m.shape[:-2] + out.shape[1:])


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


def validate_state(m: np.ndarray) -> np.ndarray:
    """Check the three density-matrix invariants at TOL_STRUCTURAL and return the matrix.

    Raises ``InvalidStateError`` naming every violated invariant (hermiticity,
    unit trace, positivity) with its magnitude, the non-finite entries or the shape.
    """
    m = _as_states(m, stack=False)
    defect, trace_defect, spectrum = state_health(m)
    measured = {"hermiticity": defect, "trace": trace_defect, "positivity": -spectrum[0]}
    violations = {k: float(v) for k, v in measured.items() if not v <= TOL_STRUCTURAL}
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
