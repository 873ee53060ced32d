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

import numpy as np

# Structural tolerances (hermiticity / trace / positivity of states) and the
# looser algebraic tolerance (matrix square roots etc.).  Functions take these
# as defaults so tests can override.
TOL_STRUCTURAL = 1e-9
TOL_ALGEBRAIC = 1e-8

#: single-atom basis kets, |1> excited, |0> ground
EXCITED = np.array([1.0, 0.0], dtype=complex)
GROUND = np.array([0.0, 1.0], dtype=complex)

#: Pauli matrices needed for raising/lowering and the spin flip
SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

#: sigma_plus = |1><0|, sigma_minus = |0><1| = (sigma_1 -+ i sigma_2)/2
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)


class NotHermitianError(ValueError):
    """Raised when a Hermitian matrix was expected."""


class NotPSDError(ValueError):
    """Raised when a positive semidefinite matrix was expected."""


class InvalidStateError(ValueError):
    """A matrix failed the density-matrix invariants.

    ``violations`` maps each failed invariant name (``"hermiticity"``,
    ``"trace"``, ``"positivity"``) to the measured violation magnitude.
    """

    def __init__(self, violations: dict[str, float]):
        self.violations = violations
        detail = ", ".join(f"{k}={v:.3e}" for k, v in violations.items())
        super().__init__(f"not a valid density matrix: {detail}")


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in the fixed basis order (atom A slot first)."""
    return np.kron(a, b)


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


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.abs(m - dag(m)).max())


def hermitian_eigenvalues(m: np.ndarray, tol: float = TOL_STRUCTURAL) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, sorted descending.

    Raises ``NotHermitianError`` if ``m`` is not Hermitian within ``tol``.
    """
    m = np.asarray(m, dtype=complex)
    defect = _hermiticity_defect(m)
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    return np.linalg.eigvalsh(0.5 * (m + dag(m)))[::-1]


def sqrt_psd(m: np.ndarray, tol: float = TOL_STRUCTURAL) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix, or of each in a stack.

    Eigenvalues in [-tol, 0) are clamped to zero (floating-point noise on
    PSD matrices); anything below -tol raises ``NotPSDError``.
    """
    m = np.asarray(m, dtype=complex)
    defect = _hermiticity_defect(m)
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    w, v = np.linalg.eigh(0.5 * (m + dag(m)))
    min_eig = w[..., 0].min()
    if min_eig < -tol:
        raise NotPSDError(f"minimum eigenvalue {min_eig:.3e} below -{tol:.1e}")
    w = np.where(w < 0.0, 0.0, w)
    s = (v * np.sqrt(w)[..., None, :]) @ dag(v)
    return 0.5 * (s + dag(s))


def validate_state(m: np.ndarray, atol: float = TOL_STRUCTURAL) -> np.ndarray:
    """Check the three density-matrix invariants and return the matrix.

    Raises ``InvalidStateError`` listing every violated invariant
    (hermiticity, unit trace, positivity) with its magnitude.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise InvalidStateError({"shape": float(m.size)})
    violations: dict[str, float] = {}
    defect = _hermiticity_defect(m)
    if defect > atol:
        violations["hermiticity"] = defect
    trace_defect = abs(np.trace(m) - 1.0)
    if trace_defect > atol:
        violations["trace"] = float(trace_defect)
    min_eig = float(np.linalg.eigvalsh(0.5 * (m + dag(m)))[0])
    if min_eig < -atol:
        violations["positivity"] = -min_eig
    if violations:
        raise InvalidStateError(violations)
    return m


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state rho = G G^dag / tr(G G^dag), G complex Gaussian."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ dag(g)
    return rho / np.trace(rho).real


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    """Rank-1 random state from a normalized complex Gaussian vector."""
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_qubit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_single_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR with phase fix."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
