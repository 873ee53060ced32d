import numpy as np
import pytest

from twoatom import qmat
from twoatom.states import bell, mes, product_state, werner


#: Pauli matrix sigma_2, and sigma_2 x sigma_2, the spin-flip sandwich of
#: Wootters' definition (PRL 80, 2245 (1998))
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SPIN_FLIP_OP = np.kron(SIGMA_2, SIGMA_2)


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """Spin-flipped state (sigma2 x sigma2) conj(rho) (sigma2 x sigma2)."""
    return SPIN_FLIP_OP @ np.asarray(rho, dtype=complex).conj() @ SPIN_FLIP_OP


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def state_defect(m) -> float:
    """The largest of the hermiticity defect, the trace defect and minus the least
    eigenvalue over a state or a stack (qmat.state_health; NaN for a non-finite entry),
    so ``state_defect(m) <= atol`` checks validate_state's invariants at slack atol."""
    defect, trace, spectrum = qmat.state_health(m)
    return float(np.max([defect, trace, -spectrum[..., 0]]))


def random_states(seed: int, n: int):
    """Seeded full-rank Gaussian-ensemble states, reproducible across tests."""
    gen = np.random.default_rng(seed)
    return [qmat.random_density_matrix(gen) for _ in range(n)]


def cholesky_passes(m) -> bool:
    """The PSD verdict by one Cholesky factor of m + TOL_STRUCTURAL I."""
    try:
        np.linalg.cholesky(m + qmat.TOL_STRUCTURAL * qmat.IDENTITY_4)
    except np.linalg.LinAlgError:
        return False
    return True


def _unit_trace(w):
    """The weights ``w`` with the positive ones scaled so that each row sums to 1."""
    pos = np.where(w > 0, w, 0.0)
    scale = (1.0 - (w - pos).sum(-1)) / pos.sum(-1)
    return w - pos + pos * scale[:, None]


def threshold_states(seed: int, n: int, spread: float = 1e-6, unit: bool = False):
    """U diag(w) U^H with w_4 = -TOL_STRUCTURAL (1 +- spread): at the PSD threshold.
    With ``unit``, w_1..w_3 are scaled to sum to 1 - w_4, so each state has unit trace."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4)))
    w = np.empty((n, 4))
    w[:, :3] = rng.uniform(0.1, 1.0, (n, 3))
    w[:, 3] = -qmat.TOL_STRUCTURAL * (1.0 + rng.uniform(-spread, spread, n))
    w = _unit_trace(w) if unit else w
    return (u * w[:, None, :]) @ qmat.dag(u)


def x_threshold_states(seed: int, n: int, spread: float = 1e-6, unit: bool = False):
    """X states whose blocks {1,4} and {2,3} are V diag(w) V^H for Haar-random
    2x2 unitaries V, one eigenvalue of a random block -TOL_STRUCTURAL (1 +- spread).
    With ``unit``, the other three eigenvalues are scaled to unit trace."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, (n, 2, 2))
    w[np.arange(n), rng.integers(0, 2, n), 1] = -qmat.TOL_STRUCTURAL * (
        1.0 + rng.uniform(-spread, spread, n)
    )
    w = _unit_trace(w.reshape(n, 4)).reshape(n, 2, 2) if unit else w
    v, _ = np.linalg.qr(rng.standard_normal((n, 2, 2, 2)) + 1j * rng.standard_normal((n, 2, 2, 2)))
    blocks = (v * w[..., None, :]) @ qmat.dag(v)
    m = np.zeros((n, 4, 4), dtype=complex)
    m[:, [[0], [3]], [0, 3]] = blocks[:, 0]
    m[:, [[1], [2]], [1, 2]] = blocks[:, 1]
    return m


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


#: the starts of the accuracy pins of RK4 and of the closed form
ORACLE_STARTS = [
    random_states(211, 1)[0], random_pure_state(np.random.default_rng(212)), werner(0.7),
    mes(0.3, 0.4, 1.9), product_state(qmat.EXCITED, qmat.GROUND), bell("psi_minus"),
]
