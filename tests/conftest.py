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
